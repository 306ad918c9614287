"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every expected value is either a hand-worked reference value for these
models or computed by an independent oracle named in the check.
Sub-checks run to completion so a single miss reports precisely.
"""

import json
import math
from fractions import Fraction

from hamdirac import (
    Expr,
    build_chart,
    parse_expr,
    poisson,
    verify_chart,
)
from hamdirac.cli import main as cli_main
from hamdirac.linalg import rank

from conftest import (
    L1_SRC,
    L2_SRC,
    L3_SRC,
    L4_SRC,
    analyzed,
    chart_matrix,
    chart_phase,
    expr_kernel,
    random_poly,
    rng_for,
    weak_reducer,
)
from test_sysfile_cli import fixture


def run_criterion(label, checks):
    failures = []
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
        except Exception as exc:  # pragma: no cover - diagnostics
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    status = "PASS" if not failures else "FAIL"
    print(f"{status}  {label}")
    for f in failures:
        print(f"      - {f}")
    assert not failures, f"{label}: {len(failures)} sub-check(s) failed: {failures}"


def span_rank(phase, exprs):
    z = phase.z_order()
    if not exprs:
        return 0
    return rank([[e.diff(s) for s in z] for e in exprs])


def same_span(phase, a, b):
    return span_rank(phase, a) == span_rank(phase, b) == span_rank(phase, a + b)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_cawley():
    t, fos, res = analyzed(L1_SRC, ["q1", "q2", "q3"])
    checks = []
    gens = {g: [c.expr for c in res.constraints if c.generation == g] for g in (1, 2, 3)}
    checks.append(("primary is exactly p2", lambda: _assert(gens[1] == [parse_expr("p2", t)])))
    checks.append(("secondary is exactly q3", lambda: _assert(gens[2] == [parse_expr("q3", t)])))
    checks.append(("tertiary is exactly p1", lambda: _assert(gens[3] == [parse_expr("p1", t)])))
    checks.append(
        (
            "irreducibility reduction of (q3)^2/2 is flagged",
            lambda: _assert(any("irreducibility" in f and "q3" in f for f in res.flags), res.flags),
        )
    )
    checks.append(("all three first-class", lambda: _assert(res.F == 3 and res.S == 0)))
    checks.append(("no physical degrees of freedom", lambda: _assert(res.dof == 0)))

    from hamdirac import frobenius_check

    fr = frobenius_check(res)
    checks.append(("Frobenius condition holds", lambda: _assert(fr.verdict and all(e.is_zero() for _n, e in fr.residuals))))
    checks.append(
        (
            "first-class span matches the constraint span exactly",
            lambda: _assert(same_span(fos.phase, [r.expr for r in res.first_class], [c.expr for c in res.constraints])),
        )
    )
    run_criterion("criterion 1: Cawley chain p2 -> q3 -> p1, first-class, dof 0", checks)


def _assert(cond, detail=""):
    assert cond, detail


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_l2():
    t, fos, res = analyzed(L2_SRC, ["q1", "q2"])
    checks = []
    checks.append(("two primaries, no secondaries", lambda: _assert(len(res.constraints) == 2)))
    br = poisson(res.constraints[0].expr, res.constraints[1].expr, fos.phase)
    checks.append(("primary bracket is exactly 2", lambda: _assert(br == Expr.const(t, 2), str(br))))
    sols = {z.name: v for z, v in res.multiplier_solutions.items()}
    checks.append(("zeta1 = -q2 exactly", lambda: _assert(sols.get("zeta1") == parse_expr("-q2", t))))
    checks.append(("zeta2 = q1 exactly", lambda: _assert(sols.get("zeta2") == parse_expr("q1", t))))
    checks.append(("both second-class, dof 1", lambda: _assert(res.F == 0 and res.S == 2 and res.dof == 1)))

    # the sqrt2-normalized chart for this model, float-verified: S = M/sqrt2
    # with M an integer matrix, rows over (q1, q2, p1, p2)
    m = [
        [0, 1, 1, 0],  # ThU = (p1 + q2)/sqrt2
        [1, 0, 0, 1],  # Q   = (q1 + p2)/sqrt2
        [-1, 0, 0, 1],  # ThD = (p2 - q1)/sqrt2
        [0, -1, 1, 0],  # P   = (p1 - q2)/sqrt2
    ]
    s = 1.0 / math.sqrt(2.0)
    matrix = [[s * x for x in row] for row in m]

    def chart_verifies():
        ok, _v, dev = verify_chart(matrix, mode="float", tol=1e-12)
        _assert(ok, f"max deviation {dev}")

    checks.append(("sqrt2 chart satisfies S^T J S = J to 1e-12", chart_verifies))

    # exactly: S^-1 = -J S^T J = M'/sqrt2 with M' = -J M^T J, and H_T is a
    # homogeneous quadratic, so H_T(S^-1 y) = H_T(M' y)/2
    ht = res.total_hamiltonian()
    jay = lambda i, k: (k == i + 2) - (i == k + 2)
    m_inv = [[-sum(jay(i, a) * m[b][a] * jay(b, k) for a in range(4) for b in range(4)) for k in range(4)] for i in range(4)]
    y = [Expr.sym(t, t.position(name)) for name in ("ThU1", "Q1", "ThD1", "P1")]
    subs = {
        z: sum((Expr.const(t, c) * yk for c, yk in zip(row, y)), Expr.const(t, 0))
        for z, row in zip(fos.phase.z_order(), m_inv)
    }
    got = ht.substitute(subs) * Expr.const(t, Fraction(1, 2))

    def transformed_ht():
        want = parse_expr("(1/2)*P1^2 + (1/2)*Q1^2 - (1/2)*ThU1^2 - (1/2)*ThD1^2", t)
        _assert(got == want, got)

    checks.append(("transformed H_T = P^2/2 + Q^2/2 - ThU^2/2 - ThD^2/2 term-by-term", transformed_ht))

    def pullback_form():
        # under that chart: L_T = P Qdot - H_T|Theta->eps; the Theta part is
        # pure squares, i.e. an additive constant, leaving P Qdot - Q^2/2 - P^2/2
        Q, P = t["Q1"].index, t["P1"].index
        surviving = {m: Fraction(v, got.den[()]) for m, v in got.num.items() if all(i in (Q, P) for i, _e in m)}
        theta_part = [m for m in got.num if any(i not in (Q, P) for i, _e in m)]
        _assert(surviving == {((Q, 2),): Fraction(1, 2), ((P, 2),): Fraction(1, 2)}, surviving)
        for m in theta_part:
            _assert(all(e == 2 for _i, e in m), f"non-constant Theta term {m}")

    checks.append(("pullback = P1 Qdot1 - Q1^2/2 - P1^2/2 + constant", pullback_form))
    run_criterion("criterion 2: second-class pair, multipliers, sqrt2-chart H_T", checks)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_l3(tmp_path):
    t, fos, res = analyzed(L3_SRC, ["q1", "q2", "q3", "q4"])
    checks = []
    gens = {g: [c.expr for c in res.constraints if c.generation == g] for g in (1, 2)}
    printed1 = [parse_expr("p1 - (1/2)*(p2 - p3 + p4)", t), parse_expr("(1/3)*(p1 + p2 - p3 + p4)", t)]
    printed2 = [parse_expr("p3", t), parse_expr("(1/3)*p3 + q1 + q2 + q4", t)]
    checks.append(("primary chain span as printed", lambda: _assert(same_span(fos.phase, gens[1], printed1))))
    checks.append(("secondary chain span as printed", lambda: _assert(same_span(fos.phase, gens[2], printed2))))
    checks.append(("2 first + 2 second, dof 1", lambda: _assert((res.F, res.S, res.dof) == (2, 2, 1))))
    fc_span = [parse_expr("p1 - (1/2)*(p2 - p3 + p4)", t), parse_expr("p3", t)]
    checks.append(
        ("first-class representatives span as printed", lambda: _assert(same_span(fos.phase, [r.expr for r in res.first_class], fc_span)))
    )

    def multipliers():
        _assert([z.name for z in res.free_multipliers] == ["zeta1"], "zeta1 must stay free")
        (z2, val), = res.multiplier_solutions.items()
        _assert(z2.name == "zeta2")
        delta = val - parse_expr("-p4", t)
        red = weak_reducer([c.expr for c in res.constraints], fos.phase).reduce(delta)
        _assert(red.is_zero(), f"zeta2 = {val} is not weakly -p4 (residue {red})")

    checks.append(("zeta2 ~ -p4 solved, zeta1 free", multipliers))

    # boundary prescriptions via the shipped fixture, whose [chart] section
    # pins the gauge-coordinate names these checks use
    def tilde_report():
        out_file = tmp_path / "l3_tilde.json"
        rc = cli_main(["report", fixture("l3.sys"), "--out", str(out_file)])
        _assert(rc == 0)
        out = json.loads(out_file.read_text())
        _assert(out["embedding"]["kind"] == "sigma3_tilde")
        b = out["boundary"]
        _assert(b["fix_both_ends"] == ["Q1"], b)
        _assert(b["fix_initial_only"] == ["Xi2"], b)
        _assert(b["never_fix"] == ["Xi1"], b)
        _assert(out["integral_constants"]["occupied"] == 4 and out["integral_constants"]["total"] == 8)

    checks.append(("sigma3~ report: fix Q1 both ends, Xi2 at t1, never Xi1; 4 of 8", tilde_report))

    def gauged_report():
        out_file = tmp_path / "l3_gauged.json"
        rc = cli_main(["report", fixture("l3.sys"), "--gauge-fixing", "zeta1=-P1", "--out", str(out_file)])
        _assert(rc == 0)
        out = json.loads(out_file.read_text())
        _assert(out["embedding"]["kind"] == "sigma3")
        b = out["boundary"]
        _assert(b["fix_both_ends"] == ["Q1"] and not b["fix_initial_only"] and not b["never_fix"], b)
        _assert(out["integral_constants"]["occupied"] == 6 and out["integral_constants"]["total"] == 8)

    checks.append(("sigma3 with zeta1=-P1: fix Q1 both ends only; 6 of 8", gauged_report))
    run_criterion("criterion 3: mixed system chains, multipliers, boundary data", checks)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_l4_both_paths():
    checks = []
    t, fos, res = analyzed(L4_SRC, ["q"], order=2, path="ssok")
    checks.append(("SSOK: two second-class constraints", lambda: _assert((res.F, res.S) == (0, 2))))
    br = poisson(res.constraints[0].expr, res.constraints[1].expr, fos.phase)
    checks.append(("SSOK: bracket exactly -1", lambda: _assert(br == Expr.const(t, -1), str(br))))

    def ssok_multiplier_as_stated():
        # stated value: zeta ~ +Q_(1).  The consistency algebra forces -Q_(1)
        # (see the decisions ledger); this check is kept as stated and red.
        (z, val), = res.multiplier_solutions.items()
        q1 = Expr.sym(t, t["Q1_q"])
        delta = val - q1
        red = weak_reducer([c.expr for c in res.constraints], fos.phase).reduce(delta)
        _assert(red.is_zero(), f"solved multiplier is {val}, not weakly Q_(1) (residue {red})")

    checks.append(("SSOK: zeta ~ Q_(1) as stated", ssok_multiplier_as_stated))

    def ssok_consistency_invariant():
        # the solved multiplier must actually close the consistency algebra
        ht = res.total_hamiltonian()
        reducer = weak_reducer([c.expr for c in res.constraints], fos.phase)
        for c in res.constraints:
            r = reducer.reduce(poisson(c.expr, ht, fos.phase))
            _assert(r.is_zero(), f"{c.name} consistency residue {r}")

    checks.append(("SSOK: solved multiplier closes every consistency condition", ssok_consistency_invariant))
    checks.append(("SSOK: dof 1", lambda: _assert(res.dof == 1)))

    def ssok_oscillator():
        from hamdirac import transform

        ch = build_chart(res)
        tr = transform(res.total_hamiltonian(), ch)
        zero = {r.symbol: Expr.const(t, 0) for r in ch.rows if r.role not in ("Q", "P")}
        phys = tr.substitute(zero)
        want = parse_expr("(1/2)*Q1^2 + (1/2)*P1^2", t)
        _assert(phys == want, str(phys))

    checks.append(("SSOK: reduced block is the unit oscillator", ssok_oscillator))

    t2, fos2, res2 = analyzed(L4_SRC, ["q"], order=2, path="pons")
    checks.append(("Pons: four second-class constraints", lambda: _assert((res2.F, res2.S) == (0, 4))))

    def pons_multipliers():
        sols = {z.name: v for z, v in res2.multiplier_solutions.items()}
        reducer = weak_reducer([c.expr for c in res2.constraints], fos2.phase)
        for name, text in (("zeta1", "x1"), ("zeta2", "-q"), ("zeta3", "(1/2)*q")):
            delta = sols[name] - parse_expr(text, t2)
            _assert(reducer.reduce(delta).is_zero(), f"{name} != {text} weakly")

    checks.append(("Pons: zeta1 ~ x, zeta2 ~ -q, zeta3 ~ q/2", pons_multipliers))
    checks.append(("Pons: dof 1", lambda: _assert(res2.dof == 1)))

    def pons_oscillator():
        from hamdirac import transform

        ch = build_chart(res2)
        tr = transform(res2.total_hamiltonian(), ch)
        zero = {r.symbol: Expr.const(t2, 0) for r in ch.rows if r.role not in ("Q", "P")}
        phys = tr.substitute(zero)
        want = parse_expr("(1/2)*Q1^2 + (1/2)*P1^2", t2)
        _assert(phys == want, str(phys))

    checks.append(("Pons: reduced block is the unit oscillator", pons_oscillator))

    def counterterm():
        from hamdirac import counter_term
        from conftest import make_system

        sys4 = make_system(L4_SRC, ["q"], order=2)
        w, red = counter_term(sys4)
        _assert(w == parse_expr("(1/2)*q*d(q)", sys4.table), str(w))
        _assert(red.L == parse_expr("(1/2)*d(q)^2 - (1/2)*q^2", sys4.table), str(red.L))

    checks.append(("counter-term: W = q qdot / 2 and L' = qdot^2/2 - q^2/2 exactly", counterterm))
    run_criterion("criterion 4: second-order system via both reductions", checks)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_iota():
    from hamdirac import SingularShooting, compile_field, integrate, solve_iota
    from hamdirac import SymbolTable

    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    field = compile_field(parse_expr("(1/2)*Q^2 + (1/2)*P^2", t), [(q, p)])
    checks = []

    def constants():
        sol = solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, math.pi / 2, step=1e-3)
        # closed form: A = (Q1 e^{i t2} - Q2 e^{i t1}) / (2 i sin(t2 - t1))
        s = math.sin(math.pi / 2)
        a_closed = complex(1.0 * complex(math.cos(math.pi / 2), math.sin(math.pi / 2)) - 0.0) / complex(0, 2 * s)
        _assert(abs(sol.constants["A"] - 0.5) < 1e-9, sol.constants)
        _assert(abs(sol.constants["B"] - 0.5) < 1e-9, sol.constants)
        _assert(abs(sol.constants["A"] - a_closed.real) < 1e-9)
        # shooting agrees with the closed form's velocity at t1
        _assert(abs(sol.initial_state[1] - 0.0) < 1e-9)

    checks.append(("A = B = 1/2 within 1e-9 against the closed form", constants))

    def round_trip():
        rng = rng_for("acceptance-iota")
        for _ in range(3):
            qa, qb = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            sol = solve_iota(field, {"Q": (qa, qb)}, 0.0, 2.0, step=1e-3)
            redo = integrate(field, sol.initial_state, 0.0, 2.0, 1e-3)
            _assert(abs(redo.state(0)[0] - qa) < 1e-9)
            _assert(abs(redo.state(-1)[0] - qb) < 1e-9)

    checks.append(("iota round trip reproduces both boundary values to 1e-9", round_trip))

    def singular():
        try:
            solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, math.pi, step=1e-3)
        except SingularShooting:
            return
        raise AssertionError("resonant interval t2 - t1 = pi was not rejected")

    checks.append(("interval t2 - t1 = pi rejected (sin pole)", singular))
    run_criterion("criterion 5: endpoint map solved numerically", checks)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_property_suites():
    checks = []

    def jacobi_suite():
        from hamdirac import SymbolTable
        from hamdirac.lagrangian import PhaseSpace

        t = SymbolTable()
        qs = [t.position(n) for n in ("q1", "q2")]
        ps = [t.register(n, "momentum") for n in ("p1", "p2")]
        phase = PhaseSpace(t, tuple(zip(qs, ps)))
        syms = [s for pair in phase.pairs for s in pair]
        rng = rng_for("acceptance-jacobi")
        for _ in range(200):
            f = random_poly(t, syms, rng, max_degree=3, terms=3)
            g = random_poly(t, syms, rng, max_degree=3, terms=3)
            h = random_poly(t, syms, rng, max_degree=3, terms=3)
            _assert(poisson(f, g, phase) == -poisson(g, f, phase))
            _assert(poisson(f * g, h, phase) == f * poisson(g, h, phase) + poisson(f, h, phase) * g)
            jac = (
                poisson(f, poisson(g, h, phase), phase)
                + poisson(g, poisson(h, f, phase), phase)
                + poisson(h, poisson(f, g, phase), phase)
            )
            _assert(jac.is_zero())

    checks.append(("Poisson antisymmetry, Leibniz, Jacobi exact on 200 random triples", jacobi_suite))

    def all_charts_exact():
        cases = [
            (L1_SRC, ["q1", "q2", "q3"], 1, None),
            (L2_SRC, ["q1", "q2"], 1, None),
            (L3_SRC, ["q1", "q2", "q3", "q4"], 1, None),
            (L4_SRC, ["q"], 2, "ssok"),
            (L4_SRC, ["q"], 2, "pons"),
        ]
        for src, names, order, path in cases:
            t, fos, res = analyzed(src, names, order=order, path=path)
            ch = build_chart(res)
            ok, violations, _ = verify_chart(chart_matrix(ch), mode="exact")
            _assert(ok, (src, violations[:2]))

    checks.append(("every emitted chart satisfies S^T J S = J exactly", all_charts_exact))

    def transform_brackets():
        from hamdirac import transform

        t, fos, res = analyzed(L2_SRC, ["q1", "q2"])
        ch = build_chart(res)
        cp = chart_phase(ch)
        z = fos.phase.z_order()
        rng = rng_for("acceptance-transform")
        for _ in range(100):
            f = random_poly(t, z, rng, max_degree=2, terms=3)
            g = random_poly(t, z, rng, max_degree=2, terms=3)
            _assert(transform(poisson(f, g, fos.phase), ch) == poisson(transform(f, ch), transform(g, ch), cp))

    checks.append(("transform preserves brackets on 100 random pairs", transform_brackets))

    def rank_nullity():
        from hamdirac import SymbolTable, rank as rank_fn

        t = SymbolTable()
        rng = rng_for("acceptance-rank")
        for _ in range(100):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = [[Expr.const(t, Fraction(rng.randint(-3, 3))) for _ in range(cols)] for _ in range(rows)]
            _assert(rank_fn(m) + len(expr_kernel(m, cols)) == cols)

    checks.append(("rank-nullity on 100 random matrices up to 8x8", rank_nullity))

    def drift():
        from hamdirac import SymbolTable, compile_field, integrate

        t = SymbolTable()
        q = t.position("Q")
        p = t.register("P", "momentum")
        field = compile_field(parse_expr("(1/2)*Q^2 + (1/2)*P^2", t), [(q, p)])
        traj = integrate(field, (1.0, 0.0), 0.0, 200 * math.pi, 1e-3)
        e0 = traj.energies[0]
        d = max(abs(e - e0) for e in traj.energies) / abs(e0)
        _assert(d < 1e-6, f"relative drift {d}")

    checks.append(("RK4 oscillator energy drift < 1e-6 over 100 periods", drift))
    run_criterion("criterion 6: property suites", checks)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    checks = []

    def deterministic():
        for name in ("cawley.sys", "l2.sys", "l3.sys", "l4.sys"):
            a = tmp_path / f"{name}.a.json"
            b = tmp_path / f"{name}.b.json"
            _assert(cli_main(["report", fixture(name), "--out", str(a)]) == 0)
            _assert(cli_main(["report", fixture(name), "--out", str(b)]) == 0)
            _assert(a.read_bytes() == b.read_bytes(), f"{name} reports differ")

    checks.append(("report byte-identical across two runs for every fixture", deterministic))
    run_criterion("criterion 7: deterministic reports", checks)


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    for fn, needs_tmp in (
        (test_criterion_1_cawley, False),
        (test_criterion_2_l2, False),
        (test_criterion_3_l3, True),
        (test_criterion_4_l4_both_paths, False),
        (test_criterion_5_iota, False),
        (test_criterion_6_property_suites, False),
        (test_criterion_7_determinism, True),
    ):
        try:
            if needs_tmp:
                with tempfile.TemporaryDirectory() as td:
                    fn(Path(td))
            else:
                fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
