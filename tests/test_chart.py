import math
from fractions import Fraction
from importlib import resources

import pytest

from hamdirac import (
    build_chart,
    frobenius_check,
    parse_expr,
    poisson,
    qq,
    transform,
    verify_chart,
)
from hamdirac.chart import CanonicalChart, ChartError, ChartRow, _bracket_deviations
from hamdirac.expr import Expr
from hamdirac.lagrangian import UnsupportedShape

from conftest import (
    FAMILY_RATIONALS,
    L3_SRC,
    analyzed,
    chart_matrix,
    chart_offsets,
    chart_phase,
    dense_solve,
    l3_family,
    linear_form,
    random_poly,
    rng_for,
    sympy_rank,
)


ALL = ["l1", "l2", "l3", "l4_ssok", "l4_pons"]


@pytest.fixture
def charts(l1, l2, l3, l4_ssok, l4_pons):
    out = {}
    for name, trip in zip(ALL, (l1, l2, l3, l4_ssok, l4_pons)):
        t, fos, res = trip
        out[name] = (t, fos, res, build_chart(res))
    return out


def test_every_built_chart_is_exactly_symplectic(charts):
    for name, (t, fos, res, ch) in charts.items():
        ok, violations, _ = verify_chart(chart_matrix(ch), mode="exact")
        assert ok, (name, violations[:3])
        assert ch.notes == ()


def test_bracket_table_matches_canonical_pattern(charts):
    for name, (t, fos, res, ch) in charts.items():
        n = ch.n
        exprs = [r.expr(t, fos.phase) for r in ch.rows]
        for i in range(2 * n):
            for j in range(2 * n):
                want = 1 if j == i + n else (-1 if i == j + n else 0)
                got = poisson(exprs[i], exprs[j], fos.phase)
                assert got == Expr.const(t, want), (name, ch.rows[i].name, ch.rows[j].name)


def test_row_spans_match_classification(charts):
    from hamdirac.linalg import rank

    for name, (t, fos, res, ch) in charts.items():
        z = fos.phase.z_order()

        def span_rank(exprs):
            return rank([[e.diff(s) for s in z] for e in exprs]) if exprs else 0

        psi = [r.expr(t, fos.phase) for _xi, r in ch.pairs("Xi")]
        fc = [rep.expr for rep in res.first_class]
        assert span_rank(psi) == span_rank(fc) == span_rank(psi + fc)
        theta = [r.expr(t, fos.phase) for pair in ch.pairs("ThU") for r in pair]
        cons = [c.expr for c in res.constraints]
        assert span_rank(psi + theta) == span_rank(cons) == span_rank(psi + theta + cons)


def test_verify_chart_identity():
    eye = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    ok, violations, dev = verify_chart(eye, mode="exact")
    assert ok and not violations


def test_verify_chart_supplied_l3_exact(l3):
    t, fos, res = l3
    rows_text = {
        "Xi1": "2*q1 + (2/3)*p3 - q2 - q4",
        "ThU1": "(1/3)*p3 + q1 + q2 + q4",
        "Q1": "q2 - q4",
        "Psi1": "(1/3)*p1 - (1/6)*(p2 - p3 + p4)",
        "ThD1": "(1/3)*(p1 + p2 - p3 + p4)",
        "P1": "(1/2)*(p2 - p3 - p4)",
        "Xi2": "q3 + (1/3)*p1 + q2",
        "Psi2": "p3",
    }
    z = fos.phase.z_order()
    matrix = []
    for name in ("Xi1", "Xi2", "ThU1", "Q1", "Psi1", "Psi2", "ThD1", "P1"):
        coeffs, _off = linear_form(parse_expr(rows_text[name], t), z)
        matrix.append(coeffs)
    ok, violations, _ = verify_chart(matrix, mode="exact")
    assert ok, violations[:4]


def test_verify_chart_flags_broken_pairing():
    # flipping the sign of one momentum row breaks exactly its pairing
    eye = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    eye[2] = [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)]
    ok, violations, _ = verify_chart(eye, mode="exact")
    assert not ok
    assert any({i, j} == {0, 2} for i, j, _ in violations)


def verify_chart_exact_loop(matrix):
    """verify_chart's exact mode as the product loop: J S, then S^T (J S) - J."""
    dim = len(matrix)
    n = dim // 2
    s = [[Fraction(x) for x in row] for row in matrix]
    j = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        j[i][n + i] = Fraction(1)
        j[n + i][i] = Fraction(-1)
    js = [[s[a - n][k] if a >= n else Fraction(0) for k in range(dim)] for a in range(dim)]
    for i in range(n):
        for k in range(dim):
            js[i][k] = s[n + i][k]
            js[n + i][k] = -s[i][k]
    violations = []
    for i in range(dim):
        for k in range(dim):
            acc = Fraction(0)
            for a in range(dim):
                if s[a][i]:
                    acc += s[a][i] * js[a][k]
            delta = acc - j[i][k]
            if delta:
                violations.append((i, k, delta))
    return (not violations), violations, max((abs(d) for _, _, d in violations), default=Fraction(0))


def random_symplectic(rng, n):
    """A product of elementary symplectic maps with small rational parameters:
    the shears q_i += c p_i and p_i += c q_i, and q_i += c q_j with p_j -= c p_i."""
    dim = 2 * n
    s = [[Fraction(int(i == k)) for k in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(1, 3 * n)):
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            s[i] = [x + c * y for x, y in zip(s[i], s[n + i])]
        elif kind == 1:
            s[n + i] = [x + c * y for x, y in zip(s[n + i], s[i])]
        elif i != j:
            s[i] = [x + c * y for x, y in zip(s[i], s[j])]
            s[n + j] = [x - c * y for x, y in zip(s[n + j], s[n + i])]
    return s


def test_verify_chart_exact_matches_product_loop():
    # seeded symplectic matrices, one entry of each perturbed, random
    # matrices and the empty matrix, up to 10 x 10
    rng = rng_for("verify-chart-columns")
    cases = [[]]
    for _ in range(100):
        n = rng.randint(1, 5)
        s = random_symplectic(rng, n)
        broken = [list(row) for row in s]
        broken[rng.randrange(2 * n)][rng.randrange(2 * n)] += Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        noise = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * n)] for _ in range(2 * n)]
        cases += [s, broken, noise]
    canonical = 0
    for m in cases:
        got = verify_chart(m, mode="exact")
        assert got == verify_chart_exact_loop(m)
        # build_chart's self-check brackets the rows: S J S^T = J decides the same for a square S
        assert (not _bracket_deviations([qq.to_row(row) for row in m], len(m) // 2)) == got[0]
        canonical += got[0]
    assert 100 <= canonical < len(cases) - 150


def test_verify_chart_sqrt2_l2_float():
    s = 1.0 / math.sqrt(2.0)
    # rows over z = (q1, q2, p1, p2): ThU1, Q1 | ThD1, P1
    matrix = [
        [0.0, s, s, 0.0],
        [s, 0.0, 0.0, s],
        [-s, 0.0, 0.0, s],
        [0.0, -s, s, 0.0],
    ]
    ok, violations, dev = verify_chart(matrix, mode="float", tol=1e-12)
    assert ok and dev <= 1e-12
    # {ThU1, ThD1} = 1: the symplectic pairing of rows 0 and 2
    u, v = matrix[0], matrix[2]
    assert abs(sum(u[i] * v[2 + i] - u[2 + i] * v[i] for i in range(2)) - 1.0) < 1e-12


def test_verify_chart_float_rejects_a_tolerance_that_is_not_finite_and_nonnegative():
    # exact mode takes no tolerance, so any is ignored there
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for tol in (-1.0, -1e-300, math.nan, math.inf, -math.inf, "1e-12", None):
        with pytest.raises(ChartError, match="tolerance"):
            verify_chart(eye, mode="float", tol=tol)
        assert verify_chart(eye, mode="exact", tol=tol) == (True, [], 0)
    for tol in (0, 0.0, 1e-12, Fraction(1, 3), 5):
        assert verify_chart(eye, mode="float", tol=tol) == (True, [], 0.0)


def numpy_float_deviation(matrix):
    """verify_chart's float mode as it was: S^T J S - J in numpy doubles."""
    import numpy as np

    dim = len(matrix)
    n = dim // 2
    s = np.array(matrix, dtype=float)
    j = np.zeros((dim, dim))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return s.T @ j @ s - j


@pytest.mark.extras
def test_verify_chart_float_matches_numpy_reference():
    # seeded float charts, dims 2..12: symplectic ones, some with one entry
    # moved by a few tol, sqrt2 pair rotations, entries drawn from
    # {0, +-1/sqrt2, +-1/2, +-1} and uniform entries;
    # the exact deviation of the doubles flags the entries numpy flags,
    # except within 1e-15 of tol, and agrees with numpy's deviation within
    # its rounding bound 2n * 2^-52 * max|S_ij|^2, plus one rounding of the
    # entry itself (numpy's subtraction of J, the exact value's to float)
    import numpy as np

    rng = rng_for("verify-chart-float-parity")
    r2 = 1 / math.sqrt(2)
    draws = [0.0, r2, -r2, 0.5, -0.5, 1.0, -1.0]
    tol = 1e-12
    canonical = 0
    for case in range(600):
        n = rng.randint(1, 6)
        dim = 2 * n
        kind = case % 5
        if kind in (0, 4):
            s = [[float(x) for x in row] for row in random_symplectic(rng, n)]
            if kind == 4:
                s[rng.randrange(dim)][rng.randrange(dim)] += rng.choice([-1, 1]) * rng.choice([0.5, 1.5, 3, 20]) * tol
        elif kind == 1:
            s = [[0.0] * dim for _ in range(dim)]
            for i in range(n):
                s[i][i], s[i][n + i], s[n + i][i], s[n + i][n + i] = r2, r2, -r2, r2
            s = [s[i] for i in rng.sample(range(n), n)] + [s[n + i] for i in range(n)]
        elif kind == 2:
            s = [[rng.choice(draws) for _ in range(dim)] for _ in range(dim)]
        else:
            s = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(dim)]
        ref = numpy_float_deviation(s)
        ok, violations, maxdev = verify_chart(s, mode="float", tol=tol)
        # every entry's exact deviation, from the brackets of the columns
        # (an absent entry is 0), rounded once to a float
        dev = _bracket_deviations([qq.to_row([Fraction(x) for x in col]) for col in zip(*s)], n)
        exact = {(i, k): float(dev.get((i, k), 0)) for i in range(dim) for k in range(dim)}
        assert maxdev == max(map(abs, exact.values()))
        bound = 2 * n * 2.0**-52 * max(abs(x) for row in s for x in row) ** 2
        near = set()
        for (i, k), d in exact.items():
            r = float(ref[i, k])
            assert abs(d - r) <= bound + 2.0**-52 * abs(d), (case, i, k, d, r)
            if abs(abs(r) - tol) <= 1e-15:
                near.add((i, k))
        got = {(i, k) for i, k, _d in violations}
        want = {(int(i), int(k)) for i, k in np.argwhere(~(np.abs(ref) <= tol))}
        assert got - near == want - near, case
        if not near:
            assert ok == (not want)
        canonical += ok
    assert 150 <= canonical <= 450, canonical


def test_chart_rows_are_frozen_and_build_chart_repeats(l1, l3):
    # two builds on one classified result give equal rows and notes, under
    # the same names (the second build's symbols are the first's, and it
    # registers none), and leave the result as it was; a row cannot change,
    # and the chart's matrix is a fresh list on every call

    def snapshot(res):
        rows = lambda rs: [((tuple(r.row[0]), r.row[1]), r.generation) for r in rs]
        return (
            [(c.name, str(c.expr), (tuple(c.row[0]), c.row[1]), c.klass, c.generation) for c in res.constraints],
            rows(res.first_class),
            rows(res.second_class),
            [(z.name, str(v)) for z, v in res.multiplier_solutions.items()],
            list(res.flags),
            list(res.free_multipliers),
        )

    rng = rng_for("frozen-chart-rows")
    results = [l1[2], l3[2], l3_family("gauge", 2, rng)[2], l3_family("coupled", 2, rng)[2]]
    for res in results:
        before = snapshot(res)
        first = build_chart(res)
        size = len(res.table)
        second = build_chart(res)
        assert [(r.role, r.pair, r.row, r.generation) for r in first.rows] == [
            (r.role, r.pair, r.row, r.generation) for r in second.rows
        ]
        assert [r.symbol for r in first.rows] == [r.symbol for r in second.rows] and len(res.table) == size
        assert first.notes == second.notes
        assert snapshot(res) == before
        for r, coeffs, offset in zip(first.rows, chart_matrix(first), chart_offsets(first)):
            assert isinstance(r.row[0], tuple) and all(isinstance(e, tuple) for e in r.row[0])
            with pytest.raises(AttributeError):
                r.row = ((), 1)
            assert len(coeffs) == 2 * first.n and qq.to_row([*coeffs, offset]) == r.row
        chart_matrix(first)[0].append(Fraction(1))
        assert len(chart_matrix(first)[0]) == 2 * first.n


def test_chart_row_expr_of_non_primitive_row(l1):
    # a row stored as given, with a common factor of its ints and den, reads
    # as the Expr of its primitive form
    t, fos, _res = l1
    z = fos.phase.z_order()
    dim = len(z)
    for entries, den in [(((0, 2),), 2), (((1, 6), (dim, -4)), 4), (((dim, 3),), 3)]:
        tag = f"{entries[0][0]}{den}"
        got = ChartRow("Q", 1, (entries, den), t.position(f"Y{tag}")).expr(t, fos.phase)
        want = ChartRow("Q", 1, qq._primitive(entries, den), t.position(f"W{tag}")).expr(t, fos.phase)
        assert got == want and hash(got) == hash(want)
        assert (list(got.num.items()), got.den) == (list(want.num.items()), want.den)
    assert ChartRow("Q", 1, (((0, 2),), 2), t.position("Y")).expr(t, fos.phase) == Expr.sym(t, z[0])


def test_transform_constant(charts):
    t, fos, res, ch = charts["l2"]
    c = Expr.const(t, Fraction(7, 3))
    assert transform(c, ch) == c


def test_transform_preserves_brackets(charts):
    t, fos, res, ch = charts["l2"]
    cp = chart_phase(ch)
    z = fos.phase.z_order()
    rng = rng_for("transform-brackets")
    for _ in range(110):
        f = random_poly(t, z, rng, max_degree=2, terms=3)
        g = random_poly(t, z, rng, max_degree=2, terms=3)
        lhs = transform(poisson(f, g, fos.phase), ch)
        rhs = poisson(transform(f, ch), transform(g, ch), cp)
        assert lhs == rhs


def test_transform_l2_total_hamiltonian(charts):
    # independent oracle: substitute the inverse chart directly and compare
    t, fos, res, ch = charts["l2"]
    ht = res.total_hamiltonian()
    tr = transform(ht, ch)
    back = tr.substitute({r.symbol: r.expr(t, fos.phase) for r in ch.rows})
    assert back == ht


def test_transform_l2_under_sqrt2_chart_float(l2):
    # the sqrt2-normalized chart S = M/sqrt2 gives the symmetric 1/2
    # coefficients, exactly: S^-1 = -J S^T J = M'/sqrt2 with M' = -J M^T J,
    # and H_T is a homogeneous quadratic, so H_T(S^-1 y) = H_T(M' y)/2
    t, fos, res = l2
    ht = res.total_hamiltonian()  # = q1*p2 - q2*p1
    assert ht == parse_expr("q1*p2 - q2*p1", t)
    m = [
        [0, 1, 1, 0],  # ThU1
        [1, 0, 0, 1],  # Q1
        [-1, 0, 0, 1],  # ThD1
        [0, -1, 1, 0],  # P1
    ]
    s = 1.0 / math.sqrt(2.0)
    assert verify_chart([[s * x for x in row] for row in m], mode="float", tol=1e-12)[0]
    jay = lambda i, k: (k == i + 2) - (i == k + 2)
    m_inv = [[-sum(jay(i, a) * m[b][a] * jay(b, k) for a in range(4) for b in range(4)) for k in range(4)] for i in range(4)]
    assert [[sum(m_inv[i][a] * m[a][k] for a in range(4)) for k in range(4)] for i in range(4)] == [
        [2 * (i == k) for k in range(4)] for i in range(4)
    ]
    y = [Expr.sym(t, t.position(name)) for name in ("ThU1", "Q1", "ThD1", "P1")]
    subs = {
        z: sum((Expr.const(t, c) * yk for c, yk in zip(row, y)), Expr.const(t, 0))
        for z, row in zip(fos.phase.z_order(), m_inv)
    }
    got = ht.substitute(subs) * Expr.const(t, Fraction(1, 2))
    assert got == parse_expr("(1/2)*P1^2 + (1/2)*Q1^2 - (1/2)*ThU1^2 - (1/2)*ThD1^2", t)


def test_transform_l4_ssok_opposite_multiplier_sign(l4_ssok):
    # With the multiplier sign the consistency algebra rejects (+Q instead of
    # -Q; see the dirac tests), the transform produces this closed form; kept
    # as a regression pin for the transform itself.
    t, fos, res = l4_ssok
    q1, q2 = fos.phase.positions
    p1, p2 = fos.phase.momenta
    prim = res.constraints[0].expr
    ht_display = fos.H + Expr.sym(t, q1) * prim  # zeta := +Q_(1), as printed there
    rows = [
        ChartRow("ThU", 1, _cov(t, fos, "(1/2)*Q2_q - p_Q1_q"), t.position("cThU1")),
        ChartRow("Q", 1, _cov(t, fos, "(1/2)*Q2_q + p_Q1_q"), t.position("cQ1")),
        ChartRow("ThD", 1, _cov(t, fos, "(1/2)*Q1_q + p_Q2_q"), t.position("cThD1")),
        ChartRow("P", 1, _cov(t, fos, "-(1/2)*Q1_q + p_Q2_q"), t.position("cP1")),
    ]
    chart = CanonicalChart(fos.phase, rows)
    ok, violations, _ = verify_chart(chart_matrix(chart), mode="exact")
    assert ok, violations
    got = transform(ht_display, chart)
    want = parse_expr("(1/2)*cP1^2 + (1/2)*cQ1^2 - 2*cThD1*cP1 - (1/2)*cThU1^2 + (3/2)*cThD1^2", t)
    assert got == want


def _cov(t, fos, text):
    """The qq integer row of an affine phase-space expression."""
    coeffs, off = linear_form(parse_expr(text, t), fos.phase.z_order())
    return qq.to_row([*coeffs, off])


def test_transform_l1_total_hamiltonian(charts):
    # the chart Hamiltonian of the gauge system: one bilinear coupling, one
    # cubic term, and the undetermined multiplier on its primary momentum
    t, fos, res, ch = charts["l1"]
    ht = res.H
    for z, prim in zip(res.multiplier_symbols, res.rebased_primaries):
        ht = ht + Expr.sym(t, z) * prim
    tr = transform(ht, ch)
    want = parse_expr("-(1/2)*Xi1*Psi2^2 + zeta1*Psi1 - Xi2*Psi3", t)
    assert tr == want
    back = tr.substitute({r.symbol: r.expr(t, fos.phase) for r in ch.rows})
    assert back == ht


def test_transform_l4_ssok_solved_multiplier(charts):
    # with the multiplier the consistency algebra actually forces, the
    # constraint sector decouples cleanly
    t, fos, res, ch = charts["l4_ssok"]
    tr = transform(res.total_hamiltonian(), ch)
    want = parse_expr("(1/2)*Q1^2 + (1/2)*P1^2 - (1/2)*ThU1^2 - (1/2)*ThD1^2", t)
    assert tr == want


def test_nonlinear_constraint_rejected():
    # a primary nonlinear in the phase coordinates stops the analysis with
    # the unsupported-shape diagnostic rather than a guess
    with pytest.raises(UnsupportedShape):
        analyzed("d(q1)*q2^2 + d(q1)*q1", ["q1", "q2"])


def test_frobenius_reports(l1, l3):
    for trip in (l1, l3):
        t, fos, res = trip
        fr = frobenius_check(res)
        assert fr.verdict
        assert all(e.is_zero() for _name, e in fr.residuals)


def test_frobenius_residuals_from_rows_without_reduction(monkeypatch, l1, l2, l3, l4_ssok, l4_pons):
    # each residual is -sum_a zeta_a (row of the a-th first-class primary)[i],
    # built here from the classified rows; the verdict is that all are zero,
    # and no weak reduction is made
    from pathlib import Path

    from hamdirac import dirac, qq
    from hamdirac.report import run_pipeline
    from hamdirac.sysfile import load_system_file

    results = [trip[2] for trip in (l1, l2, l3, l4_ssok, l4_pons)]
    rng = rng_for("frobenius-rows")
    results += [l3_family(kind, k, rng)[2] for kind in ("coupled", "gauge") for k in (1, 2, 3)]
    golden = Path(__file__).resolve().parent / "golden"
    totalderiv = run_pipeline(load_system_file(golden / "totalderiv.sys"), stage="analyze").result
    results.append(totalderiv)

    def no_reduce(self, e):
        raise AssertionError("frobenius_check made a weak reduction")

    monkeypatch.setattr(dirac.WeakReducer, "reduce", no_reduce)
    verdicts = []
    for res in results:
        t, phase = res.table, res.phase
        fc_rows = [rep.row for rep in res.first_class if rep.generation == 1]
        zetas = res.multiplier_symbols[: len(fc_rows)]
        fr = frobenius_check(res)
        want = []
        for i, q in enumerate(phase.positions):
            r = Expr.const(t, 0)
            for z, row in zip(zetas, fc_rows):
                r = r - Expr.sym(t, z) * qq.from_row(row, 2 * phase.n)[i]
            want.append((q.name, r))
        assert fr.residuals == tuple(want)
        assert fr.verdict == all(r.is_zero() for _name, r in want)
        verdicts.append(fr.verdict)
    assert verdicts.count(False) == 1 and not frobenius_check(totalderiv).verdict
    assert [str(r) for _name, r in frobenius_check(totalderiv).residuals] == ["2*zeta2", "2*zeta1", "0"]


def test_frobenius_vacuous_on_unconstrained():
    t, fos, res = analyzed("(1/2)*d(q1)^2", ["q1"])
    fr = frobenius_check(res)
    assert fr.verdict and res.constraints == ()


def test_identity_chart_for_unconstrained():
    t, fos, res = analyzed("(1/2)*d(q1)^2 + (1/2)*d(q2)^2", ["q1", "q2"])
    ch = build_chart(res)
    assert [r.role for r in ch.rows] == ["Q", "Q", "P", "P"]
    eye = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert chart_matrix(ch) == eye


# ---------------------------------------------------------------------------
# the cached integer-row completion against the from-scratch Fraction one


def _pairing(u, v, n):
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


def _project_off(x, e, f, n):
    a, b = _pairing(x, f, n), _pairing(x, e, n)
    return [xi - a * ei + b * fi for xi, ei, fi in zip(x, e, f)]


def reference_chart(res):
    """build_chart as first written: Fraction covectors (offset as entry 2n),
    and every (Q, P) pair found by projecting every seed from scratch through
    every pair placed so far.  Rows are assembled and statically corrected by
    the package's `_assemble` and `_static_correct`, which sit outside the
    pairing and the completion; `_assemble` takes the Psi rows from the
    first-class representatives, which are the covectors used here."""
    from hamdirac.chart import _assemble

    phase, n = res.phase, res.phase.n

    def covector(expr):
        coeffs, off = linear_form(expr, phase.z_order())
        return [Fraction(c) for c in coeffs] + [Fraction(off)]

    pool = [covector(r.expr) for r in res.second_class]
    theta = []
    while pool:
        e = pool.pop(0)
        k = next(k for k, f in enumerate(pool) if _pairing(e, f, n))
        f = pool.pop(k)
        br = _pairing(e, f, n)
        f = [c / br for c in f]
        pool = [_project_off(x, e, f, n) for x in pool]
        theta.append((e, f))

    psi = [covector(r.expr) for r in res.first_class]
    grad = lambda c: c[n : 2 * n] + [-x for x in c[:n]]  # grad(c) . x = <x, c>
    xis = []
    for a in range(len(psi)):
        rows = [grad(c) for c in psi] + [grad(v) for pair in theta for v in pair]
        rhs = [Fraction(int(b == a)) for b in range(len(psi))] + [Fraction(0)] * (2 * len(theta))
        x = dense_solve(rows, rhs) + [Fraction(0)]
        for b in range(a):
            c = _pairing(xis[b], x, n)
            x = [xi - c * pi for xi, pi in zip(x, psi[b])]
        xis.append(x)

    placed = theta + list(zip(xis, psi))
    seeds = [[Fraction(int(i == k)) for k in range(2 * n)] for i in range(2 * n)]
    qp = []

    def project_all(x):
        for e, f in placed + qp:
            x = _project_off(x, e, f, n)
        return x

    while len(qp) < n - len(psi) - len(theta):
        i, q = next((i, p) for i, p in enumerate(map(project_all, seeds)) if any(p))
        for y in map(project_all, seeds[i + 1 :]):
            if _pairing(q, y, n):
                qp.append((q, [c / _pairing(q, y, n) for c in y]))
                break

    assert psi == [qq.from_row(r.row, 2 * n + 1) for r in res.first_class]
    row = lambda v: qq.to_row(v if len(v) > 2 * n else v + [Fraction(0)])
    return _assemble(res, [row(x) for x in xis], [(row(e), row(f)) for e, f in theta], [(row(q), row(p)) for q, p in qp])


def test_cached_completion_matches_from_scratch(l1, l2, l3, l4_ssok, l4_pons):
    rng = rng_for("chart-families")
    cases = [("l1", l1), ("l2", l2), ("l3", l3), ("l4_ssok", l4_ssok), ("l4_pons", l4_pons)]
    cases += [(f"{kind}{k}", l3_family(kind, k, rng)) for kind in ("coupled", "gauge") for k in (1, 2, 3)]
    for name, (_t, _fos, res) in cases:
        built, want = build_chart(res), reference_chart(res)
        assert chart_matrix(built) == chart_matrix(want), name
        assert chart_offsets(built) == chart_offsets(want), name
        assert built.notes == want.notes, name


# ---------------------------------------------------------------------------
# the static correction against the transform-then-bracket one


def expr_sum_transform(e, chart):
    """transform with each coordinate's replacement summed term by term."""
    from hamdirac import qq

    table = chart.table
    s = chart_matrix(chart)
    dim = len(s)
    # S^-1 by Gauss-Jordan on [S | I], not by the closed form the chart map uses
    aug = [qq.to_row(list(row) + [Fraction(int(i == k)) for k in range(dim)]) for i, row in enumerate(s)]
    pivots = qq.rref_rows(aug, range(dim))
    inv = [qq.from_row(aug[pivots[i]], 2 * dim)[dim:] for i in range(dim)]
    subs = {}
    for i, zi in enumerate(chart.phase.z_order()):
        acc = Expr.const(table, 0)
        for c, row, offset in zip(inv[i], chart.rows, chart_offsets(chart)):
            if c:
                acc = acc + Expr.const(table, c) * (Expr.sym(table, row.symbol) - Expr.const(table, offset))
        subs[zi] = acc
    return e.substitute(subs)


def transform_then_bracket_correct(phase, layout, vectors, result):
    """The static correction as first written: H_T transformed into the chart
    again before every target row, each velocity a Poisson bracket there.
    `vectors` maps each chart symbol, in chart order, to its Fraction
    covector (offset as entry 2n) and `layout` gives each its (role, pair,
    generation); returns the corrected covectors and the notes."""
    from hamdirac.expr import ExprError

    n, table = phase.n, phase.table
    vectors = {sym: list(v) for sym, v in vectors.items()}
    heads = list(zip(layout, vectors))
    qp_syms = [sym for (role, _k, _gen), sym in heads if role in ("Q", "P")]
    targets = [(sym, heads[i + n][1]) for i, ((role, _k, gen), sym) in enumerate(heads) if role == "Xi" and (gen or 1) > 1]
    notes = []
    if not qp_syms:
        return vectors, notes
    ht = result.total_hamiltonian()
    zero = Expr.const(table, 0)
    embedded = {sym: zero for (role, _k, _gen), sym in heads if role not in ("Q", "P")}
    embedded.update({z: zero for z in result.free_multipliers})
    zero_qp = {sym: zero for sym in qp_syms}
    for xi, psi in targets:
        chart = CanonicalChart(phase, [ChartRow(role, k, qq.to_row(vectors[sym]), sym, gen) for (role, k, gen), sym in heads])
        cp = chart_phase(chart)
        try:
            ht_c = expr_sum_transform(ht, chart)
            velocity = lambda sym: poisson(Expr.sym(table, sym), ht_c, cp).substitute(embedded)
            defect = velocity(xi)
            if defect.is_zero():
                continue
            basis = [velocity(w) for w in qp_syms]
            rows_sys = [[b.diff(w).constant_value() for b in basis] for w in qp_syms]
            rhs = [-defect.diff(w).constant_value() for w in qp_syms]
            rows_sys.append([b.substitute(zero_qp).constant_value() for b in basis])
            rhs.append(-defect.substitute(zero_qp).constant_value())
            alpha = dense_solve(rows_sys, rhs)
        except ExprError:
            alpha = None
        if alpha is None:
            notes.append(
                f"{xi.name}: physical content of its velocity could not be absorbed; "
                f"canonical embeddings may be unavailable in this chart"
            )
            continue
        x = vectors[xi] = [c + sum(a * vectors[w][k] for a, w in zip(alpha, qp_syms)) for k, c in enumerate(vectors[xi])]
        for w in qp_syms:
            lam = -_pairing(x, vectors[w], n)
            if lam:
                vectors[w] = [c + lam * p for c, p in zip(vectors[w], vectors[psi])]
    return vectors, notes


def test_static_correct_matches_transform_then_bracket(monkeypatch):
    # every chart build runs both corrections on the uncorrected rows; they
    # must give the same rows and notes, and leave the rows they were given
    from pathlib import Path

    from hamdirac import chart as chart_mod
    from hamdirac.report import run_pipeline
    from hamdirac.sysfile import load_system_file

    real = chart_mod._static_correct
    seen = []

    def both(rows, layout, result):
        before = dict(rows)
        got, notes = real(rows, layout, result)
        assert rows == before and list(got) == list(rows)
        size = 2 * result.phase.n + 1
        vectors = {sym: qq.from_row(r, size) for sym, r in rows.items()}
        # the layout is (role, pair); Xi a is conjugate to first-class representative a
        gens = {("Xi", a): rep.generation for a, rep in enumerate(result.first_class, start=1)}
        want, want_notes = transform_then_bracket_correct(result.phase, [(*key, gens.get(key)) for key in layout], vectors, result)
        assert {sym: qq.from_row(r, size) for sym, r in got.items()} == want
        assert notes == want_notes
        seen.append((got != rows, bool(notes)))
        return got, notes

    monkeypatch.setattr(chart_mod, "_static_correct", both)
    rng = rng_for("static-correction")
    for k in (1, 2, 3):
        for _ in range(2):
            build_chart(l3_family("gauge", k, rng)[2])
    # linear terms give chart rows offsets: velocity terms d(q1), d(q3) are
    # absorbed, while the potential q4 leaves a constant velocity and a note
    for extra in ("d(q1)", "d(q2)", "q4"):
        a, b = rng.sample(FAMILY_RATIONALS, 2)
        build_chart(analyzed(f"{L3_SRC} + ({a})*{extra} + ({b})*d(q3)", ["q1", "q2", "q3", "q4"])[2])
    golden = Path(__file__).resolve().parent / "golden"
    for path in (resources.files("hamdirac") / "fixtures" / "cawley.sys", golden / "gauge2.sys", golden / "l3quartic.sys"):
        run_pipeline(load_system_file(path), stage="chart")
    assert len(seen) == 12
    assert any(corrected for corrected, _ in seen[:6])
    assert seen[6:9] == [(True, False), (True, False), (False, True)]
    assert seen[-1] == (False, True)  # l3quartic: nothing absorbed, one note


def test_report_transforms_once_and_never_brackets(monkeypatch):
    # the pipeline takes every {X, H} from a Hamiltonian field, and the
    # report transforms H_T into the chart once, for the whole embedding step
    import sys
    from pathlib import Path

    from hamdirac import chart as chart_mod
    from hamdirac import dirac
    from hamdirac.report import PipelineOptions, run_pipeline
    from hamdirac.sysfile import load_system_file

    calls = {"transform": 0, "poisson": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in (("transform", chart_mod.transform), ("poisson", dirac.poisson)):
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "hamdirac"]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    golden = Path(__file__).resolve().parent / "golden"
    cawley = resources.files("hamdirac") / "fixtures" / "cawley.sys"
    cases = [(golden / "gauge3.sys", False), (golden / "gauge3.sys", True), (golden / "l3quartic.sys", False),
             (cawley, False), (cawley, True)]
    for path, gauge_fixing in cases:
        for stage in ("analyze", "chart", "report"):
            calls.update(transform=0, poisson=0)
            run_pipeline(load_system_file(path), PipelineOptions(gauge_fixing=gauge_fixing), stage=stage)
            assert calls == {"transform": int(stage == "report"), "poisson": 0}, (str(path), gauge_fixing, stage)


@pytest.mark.extras
def test_supplied_chart_span_checks_match_rank_oracle():
    # the supplied-chart import settles its span checks with one elimination;
    # the rank comparisons it replaced are the oracle, on l3's chart with its
    # pairs relabelled, negated and recombined (each variant symplectic)
    from hamdirac import qq
    from hamdirac.report import InputError, analyze_system, attach_chart
    from hamdirac.sysfile import parse_system_file

    l3 = (resources.files("hamdirac") / "fixtures" / "l3.sys").read_text(encoding="utf-8")
    head, _, chart_text = l3.partition("[chart]")
    rows = dict(line.split(" = ") for line in chart_text.split("\n") if " = " in line)

    def relabel(**moves):  # new name -> old name, or an expression in old names
        out = dict(rows)
        for new, old in moves.items():
            out[new] = rows[old] if old in rows else old.format(**{k: f"({v})" for k, v in rows.items()})
        return out

    variants = [
        rows,
        relabel(Xi1="Xi2", Psi1="Psi2", Xi2="Xi1", Psi2="Psi1"),
        relabel(Psi1="{Psi1} + {Psi2}", Xi2="{Xi2} - {Xi1}"),
        relabel(Xi1="Q1", Psi1="P1", Q1="Xi1", P1="Psi1"),
        relabel(ThU1="Q1", ThD1="P1", Q1="ThU1", P1="ThD1"),
        relabel(Xi1="ThU1", Psi1="ThD1", ThU1="Xi1", ThD1="Psi1"),
        relabel(Xi1="Psi1", Psi1="-{Xi1}"),
    ]

    def oracle(an, chart_rows):
        z = an.fos.phase.z_order()
        cov = {name: linear_form(parse_expr(text, an.table), z)[0] for name, text in chart_rows.items()}
        res = an.result
        same = lambda a, b: sympy_rank(a) == sympy_rank(b) == sympy_rank(a + b)
        psi = [cov[k] for k in sorted(cov) if k.startswith("Psi")]
        theta = [cov[k] for k in sorted(cov) if k.startswith("Th")]
        if not same([qq.from_row(r.row, len(z)) for r in res.first_class], psi):
            return "supplied Psi rows do not span the first-class constraints"
        if not same([qq.from_row(c.row, len(z)) for c in res.constraints], psi + theta):
            return "supplied Psi/Theta rows do not span the constraint set"
        # a Psi row's generation: the first g whose constraints up to generation g span it
        upto = lambda g: [qq.from_row(c.row, len(z)) for c in res.constraints if c.generation <= g]
        gens = sorted({c.generation for c in res.constraints})
        return [next(g for g in gens if sympy_rank(upto(g)) == sympy_rank(upto(g) + [v])) for v in psi]

    outcomes = []
    for chart_rows in variants:
        text = head + "[chart]\n" + "".join(f"{k} = {v}\n" for k, v in chart_rows.items())
        an = analyze_system(parse_system_file(text))
        want = oracle(an, chart_rows)
        try:
            got = [r.generation for _xi, r in attach_chart(an).chart.pairs("Xi")]
        except InputError as exc:
            got = str(exc)
        assert got == want, chart_rows
        outcomes.append(got)
    assert outcomes[:3] == [[1, 2], [2, 1], [2, 2]]
    assert set(outcomes[3:]) == {
        "supplied Psi rows do not span the first-class constraints",
        "supplied Psi/Theta rows do not span the constraint set",
    }
