import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from hamdirac import (
    PipelineOptions,
    build_chart,
    boundary_report,
    effective_hamiltonian,
    load_system_file,
    parse_expr,
    pullback_total_lagrangian,
    run_pipeline,
    select_embedding,
    transform,
)
from hamdirac.embedding import EmbeddingError, GaugeError, resolve_plan
from hamdirac.expr import Expr

from conftest import L1_SRC, analyzed, chart_hamiltonian, l3_family, linear_form, rng_for


def planned(trip, gauge=False, epsilon=None, conditions=None):
    t, fos, res = trip
    ch = build_chart(res)
    ht = chart_hamiltonian(res, ch)
    plan = resolve_plan(select_embedding(res, gauge), res, ch, ht, epsilon=epsilon, gauge_conditions=conditions)
    return t, fos, res, ch, plan


def test_selection_table(l1, l2, l3):
    _, _, r1 = l1
    assert select_embedding(r1, False).kind == "sigma1_tilde"
    assert select_embedding(r1, True).kind == "sigma1"
    _, _, r2 = l2
    assert select_embedding(r2, False).kind == "sigma2"
    assert select_embedding(r2, True).kind == "sigma2"
    _, _, r3 = l3
    assert select_embedding(r3, False).kind == "sigma3_tilde"
    assert select_embedding(r3, True).kind == "sigma3"
    _, _, r0 = analyzed("(1/2)*d(q1)^2", ["q1"])
    assert select_embedding(r0, False).kind == "trivial"


def test_primary_psi_pinned_to_zero(l1):
    t, fos, res = l1
    ch = build_chart(res)
    with pytest.raises(EmbeddingError):
        resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch), epsilon={"Psi1": Fraction(1, 2)})
    plan = resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch), epsilon={"Psi2": Fraction(1, 2)})
    assert plan.fixed["Psi2"] == Fraction(1, 2)
    assert "Psi1 := 0 imposed in advance" in plan.preconditions


def test_epsilon_only_for_fixed_rows(l2):
    t, fos, res = l2
    ch = build_chart(res)
    with pytest.raises(EmbeddingError):
        resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch), epsilon={"Q1": Fraction(1)})


def test_l1_quasi_canonical_pullback(l1):
    t, fos, res, ch, plan = planned(l1)
    pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
    # -H_T with the primary momentum at zero and the rest as named constants
    eps2, eps3 = t["eps_Psi2"], t["eps_Psi3"]
    xi1, xi2 = t["Xi1"], t["Xi2"]
    half = Expr.const(t, 1) / 2
    want = half * Expr.sym(t, xi1) * Expr.sym(t, eps2) ** 2 + Expr.sym(t, xi2) * Expr.sym(t, eps3)
    assert pb.minus_h == want
    assert pb.kinetic.is_zero()
    # total derivative carries the fixed momenta against their positions
    assert pb.total_derivative == Expr.sym(t, eps2) * Expr.sym(t, t.velocity(xi2)) + Expr.sym(t, eps3) * Expr.sym(
        t, t.velocity(t["Xi3"])
    )
    # at the constraint-restoring values everything collapses to a constant
    assert pb.lagrangian.is_zero() and pb.constant == 0


def test_l1_canonical_pullback_is_constant(l1):
    t, fos, res, ch, plan = planned(l1, gauge=True)
    assert plan.gauge_multiplier_solutions[t["zeta1"]].is_zero()
    pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
    assert pb.lagrangian.is_zero()
    br = boundary_report(ch, plan)
    assert br.fix_both_ends == () and br.fix_initial_only == () and br.never_fix == ()


def test_l2_pullback_oscillator(l2):
    t, fos, res, ch, plan = planned(l2)
    pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
    q, p = t["Q1"], t["P1"]
    quarter = Expr.const(t, 1) / 4
    want = Expr.sym(t, p) * Expr.sym(t, t.velocity(q)) - Expr.sym(t, q) ** 2 - quarter * Expr.sym(t, p) ** 2
    assert pb.lagrangian == want
    assert pb.constant == 0
    br = boundary_report(ch, plan)
    assert br.fix_both_ends == ("Q1",) and not br.fix_initial_only and not br.never_fix


def test_l2_nonzero_epsilon_contributes_constant(l2):
    t, fos, res = l2
    ch = build_chart(res)
    plan = resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch), epsilon={"ThU1": Fraction(2)})
    pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
    # -H_T carries +ThU1^2/4, so the off-surface value 2 leaves the constant 1
    assert pb.constant == Fraction(1)
    assert pb.eps_values[t["eps_ThU1"]] == Fraction(2)
    assert pb.lagrangian == pb.kinetic + pb.minus_h.substitute(
        {e: Expr.const(t, v) for e, v in pb.eps_values.items()}
    ) - Fraction(1)


def test_l3_boundary_reports_tilde_vs_gauge():
    from conftest import L3_SRC

    t, fos, res, ch, plan = planned(analyzed(L3_SRC, ["q1", "q2", "q3", "q4"]))
    br = boundary_report(ch, plan)
    assert br.fix_both_ends == ("Q1",)
    assert br.fix_initial_only == ("Xi2",)
    assert br.never_fix == ("Xi1",)
    assert br.free == 4
    assert constant_counts(br) == reference_budget(res, plan.kind)

    # re-running with the gauge fixed moves every never-fix coordinate out
    t, fos, res, ch, plan = planned(analyzed(L3_SRC, ["q1", "q2", "q3", "q4"]), gauge=True)
    br2 = boundary_report(ch, plan)
    assert br2.fix_both_ends == ("Q1",) and not br2.fix_initial_only and not br2.never_fix
    assert br2.occupied == 6
    assert constant_counts(br2) == reference_budget(res, plan.kind)


def test_boundary_ledger_all_plans():
    from conftest import L1_SRC, L2_SRC, L3_SRC, L4_SRC

    cases = [
        (L1_SRC, ["q1", "q2", "q3"], 1, None),
        (L2_SRC, ["q1", "q2"], 1, None),
        (L3_SRC, ["q1", "q2", "q3", "q4"], 1, None),
        (L4_SRC, ["q"], 2, "ssok"),
        (L4_SRC, ["q"], 2, "pons"),
    ]
    for src, names, order, path in cases:
        for gauge in (False, True):
            t, fos, res = analyzed(src, names, order=order, path=path)
            ch = build_chart(res)
            plan = resolve_plan(select_embedding(res, gauge), res, ch, chart_hamiltonian(res, ch))
            br = boundary_report(ch, plan)
            assert constant_counts(br) == reference_budget(res, plan.kind)
            assert len(br.never_fix) == (res.primary_fc_count if plan.kind.endswith("_tilde") else 0)


def test_endpoint_convention_flag(l3):
    t, fos, res, ch, plan = planned(l3)
    br = boundary_report(ch, plan, endpoint="t2")
    assert br.initial_endpoint == "t2"
    with pytest.raises(EmbeddingError):
        boundary_report(ch, plan, endpoint="middle")


def test_effective_hamiltonian_guard(l2):
    t, fos, res = l2
    ch = build_chart(res)
    with pytest.raises(EmbeddingError):
        effective_hamiltonian(res, ch, chart_hamiltonian(res, ch))


def test_effective_hamiltonian_l1(l1):
    t, fos, res = l1
    ch = build_chart(res)
    eff = effective_hamiltonian(res, ch, chart_hamiltonian(res, ch))
    # all dynamics is gauge: no physical symbols, no multipliers
    assert all(s.kind != "multiplier" for s in eff.free_symbols())
    subs = {r.symbol: Expr.const(t, 0) for r in ch.rows}
    assert eff.substitute(subs).is_zero()


def test_effective_hamiltonian_l3(l3):
    # the effective Hamiltonian drops the primary first-class momentum (and
    # with it the undetermined multiplier), leaving a definite generator whose
    # physical block is the oscillator
    t, fos, res = l3
    from hamdirac import qq
    from hamdirac.chart import CanonicalChart, ChartRow

    rows_text = [
        ("Xi", 1, "2*q1 + (2/3)*p3 - q2 - q4"),
        ("Xi", 2, "q3 + (1/3)*p1 + q2"),
        ("ThU", 1, "(1/3)*p3 + q1 + q2 + q4"),
        ("Q", 1, "q2 - q4"),
        ("Psi", 1, "(1/3)*p1 - (1/6)*(p2 - p3 + p4)"),
        ("Psi", 2, "p3"),
        ("ThD", 1, "(1/3)*(p1 + p2 - p3 + p4)"),
        ("P", 1, "(1/2)*(p2 - p3 - p4)"),
    ]
    z = fos.phase.z_order()
    rows = []
    for role, pair, text in rows_text:
        coeffs, off = linear_form(parse_expr(text, t), z)
        sym = t.position(f"c{role}{pair}")
        gen = {1: 1, 2: 2}[pair] if role == "Psi" else None
        rows.append(ChartRow(role, pair, qq.to_row([*coeffs, off]), sym, gen))
    chart = CanonicalChart(fos.phase, rows)
    eff = effective_hamiltonian(res, chart, chart_hamiltonian(res, chart))
    assert all(s.kind != "multiplier" for s in eff.free_symbols())
    # independent route: transform first, then kill the primary momentum
    direct = transform(res.total_hamiltonian(), chart).substitute(
        {t["cPsi1"]: Expr.const(t, 0)}
    )
    assert eff == direct
    # on the embedded block only the physical oscillator remains
    zero = {t[f"c{r}{p}"]: Expr.const(t, 0) for r, p in (("Psi", 1), ("Psi", 2), ("ThU", 1), ("ThD", 1), ("Xi", 1), ("Xi", 2))}
    assert eff.substitute(zero) == parse_expr("(1/2)*cQ1^2 + (1/2)*cP1^2", t)


def test_gauge_conditions_must_target_free_multipliers(l3):
    t, fos, res = l3
    ch = build_chart(res)
    plan = select_embedding(res, True)
    solved = next(iter(res.multiplier_solutions))
    with pytest.raises(GaugeError):
        resolve_plan(plan, res, ch, chart_hamiltonian(res, ch), gauge_conditions={solved: Expr.const(t, 0)})


def test_wrong_gauge_condition_rejected(l3):
    t, fos, res = l3
    ch = build_chart(res)
    plan = select_embedding(res, True)
    bad = {t["zeta1"]: parse_expr("Q1", t) if "Q1" in t else None}
    with pytest.raises(GaugeError):
        resolve_plan(plan, res, ch, chart_hamiltonian(res, ch), gauge_conditions=bad)


def test_derived_gauge_freezes_everything(l1, l3):
    for trip in (l1, l3):
        t, fos, res = trip
        ch = build_chart(res)
        plan = resolve_plan(select_embedding(res, True), res, ch, chart_hamiltonian(res, ch))
        from hamdirac.embedding import _gauge_velocities

        for row, vel in _gauge_velocities(ch, chart_hamiltonian(res, ch), plan.fixed):
            assert vel.substitute(plan.gauge_multiplier_solutions).is_zero()


def test_pullback_kinetic_matrix_nondegenerate(l2, l3, l4_ssok, l4_pons):
    # the surviving physical Lagrangian is regular: d^2 L / dQdot dPdot block
    # comes from P*dQ, i.e. momenta are determined by the velocities
    for trip in (l2, l3, l4_ssok, l4_pons):
        t, fos, res = trip
        ch = build_chart(res)
        plan = resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch))
        pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
        # eliminate P from L_T = P*Qdot - H(Q, P): dL/dP = 0 -> Qdot = dH/dP,
        # invertible iff the P-Hessian of H is nonsingular
        from hamdirac.linalg import ExprMatrix, rank

        p_rows = [p.symbol for _q, p in ch.pairs("Q")]
        h = -pb.minus_h
        if pb.eps_values:
            h = h.substitute({e: Expr.const(t, v) for e, v in pb.eps_values.items()})
        hess = ExprMatrix.from_rows([[h.diff(a).diff(b) for b in p_rows] for a in p_rows])
        assert rank(hess) == len(p_rows)


def test_resolve_plan_returns_a_new_plan(l3):
    t, fos, res = l3
    ch = build_chart(res)
    for gauge in (False, True):
        plan = select_embedding(res, gauge)
        ht = chart_hamiltonian(res, ch)
        first = resolve_plan(plan, res, ch, ht)
        second = resolve_plan(plan, res, ch, ht)
        assert plan.preconditions == () and plan.fixed == {} and plan.gauge_multiplier_solutions == {}
        assert first is not plan and first.preconditions == second.preconditions
        if not gauge:
            assert second.preconditions == ("Psi1 := 0 imposed in advance",)
        else:
            assert len(second.preconditions) == len(res.free_multipliers)


def test_pullback_epsilon_names_are_stable(l3):
    t, fos, res, ch, plan = planned(l3)
    ht = chart_hamiltonian(res, ch)
    names = [sorted(e.name for e in pullback_total_lagrangian(ch, plan, ht).eps_values)]
    size = len(t)
    for _ in range(2):
        names.append(sorted(e.name for e in pullback_total_lagrangian(ch, plan, ht).eps_values))
    assert names[0] == names[1] == names[2] and "eps_ThU1" in names[0]
    assert len(t) == size


def test_pullback_epsilon_name_taken_by_another_kind(l2):
    t, fos, res, ch, plan = planned(l2)
    t.register("eps_ThU1", "momentum")
    for _ in range(2):
        pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
        assert sorted(e.name for e in pb.eps_values) == ["eps_ThD1", "eps_ThU1_"]
    assert t["eps_ThU1_"].kind == "parameter"


def test_integral_constant_budgets(l1, l2, l3):
    cases = [(l1, False, (6, 3, 3, 2, 1)), (l2, False, (4, 2, 2, 2, 0)), (l3, False, (8, 4, 4, 3, 1)),
             (l3, True, (8, 6, 2, 2, 0))]
    for trip, gauge, want in cases:
        t, fos, res, ch, plan = planned(trip, gauge=gauge)
        assert constant_counts(boundary_report(ch, plan)) == want == reference_budget(res, plan.kind)


# the gauge-fixing table as a table of kinds: the chart roles whose rows each
# kind fixes, and the quasi-canonical (~) kinds pinning the primary
# first-class momenta; the reference for the one-flag rule
REFERENCE_FIXED_ROLES = {
    "sigma1": ("Xi", "Psi"),
    "sigma1_tilde": ("Psi",),
    "sigma2": ("ThU", "ThD"),
    "sigma3": ("Xi", "Psi", "ThU", "ThD"),
    "sigma3_tilde": ("Psi", "ThU", "ThD"),
    "trivial": (),
}


def constant_counts(br):
    return br.total, br.occupied, br.free, br.by_boundary, br.by_gauge


def reference_budget(res, kind):
    """(total, occupied, free, by_boundary, by_gauge) counted from the kind
    table: F rows each for Xi and Psi, S/2 each for ThU and ThD."""
    per_role = {"Xi": res.F, "Psi": res.F, "ThU": res.S // 2, "ThD": res.S // 2}
    occupied = sum(per_role[role] for role in REFERENCE_FIXED_ROLES[kind])
    total = 2 * res.phase.n
    gauge = res.primary_fc_count if kind.endswith("_tilde") else 0
    return total, occupied, total - occupied, total - occupied - gauge, gauge


def embedding_cases():
    """(name, result, chart, plan) for every bundled system, the seeded
    coupled and gauge families (k <= 3), L1 and an unconstrained system, with
    and without gauge fixing; the runs that exit 4 are named, not returned."""
    fixtures = resources.files("hamdirac") / "fixtures"
    golden = Path(__file__).resolve().parent / "golden"
    files = [(fixtures / f"{n}.sys", None) for n in ("cawley", "l2", "l3")]
    files += [(fixtures / "l4.sys", "ssok"), (fixtures / "l4.sys", "pons")]
    files += [(p, None) for p in sorted(golden.glob("*.sys"))]
    rng = rng_for("embedding-one-flag")
    sources = [(f"{kind}{k}", l3_family(kind, k, rng)) for kind in ("coupled", "gauge") for k in (1, 2, 3)]
    sources += [("l1", analyzed(L1_SRC, ["q1", "q2", "q3"])), ("free", analyzed("(1/2)*d(q1)^2", ["q1"]))]
    cases, refused = [], []
    for gauge in (False, True):
        for path, order2_path in files:
            name = f"{Path(str(path)).stem}-{order2_path}-{gauge}"
            try:
                an = run_pipeline(load_system_file(path), PipelineOptions(path=order2_path, gauge_fixing=gauge))
            except GaugeError:
                refused.append(name)
                continue
            cases.append((name, an.result, an.chart, an.plan))
        for name, (_t, _fos, res) in sources:
            ch = build_chart(res)
            plan = resolve_plan(select_embedding(res, gauge), res, ch, chart_hamiltonian(res, ch))
            cases.append((f"{name}-{gauge}", res, ch, plan))
    return cases, refused


def test_one_flag_fixes_the_rows_and_constants_of_the_kind_table():
    cases, refused = embedding_cases()
    assert refused == ["l3quartic-None-True"]
    kinds = set()
    for name, res, ch, plan in cases:
        kinds.add(plan.kind)
        # sigma2 and trivial stay without a gauge under --gauge-fixing
        assert plan.gauge_fixed == (plan.kind in ("sigma1", "sigma3")), name
        roles = REFERENCE_FIXED_ROLES[plan.kind]
        assert list(plan.fixed) == [r.name for r in ch.rows if r.role in roles], name
        br = boundary_report(ch, plan)
        assert constant_counts(br) == reference_budget(res, plan.kind), name
        assert br.occupied == len(plan.fixed), name
    assert kinds == set(REFERENCE_FIXED_ROLES)


def test_report_goldens_count_their_constants_off_the_prescription():
    # each report golden's integral constants, read from its JSON: they are
    # the kind table's counts (primary first-class constraints: generation 1)
    # and, as the report now derives them, the boundary lists' counts
    goldens = sorted((Path(__file__).resolve().parent / "golden").glob("*.report.json"))
    assert len(goldens) == 17
    for path in goldens:
        rep = json.loads(path.read_text())
        cls, br, ic = rep["classification"], rep["boundary"], rep["integral_constants"]
        res = SimpleNamespace(F=cls["F"], S=cls["S"], phase=SimpleNamespace(n=rep["n"]),
                              primary_fc_count=sum(c["generation"] == 1 for c in cls["first_class"]))
        got = (ic["total"], ic["occupied"], ic["free"], ic["by_boundary"], ic["by_gauge"])
        assert got == reference_budget(res, rep["embedding"]["kind"]), path.name
        by_boundary = 2 * len(br["fix_both_ends"]) + len(br["fix_initial_only"])
        assert (ic["by_boundary"], ic["by_gauge"]) == (by_boundary, len(br["never_fix"])), path.name
        assert ic["free"] == br["free_constant_count"] == by_boundary + len(br["never_fix"]), path.name
