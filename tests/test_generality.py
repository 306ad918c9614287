"""Coverage beyond the four worked models: several coordinates, constraint
offsets, multi-dof shooting."""

import math
from fractions import Fraction

from hamdirac import (
    SymbolTable,
    build_chart,
    compile_field,
    counter_term,
    integrate,
    parse_expr,
    poisson,
    pullback_total_lagrangian,
    select_embedding,
    solve_iota,
    transform,
    verify_chart,
)
from hamdirac.dirac import InconsistentTheory, WeakReducer, _affine_row
from hamdirac.embedding import resolve_plan
from hamdirac.expr import Expr

from conftest import analyzed, chart_hamiltonian, chart_matrix, chart_offsets, make_system, weak_reducer

import pytest


def test_two_coordinate_second_order_both_paths():
    src = "-(1/2)*q1*dd(q1) - (1/2)*q2*dd(q2) - (1/2)*q1^2 - (1/2)*q2^2"
    for path, s_expected in (("ssok", 4), ("pons", 8)):
        t, fos, res = analyzed(src, ["q1", "q2"], order=2, path=path)
        assert (res.F, res.S, res.dof) == (0, s_expected, 2), path
        ch = build_chart(res)
        ok, violations, _ = verify_chart(chart_matrix(ch), mode="exact")
        assert ok, violations[:2]
        tr = transform(res.total_hamiltonian(), ch)
        zero = {r.symbol: Expr.const(t, 0) for r in ch.rows if r.role not in ("Q", "P")}
        phys = tr.substitute(zero)
        # two decoupled unit oscillators in the physical block
        want = parse_expr("(1/2)*Q1^2 + (1/2)*P1^2 + (1/2)*Q2^2 + (1/2)*P2^2", t)
        assert phys == want, str(phys)


def test_velocity_dependent_acceleration_coefficient_dof_cross_check():
    # L = qdot qddot - q^2: the counter-term kills the kinetic content
    # entirely, so every route must agree there is no physical freedom left
    src = "d(q)*dd(q) - q^2"
    from hamdirac import classify, dirac_iterate, legendre

    sys = make_system(src, ["q"], order=2)
    w, red = counter_term(sys)
    assert w == parse_expr("-(1/2)*d(q)^2", sys.table)
    res_direct = classify(dirac_iterate(legendre(red)))
    dofs = [res_direct.dof]
    for path in ("ssok", "pons"):
        _t, _fos, res = analyzed(src, ["q"], order=2, path=path)
        dofs.append(res.dof)
    assert dofs == [0, 0, 0]


def test_counter_term_coupled_velocities():
    # f1 = d(q2), f2 = d(q1): the gradient condition holds, W = -d(q1)*d(q2)
    sys = make_system("d(q2)*dd(q1) + d(q1)*dd(q2) + q1*q2", ["q1", "q2"], order=2)
    t = sys.table
    w, red = counter_term(sys)
    assert w == parse_expr("-d(q1)*d(q2)", t)
    assert red.L == parse_expr("q1*q2", t)


def test_two_dof_shooting():
    t = SymbolTable()
    q1, q2 = t.position("Qa"), t.position("Qb")
    p1, p2 = t.register("Pa", "momentum"), t.register("Pb", "momentum")
    h = parse_expr("(1/2)*(Qa^2 + Pa^2) + (1/2)*(Qb^2 + Pb^2)", t)
    field = compile_field(h, [(q1, p1), (q2, p2)])
    sol = solve_iota(field, {"Qa": (1.0, 0.0), "Qb": (0.0, 1.0)}, 0.0, math.pi / 2, step=1e-3)
    # Qa = cos t, Qb = sin t
    assert abs(sol.initial_state[1] - 0.0) < 1e-8
    assert abs(sol.initial_state[3] - 1.0) < 1e-8
    redo = integrate(field, sol.initial_state, 0.0, math.pi / 2, 1e-3)
    assert abs(redo.state(-1)[0]) < 1e-9 and abs(redo.state(-1)[2] - 1.0) < 1e-9


def test_constraint_with_constant_offset():
    # a velocity entering linearly pins its momentum to a nonzero constant
    t, fos, res = analyzed("(1/2)*d(q1)^2 + d(q2)", ["q1", "q2"])
    assert [str(c.expr) for c in res.constraints] == ["p2 - 1"]
    assert (res.F, res.S, res.dof) == (1, 0, 1)
    ch = build_chart(res)
    psi = ch.pairs("Xi")[0][1]
    assert chart_offsets(ch)[ch.rows.index(psi)] == Fraction(-1)
    assert psi.expr(t, fos.phase) == parse_expr("p2 - 1", t)
    ok, violations, _ = verify_chart(chart_matrix(ch), mode="exact")
    assert ok
    # transform/inverse round trip with the offset in play
    ht = res.total_hamiltonian()
    tr = transform(ht, ch)
    back = tr.substitute({r.symbol: r.expr(t, fos.phase) for r in ch.rows})
    assert back == ht
    # the affine weak reduction substitutes the pinned value
    reducer = weak_reducer([c.expr for c in res.constraints], fos.phase)
    assert reducer.reduce(parse_expr("p2*q1", t)) == parse_expr("q1", t)
    plan = resolve_plan(select_embedding(res, False), res, ch, chart_hamiltonian(res, ch))
    pb = pullback_total_lagrangian(ch, plan, chart_hamiltonian(res, ch))
    assert pb.kinetic == parse_expr("P1*d(Q1)", t)


def test_coordinate_dependent_kinetic_matrix():
    # p = q^2 v is invertible only where q != 0; the pivot must be logged and
    # the Hamiltonian comes out as a rational function
    from hamdirac import classify, dirac_iterate, legendre

    sys = make_system("(1/2)*q1^2*d(q1)^2", ["q1"])
    t = sys.table
    fos = legendre(sys)
    assert fos.primaries == ()
    assert fos.H == parse_expr("p1^2/(2*q1^2)", t)
    assert any(str(p) == "q1^2" for p in fos.genericity_pivots)
    res = classify(dirac_iterate(fos))
    assert (res.F, res.S, res.dof) == (0, 0, 1)


def test_compile_rational_hamiltonian():
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    h = parse_expr("P^2/(2*(1 + Q^2))", t)
    field = compile_field(h, [(q, p)])
    dq, dp = field.rhs(0.0, (1.0, 2.0))
    assert abs(dq - 2.0 / 2.0) < 1e-14  # dH/dP = P/(1+Q^2)
    assert abs(dp - (2.0 * 2.0 / 4.0)) < 1e-14  # -dH/dQ = P^2 Q/(1+Q^2)^2
    traj = integrate(field, (0.0, 1.0), 0.0, 1.0, 1e-3)
    assert abs(traj.energies[-1] - traj.energies[0]) < 1e-10


def test_inconsistent_offset_constraints():
    t = SymbolTable()
    q = t.position("q")
    p = t.register("p", "momentum")
    from hamdirac.lagrangian import PhaseSpace

    phase = PhaseSpace(t, ((q, p),))
    rows = [_affine_row(parse_expr(text, t), phase.z_order()) for text in ("q", "q - 1")]
    with pytest.raises(InconsistentTheory):
        WeakReducer(rows, phase)


def test_brackets_with_offset_rows_match_canonical_pattern():
    t, fos, res = analyzed("(1/2)*d(q1)^2 + d(q2)", ["q1", "q2"])
    ch = build_chart(res)
    exprs = [r.expr(t, fos.phase) for r in ch.rows]
    n = ch.n
    for i in range(2 * n):
        for j in range(2 * n):
            want = 1 if j == i + n else (-1 if i == j + n else 0)
            assert poisson(exprs[i], exprs[j], fos.phase) == Expr.const(t, want)
