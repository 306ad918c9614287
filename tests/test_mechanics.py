import pytest

from hamdirac import (
    LagrangianSystem,
    SymbolTable,
    UnsupportedShape,
    classify,
    counter_term,
    dirac_iterate,
    legendre,
    ostrogradsky_reduce,
    parse_expr,
    pons_reduce,
)
from hamdirac.expr import Expr
from hamdirac.linalg import LinearSolution

from conftest import L1_SRC, L2_SRC, L4_SRC, make_system, random_poly, rng_for


def kinetic_matrix(sys):
    """The second velocity-derivative matrix of L, as a list of rows."""
    vels = sys.velocity_symbols()
    return [[sys.L.diff(vi).diff(vj) for vj in vels] for vi in vels]


def test_kinetic_matrix_l1():
    sys = make_system(L1_SRC, ["q1", "q2", "q3"])
    k = kinetic_matrix(sys)
    got = [[str(e) for e in row] for row in k]
    assert got == [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]]


def test_kinetic_matrix_l2_zero():
    sys = make_system(L2_SRC, ["q1", "q2"])
    k = kinetic_matrix(sys)
    assert all(k[i][j].is_zero() for i in range(2) for j in range(2))


def test_kinetic_matrix_free_particle_identity():
    sys = make_system("(1/2)*d(q1)^2 + (1/2)*d(q2)^2", ["q1", "q2"])
    k = kinetic_matrix(sys)
    assert [[str(e) for e in row] for row in k] == [["1", "0"], ["0", "1"]]


def test_kinetic_matrix_symmetric_random():
    rng = rng_for("kinetic-symmetry")
    t = SymbolTable()
    coords = tuple(t.position(n) for n in ("q1", "q2"))
    vels = [t["d(q1)"], t["d(q2)"]]
    for _ in range(20):
        lag = random_poly(t, list(coords) + vels, rng, max_degree=2)
        sys = LagrangianSystem(t, coords, 1, lag)
        k = kinetic_matrix(sys)
        assert all(k[i][j] == k[j][i] for i in range(2) for j in range(i))


def test_legendre_l2():
    sys = make_system(L2_SRC, ["q1", "q2"])
    t = sys.table
    fos = legendre(sys)
    assert [str(p) for p in fos.primaries] == ["q2 + p1", "-q1 + p2"]
    assert fos.H == parse_expr("q1^2 + q2^2", t)


def test_legendre_l1():
    sys = make_system(L1_SRC, ["q1", "q2", "q3"])
    t = sys.table
    fos = legendre(sys)
    assert [str(p) for p in fos.primaries] == ["p2"]
    assert fos.H == parse_expr("p1*p3 - (1/2)*q2*q3^2", t)


def test_legendre_nondegenerate():
    sys = make_system("(1/2)*d(q1)^2 + (1/2)*d(q2)^2", ["q1", "q2"])
    t = sys.table
    fos = legendre(sys)
    assert fos.primaries == ()
    assert fos.H == parse_expr("(1/2)*p1^2 + (1/2)*p2^2", t)


def test_legendre_super_quadratic_rejected():
    sys = make_system("d(q1)^3", ["q1"])
    with pytest.raises(UnsupportedShape):
        legendre(sys)


def test_primary_definition_consistency():
    # substituting the momentum definitions must annihilate every primary
    for src, names in [(L1_SRC, ["q1", "q2", "q3"]), (L2_SRC, ["q1", "q2"])]:
        sys = make_system(src, names)
        fos = legendre(sys)
        t = sys.table
        subs = dict(zip(fos.phase.momenta, sys.L.gradient(sys.velocity_symbols())))
        for phi in fos.primaries:
            assert phi.substitute(subs).is_zero()


def test_counter_term_l4():
    sys = make_system(L4_SRC, ["q"], order=2)
    t = sys.table
    w, red = counter_term(sys)
    assert w == parse_expr("(1/2)*q*d(q)", t)
    assert red.L == parse_expr("(1/2)*d(q)^2 - (1/2)*q^2", t)
    assert red.order == 1
    # the reduced system is a plain nondegenerate oscillator
    fos = legendre(red)
    assert fos.primaries == ()
    assert fos.H == parse_expr("(1/2)*p_q^2 + (1/2)*q^2", t)


def test_counter_term_acceleration_free():
    sys = make_system("(1/2)*d(q)^2 - q^2", ["q"], order=2)
    w, red = counter_term(sys)
    assert w.is_zero()
    assert red.L == sys.L


def test_counter_term_nonconstant_coefficient():
    # oracle: expanding L + dW/dt must remove every acceleration
    sys = make_system("q^2*dd(q)", ["q"], order=2)
    t = sys.table
    w, red = counter_term(sys)
    assert red.L.degree_in(t["dd(q)"]) <= 0
    v, a = Expr.sym(t, t["d(q)"]), Expr.sym(t, t["dd(q)"])
    dw = w.diff(t["q"]) * v + w.diff(t["d(q)"]) * a
    assert sys.L + dw == red.L


def test_counter_term_needs_gradient():
    sys = make_system("d(q1)*dd(q2)", ["q1", "q2"], order=2)
    with pytest.raises(UnsupportedShape):
        counter_term(sys)


def test_ostrogradsky_l4():
    sys = make_system(L4_SRC, ["q"], order=2)
    t = sys.table
    red = ostrogradsky_reduce(sys)
    assert [c.name for c in red.coords] == ["Q1_q", "Q2_q"]
    fos = legendre(red)
    q1, q2 = red.coords
    p1, p2 = fos.phase.momenta
    half = Expr.const(t, 1) / 2
    assert len(fos.primaries) == 1
    assert fos.primaries[0] == Expr.sym(t, p2) + half * Expr.sym(t, q1)
    assert fos.H == Expr.sym(t, p1) * Expr.sym(t, q2) + half * Expr.sym(t, q1) ** 2
    # consistency generates the expected-secondary, then fixes the multiplier
    res = classify(dirac_iterate(fos))
    assert len(res.constraints) == 2
    sec = res.constraints[1].expr
    assert sec == half * Expr.sym(t, q2) - Expr.sym(t, p1)


def test_ostrogradsky_identity_on_first_order():
    sys = make_system(L2_SRC, ["q1", "q2"])
    assert ostrogradsky_reduce(sys) is sys


def test_pons_l4():
    sys = make_system(L4_SRC, ["q"], order=2)
    t = sys.table
    red = pons_reduce(sys)
    assert [c.name for c in red.coords] == ["q", "x1", "lam1"]
    assert red.L == parse_expr("-(1/2)*q*d(x1) - (1/2)*q^2 + lam1*(x1 - d(q))", t)
    fos = legendre(red)
    assert [str(p) for p in fos.primaries] == ["lam1 + p_q", "1/2*q + p_x1", "p_lam1"]


def test_pons_acceleration_free_recovers_velocity():
    # declared second order but with no acceleration: the multiplier pair must
    # collapse to second class and leave the single physical dof
    sys = make_system("(1/2)*d(q)^2", ["q"], order=2)
    fos = legendre(pons_reduce(sys))
    res = classify(dirac_iterate(fos))
    assert (res.F, res.S, res.dof) == (0, 4, 1)


def test_ssok_pons_dof_cross_check():
    dofs = []
    for path in ("ssok", "pons"):
        sys = make_system(L4_SRC, ["q"], order=2)
        red = ostrogradsky_reduce(sys) if path == "ssok" else pons_reduce(sys)
        res = classify(dirac_iterate(legendre(red)))
        dofs.append(res.dof)
    assert dofs == [1, 1]


def _expr_only_solve_linear(a, b):
    """The all-Expr elimination of `linalg.solve_linear`, written out here:
    every entry an Expr (witnesses and particular solution only), each column
    pivoting on the last eligible row, the non-constant pivots kept."""
    table = b[0].table
    rows = [[*row, b[i]] for i, row in enumerate(a)]
    m, n = len(a), len(a[0])
    pivot_of_col, used_rows, generic = {}, set(), []
    for col in range(n):
        piv = next((i for i in reversed(range(m)) if i not in used_rows and not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        pivot_of_col[col] = piv
        used_rows.add(piv)
        p = rows[piv][col]
        if not p.is_constant():
            generic.append(p)
        inv = Expr.const(table, 1) / p
        rows[piv] = [e * inv for e in rows[piv]]
        for i in range(m):
            if i == piv or rows[i][col].is_zero():
                continue
            f = rows[i][col]
            rows[i] = [rows[i][j] - f * rows[piv][j] for j in range(n + 1)]
    particular = [Expr.const(table, 0)] * n
    for col, i in pivot_of_col.items():
        particular[col] = rows[i][n]
    witnesses = [rows[i][n] for i in range(m) if i not in used_rows and not rows[i][n].is_zero()]
    return LinearSolution(particular, sorted(pivot_of_col), witnesses, generic)


def test_legendre_matches_expr_only_elimination(monkeypatch):
    # a constant kinetic matrix is reduced on qq integer rows; H, the
    # primaries, the momentum definitions and the genericity pivots must be the
    # all-Expr elimination's, down to dict key order.  The reference run
    # turns the integer path off, so every case takes the Expr elimination.
    import hamdirac.lagrangian as lagrangian
    from conftest import random_quadratic_lagrangian

    def shape(e):
        return list(e.num.items()), list(e.den.items())

    def run(src, names, order, path):
        sys = make_system(src, names, order)
        if order == 2:
            sys = ostrogradsky_reduce(sys) if path == "ssok" else pons_reduce(sys)
        fos = legendre(sys)
        momenta = dict(fos.phase.pairs)
        defs = zip((momenta[c] for c in sys.genuine_coords()), sys.L.gradient(sys.velocity_symbols()))
        return (
            shape(fos.H),
            [shape(p) for p in fos.primaries],
            [(m.name, shape(d)) for m, d in defs],
            [shape(p) for p in fos.genericity_pivots],
        )

    rng = rng_for("legendre-fraction-elimination")
    cases = [("(1/2)*q2*d(q1)^2 + d(q1)*d(q2) + q1*q2", ["q1", "q2"], 1, None),
             ("(1/2)*(q1 + 1)*(d(q1) + d(q2))^2 - q2^2", ["q1", "q2"], 1, None)]
    for k in range(60):
        order = 1 + k % 2
        names = [f"q{j}" for j in range(1, rng.randint(1, 3 if order == 1 else 2) + 1)]
        for path in (None,) if order == 1 else ("ssok", "pons"):
            cases.append((random_quadratic_lagrangian(rng, names, order), names, order, path))
    row_solve, on_rows = lagrangian._row_solve, []

    def spy(*args):
        out = row_solve(*args)
        on_rows.append(out is not None)
        return out

    saw_log = False
    for case in cases:
        with monkeypatch.context() as m:
            m.setattr(lagrangian, "_row_solve", spy)
            got = run(*case)
        with monkeypatch.context() as m:
            m.setattr(lagrangian, "_row_solve", lambda *args: None)
            m.setattr(lagrangian, "solve_linear", _expr_only_solve_linear)
            want = run(*case)
        assert got == want, case
        saw_log = saw_log or bool(got[3])
    assert saw_log
    # both paths were compared: the hand cases' q-dependent kinetic matrices
    # take the Expr elimination, every random quadratic L the integer rows
    assert on_rows == [False, False] + [True] * (len(cases) - 2)
