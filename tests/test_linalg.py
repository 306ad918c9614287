from fractions import Fraction

import pytest

from hamdirac import SymbolTable, parse_expr, rank, solve_linear
from hamdirac.expr import Expr
from hamdirac.linalg import LinalgError

from conftest import expr_kernel, expr_matvec, random_poly, rng_for


def rank_naive(rows: list) -> int:
    """Plain Gaussian elimination over the field; oracle for rank()."""
    if not rows or not rows[0]:
        return 0
    a = [list(row) for row in rows]
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if not a[i][col].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            if a[i][col].is_zero():
                continue
            f = a[i][col] / a[r][col]
            for j in range(col, ncols):
                a[i][j] = a[i][j] - f * a[r][j]
        r += 1
        if r == nrows:
            break
    return r


def const_matrix(table, rows):
    return [[Expr.const(table, v) for v in row] for row in rows]


def test_rank_examples():
    t = SymbolTable()
    t.position("q1")
    k_l1 = const_matrix(t, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert rank(k_l1) == 2
    assert rank(const_matrix(t, [[0, 0], [0, 0]])) == 0
    assert rank(const_matrix(t, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_null_space_l1_kinetic():
    t = SymbolTable()
    t.position("q1")
    k = const_matrix(t, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert rank(k) == 2
    basis = expr_kernel(k, len(k[0]))
    assert len(basis) == 1
    # oracle: K . tau = 0 by direct multiplication
    for v in basis:
        assert all(e.is_zero() for e in expr_matvec(k, v))
    assert [str(e) for e in basis[0]] == ["0", "1", "0"]


def test_null_space_invertible_empty():
    t = SymbolTable()
    t.position("q1")
    m = const_matrix(t, [[2, 1], [1, 1]])
    assert rank(m) == 2 and expr_kernel(m, len(m[0])) == []


def test_null_space_l3_kinetic():
    t = SymbolTable()
    t.position("q1")
    k = const_matrix(t, [[0, 0, 0, 0], [0, 2, 1, -1], [0, 1, 1, 0], [0, -1, 0, 1]])
    assert rank(k) == 2
    basis = expr_kernel(k, len(k[0]))
    assert len(basis) == 2
    for v in basis:
        assert all(e.is_zero() for e in expr_matvec(k, v))


def test_solve_linear_all_free():
    t = SymbolTable()
    t.position("q1")
    zero = Expr.const(t, 0)
    a = const_matrix(t, [[0, 0], [0, 0]])
    sol = solve_linear(a, [zero, zero])
    assert not sol.witnesses
    assert sol.pivot_cols == () and sol.particular == (zero, zero)


def test_solve_linear_witness():
    t = SymbolTable()
    q1 = t.position("q1")
    q2 = t.position("q2")
    a = const_matrix(t, [[1], [1]])
    b = [Expr.sym(t, q1), Expr.sym(t, q2)]
    sol = solve_linear(a, b)
    # the column pivots on the last row, so the leftover equation is the
    # first row's, q1 - q2 = 0
    assert sol.witnesses == (parse_expr("q1 - q2", t),)


def test_solve_linear_returns_symbolic_pivot():
    t = SymbolTable()
    q1 = t.position("q1")
    a = [[Expr.sym(t, q1)], [Expr.const(t, 2)]]
    sol = solve_linear(a, [Expr.const(t, 1), Expr.sym(t, q1)])
    assert sol.witnesses == (parse_expr("1 - q1^2/2", t),)
    assert sol.particular[0] == parse_expr("q1/2", t)
    # a constant pivot is no genericity assumption
    assert sol.genericity_pivots == ()
    sol = solve_linear([[Expr.sym(t, q1)]], [Expr.const(t, 1)])
    assert not sol.witnesses
    assert sol.particular[0] == parse_expr("1/(q1)", t)
    assert [str(p) for p in sol.genericity_pivots] == ["q1"]


def test_solve_linear_refuses_ragged_rows():
    t = SymbolTable()
    t.position("q1")
    one = Expr.const(t, 1)
    with pytest.raises(LinalgError, match="ragged rows"):
        solve_linear([[one, one], [one]], [one, one])
    with pytest.raises(LinalgError, match="ragged rows"):
        rank([[], [one]])
    assert rank([]) == rank([[], []]) == 0


def test_rank_nullity_random():
    t = SymbolTable()
    syms = [t.position(n) for n in ("q1", "q2")]
    rng = rng_for("rank-nullity")
    for trial in range(110):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        # symbolic entries only on small matrices; expression swell is not
        # what this invariant is about
        use_syms = trial % 8 == 0 and rows <= 3 and cols <= 3
        entries = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                if use_syms and rng.random() < 0.3:
                    row.append(random_poly(t, syms, rng, max_degree=1, terms=2))
                else:
                    row.append(Expr.const(t, Fraction(rng.randint(-3, 3))))
            entries.append(row)
        r = rank(entries)
        basis = expr_kernel(entries, cols)
        assert r + len(basis) == cols
        assert rank_naive(entries) == r
        for v in basis:
            assert all(e.is_zero() for e in expr_matvec(entries, v))


def test_rank_stable_under_permutation():
    t = SymbolTable()
    t.position("q1")
    rng = rng_for("rank-permutation")
    for _ in range(30):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        entries = [[Expr.const(t, Fraction(rng.randint(-2, 2))) for _ in range(cols)] for _ in range(rows)]
        r = rank(entries)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        shuffled = [[entries[i][j] for j in cp] for i in rp]
        assert rank(shuffled) == r


def test_fraction_free_handles_rational_entries():
    t = SymbolTable()
    q1 = t.position("q1")
    half_over_q = parse_expr("1/(2*q1)", t)
    m = [[half_over_q, Expr.const(t, 1)], [Expr.const(t, 1), parse_expr("2*q1", t)]]
    assert rank(m) == 1
    assert rank_naive(m) == 1


@pytest.mark.extras
def test_rank_matches_sympy_on_rational_function_matrices():
    # M = L R with an identity block in L and in R has rank exactly r; rows
    # scaled by rational functions and rows and columns shuffled
    import sympy

    t = SymbolTable()
    syms = [t.position(n) for n in ("q1", "q2")]
    sp = sympy.symbols("q1 q2")
    rng = rng_for("rank-sympy")

    def entry():
        e = random_poly(t, syms, rng, max_degree=1, terms=2)
        if rng.random() < 0.3:
            den = random_poly(t, syms, rng, max_degree=1, terms=2)
            if not den.is_zero():
                e = e / den
        return e

    def to_sympy(e):
        return sympy.sympify(str(e).replace("^", "**"), locals=dict(zip(("q1", "q2"), sp)))

    one, zero = Expr.const(t, 1), Expr.const(t, 0)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(rows, cols))
        left = [[one if i == j else zero for j in range(r)] for i in range(r)]
        left += [[entry() for _ in range(r)] for _ in range(rows - r)]
        right = [[one if i == j else zero for j in range(r)] + [entry() for _ in range(cols - r)] for i in range(r)]
        m = [[sum((left[i][k] * right[k][j] for k in range(r)), zero) for j in range(cols)] for i in range(rows)]
        for i in range(rows):
            scale = entry()
            if not scale.is_zero():
                m[i] = [e * scale for e in m[i]]
        rng.shuffle(m)
        perm = list(range(cols))
        rng.shuffle(perm)
        m = [[row[j] for j in perm] for row in m]
        assert rank(m) == r
        assert sympy.Matrix([[to_sympy(e) for e in row] for row in m]).rank(simplify=True) == r
