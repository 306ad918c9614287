import random
from fractions import Fraction

import pytest

from hamdirac import (
    LagrangianSystem,
    SymbolTable,
    classify,
    dirac_iterate,
    legendre,
    ostrogradsky_reduce,
    parse_expr,
    pons_reduce,
    transform,
)
from hamdirac import qq
from hamdirac.dirac import WeakReducer
from hamdirac.expr import Expr
from hamdirac.lagrangian import PhaseSpace

L1_SRC = "d(q1)*d(q3) + (1/2)*q2*q3^2"
L2_SRC = "q1*d(q2) - q2*d(q1) - q1^2 - q2^2"
L3_SRC = "(1/2)*(q1 + d(q2) + d(q3))^2 + (1/2)*(d(q4) - d(q2))^2 + (1/2)*(q1 + 2*q2)*(q1 + 2*q4)"
L4_SRC = "-(1/2)*q*dd(q) - (1/2)*q^2"


def make_system(src, names, order=1):
    table = SymbolTable()
    coords = tuple(table.position(n) for n in names)
    return LagrangianSystem(table, coords, order, parse_expr(src, table))


def analyzed(src, names, order=1, path=None):
    sys = make_system(src, names, order)
    if order == 2:
        sys = ostrogradsky_reduce(sys) if path in (None, "ssok") else pons_reduce(sys)
    fos = legendre(sys)
    result = classify(dirac_iterate(fos))
    return sys.table, fos, result


@pytest.fixture
def l1():
    return analyzed(L1_SRC, ["q1", "q2", "q3"])


@pytest.fixture
def l2():
    return analyzed(L2_SRC, ["q1", "q2"])


@pytest.fixture
def l3():
    return analyzed(L3_SRC, ["q1", "q2", "q3", "q4"])


@pytest.fixture
def l4_ssok():
    return analyzed(L4_SRC, ["q"], order=2, path="ssok")


@pytest.fixture
def l4_pons():
    return analyzed(L4_SRC, ["q"], order=2, path="pons")


L3_BLOCK = "(1/2)*({1} + d({2}) + d({3}))^2 + (1/2)*(d({4}) - d({2}))^2 + (1/2)*({1} + 2*{2})*({1} + 2*{4})"
FAMILY_RATIONALS = [Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3) for b in (1, 2, 4) if a != b]


def l3_family_source(kind, k, rng):
    """(L, coordinate names) of k copies of L3: scaled blocks (gauge) or
    blocks coupled in a chain (coupled)."""
    names = [f"x{b}_{i}" for b in range(1, k + 1) for i in range(1, 5)]
    terms = []
    for b in range(k):
        block = L3_BLOCK.format(None, *names[4 * b : 4 * b + 4])
        terms.append(f"({rng.choice(FAMILY_RATIONALS)})*({block})" if kind == "gauge" else block)
        if kind == "coupled" and b:
            terms.append(f"({rng.choice(FAMILY_RATIONALS)})*x{b}_2*x{b + 1}_4")
    return " + ".join(terms), names


def l3_family(kind, k, rng):
    return analyzed(*l3_family_source(kind, k, rng))


def random_poly(table, symbols, rng, max_degree=3, terms=4, coeff_range=4):
    """Random polynomial with small rational coefficients, exact arithmetic."""
    e = Expr.const(table, 0)
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-coeff_range, coeff_range), rng.randint(1, 3))
        if c == 0:
            c = Fraction(1)
        term = Expr.const(table, c)
        deg = rng.randint(0, max_degree)
        for _ in range(deg):
            term = term * Expr.sym(table, rng.choice(symbols))
        e = e + term
    return e


def weak_reducer(exprs, phase):
    """The `WeakReducer` of the affine constraints `exprs`, built from their
    rows as the pipeline builds it; `.reduce(e)` is e weakly reduced."""
    z = phase.z_order()
    return WeakReducer([e.affine_row(z) for e in exprs], phase)


def linear_form(e, z):
    """(coefficients over z, offset) of an Expr affine with constant
    coefficients over z, as Fractions; raises ExprError otherwise."""
    *coeffs, offset = qq.from_row(e.affine_row(z), len(z) + 1)
    return coeffs, offset


def chart_hamiltonian(result, chart):
    """H_T in the chart's symbols, the one value the report's embedding
    stage hands every embedding function that reads it."""
    return transform(result.total_hamiltonian(), chart)


def chart_matrix(chart):
    """The chart's rows as dense Fractions over z = (q1..qn, p1..pn), their
    offsets left out: the matrix S that `verify_chart` checks."""
    return [qq.from_row(r.row, 2 * chart.n) for r in chart.rows]


def chart_offsets(chart):
    """Each chart row's offset, the Fraction at column 2n of its row."""
    return [Fraction(qq.entry(r.row, 2 * chart.n), r.row[1]) for r in chart.rows]


def chart_phase(chart):
    """The chart's coordinates as a phase space: each position-block row's
    symbol paired with the symbol of the momentum-block row at its place."""
    n = chart.n
    return PhaseSpace(chart.table, tuple((a.symbol, b.symbol) for a, b in zip(chart.rows[:n], chart.rows[n:])))


def expr_kernel(rows, cols):
    """A basis of the right kernel of a matrix of Exprs (a list of rows), one
    vector per free column, by a plain Gauss-Jordan elimination over the
    rational-function field: an oracle that shares no code with `linalg`."""
    a = [list(r) for r in rows]
    pivots = []  # (row, column) of each pivot, its entry scaled to 1
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if not a[i][col].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][col]
        a[r] = [e / p for e in a[r]]
        for i in range(len(a)):
            if i != r and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
    table = a[0][0].table
    basis = []
    for free in sorted(set(range(cols)) - {c for _r, c in pivots}):
        v = [Expr.const(table, int(c == free)) for c in range(cols)]
        for r, c in pivots:
            v[c] = -a[r][free]
        basis.append(v)
    return basis


def expr_matvec(rows, v):
    """The product of a matrix of Exprs (a list of rows) and a vector."""
    return [sum((x * y for x, y in zip(row, v)), Expr.const(v[0].table, 0)) for row in rows]


def sympy_rank(vectors):
    """The rank of a list of rational vectors, by sympy (imported here, so the
    tests that need no sympy load without it)."""
    import sympy

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vectors]).rank()


def dense_solve(rows, rhs):
    """`qq.solve` on a dense system rows . x = rhs of Fractions: the
    particular solution as a dense list, or None when inconsistent."""
    from hamdirac import qq

    (x,) = qq.solve([qq.to_row(list(col)) for col in zip(*rows)], [qq.to_row(list(rhs))], len(rows))
    return None if x is None else [x.get(k, Fraction(0)) for k in range(len(rows[0]))]


def rng_for(name):
    return random.Random(name)


def random_quadratic_lagrangian(rng, names, order=1):
    """Random L of degree 2 in the coordinates and their derivatives: a few
    squares of random combinations (so the kinetic matrix is often singular),
    and sparse q*d(q), q*q, d(q) and q terms (constant constraint offsets);
    order 2 adds q*dd(q) terms."""
    rats = FAMILY_RATIONALS
    terms = []
    for _ in range(rng.choice([0, 1, 1, 2, 2, 2, 3])):
        parts = [f"({rng.choice(rats)})*d({q})" for q in names if rng.random() < 0.7]
        parts += [f"({rng.choice(rats)})*{q}" for q in names if rng.random() < 0.25]
        if parts:
            terms.append(f"({rng.choice(rats)})*({' + '.join(parts)})^2")
    for q in names:
        for p in names:
            if rng.random() < 0.15:
                terms.append(f"({rng.choice(rats)})*{q}*d({p})")
            if rng.random() < 0.12:
                terms.append(f"({rng.choice(rats)})*{q}*{p}")
        for fmt in ("d({})", "{}"):
            if rng.random() < 0.2:
                terms.append(f"({rng.choice(rats)})*{fmt.format(q)}")
        if order == 2 and rng.random() < 0.6:
            terms.append(f"({rng.choice(rats)})*{rng.choice(names)}*dd({q})")
    if order == 2 and not any("dd(" in t for t in terms):
        terms.append(f"({rng.choice(rats)})*{names[0]}*dd({names[0]})")
    return " + ".join(terms) or f"d({names[0]})^2"
