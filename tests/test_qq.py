"""The exact elimination kernel against oracles that share no code with it.

sympy supplies rref, rank and consistency (`rref_rows` is checked through
`to_row` and `from_row`), imported only by the two tests that use it (marked
`extras`); products and inverses of the symplectic checks are plain list
arithmetic written here.
"""

import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from hamdirac import SymbolTable, build_chart, qq, transform
from hamdirac.chart import CanonicalChart, ChartRow, _chart_map
from hamdirac.expr import Expr
from hamdirac.lagrangian import PhaseSpace
from hamdirac.report import PipelineOptions, run_pipeline
from hamdirac.sysfile import load_system_file

from conftest import chart_matrix


def random_matrix(rng, rows, cols):
    """Small rationals, with zero rows, duplicate rows and dependent rows mixed in."""
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.15:
            m[i] = [Fraction(0)] * cols
        elif roll < 0.3 and i:
            m[i] = list(m[rng.randrange(i)])
        elif roll < 0.45 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = Fraction(rng.randint(-2, 2), rng.randint(1, 2)), Fraction(rng.randint(-2, 2))
            m[i] = [s * x + t * y for x, y in zip(m[a], m[b])]
    if rng.random() < 0.3:  # a zero column too
        k = rng.randrange(cols)
        for row in m:
            row[k] = Fraction(0)
    return m


def to_sympy(m):
    import sympy

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def matrices(name, count=60):
    rng = random.Random(name)
    for _ in range(count):
        yield rng, random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))


@pytest.mark.extras
def test_rref_matches_sympy_in_natural_and_permuted_order():
    for rng, m in matrices("qq-rref"):
        cols = len(m[0])
        for order in (list(range(cols)), rng.sample(range(cols), cols)):
            work = [qq.to_row(row) for row in m]
            pivots = qq.rref_rows(work, order)
            work = [qq.from_row(row, cols) for row in work]
            want, want_pivots = to_sympy([[row[c] for c in order] for row in m]).rref()
            assert [order.index(c) for c in pivots] == list(want_pivots)
            # rows keep their index: pivot rows hold the reduced rows, the rest are zero
            if pivots:
                got = [[work[i][c] for c in order] for i in pivots.values()]
                assert to_sympy(got) == want[: len(pivots), :]
            used = set(pivots.values())
            assert all(not any(work[i]) for i in range(len(m)) if i not in used)


def test_rref_pivot_rule_first_unused_row():
    rows = [qq.to_row([Fraction(x) for x in row]) for row in ([0, 2], [3, 1], [3, 1])]
    assert qq.rref_rows(rows, [0, 1]) == {0: 1, 1: 0}
    assert [qq.from_row(row, 2) for row in rows] == [[0, 1], [1, 0], [0, 0]]
    rows = [qq.to_row([Fraction(x) for x in row]) for row in ([0, 2], [3, 1])]
    assert qq.rref_rows(rows, [1, 0]) == {1: 0, 0: 1}


@pytest.mark.extras
def test_solve_satisfies_or_reports_inconsistency():
    for rng, m in matrices("qq-solve"):
        cols = len(m[0])
        if rng.random() < 0.5:
            x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in m]
        else:
            rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in m]
        a = to_sympy(m)
        consistent = a.rank() == a.row_join(to_sympy([[b] for b in rhs])).rank()
        (x,) = qq.solve([qq.to_row(list(col)) for col in zip(*m)], [qq.to_row(rhs)], len(m))
        assert (x is not None) == consistent
        if x is not None:
            x = [x.get(k, Fraction(0)) for k in range(cols)]
            assert [sum(a * xi for a, xi in zip(row, x)) for row in m] == rhs


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def identity(dim):
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def j_matrix(n):
    return [[Fraction(1 if j == i + n else -1 if i == j + n else 0) for j in range(2 * n)] for i in range(2 * n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def shear(rng, n, lower):
    """[[I, A], [0, I]] (or its lower twin) with A symmetric: symplectic."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    s = identity(2 * n)
    for i in range(n):
        for j in range(n):
            if lower:
                s[n + i][j] = a[i][j]
            else:
                s[i][n + j] = a[i][j]
    return s


def test_symplectic_inverse_on_random_shear_products():
    rng = random.Random("qq-symplectic")
    for _ in range(40):
        n = rng.randint(1, 4)
        s = identity(2 * n)
        for _ in range(rng.randint(1, 5)):
            s = matmul(s, shear(rng, n, lower=rng.random() < 0.5))
        if rng.random() < 0.3:
            s = matmul(s, j_matrix(n))
        assert matmul(transpose(s), matmul(j_matrix(n), s)) == j_matrix(n)
        assert matmul(chart_inverse(chart_of(s)), s) == identity(2 * n)


def test_symplectic_inverse_on_fixture_charts(l1, l2, l3, l4_ssok, l4_pons):
    charts = [build_chart(res) for _t, _fos, res in (l1, l2, l3, l4_ssok, l4_pons)]
    for name in ("cawley", "l2", "l3", "l4"):  # l3's chart is the supplied one
        sysfile = load_system_file(str(resources.files("hamdirac") / "fixtures" / f"{name}.sys"))
        charts.append(run_pipeline(sysfile, PipelineOptions(), stage="chart").chart)
    pons = load_system_file(str(resources.files("hamdirac") / "fixtures" / "l4.sys"))
    charts.append(run_pipeline(pons, PipelineOptions(path="pons"), stage="chart").chart)
    for chart in charts:
        s = chart_matrix(chart)
        assert matmul(chart_inverse(chart), s) == identity(len(s))
        # with the offsets: each chart row's expression transforms to its symbol
        for row in chart.rows:
            assert transform(row.expr(chart.table, chart.phase), chart) == Expr.sym(chart.table, row.symbol)


def chart_of(s):
    """A chart whose rows are those of S, all offsets zero."""
    n = len(s) // 2
    t = SymbolTable()
    qs = [t.position(f"q{i}") for i in range(n)]
    ps = [t.register(f"p{i}", "momentum") for i in range(n)]
    roles = ["Q"] * n + ["P"] * n
    rows = [ChartRow(role, j % n + 1, qq.to_row([*r, Fraction(0)]), t.position(f"Y{j}")) for j, (role, r) in enumerate(zip(roles, s))]
    return CanonicalChart(PhaseSpace(t, tuple(zip(qs, ps))), rows)


def chart_inverse(chart):
    """S^-1 read off the chart map that `transform` substitutes: entry (i, j)
    is the coefficient of chart symbol j in phase coordinate i."""
    zmap = _chart_map(chart.phase, [(r.symbol, r.row) for r in chart.rows])
    return [[Fraction(zmap[z].num.get(((r.symbol.index, 1),), 0), zmap[z].den[()]) for r in chart.rows] for z in chart.phase.z_order()]


def test_bracket_is_the_canonical_pairing():
    # {q1, p1} = 1, {p1, q1} = -1, {q1, q2} = 0 over z = (q1, q2, p1, p2)
    e = [qq.to_row(v) for v in identity(4)]
    assert qq.row_bracket(e[0], e[2], 2) == 1
    assert qq.row_bracket(e[2], e[0], 2) == -1
    assert qq.row_bracket(e[0], e[1], 2) == 0


def random_covector(rng, size):
    """Small rationals with zeros mixed in, sometimes all zero."""
    if rng.random() < 0.1:
        return [Fraction(0)] * size
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) if rng.random() < 0.7 else Fraction(0) for _ in range(size)]


def test_integer_rows_round_trip():
    rng = random.Random("qq-rows")
    for _ in range(200):
        v = random_covector(rng, rng.randint(1, 9))
        entries, den = row = qq.to_row(v)
        # the nonzeros, as (column, int) pairs in increasing column order
        assert type(entries) is tuple and [j for j, _x in entries] == [j for j, x in enumerate(v) if x]
        assert den > 0 and all(type(x) is int and x for _j, x in entries)
        assert math.gcd(den, *(x for _j, x in entries)) == 1  # primitive: one row per vector
        assert qq.from_row(row, len(v)) == v and qq.from_row(row, len(v) + 2) == v + [0, 0]
        assert hash(row) == hash(qq.to_row(list(v)))
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        assert qq.from_row(qq.row_div(row, c), len(v)) == [x / c for x in v]
        assert qq.row_div(row, c)[1] > 0


def test_integer_bracket_and_projection_match_fractions():
    rng = random.Random("qq-row-bracket")
    for _ in range(200):
        n = rng.randint(1, 5)
        u, v, x = (random_covector(rng, 2 * n) for _ in range(3))
        br = pairing(u, v, n)
        assert qq.row_bracket(qq.to_row(u), qq.to_row(v), n) == br
        # an offset past 2n rides along and stays out of the bracket
        assert qq.row_bracket(qq.to_row(u + [Fraction(7, 3)]), qq.to_row(v + [Fraction(-2)]), n) == br
        if not br:
            continue
        e, f = u, [c / br for c in v]  # <e, f> = 1
        a, b = pairing(x, f, n), pairing(x, e, n)
        want = [xi - a * ei + b * fi for xi, ei, fi in zip(x, e, f)]
        got = qq.from_row(qq.row_project(qq.to_row(x), qq.to_row(e), qq.to_row(f), n), 2 * n)
        assert got == want
        assert pairing(got, e, n) == 0 and pairing(got, f, n) == 0


def pairing(u, v, n):
    """The Poisson bracket of two Fraction covectors over z = (q1..qn, p1..pn)."""
    return sum((u[i] * v[n + i] - u[n + i] * v[i] for i in range(n)), Fraction(0))


def test_row_add_matches_fractions():
    rng = random.Random("qq-row-add")
    for _ in range(200):
        size = rng.randint(1, 9)
        x, y = random_covector(rng, size), random_covector(rng, size)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        got = qq.row_add(qq.to_row(x), c, qq.to_row(y))
        assert qq.from_row(got, size) == [a + c * b for a, b in zip(x, y)]
        assert got[1] > 0 and math.gcd(got[1], *(v for _j, v in got[0])) == 1
