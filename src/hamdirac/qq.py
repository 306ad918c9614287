"""Exact linear algebra over the rationals on sparse integer rows, with the
package's one Gauss-Jordan over Q, `rref_rows`.

A row is a covector as its nonzeros over one denominator den > 0: (entries,
den), `entries` a tuple of (column, nonzero int) pairs in column order.  A
row over (z, 1), z = (q1..qn, p1..pn), holds its offset at column 2n, past
the columns the symplectic pairing reads.  A row is hashable, and a row
operation returns it primitive (gcd(den, *ints) = 1), so a vector has one
row; an affine `Expr` polynomial is a row relabelled.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rref_rows(rows, cols, unit_first=False):
    """Reduce `rows` in place, visiting columns in the order given; returns
    {column: pivot row index} in visit order.  A column pivots on the first
    unused row nonzero there, scaled to a leading 1 and cleared from the
    others, so any nonzero multiple of a row may be handed in.  With
    `unit_first` a row whose entry there is +-1 when the column is visited
    goes first: `dirac._eliminate` asks for it; `solve`, the weak reducer,
    classification, the chart's Xi solve and `lagrangian._row_solve` (which
    must meet `solve_linear`'s pivots) do not.  Only the visited columns are
    indexed, so the entries past them are carried at no cost of their own."""
    visit = set(cols)
    vals = [{j: x for j, x in entries if j in visit} for entries, _den in rows]  # visited entries by column
    where = {}  # column -> the rows that have been nonzero there
    for i, row in enumerate(vals):
        for j in row:
            where.setdefault(j, set()).add(i)
    used, pivots = set(), {}
    for c in cols:
        live = [i for i in where.get(c, ()) if c in vals[i]]
        free = [i for i in live if i not in used]
        if not free:
            continue
        src = min([i for i in free if unit_first and abs(vals[i][c]) == rows[i][1]] or free)
        x = vals[src][c]  # the row over x is the row with a leading 1
        pn, pd = rows[src] = _primitive([(j, v if x > 0 else -v) for j, v in rows[src][0]], abs(x))
        vals[src] = {j: v for j, v in pn if j in visit}
        for i in live:
            if i != src:
                rows[i] = _combine(((pd, rows[i][0]), (-vals[i][c], pn)), rows[i][1] * pd)
                vals[i] = {j: v for j, v in rows[i][0] if j in visit}
                for j in vals[src]:
                    where[j].add(i)
        used.add(src)
        pivots[c] = src
    return pivots


def solve(columns, rhss, size):
    """For each rhs, the particular solution (free variables zero) of
    sum_k x_k columns[k] = rhs over the rows' columns 0..size-1, as {k:
    Fraction} over the pivots, or None when inconsistent: one elimination on
    the rows' numerators, one right-hand side column per rhs."""
    m = len(columns)
    system = [[] for _ in range(size)]
    for k, (entries, _den) in enumerate([*columns, *rhss]):
        for j, x in entries:
            if j < size:
                system[j].append((k, x))
    system = [(tuple(entries), 1) for entries in system]
    pivots = rref_rows(system, range(m))
    free = {j for i, (entries, _den) in enumerate(system) if i not in pivots.values() for j, _x in entries}
    solution = lambda r, d: {k: Fraction(entry(system[i], m + r) * columns[k][1], system[i][1] * d) for k, i in pivots.items()}
    return [None if m + r in free else solution(r, rhs[1]) for r, rhs in enumerate(rhss)]


def to_row(values):
    """The row of a dense list of Fractions (or ints)."""
    den = lcm(*(v.denominator for v in values))
    return _primitive([(j, v.numerator * (den // v.denominator)) for j, v in enumerate(values) if v], den)


def from_row(row, size):
    """A row's dense Fractions over columns 0..size-1 (an offset past them is left out)."""
    vals = dict(row[0])
    return [Fraction(vals.get(j, 0), row[1]) for j in range(size)]


def entry(row, j):
    """A row's integer numerator at column j, 0 where it has none."""
    for k, x in row[0]:
        if k >= j:
            return x if k == j else 0
    return 0


def _primitive(entries, den):
    g = gcd(den, *[x for _j, x in entries])
    return (tuple([(j, x // g) for j, x in entries]), den // g) if g > 1 else (tuple(entries), den)


def _combine(terms, den):
    """The row of sum(k * entries for k, entries in terms) over den."""
    (k, entries), *rest = terms or [(0, ())]
    acc = {j: k * v for j, v in entries}
    get = acc.get
    for k, entries in rest:
        for j, v in entries:
            acc[j] = get(j, 0) + k * v
    g = gcd(den, *acc.values())
    if g > 1:
        return tuple([(j, v // g) for j, v in sorted(acc.items()) if v]), den // g
    return tuple([item for item in sorted(acc.items()) if item[1]]), den


def _pair(a, b, n):
    """The pairing numerator sum_i a_i b_{n+i} - a_{n+i} b_i of two entry tuples."""
    get = dict(b).get
    s = 0
    for j, x in a:
        if j < n:
            s += x * get(j + n, 0)
        elif j < 2 * n:
            s -= x * get(j - n, 0)
    return s


def pairings(rows, others, n):
    """`_pair` of each of `rows` with each of `others`, one dict {index in others:
    nonzero numerator} per row, meeting only the others that share a column."""
    where = {}  # a column of a row -> (other, signed entry) pairs it meets
    for k, (entries, _den) in enumerate(others):
        for t, y in entries:
            if t < n:
                where.setdefault(t + n, []).append((k, -y))
            elif t < 2 * n:
                where.setdefault(t - n, []).append((k, y))
    out = []
    for entries, _den in rows:
        acc = {}
        for j, x in entries:
            for k, y in where.get(j, ()):
                acc[k] = acc.get(k, 0) + x * y
        out.append({k: v for k, v in acc.items() if v})
    return out


def row_bracket(u, v, n):
    """Poisson bracket of two rows over z = (q1..qn, p1..pn), columns past 2n ignored."""
    return Fraction(_pair(u[0], v[0], n), u[1] * v[1])


def row_div(row, c):
    """row / c for a nonzero Fraction c."""
    p, q = (c.numerator, c.denominator) if c > 0 else (-c.numerator, -c.denominator)
    return _primitive([(j, x * q) for j, x in row[0]], row[1] * p)


def row_add(x, c, y):
    """x + c y for a Fraction c."""
    kx = c.denominator * y[1]
    return _combine(((kx, x[0]), (c.numerator * x[1], y[0])), x[1] * kx)


def row_project(x, e, f, n):
    """x - <x, f> e + <x, e> f: x projected off a pair with <e, f> = 1."""
    a, b = _pair(x[0], f[0], n), _pair(x[0], e[0], n)
    if not (a or b):
        return x
    k = e[1] * f[1]
    return _combine(((k, x[0]), (-a, e[0]), (b, f[0])), x[1] * k)
