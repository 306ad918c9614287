"""Exact linear algebra over the rationals: the one Gauss-Jordan kernel.

Every constant-coefficient elimination of the analysis runs through
`rref_rows`, Gauss-Jordan on integer rows (below): the first weak reducer of
an analysis, the primaries' independence check, the Gram matrix's kernel and
the unit complement of classification, the chart's conjugate positions, a
supplied chart's span checks and the static correction (`solve`).  The
multiplier solve (`dirac._eliminate`) is Gauss-Jordan over Q too, with its
own pivot policy; for a quadratic H it runs on integer rows with `row_add`
and `row_div`.  The chart pairs its rows with `row_bracket`, `row_div` and
`row_project`.  The caller chooses the column order; each column pivots on
the first row not yet used that is nonzero there, and rows never move, so a
call site's pivots (and with them the report bytes) depend only on the order
it asks for.  Scaling a row by a nonzero number moves no pivot and leaves
the reduced pivot rows as they were, so a caller may hand in any nonzero
multiple of a row, over any positive denominator and not necessarily
primitive.  A row is what an `Expr` polynomial is too, integers over one
positive denominator, so an affine expression and its row convert without
arithmetic (`Expr.affine_row`, `dirac._row_expr`); a row operation costs
one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def rref_rows(rows, cols):
    """Reduce the qq integer `rows` in place, visiting columns in the order
    given; returns {column: pivot row index} in visit order.  A pivot row is
    scaled to a leading 1 and each other row with a nonzero entry there
    takes one integer multiply-subtract and one gcd.  Entries beyond the
    visited columns (an augmented right-hand side, say) are carried along."""
    used = set()
    pivots = {}
    for c in cols:
        src = next((i for i, r in enumerate(rows) if i not in used and r[0][c]), None)
        if src is None:
            continue
        used.add(src)
        nums, den = rows[src]
        pn, pd = rows[src] = row_div(rows[src], Fraction(nums[c], den))
        for i, (r, d) in enumerate(rows):
            f = r[c]
            if i != src and f:
                rows[i] = _primitive([x * pd - f * y for x, y in zip(r, pn)], d * pd)
        pivots[c] = src
    return pivots


def solve(rows, rhs):
    """Particular solution of rows . x = rhs (free variables zero), or None
    when the system is inconsistent.  `rows` (ints or Fractions) must not be
    empty."""
    cols = len(rows[0])
    a = [to_row([*row, b]) for row, b in zip(rows, rhs)]
    pivots = rref_rows(a, range(cols))
    used = set(pivots.values())
    if any(a[i][0][cols] for i in range(len(a)) if i not in used):
        return None
    x = [Fraction(0)] * cols
    for c, i in pivots.items():
        x[c] = Fraction(a[i][0][cols], a[i][1])
    return x


# Integer rows: a covector as (nums, den) standing for [x / den for x in nums],
# den > 0 and gcd(den, *nums) = 1, so a vector has exactly one row.  Brackets
# and projections on them are integer arithmetic plus one gcd per result.

def to_row(values):
    den = lcm(*(v.denominator for v in values))
    return _primitive([v.numerator * (den // v.denominator) for v in values], den)


def from_row(row):
    nums, den = row
    return [Fraction(x, den) if x else Fraction(0) for x in nums]


def _primitive(nums, den):
    g = gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


def _pair(a, b, n):
    return sum(map(mul, a[:n], b[n : 2 * n])) - sum(map(mul, a[n : 2 * n], b[:n]))


def row_bracket(u, v, n):
    """Poisson bracket of two integer rows as covectors over
    z = (q1..qn, p1..pn); entries past 2n are ignored."""
    return Fraction(_pair(u[0], v[0], n), u[1] * v[1])


def row_div(row, c):
    """row / c for a nonzero Fraction c."""
    p, q = (c.numerator, c.denominator) if c > 0 else (-c.numerator, -c.denominator)
    return _primitive([x * q for x in row[0]], row[1] * p)


def row_add(x, c, y):
    """x + c y for a Fraction c."""
    (xs, dx), (ys, dy) = x, y
    kx, ky = c.denominator * dy, c.numerator * dx
    return _primitive([xi * kx + yi * ky for xi, yi in zip(xs, ys)], dx * kx)


def row_project(x, e, f, n):
    """x - <x, f> e + <x, e> f: x projected off a pair with <e, f> = 1."""
    (xs, dx), (es, de), (fs, df) = x, e, f
    a, b = _pair(xs, fs, n), _pair(xs, es, n)
    if not (a or b):
        return x
    k = de * df
    return _primitive([xi * k - a * ei + b * fi for xi, ei, fi in zip(xs, es, fs)], dx * k)
