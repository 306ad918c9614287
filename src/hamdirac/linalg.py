"""Matrices over the rational-function field: linear solving and rank.

A matrix is the list of its rows, each a list of Exprs; `solve_linear`
refuses ragged rows.

These serve the step whose entries may be non-constant: the Legendre
velocity solve of a kinetic matrix that depends on q, or of momenta that
are not affine with constant coefficients (its leftover rows become the
primary constraints).  A constant kinetic matrix never reaches it:
`lagrangian.legendre` reduces that on `qq` integer rows.
`solve_linear` is the one elimination here, and `rank`, which no pipeline
step calls, is its pivot count on A x = 0.  Constant-coefficient elimination,
the primary constraints' independence check and the multiplier system
included, runs on `qq.rref_rows`.

Rank semantics are generic: any entry that is not identically zero is an
acceptable pivot (the analysis works on the open dense region where pivots do
not vanish).  `solve_linear` returns every non-constant pivot it chooses on
its `LinearSolution`, so reports can surface the genericity assumptions.
"""

from __future__ import annotations

from .expr import Expr
from .symbols import _Record


class LinalgError(Exception):
    pass


class LinearSolution(_Record):
    """Affine solution set of A x = b.

    particular sets all free variables to zero; witnesses are leftover
    reduced equations 0 = expr with expr not identically zero
    (inconsistency evidence); genericity_pivots are the pivots that are not
    constant, in the order chosen: the solution holds where they do not vanish.
    """

    __slots__ = ("particular", "pivot_cols", "witnesses", "genericity_pivots")

    def __init__(self, particular: tuple, pivot_cols: tuple, witnesses: tuple = (), genericity_pivots: tuple = ()):
        self._fields(particular, pivot_cols, witnesses, genericity_pivots)


def solve_linear(rows: list, b: list) -> LinearSolution:
    """Full affine solution set of A x = b over the rational-function field,
    A given as its list of rows of Exprs.

    Elimination keeps rows in place (no swaps), so each leftover inconsistent
    equation is attributable to its original row index.  Each column pivots
    on the last eligible row, leaving the earliest redundant rows as the
    inconsistency witnesses.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise LinalgError("ragged rows")
    if m != len(b):
        raise LinalgError("rhs length mismatch")
    if not b:
        raise LinalgError("empty system without context")
    zero = Expr.const(b[0].table, 0)
    rows = [[*rows[i], b[i]] for i in range(m)]
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
        inv = 1 / p
        rows[piv] = [e * inv for e in rows[piv]]
        for i in range(m):
            if i == piv or rows[i][col].is_zero():
                continue
            f = rows[i][col]
            rows[i] = [rows[i][j] - f * rows[piv][j] for j in range(n + 1)]
    particular = [zero] * n
    for col, i in pivot_of_col.items():
        particular[col] = rows[i][n]
    witnesses = [rows[i][n] for i in range(m) if i not in used_rows and not rows[i][n].is_zero()]
    return LinearSolution(particular, sorted(pivot_of_col), witnesses, generic)


def rank(rows: list) -> int:
    """Generic rank of a list of rows of Exprs: the pivot count of
    `solve_linear` on A x = 0."""
    entry = next((e for r in rows for e in r), None)
    if entry is None:  # no rows, or rows of no columns
        return 0
    return len(solve_linear(rows, [Expr.const(entry.table, 0)] * len(rows)).pivot_cols)
