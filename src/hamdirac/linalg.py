"""Matrices over the rational-function field: linear solving and rank.

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


class ExprMatrix(_Record):
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        self._fields(rows, cols, entries)  # entries: rows of Expr, each a tuple

    @staticmethod
    def from_rows(rows_list) -> "ExprMatrix":
        cols = len(rows_list[0]) if rows_list else 0
        if any(len(r) != cols for r in rows_list):
            raise LinalgError("ragged rows")
        return ExprMatrix(len(rows_list), cols, [tuple(r) for r in rows_list])


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


def solve_linear(a: ExprMatrix, b: list) -> LinearSolution:
    """Full affine solution set of A x = b over the rational-function field.

    Elimination keeps rows in place (no swaps), so each leftover inconsistent
    equation is attributable to its original row index.  Each column pivots
    on the last eligible row, leaving the earliest redundant rows as the
    inconsistency witnesses.
    """
    if a.rows != len(b):
        raise LinalgError("rhs length mismatch")
    table = b[0].table if b else (a.entries[0][0].table if a.rows else None)
    if table is None:
        raise LinalgError("empty system without context")
    zero = Expr.const(table, 0)
    rows = [[*a.entries[i], b[i]] for i in range(a.rows)]
    n = a.cols
    pivot_of_col, used_rows, generic = {}, set(), []
    for col in range(n):
        piv = next((i for i in reversed(range(a.rows)) if i not in used_rows and not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        pivot_of_col[col] = piv
        used_rows.add(piv)
        p = rows[piv][col]
        if not p.is_constant():
            generic.append(p)
        inv = 1 / p
        rows[piv] = [e * inv for e in rows[piv]]
        for i in range(a.rows):
            if i == piv or rows[i][col].is_zero():
                continue
            f = rows[i][col]
            rows[i] = [rows[i][j] - f * rows[piv][j] for j in range(n + 1)]
    particular = [zero] * n
    for col, i in pivot_of_col.items():
        particular[col] = rows[i][n]
    witnesses = [rows[i][n] for i in range(a.rows) if i not in used_rows and not rows[i][n].is_zero()]
    return LinearSolution(particular, sorted(pivot_of_col), witnesses, generic)


def rank(m: ExprMatrix) -> int:
    """Generic rank: the pivot count of `solve_linear` on A x = 0."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(solve_linear(m, [Expr.const(m.entries[0][0].table, 0)] * m.rows).pivot_cols)
