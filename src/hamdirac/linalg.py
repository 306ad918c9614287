"""Matrices over the rational-function field: rank, kernel, linear solving.

These serve the steps whose entries may be non-constant: the Legendre
velocity solve (its leftover rows become the primary constraints) and the
rank check on the primary Jacobian.  `solve_linear` is the one elimination
here: the rank and the kernel are read off its solution of A x = 0.
Constant-coefficient elimination lives in `qq`; the multiplier system keeps
its own pivot policy in `dirac._eliminate`.

Rank semantics are generic: any entry that is not identically zero is an
acceptable pivot (the analysis works on the open dense region where pivots do
not vanish).  `solve_linear` can log every non-constant pivot it chooses so
reports can surface the genericity assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Expr


class LinalgError(Exception):
    pass


@dataclass
class ExprMatrix:
    rows: int
    cols: int
    entries: list  # list of rows of Expr

    @staticmethod
    def from_rows(rows_list) -> "ExprMatrix":
        if not rows_list:
            return ExprMatrix(0, 0, [])
        cols = len(rows_list[0])
        for r in rows_list:
            if len(r) != cols:
                raise LinalgError("ragged rows")
        return ExprMatrix(len(rows_list), cols, [list(r) for r in rows_list])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def matvec(self, v):
        out = []
        for i in range(self.rows):
            acc = None
            for j in range(self.cols):
                t = self.entries[i][j] * v[j]
                acc = t if acc is None else acc + t
            out.append(acc)
        return out

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )


@dataclass
class LinearSolution:
    """Affine solution set of A x = b.

    particular sets all free variables to zero; kernel_basis spans the
    homogeneous solutions; witnesses are leftover reduced equations
    0 = expr with expr not identically zero (inconsistency evidence).
    """

    particular: list
    kernel_basis: list
    pivot_cols: list
    free_cols: list
    witnesses: list = field(default_factory=list)
    witness_rows: list = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.witnesses


def solve_linear(a: ExprMatrix, b: list, pivot_log: list | None = None, prefer_late_rows: bool = False) -> LinearSolution:
    """Full affine solution set of A x = b over the rational-function field.

    Elimination keeps rows in place (no swaps), so each leftover inconsistent
    equation is attributable to its original row index.  With
    prefer_late_rows each column pivots on the last eligible row, leaving the
    earliest redundant rows as the inconsistency witnesses.
    """
    if a.rows != len(b):
        raise LinalgError("rhs length mismatch")
    table = b[0].table if b else (a.entries[0][0].table if a.rows else None)
    if table is None:
        raise LinalgError("empty system without context")
    zero = Expr.const(table, 0)
    rows = [a.row(i) + [b[i]] for i in range(a.rows)]
    n = a.cols
    pivot_of_col = {}
    used_rows = set()
    row_order = range(a.rows - 1, -1, -1) if prefer_late_rows else range(a.rows)
    for col in range(n):
        piv = None
        for i in row_order:
            if i not in used_rows and not rows[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        pivot_of_col[col] = piv
        used_rows.add(piv)
        p = rows[piv][col]
        if pivot_log is not None and not p.is_constant():
            pivot_log.append(p)
        inv = Expr.const(table, 1) / p
        rows[piv] = [e * inv for e in rows[piv]]
        for i in range(a.rows):
            if i == piv or rows[i][col].is_zero():
                continue
            f = rows[i][col]
            rows[i] = [rows[i][j] - f * rows[piv][j] for j in range(n + 1)]
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [zero] * n
    for col, i in pivot_of_col.items():
        particular[col] = rows[i][n]
    kernel = []
    for fc in free_cols:
        v = [zero] * n
        v[fc] = Expr.const(table, 1)
        for col, i in pivot_of_col.items():
            v[col] = -rows[i][fc]
        kernel.append(v)
    witnesses, witness_rows = [], []
    for i in range(a.rows):
        if i in used_rows:
            continue
        if not rows[i][n].is_zero():
            witnesses.append(rows[i][n])
            witness_rows.append(i)
    return LinearSolution(particular, kernel, sorted(pivot_of_col), free_cols, witnesses, witness_rows)


def _homogeneous(m: ExprMatrix) -> LinearSolution:
    return solve_linear(m, [Expr.const(m.entries[0][0].table, 0)] * m.rows)


def rank(m: ExprMatrix) -> int:
    """Generic rank: the pivot count of `solve_linear` on A x = 0."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_homogeneous(m).pivot_cols)


def null_space(m: ExprMatrix) -> list:
    """Basis of the right kernel; size cols - rank."""
    if m.rows == 0:
        raise LinalgError("null_space needs at least one row")
    return _homogeneous(m).kernel_basis
