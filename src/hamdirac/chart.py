"""Canonical charts built from classified constraints, plus verification.

The linear construction: second-class representatives are paired by a
symplectic Gram-Schmidt sweep with one member of each pair rescaled to a unit
bracket; every first-class representative becomes a momentum row and gets a
conjugate position row solved inside the remaining symplectic complement; the
same sweep completes the leftover complement into physical (Q, P) pairs.
All of it over exact rationals: a chart row is one qq integer row over
(z, 1), from its construction through the static correction, verification
and transform.

The correction pass never transforms H_T: a chart row's velocity is the row
against H_T's Hamiltonian field, written in (Q, P) through `_inverse_map`, the
affine map z -> chart symbols that `transform` substitutes (`_chart_map`),
read off the closed-form S^-1 of the chart's integer rows.  For an H_T of
degree <= 2 the field is one integer matrix and the velocity stays on
integers until its coefficients are read; otherwise it is an Expr.

Verification decides each entry of S^T J S on the integer pairing of two
columns.  Charts with irrational entries (the usual 1/sqrt(2)
normalizations) are verified in float mode: the same kernel on the exact
values of the given doubles, compared with a tolerance.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from . import qq
from .dirac import DiracResult, DiracError, _row_expr, field_bracket, hamilton_field, quadratic_field, row_field_bracket
from .expr import Expr, ExprError
from .lagrangian import PhaseSpace
from .symbols import _Frozen, _Record


class ChartError(Exception):
    pass


ROLE_CONJUGATE = {"Xi": "Psi", "Psi": "Xi", "ThU": "ThD", "ThD": "ThU", "Q": "P", "P": "Q"}


class ChartRow(_Frozen):
    __slots__ = ("role", "pair", "row", "symbol", "generation")

    def __init__(self, role: str, pair: int, row: tuple, symbol: object, generation: int | None = None):
        # pair: 1-based index within the role family; row: a qq integer row
        # over (z, 1), z = (q1..qn, p1..pn): (nums, den), the offset last;
        # generation: Psi rows and a built chart's Xi rows, their constraint's
        self._fields(role, pair, (tuple(row[0]), row[1]), symbol, generation)

    @property
    def name(self):
        return self.symbol.name

    @property
    def coeffs(self) -> list:
        """The row's Fractions over z."""
        return qq.from_row(self.row)[:-1]

    @property
    def offset(self) -> Fraction:
        nums, den = self.row
        return Fraction(nums[-1], den)

    def expr(self, table, phase) -> Expr:
        return _row_expr(self.row, phase.z_order(), table)


class CanonicalChart(_Record):
    __slots__ = ("phase", "rows", "notes", "hamiltonian")

    def __init__(self, phase: PhaseSpace, rows: list, notes: list | None = None, hamiltonian: Expr | None = None):
        self.phase = phase
        self.rows = rows  # position block then momentum block, canonical role order
        self.notes = [] if notes is None else notes
        self.hamiltonian = hamiltonian  # transformed H_T, kept by report.attach_embedding

    @property
    def n(self):
        return self.phase.n

    @property
    def table(self):
        return self.phase.table

    def position_rows(self):
        return self.rows[: self.n]

    def momentum_rows(self):
        return self.rows[self.n :]

    def rows_by_role(self, role):
        return [r for r in self.rows if r.role == role]

    def matrix(self):
        return [r.coeffs for r in self.rows]

    def offsets(self):
        return [r.offset for r in self.rows]

    def chart_phase(self) -> PhaseSpace:
        pairs = tuple((p.symbol, m.symbol) for p, m in zip(self.position_rows(), self.momentum_rows()))
        return PhaseSpace(self.table, pairs)

    def conjugate(self, row: ChartRow) -> ChartRow:
        want = ROLE_CONJUGATE[row.role]
        for r in self.rows:
            if r.role == want and r.pair == row.pair:
                return r
        raise ChartError(f"chart row {row.name} has no conjugate")


def build_chart(result: DiracResult) -> CanonicalChart:
    """Symplectic Gram-Schmidt completion of the classified constraints."""
    if not result.classified:
        raise ChartError("classify the Dirac result before building a chart")
    n = result.phase.n
    pool = [rep.row for rep in result.second_class]  # integer rows, the offset carried as entry 2n
    theta_rows = _symplectic_pairs(pool, n)

    # conjugate positions for the first-class momenta: <x_a, psi_b> = delta_ab
    # and <x_a, theta> = 0, one right-hand-side column per a in one elimination
    f_count = len(result.first_class)
    grads = [rep.row for rep in result.first_class] + [v for pair in theta_rows for v in pair]
    system = [
        qq._primitive(_sympl_grad(nums[: 2 * n], n) + [den * (b == a) for a in range(f_count)], den)
        for b, (nums, den) in enumerate(grads)
    ]
    pivots = qq.rref_rows(system, range(2 * n)) if f_count else {}
    used = set(pivots.values())
    if any(any(nums[2 * n :]) for i, (nums, _den) in enumerate(system) if i not in used):
        raise DiracError("no conjugate for a first-class momentum; classification bug")
    xi_rows = []  # integer rows, the offset carried as entry 2n
    den = math.lcm(*(system[i][1] for i in used))
    for a in range(f_count):
        x = [0] * (2 * n + 1)
        for col, i in pivots.items():
            x[col] = system[i][0][2 * n + a] * (den // system[i][1])
        x = qq._primitive(x, den)
        for xb, rep_b in zip(xi_rows, result.first_class):
            c = qq.row_bracket(xb, x, n)
            if c:
                x = qq.row_add(x, -c, rep_b.row)
        xi_rows.append(x)

    # each standard-basis seed is projected once through the placed pairs,
    # then through each (Q, P) pair as it is found; the seeds are 2n long, so
    # the placed pairs' offsets drop out and a (Q, P) row gets offset zero
    placed = theta_rows + [(xi, rep.row) for xi, rep in zip(xi_rows, result.first_class)]
    seeds = [([int(i == k) for k in range(2 * n)], 1) for i in range(2 * n)]
    for e, f in placed:
        seeds = [qq.row_project(s, e, f, n) for s in seeds]
    qp_rows = [tuple((nums + [0], den) for nums, den in pair) for pair in _symplectic_pairs(seeds, n)]
    if 2 * len(theta_rows) != len(pool) or f_count + len(theta_rows) + len(qp_rows) != n:
        raise DiracError("symplectic Gram-Schmidt left rows unpaired; classification bug")

    chart = _assemble(result, xi_rows, theta_rows, qp_rows)
    # the rows' brackets: S J S^T = J, which for a square S is S^T J S = J
    if dev := _bracket_deviations([r.row for r in chart.rows], n):
        raise DiracError(f"internal: built chart fails S J S^T = J at {sorted(dev.items())[:3]}")
    return chart


def _symplectic_pairs(rows, n):
    """Symplectic Gram-Schmidt on qq integer rows: the first nonzero row e is
    paired with the first later row it brackets with, rescaled to <e, f> = 1,
    and the rest are projected off the pair; rows that reach zero are dropped.
    Stops when no row is left or e brackets with none."""
    pairs = []
    rows = [r for r in rows if any(r[0])]
    while rows:
        e = rows.pop(0)
        k, br = next(((k, br) for k, f in enumerate(rows) if (br := qq.row_bracket(e, f, n))), (None, 0))
        if not br:
            break
        f = qq.row_div(rows.pop(k), br)
        rows = [x for x in (qq.row_project(x, e, f, n) for x in rows) if any(x[0])]
        pairs.append((e, f))
    return pairs


def _assemble(result: DiracResult, xi_rows, theta_rows, qp_rows) -> CanonicalChart:
    """The chart of the placed integer rows (offset as entry 2n), statically
    corrected: rows in the order Xi, ThU, Q | Psi, ThD, P, each with a fresh
    symbol registered in that order.  The Psi rows are the first-class
    representatives, and a Xi row shares its Psi row's generation."""
    table = result.table
    heads = [
        ("Xi", [rep.generation for rep in result.first_class]),
        ("ThU", [None] * len(theta_rows)),
        ("Q", [None] * len(qp_rows)),
    ]
    heads += [(ROLE_CONJUGATE[role], gens) for role, gens in heads]
    layout = [(role, k, gen) for role, gens in heads for k, gen in enumerate(gens, start=1)]
    pairs = theta_rows + qp_rows
    vectors = xi_rows + [e for e, _f in pairs] + [rep.row for rep in result.first_class] + [f for _e, f in pairs]
    rows = {}
    for (role, k, _gen), row in zip(layout, vectors):
        name = f"{role}{k}"
        while name in table:
            name = name + "_"
        rows[table.position(name)] = row
    rows, notes = _static_correct(rows, layout, result)
    chart_rows = [ChartRow(role, k, row, sym, gen) for (role, k, gen), (sym, row) in zip(layout, rows.items())]
    return CanonicalChart(result.phase, chart_rows, notes)


def _static_correct(rows: dict, layout, result: DiracResult):
    """Absorb physical-block content of secondary-and-higher gauge velocities.

    A Xi row conjugate to a non-primary first-class momentum should evolve
    only through constraint/gauge coordinates; leftover (Q, P) content is
    removed by shifting the row inside the physical block and compensating
    the physical rows with multiples of the paired momentum, which keeps the
    bracket table canonical.  Failure to solve is recorded, not fatal.

    `rows` maps each chart symbol to its qq integer row (offset as entry 2n)
    in chart order, positions then momenta, and `layout` gives each its
    (role, pair, generation).  Returns the rows, corrected in a copy that
    rewrites only the rows a correction changes (the given dict is left as
    it was), and the notes.

    A row's velocity is its coefficients against the Hamiltonian field of
    H_T at free multipliers zero (its part free of them), taken once, written
    on the embedded subspace (every chart coordinate but Q and P at zero) and
    read as an affine form over (Q, P).  For an H_T of degree <= 2 the field
    is one integer matrix (`quadratic_field`) and the velocity its row times
    the integer columns of S^-1 (`_inverse_map`); otherwise it is an Expr
    substituted with `_chart_map`.
    """
    phase, table = result.phase, result.table
    n = phase.n
    syms = list(rows)
    qp_syms = [s for s, (role, _k, _gen) in zip(syms, layout) if role in ("Q", "P")]
    # a Xi row is a position; its conjugate Psi row sits n rows later
    targets = [(s, syms[i + n]) for i, (s, (role, _k, gen)) in enumerate(zip(syms, layout)) if role == "Xi" and (gen or 1) > 1]
    notes = []
    if not (qp_syms and targets):
        return rows, notes
    rows = dict(rows)
    ht, _ = result.total_hamiltonian().split_affine(result.free_multipliers)
    qfield = quadratic_field(ht, phase)
    field = hamilton_field(ht, phase) if qfield is None else None

    def embedding():
        if qfield is None:
            return _chart_map(phase, list(rows.items()), qp_syms)
        kept, inv, den = _inverse_map(list(rows.items()), n, qp_syms)
        pos = {y.index: j for j, y in enumerate(kept)}
        return [pos[w.index] for w in qp_syms], inv, den

    def velocity(sym, embedded):
        if qfield is None:
            nums, den = rows[sym]
            return (field_bracket(nums, field, table) / den).substitute(embedded).linear_form(qp_syms)
        at, inv, den = embedded
        b, bden = row_field_bracket(rows[sym], qfield)
        acc = [0] * len(at) + [b[2 * n] * den]
        for x, row in zip(b, inv):
            if x:
                acc = [a + x * y for a, y in zip(acc, row)]
        return [Fraction(acc[j], bden * den) for j in at], Fraction(acc[-1], bden * den)

    for xi, psi in targets:
        embedded = embedding()
        try:
            coeffs, offset = velocity(xi, embedded)
            if not (offset or any(coeffs)):
                continue
            columns = [c + [off] for c, off in (velocity(w, embedded) for w in qp_syms)]
            alpha = qq.solve(list(zip(*columns)), [-x for x in coeffs + [offset]])
        except ExprError:
            alpha = None
        if alpha is None:
            notes.append(
                f"{xi.name}: physical content of its velocity could not be absorbed; "
                f"canonical embeddings may be unavailable in this chart"
            )
            continue
        x = rows[xi]
        for a, w in zip(alpha, qp_syms):
            if a:
                x = qq.row_add(x, a, rows[w])
        rows[xi] = x
        for w in qp_syms:
            lam = -qq.row_bracket(x, rows[w], n)
            if lam:
                rows[w] = qq.row_add(rows[w], lam, rows[psi])
    return rows, notes


def _inverse_map(rows, n, keep=None):
    """z = S^-1 (Y - offsets), read off `rows`, the chart's (symbol, qq
    integer row) pairs in chart order (offset as entry 2n), with the chart
    coordinates outside `keep` (default: all) set to zero, so only their
    offsets remain.  Returns (the kept symbols, pair by pair; one integer row
    per z_i over (kept symbols..., 1); their common denominator).  By
    S^-1 = -J S^T J the column of a position is the symplectic gradient of
    its conjugate momentum's row, and that of a momentum minus its conjugate
    position's."""
    keep = None if keep is None else {y.index for y in keep}
    den = math.lcm(*(da * db for (_a, (_, da)), (_b, (_, db)) in zip(rows[:n], rows[n:])))
    kept, cols, shift = [], [], [0] * (2 * n)
    for a, b in zip(rows[:n], rows[n:]):
        for (y, (ys, yden)), (_c, (nums, d)), sign in ((a, b, 1), (b, a, -1)):
            grad, k = _sympl_grad(nums[: 2 * n], n), sign * (den // (d * yden))
            if ys[2 * n]:
                shift = [s - x * k * ys[2 * n] for s, x in zip(shift, grad)]
            if keep is None or y.index in keep:
                kept.append(y)
                cols.append([x * k * yden for x in grad])
    return kept, [[*(c[i] for c in cols), s] for i, s in enumerate(shift)], den


def _chart_map(phase: PhaseSpace, rows, keep=None) -> dict:
    """`_inverse_map` as one affine Expr per phase symbol z_i."""
    kept, inv, den = _inverse_map(rows, phase.n, keep)
    return {z: _row_expr(qq._primitive(row, den), kept, phase.table) for z, row in zip(phase.z_order(), inv)}


def _sympl_grad(c, n):
    """Row r with r . x = <x, c> for the symplectic pairing."""
    return list(c[n:]) + [-ci for ci in c[:n]]


# ---------------------------------------------------------------------------
# verification

def verify_chart(matrix, mode="exact", tol=1e-12):
    """Check S^T J S = J.

    Returns (ok, violations, max_deviation); each violation is (i, j, delta)
    naming the offending bracket entry.  Exact mode takes the entries as
    rationals and every nonzero delta is a violation.  Float mode takes each
    double as the rational it equals, so delta is the exact S^T J S - J of
    the given doubles: a violation where |delta| > tol, reported rounded once
    to a float, for a tol that is a finite number >= 0.  A non-finite entry
    makes every bracket of its column a violation with delta nan, and the
    maximum deviation nan.
    """
    dim = len(matrix)
    if dim % 2 or any(len(r) != dim for r in matrix):
        raise ChartError("chart matrix must be square with even dimension")
    if mode not in ("exact", "float"):
        raise ChartError(f"unknown verify mode {mode!r}")
    if mode == "float" and not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):  # nan fails both
        raise ChartError(f"tolerance must be a finite number >= 0, got {tol!r}")
    n = dim // 2
    # (S^T J S)_ik is the bracket of columns i and k
    cols = [
        None if mode == "float" and not all(map(math.isfinite, col)) else qq.to_row([Fraction(x) for x in col])
        for col in zip(*matrix)
    ]
    dev = _bracket_deviations(cols, n)
    if mode == "exact":
        violations = [(i, k, dev[i, k]) for i, k in sorted(dev)]
        return (not violations), violations, max((abs(d) for _, _, d in violations), default=Fraction(0))
    # an entry missing from dev is 0, within every tol
    violations = [(i, k, float(dev[i, k])) for i, k in sorted(dev) if not abs(dev[i, k]) <= tol]
    maxdev = math.nan if None in cols else float(max(map(abs, dev.values()), default=0))
    return (not violations), violations, maxdev


def _bracket_deviations(vecs, n):
    """{(i, k): B_ik - J_ik} where nonzero, B_ik the bracket of 2n qq integer
    vectors over z (entries past 2n ignored), J_ik = +1 at k = i + n, -1 at
    i = k + n; a None vector (non-finite) makes its row and column nan.  Both
    are antisymmetric, so only i < k is bracketed, on ints (the first's nonzero
    entries against the second's conjugate slots); a deviation is a Fraction."""
    dev = {}
    for i, u in enumerate(vecs):
        conj = [] if u is None else [(j + n, x) if j < n else (j - n, -x) for j, x in enumerate(u[0][: 2 * n]) if x]
        for k in range(i + 1, len(vecs)):
            if u is None or vecs[k] is None:
                dev[i, k] = dev[k, i] = math.nan
                continue
            v, dv = vecs[k]
            pair = sum(x * v[j] for j, x in conj)
            if pair != u[1] * dv * (k == i + n):
                delta = Fraction(pair, u[1] * dv) - (k == i + n)
                dev[i, k], dev[k, i] = delta, -delta
    return dev


def transform(e: Expr, chart: CanonicalChart) -> Expr:
    """Rewrite a phase-space expression in chart symbols.

    Exact canonical charts only (S^T J S = J, as every chart leaving
    build_chart or the supplied-chart import is), so S^-1 has a closed form.
    """
    return e.substitute(_chart_map(chart.phase, [(r.symbol, r.row) for r in chart.rows]))


# ---------------------------------------------------------------------------
# integrability and budgets

class FrobeniusReport(_Record):
    __slots__ = ("residuals", "verdict", "budget_used", "budget_total", "budget_ok")

    def __init__(self, residuals: list, verdict: bool, budget_used: int, budget_total: int, budget_ok: bool):
        self.residuals, self.verdict = residuals, verdict  # residuals: (coordinate name, residual Expr)
        self.budget_used, self.budget_total, self.budget_ok = budget_used, budget_total, budget_ok


def frobenius_check(result: DiracResult) -> "FrobeniusReport":
    """Hamilton-side integrability: the free-multiplier 1-form residuals
    -sum_alpha zeta^alpha dPhi_alpha/dq_i must vanish per position coordinate,
    and the constraint count must respect the 2n budget.  The constraints are
    affine with constant coefficients, so no residual can vanish only weakly:
    nothing is reduced."""
    if not result.classified:
        raise ChartError("classify the Dirac result before the Frobenius check")
    phase = result.phase
    table = result.table
    free = result.free_multipliers
    fc_primaries = result.rebased_primaries[: result.primary_fc_count]
    if len(free) != len(fc_primaries):
        raise DiracError("free multipliers out of sync with first-class primaries")
    residuals = []
    for q in phase.positions:
        r = Expr.const(table, 0)
        for z, prim in zip(free, fc_primaries):
            r = r - Expr.sym(table, z) * prim.diff(q)
        residuals.append((q.name, r))
    ok = all(r.is_zero() for _name, r in residuals)
    used = len(result.constraints)
    total = 2 * phase.n
    budget_ok = used <= total
    return FrobeniusReport(residuals, ok and budget_ok, used, total, budget_ok)


class ConstantBudget(_Record):
    __slots__ = ("total", "occupied", "free", "by_boundary", "by_gauge")

    def __init__(self, total: int, occupied: int, free: int, by_boundary: int, by_gauge: int):
        self.total, self.occupied, self.free = total, occupied, free
        self.by_boundary, self.by_gauge = by_boundary, by_gauge


_OCCUPANCY = {
    "sigma3": lambda r, s: 2 * r + 2 * s,
    "sigma3_tilde": lambda r, s: r + 2 * s,
    "sigma2": lambda r, s: 2 * s,
    "sigma1": lambda r, s: 2 * r,
    "sigma1_tilde": lambda r, s: r,
    "trivial": lambda r, s: 0,
}


def integral_constant_budget(result: DiracResult, plan) -> ConstantBudget:
    """Integral constants occupied by an embedding: 2r+2s, r+2s, 2s, 2r, r
    for sigma3, sigma3~, sigma2, sigma1, sigma1~ (r = F, s = S/2)."""
    if not result.classified:
        raise ChartError("classify before computing the constant budget")
    r, s = result.F, result.S // 2
    kind = plan.kind if hasattr(plan, "kind") else str(plan)
    if kind not in _OCCUPANCY:
        raise ChartError(f"unknown embedding kind {kind!r}")
    occupied = _OCCUPANCY[kind](r, s)
    total = 2 * result.phase.n
    free = total - occupied
    gauge = result.primary_fc_count if kind.endswith("_tilde") else 0
    return ConstantBudget(total, occupied, free, free - gauge, gauge)
