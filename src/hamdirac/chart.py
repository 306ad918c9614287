"""Canonical charts built from classified constraints, plus verification.

The linear construction: second-class representatives are paired by a
symplectic Gram-Schmidt sweep with one member of each pair rescaled to a unit
bracket; every first-class representative becomes a momentum row and gets a
conjugate position row solved inside the remaining symplectic complement; the
same sweep completes the leftover complement into physical (Q, P) pairs.
All of it over exact rationals.

The correction pass never transforms H_T: a chart row's velocity is the row
against H_T's Hamiltonian field, written in (Q, P) through `_inverse_map`, the
affine map z -> chart symbols that `transform` substitutes (`_chart_map`),
read off the closed-form S^-1 of the chart's integer rows.  For an H_T of
degree <= 2 the field is one integer matrix and the velocity stays on
integers until its coefficients are read; otherwise it is an Expr.  Exact
verification decides each entry of S^T J S on the integer pairing of two
columns.

Charts with irrational entries (the usual 1/sqrt(2) normalizations) are
handled in a float-only verification mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import qq
from .dirac import DiracResult, DiracError, field_bracket, hamilton_field, quadratic_field, row_field_bracket
from .expr import Expr, ExprError
from .lagrangian import PhaseSpace


class ChartError(Exception):
    pass


ROLE_CONJUGATE = {"Xi": "Psi", "Psi": "Xi", "ThU": "ThD", "ThD": "ThU", "Q": "P", "P": "Q"}


@dataclass
class ChartRow:
    role: str
    pair: int  # 1-based index within the role family
    coeffs: list  # Fractions over phase z-order (q1..qn, p1..pn)
    offset: Fraction
    symbol: object
    generation: int | None = None  # Psi rows: generation of the constraint they represent

    @property
    def name(self):
        return self.symbol.name

    def expr(self, table, phase) -> Expr:
        poly = {((s.index, 1),): Fraction(c) for c, s in zip(self.coeffs, phase.z_order()) if c}
        if self.offset:
            poly[()] = Fraction(self.offset)
        return Expr(table, poly, _normalized=True)


@dataclass
class CanonicalChart:
    phase: PhaseSpace
    rows: list  # position block then momentum block, canonical role order
    notes: list = field(default_factory=list)
    hamiltonian: Expr | None = None  # transformed H_T, kept by report.attach_embedding

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
        return [list(r.coeffs) for r in self.rows]

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
    phase = result.phase
    table = result.table
    n = phase.n

    psi = []
    for rep in result.first_class:
        *coeffs, off = qq.from_row(rep.row)
        psi.append((coeffs, off, rep.generation))
    pool = [rep.row for rep in result.second_class]  # integer rows, the offset carried as entry 2n

    theta_rows = _symplectic_pairs(pool, n)
    theta_pairs = [tuple((v[:-1], v[-1]) for v in map(qq.from_row, pair)) for pair in theta_rows]

    # conjugate positions for the first-class momenta: <x_a, psi_b> = delta_ab
    # and <x_a, theta> = 0, one right-hand-side column per a in one elimination
    f_count = len(psi)
    grads = [rep.row for rep in result.first_class] + [v for pair in theta_rows for v in pair]
    system = [
        qq._primitive(_sympl_grad(nums[: 2 * n], n) + [den * (b == a) for a in range(f_count)], den)
        for b, (nums, den) in enumerate(grads)
    ]
    pivots = qq.rref_rows(system, range(2 * n)) if psi else {}
    used = set(pivots.values())
    if any(any(nums[2 * n :]) for i, (nums, _den) in enumerate(system) if i not in used):
        raise DiracError("no conjugate for a first-class momentum; classification bug")
    xi_rows = []  # integer rows, the offset carried as entry 2n
    for a in range(f_count):
        x = [Fraction(0)] * (2 * n + 1)
        for col, i in pivots.items():
            x[col] = Fraction(system[i][0][2 * n + a], system[i][1])
        x = qq.to_row(x)
        for xb, rep_b in zip(xi_rows, result.first_class):
            c = qq.row_bracket(xb, x, n)
            if c:
                x = qq.row_add(x, -c, rep_b.row)
        xi_rows.append(x)

    # each standard-basis seed is projected once through the placed pairs,
    # then through each (Q, P) pair as it is found
    placed = theta_rows + [(xi, rep.row) for xi, rep in zip(xi_rows, result.first_class)]
    seeds = [([int(i == k) for k in range(2 * n)], 1) for i in range(2 * n)]
    for e, f in placed:
        seeds = [qq.row_project(s, e, f, n) for s in seeds]
    qp_rows = _symplectic_pairs(seeds, n)
    if 2 * len(theta_rows) != len(pool) or f_count + len(theta_rows) + len(qp_rows) != n:
        raise DiracError("symplectic Gram-Schmidt left rows unpaired; classification bug")
    qp_pairs = [((qq.from_row(q), Fraction(0)), (qq.from_row(p), Fraction(0))) for q, p in qp_rows]

    xi_pairs = [(v[:-1], v[-1]) for v in map(qq.from_row, xi_rows)]
    rows = _assemble_rows(table, psi, xi_pairs, theta_pairs, qp_pairs)
    chart = CanonicalChart(phase, rows)
    _static_correct(chart, result)
    ok, violations, _ = verify_chart(chart.matrix(), mode="exact")
    if not ok:
        raise DiracError(f"internal: built chart fails S^T J S = J at {violations[:3]}")
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


def _static_correct(chart: CanonicalChart, result: DiracResult):
    """Absorb physical-block content of secondary-and-higher gauge velocities.

    A Xi row conjugate to a non-primary first-class momentum should evolve
    only through constraint/gauge coordinates; leftover (Q, P) content is
    removed by shifting the row inside the physical block and compensating
    the physical rows with multiples of the paired momentum, which keeps the
    bracket table canonical.  Failure to solve is recorded, not fatal.

    A row's velocity is its coefficients against the Hamiltonian field of
    H_T at free multipliers zero (its part free of them), taken once, written
    on the embedded subspace (every chart coordinate but Q and P at zero) and
    read as an affine form over (Q, P).  For an H_T of degree <= 2 the field
    is one integer matrix (`quadratic_field`) and the velocity its row times
    the integer columns of S^-1 (`_inverse_map`); otherwise it is an Expr
    substituted with `_chart_map`.  The rows are qq integer rows while it
    runs, and a correction rewrites only the rows it changes.
    """
    n, table = chart.n, chart.table
    qp_rows = [r for r in chart.rows if r.role in ("Q", "P")]
    targets = [r for r in chart.rows if r.role == "Xi" and (r.generation or 1) > 1]
    if not (qp_rows and targets):
        return
    qp_syms = [r.symbol for r in qp_rows]
    ht, _ = result.total_hamiltonian(substitute_solved=True).split_affine(result.free_multipliers)
    qfield = quadratic_field(ht, chart.phase)
    field = hamilton_field(ht, chart.phase) if qfield is None else None
    rows = _integer_rows(chart)

    def embedding():
        if qfield is None:
            return _chart_map(chart, rows, ("Q", "P"))
        # the integer columns of S^-1 for (Q, P), transposed: z_i -> [(index in qp_rows, entry)]
        kept, shift = _inverse_map(chart, rows, ("Q", "P"))
        at = {w.symbol: j for j, w in enumerate(qp_rows)}
        by_z, dens = [[] for _ in shift], [0] * len(qp_rows)
        for y, col, den in kept:
            dens[at[y.symbol]] = den
            for i, x in enumerate(col):
                if x:
                    by_z[i].append((at[y.symbol], x))
        return by_z, dens, shift

    def velocity(row, embedded):
        if qfield is None:
            nums, den = rows[row.symbol]
            return (field_bracket(nums, field, table) * Fraction(1, den)).substitute(embedded).linear_form(qp_syms)
        by_z, dens, shift = embedded
        b, den = row_field_bracket(rows[row.symbol], qfield)
        acc, offset = [0] * len(dens), Fraction(b[2 * n], den)
        for x, entries, sh in zip(b, by_z, shift):
            if x:
                for j, c in entries:
                    acc[j] += x * c
                if sh:
                    offset += Fraction(x, den) * sh
        return [Fraction(a, den * d) for a, d in zip(acc, dens)], offset

    for xi in targets:
        embedded = embedding()
        try:
            coeffs, offset = velocity(xi, embedded)
            if not (offset or any(coeffs)):
                continue
            columns = [c + [off] for c, off in (velocity(w, embedded) for w in qp_rows)]
            alpha = qq.solve(list(zip(*columns)), [-x for x in coeffs + [offset]])
        except ExprError:
            alpha = None
        if alpha is None:
            chart.notes.append(
                f"{xi.name}: physical content of its velocity could not be absorbed; "
                f"canonical embeddings may be unavailable in this chart"
            )
            continue
        x = rows[xi.symbol]
        for a, w in zip(alpha, qp_rows):
            if a:
                x = qq.row_add(x, a, rows[w.symbol])
        rows[xi.symbol] = x
        psi = rows[chart.conjugate(xi).symbol]
        for w in qp_rows:
            lam = -qq.row_bracket(x, rows[w.symbol], n)
            if lam:
                rows[w.symbol] = qq.row_add(rows[w.symbol], lam, psi)
    for r in targets + qp_rows:
        *r.coeffs, r.offset = qq.from_row(rows[r.symbol])


def _integer_rows(chart: CanonicalChart) -> dict:
    """Each chart row as a qq integer row, its offset carried as entry 2n."""
    return {r.symbol: qq.to_row(list(r.coeffs) + [r.offset]) for r in chart.rows}


def _inverse_map(chart: CanonicalChart, rows, roles=None):
    """z = sum_y (S^-1)_y (Y_y - offset_y), read off the chart's qq integer
    `rows` (offset as entry 2n), with the chart coordinates outside `roles`
    (default: all) set to zero, so only their offsets remain.  Returns
    ([(y, column of S^-1 as integers over z, its denominator)] for the kept
    rows y, pair by pair; the constant shift over z as Fractions).  By
    S^-1 = -J S^T J the column of a position is the symplectic gradient of its
    conjugate momentum's row, and that of a momentum minus its conjugate
    position's."""
    n = chart.n
    kept, shift = [], [Fraction(0)] * (2 * n)
    for a, b in zip(chart.position_rows(), chart.momentum_rows()):
        for y, (nums, den), sign in ((a, rows[b.symbol], 1), (b, rows[a.symbol], -1)):
            col = [sign * x for x in _sympl_grad(nums[: 2 * n], n)]
            off = Fraction(rows[y.symbol][0][2 * n], rows[y.symbol][1])
            if off:
                for i, x in enumerate(col):
                    if x:
                        shift[i] -= Fraction(x, den) * off
            if roles is None or y.role in roles:
                kept.append((y, col, den))
    return kept, shift


def _chart_map(chart: CanonicalChart, rows, roles=None) -> dict:
    """`_inverse_map` as one polynomial per phase symbol z_i."""
    kept, shift = _inverse_map(chart, rows, roles)
    polys = [{} for _ in shift]
    for y, col, den in kept:
        mono = ((y.symbol.index, 1),)
        for i, x in enumerate(col):
            if x:
                polys[i][mono] = Fraction(x, den)
    for poly, c in zip(polys, shift):
        if c:
            poly[()] = c
    return {z: Expr(chart.table, p, _normalized=True) for z, p in zip(chart.phase.z_order(), polys)}


def _sympl_grad(c, n):
    """Row r with r . x = <x, c> for the symplectic pairing."""
    return list(c[n:]) + [-ci for ci in c[:n]]


def _assemble_rows(table, psi, xi_rows, theta_pairs, qp_pairs):
    def fresh(base):
        name = base
        while name in table:
            name = name + "_"
        return table.position(name)

    rows = []
    for a, ((xi, xoff), (_pc, _po, gen)) in enumerate(zip(xi_rows, psi), start=1):
        rows.append(ChartRow("Xi", a, xi, xoff, fresh(f"Xi{a}"), gen))
    for k, ((e, eoff), (_f, _fo)) in enumerate(theta_pairs, start=1):
        rows.append(ChartRow("ThU", k, e, eoff, fresh(f"ThU{k}")))
    for k, ((q, qoff), (_p, _po)) in enumerate(qp_pairs, start=1):
        rows.append(ChartRow("Q", k, q, qoff, fresh(f"Q{k}")))
    for a, (pc, poff, gen) in enumerate(psi, start=1):
        rows.append(ChartRow("Psi", a, pc, poff, fresh(f"Psi{a}"), gen))
    for k, ((_e, _eo), (f, foff)) in enumerate(theta_pairs, start=1):
        rows.append(ChartRow("ThD", k, f, foff, fresh(f"ThD{k}")))
    for k, ((_q, _qo), (p, poff)) in enumerate(qp_pairs, start=1):
        rows.append(ChartRow("P", k, p, poff, fresh(f"P{k}")))
    return rows


# ---------------------------------------------------------------------------
# verification

def verify_chart(matrix, mode="exact", tol=1e-12):
    """Check S^T J S = J.

    Returns (ok, violations, max_deviation); each violation is (i, j, delta)
    naming the offending bracket entry.
    """
    dim = len(matrix)
    if dim % 2 or any(len(r) != dim for r in matrix):
        raise ChartError("chart matrix must be square with even dimension")
    n = dim // 2
    if mode == "exact":
        # (S^T J S)_ik is the bracket of columns i and k; J_ik is +1 at k = i + n, -1 at i = k + n.
        # Both sides are antisymmetric: bracket i < k only, entry (k, i) is the negative, the diagonal 0.
        # An entry is decided on the integer pairing qq._pair of two columns, summed over the
        # first column's nonzero entries (each against the second's conjugate slot); only a
        # violation becomes a Fraction.
        cols = [qq.to_row([Fraction(x) for x in col]) for col in zip(*matrix)]
        dev = {}
        for i, (u, du) in enumerate(cols):
            conj = [(j + n, x) if j < n else (j - n, -x) for j, x in enumerate(u) if x]
            for k in range(i + 1, dim):
                v, dv = cols[k]
                pair = sum(x * v[j] for j, x in conj)
                if pair != du * dv * (k == i + n):
                    delta = Fraction(pair, du * dv) - (k == i + n)
                    dev[i, k], dev[k, i] = delta, -delta
        violations = [(i, k, dev[i, k]) for i, k in sorted(dev)]
        return (not violations), violations, (max((abs(d) for _, _, d in violations), default=Fraction(0)))
    if mode == "float":
        import numpy as np

        s = np.array([[float(x) for x in row] for row in matrix], dtype=float)
        j = np.zeros((dim, dim))
        j[:n, n:] = np.eye(n)
        j[n:, :n] = -np.eye(n)
        dev = s.T @ j @ s - j
        maxdev = float(np.max(np.abs(dev), initial=0.0))
        violations = []
        if not maxdev <= tol:  # NaN counts as a violation
            idx = np.argwhere(~(np.abs(dev) <= tol))
            violations = [(int(i), int(k), float(dev[i, k])) for i, k in idx]
        return (not violations), violations, maxdev
    raise ChartError(f"unknown verify mode {mode!r}")


def transform(e: Expr, chart: CanonicalChart) -> Expr:
    """Rewrite a phase-space expression in chart symbols.

    Exact canonical charts only (S^T J S = J, as every chart leaving
    build_chart or the supplied-chart import is), so S^-1 has a closed form.
    """
    return e.substitute(_chart_map(chart, _integer_rows(chart)))


# ---------------------------------------------------------------------------
# integrability and budgets

@dataclass
class FrobeniusReport:
    residuals: list  # (coordinate name, residual Expr)
    verdict: bool
    budget_used: int
    budget_total: int
    budget_ok: bool


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


@dataclass
class ConstantBudget:
    total: int
    occupied: int
    free: int
    by_boundary: int
    by_gauge: int


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


def float_bracket_table(matrix):
    import numpy as np

    dim = len(matrix)
    n = dim // 2
    s = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    j = np.zeros((dim, dim))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return s @ j @ s.T


class FloatPoly(dict):
    """Sparse float polynomial over chart-row indices: {((idx, exp), ...): coeff}."""

    def add_term(self, mono, c):
        v = self.get(mono, 0.0) + c
        if abs(v) < 1e-300:
            self.pop(mono, None)
        else:
            self[mono] = v

    def mul(self, other):
        out = FloatPoly()
        for m1, c1 in self.items():
            for m2, c2 in other.items():
                mono = _fmono_mul(m1, m2)
                out.add_term(mono, c1 * c2)
        return out

    def cleaned(self, tol=1e-12):
        return {m: c for m, c in self.items() if abs(c) > tol}


def _fmono_mul(m1, m2):
    out = dict(m1)
    for i, e in m2:
        out[i] = out.get(i, 0) + e
    return tuple(sorted(out.items()))


def _float_replacements(matrix, offsets=None):
    """Linear FloatPoly replacement for each original phase coordinate."""
    import numpy as np

    dim = len(matrix)
    s = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    inv = np.linalg.inv(s)
    off = np.array([float(x) for x in (offsets or [0.0] * dim)], dtype=float)
    lin = []
    for i in range(dim):
        p = FloatPoly()
        const = float(-(inv[i] @ off))
        if const:
            p.add_term((), const)
        for jj in range(dim):
            if inv[i][jj]:
                p.add_term(((jj, 1),), float(inv[i][jj]))
        lin.append(p)
    return lin


def transform_float_expr(e: Expr, phase: PhaseSpace, matrix, offsets=None, tol=1e-12):
    """Coefficients of a polynomial phase-space expression rewritten under a
    float chart; returns {monomial over chart-row indices: float}."""
    if not e.is_polynomial():
        raise ChartError("float transform expects a polynomial expression")
    lin = _float_replacements(matrix, offsets)
    zpos = {s.index: k for k, s in enumerate(phase.z_order())}
    out = FloatPoly()
    for mono, c in e.num.items():
        term = FloatPoly({(): float(c)})
        for i, exp in mono:
            if i not in zpos:
                raise ChartError(f"symbol index {i} is not a phase coordinate")
            rep = lin[zpos[i]]
            for _ in range(exp):
                term = term.mul(rep)
        for m2, c2 in term.items():
            out.add_term(m2, c2)
    den = e.den
    scale = float(list(den.values())[0]) if den else 1.0
    return {m: c / scale for m, c in out.cleaned(tol).items()}
