"""Canonical charts built from classified constraints, plus verification.

The linear construction: second-class representatives are paired by a
symplectic Gram-Schmidt sweep with one member of each pair rescaled to a unit
bracket; every first-class representative becomes a momentum row and gets a
conjugate position row solved inside the remaining symplectic complement; the
leftover complement is completed into physical (Q, P) pairs with unit
brackets.  All of it over exact rationals.

Charts with irrational entries (the usual 1/sqrt(2) normalizations) are
handled in a float-only verification mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import qq
from .dirac import DiracResult, DiracError, poisson
from .expr import Expr, ExprError
from .lagrangian import PhaseSpace, UnsupportedShape


class ChartError(Exception):
    pass


ROLE_POSITION = ("Xi", "ThU", "Q")
ROLE_MOMENTUM = ("Psi", "ThD", "P")
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
        z = phase.z_order()
        e = Expr.const(table, self.offset)
        for c, s in zip(self.coeffs, z):
            if c:
                e = e + Expr.const(table, c) * Expr.sym(table, s)
        return e


@dataclass
class CanonicalChart:
    phase: PhaseSpace
    rows: list  # position block then momentum block, canonical role order
    notes: list = None
    hamiltonian: Expr | None = None  # transformed H_T, kept by report.attach_embedding

    def __post_init__(self):
        if self.notes is None:
            self.notes = []

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


def _as_covector(expr: Expr, phase: PhaseSpace):
    try:
        coeffs, offset = expr.linear_form(phase.z_order())
    except ExprError as exc:
        raise UnsupportedShape(
            f"constraint {expr} is nonlinear; build_chart handles the linear case only "
            f"(supply a chart and use verify_chart instead)"
        ) from exc
    return coeffs, offset


def build_chart(result: DiracResult) -> CanonicalChart:
    """Symplectic Gram-Schmidt completion of the classified constraints."""
    if not result.classified:
        raise ChartError("classify the Dirac result before building a chart")
    phase = result.phase
    table = result.table
    n = phase.n

    psi = []
    for rep in result.first_class:
        coeffs, off = _as_covector(rep.expr, phase)
        psi.append((coeffs, off, rep.generation))
    pool = []  # integer rows, the offset carried as entry 2n
    for rep in result.second_class:
        coeffs, off = _as_covector(rep.expr, phase)
        pool.append(qq.to_row(coeffs + [off]))

    theta_rows = []
    while pool:
        e = pool.pop(0)
        for k, f in enumerate(pool):
            br = qq.row_bracket(e, f, n)
            if br:
                break
        else:
            raise DiracError("degenerate second-class pairing; classification bug")
        f = qq.row_div(pool.pop(k), br)
        pool = [qq.row_project(x, e, f, n) for x in pool]
        theta_rows.append((e, f))
    theta_pairs = [tuple((v[:-1], v[-1]) for v in map(qq.from_row, pair)) for pair in theta_rows]

    # conjugate positions for the first-class momenta
    xi_rows = []
    for a in range(len(psi)):
        rows = []
        rhs = []
        for b, (pc, _off, _g) in enumerate(psi):
            rows.append(_sympl_grad(pc, n))
            rhs.append(Fraction(1 if b == a else 0))
        for (e, _eo), (f, _fo) in theta_pairs:
            rows.append(_sympl_grad(e, n))
            rhs.append(Fraction(0))
            rows.append(_sympl_grad(f, n))
            rhs.append(Fraction(0))
        x = qq.solve(rows, rhs)
        if x is None:
            raise DiracError("no conjugate for a first-class momentum; classification bug")
        xoff = Fraction(0)
        for b in range(a):
            c = qq.bracket(xi_rows[b][0], x, n)
            if c:
                pb, pboff, _g = psi[b]
                x = [xi - c * pi for xi, pi in zip(x, pb)]
                xoff = xoff - c * pboff
        xi_rows.append((x, xoff))

    # each standard-basis seed is projected once through the placed pairs,
    # then through each (Q, P) pair as it is found; zero seeds are dropped
    placed = theta_rows + [(qq.to_row(xi), qq.to_row(pc)) for (xi, _xo), (pc, _po, _g) in zip(xi_rows, psi)]
    seeds = [([int(i == k) for k in range(2 * n)], 1) for i in range(2 * n)]
    for e, f in placed:
        seeds = [qq.row_project(s, e, f, n) for s in seeds]
    qp_pairs = []
    for _ in range(n - len(psi) - len(theta_pairs)):
        seeds = [s for s in seeds if any(s[0])]
        if not seeds:
            raise DiracError("symplectic completion ran out of directions")
        q = seeds[0]
        for y in seeds[1:]:
            br = qq.row_bracket(q, y, n)
            if br:
                break
        else:
            raise DiracError("no symplectic partner found; completion bug")
        p = qq.row_div(y, br)
        seeds = [qq.row_project(s, q, p, n) for s in seeds]
        qp_pairs.append(((qq.from_row(q), Fraction(0)), (qq.from_row(p), Fraction(0))))

    rows = _assemble_rows(table, psi, xi_rows, theta_pairs, qp_pairs)
    chart = CanonicalChart(phase, rows)
    _static_correct(chart, result)
    ok, violations, _ = verify_chart(chart.matrix(), mode="exact")
    if not ok:
        raise DiracError(f"internal: built chart fails S^T J S = J at {violations[:3]}")
    return chart


def _static_correct(chart: CanonicalChart, result: DiracResult):
    """Absorb physical-block content of secondary-and-higher gauge velocities.

    A Xi row conjugate to a non-primary first-class momentum should evolve
    only through constraint/gauge coordinates; leftover (Q, P) content is
    removed by shifting the row inside the physical block and compensating
    the physical rows with multiples of the paired momentum, which keeps the
    bracket table canonical.  Failure to solve is recorded, not fatal.
    """
    n = chart.n
    table = chart.table
    qp_rows = [r for r in chart.rows if r.role in ("Q", "P")]
    if not qp_rows:
        return
    qp_syms = [r.symbol for r in qp_rows]
    targets = [r for r in chart.rows if r.role == "Xi" and (r.generation or 1) > 1]
    ht = result.total_hamiltonian(substitute_solved=True)
    cp = chart.chart_phase()
    zero = Expr.const(table, 0)
    # the embedded subspace: constraint and gauge coordinates at zero, free multipliers dropped
    embedded = {r.symbol: zero for r in chart.rows if r.role not in ("Q", "P")}
    embedded.update({z: zero for z in result.free_multipliers})
    zero_qp = {s: zero for s in qp_syms}
    for xi in targets:
        try:
            ht_c = transform(ht, chart)

            def velocity(row):
                return poisson(Expr.sym(table, row.symbol), ht_c, cp).substitute(embedded)

            defect = velocity(xi)
            if defect.is_zero():
                continue
            basis = [velocity(w) for w in qp_rows]
            rows_sys, rhs = [], []
            for s in qp_syms:
                rows_sys.append([b.diff(s).constant_value() for b in basis])
                rhs.append(-defect.diff(s).constant_value())
            rows_sys.append([b.substitute(zero_qp).constant_value() for b in basis])
            rhs.append(-defect.substitute(zero_qp).constant_value())
            alpha = qq.solve(rows_sys, rhs)
        except ExprError:
            alpha = None
        if alpha is None:
            chart.notes.append(
                f"{xi.name}: physical content of its velocity could not be absorbed; "
                f"canonical embeddings may be unavailable in this chart"
            )
            continue
        xi.coeffs = [c + sum(a * w.coeffs[k] for a, w in zip(alpha, qp_rows)) for k, c in enumerate(xi.coeffs)]
        xi.offset = xi.offset + sum(a * w.offset for a, w in zip(alpha, qp_rows))
        psi = chart.conjugate(xi)
        for w in qp_rows:
            lam = -qq.bracket(xi.coeffs, w.coeffs, n)
            if lam:
                w.coeffs = [c + lam * p for c, p in zip(w.coeffs, psi.coeffs)]
                w.offset = w.offset + lam * psi.offset


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

def _j_matrix(n):
    j = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        j[i][n + i] = Fraction(1)
        j[n + i][i] = Fraction(-1)
    return j


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
        s = [[Fraction(x) for x in row] for row in matrix]
        j = _j_matrix(n)
        # J S first (sparse J), then S^T (J S)
        js = [[s[a - n][k] if a >= n else Fraction(0) for k in range(dim)] for a in range(dim)]
        for i in range(n):
            for k in range(dim):
                js[i][k] = s[n + i][k]
                js[n + i][k] = -s[i][k]
        violations = []
        for i in range(dim):
            for k in range(dim):
                acc = Fraction(0)
                for a in range(dim):
                    if s[a][i]:
                        acc += s[a][i] * js[a][k]
                delta = acc - j[i][k]
                if delta:
                    violations.append((i, k, delta))
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
    table = chart.table
    inv = qq.symplectic_inverse(chart.matrix())
    z = chart.phase.z_order()
    subs = {}
    for i, zi in enumerate(z):
        acc = Expr.const(table, 0)
        for jj, row in enumerate(chart.rows):
            c = inv[i][jj]
            if c:
                acc = acc + Expr.const(table, c) * (Expr.sym(table, row.symbol) - Expr.const(table, row.offset))
        subs[zi] = acc
    return e.substitute(subs)


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
    -sum_alpha zeta^alpha dPhi_alpha/dq_i must weakly vanish per position
    coordinate, identically in the multipliers, and the constraint count must
    respect the 2n budget."""
    if not result.classified:
        raise ChartError("classify the Dirac result before the Frobenius check")
    phase = result.phase
    table = result.table
    free = result.free_multipliers
    fc_primaries = result.rebased_primaries[: result.primary_fc_count]
    if len(free) != len(fc_primaries):
        raise DiracError("free multipliers out of sync with first-class primaries")
    reducer = result.reducer
    residuals = []
    ok = True
    for q in phase.positions:
        r = Expr.const(table, 0)
        for z, prim in zip(free, fc_primaries):
            r = r - Expr.sym(table, z) * prim.diff(q)
        r = reducer.reduce(r)
        if not r.is_zero():
            const, coeffs = r.split_affine(free)
            if not const.is_zero() or any(not reducer.reduce(c).is_zero() for c in coeffs.values()):
                ok = False
        residuals.append((q.name, r))
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
