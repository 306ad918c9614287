"""Embedding selection, pullback Lagrangians and boundary prescriptions.

One call resolves an embedding: `resolve_plan(result, chart, ht,
gauge_fixing, epsilon)` builds the one `EmbeddingPlan`.  Its gauge argument
is False, True (derive the gauge) or the gauge conditions themselves, and one
flag of the plan, `gauge_fixed`, then decides the rest: every plan fixes the
constraint block's Psi, ThU and ThD rows; a gauge-fixed plan also fixes the
gauge positions (Xi), and any other plan pins the primary first-class
momenta to zero in advance.  The kind is the gauge-fixing table's label for
the result, `select_embedding`'s: sigma1 (gauge fixed) or sigma1~ for
first-class only systems, sigma2 for second-class only ones, sigma3 or
sigma3~ for mixed ones, trivial for an unconstrained system.

`PullbackLagrangian` holds the pullback of L_T = P dQ - H_T, and with it H_T
on the embedding at the epsilon values, the Hamiltonian `simulate`
integrates.  `BoundaryReport` is the one record of what an embedding fixes
and of the integral constants that costs, counted off its lists of fixed
rows.
"""

from __future__ import annotations

from fractions import Fraction

from .chart import CanonicalChart
from .dirac import DiracResult
from .expr import Expr
from .symbols import _Record


class EmbeddingError(Exception):
    pass


class GaugeError(EmbeddingError):
    pass


class EmbeddingPlan(_Record):
    __slots__ = ("kind", "fixed", "gauge_fixed", "gauge_multiplier_solutions", "preconditions")

    def __init__(self, kind: str, fixed: dict, gauge_fixed: bool, gauge_multiplier_solutions: dict,
                 preconditions: tuple):
        # kind: the report's label, sigma1 | sigma1_tilde | sigma2 | sigma3 |
        # sigma3_tilde | trivial; fixed: chart row name -> Fraction epsilon;
        # gauge_multiplier_solutions: Symbol -> Expr (chart space)
        self._fields(kind, fixed, gauge_fixed, gauge_multiplier_solutions, preconditions)


def select_embedding(result: DiracResult, gauge_fixing: bool | dict) -> str:
    """Embedding kind for the constraint classes (the gauge-fixing table);
    `gauge_fixing` counts by its truth value."""
    if not result.classified:
        raise EmbeddingError("classify the Dirac result before selecting an embedding")
    f_cnt, s_cnt = result.F, result.S
    if f_cnt == 0 and s_cnt == 0:
        return "trivial"
    if s_cnt == 0:
        return "sigma1" if gauge_fixing else "sigma1_tilde"
    if f_cnt == 0:
        return "sigma2"
    return "sigma3" if gauge_fixing else "sigma3_tilde"


def resolve_plan(
    result: DiracResult,
    chart: CanonicalChart,
    ht: Expr,
    gauge_fixing: bool | dict = False,
    epsilon: dict | None = None,
) -> EmbeddingPlan:
    """The embedding of `result` in `chart`: its kind, fixed-coordinate values
    and gauge data.

    ht is H_T in the chart's symbols, `transform(result.total_hamiltonian(),
    chart)`.  gauge_fixing is False, True (derive the gauge) or the gauge
    conditions themselves, {multiplier Symbol: Expr}; given conditions are
    checked whatever the system, so conditions on a system with no gauge to
    fix raise GaugeError.  epsilon maps chart row names to rational values
    (default 0, the limit that restores the constraint surface).  Unless the
    gauge is fixed the primary first-class momenta are pinned to zero
    regardless.
    """
    kind = select_embedding(result, gauge_fixing)
    gauge_fixed = kind in ("sigma1", "sigma3")
    epsilon = dict(epsilon or {})
    roles = ("Xi", "Psi", "ThU", "ThD") if gauge_fixed else ("Psi", "ThU", "ThD")
    fixed = {}
    preconditions = []
    pinned = set() if gauge_fixed else _primary_psi_names(chart)
    if not gauge_fixed and len(pinned) < result.primary_fc_count:
        raise EmbeddingError(
            f"only {len(pinned)} of the chart's Psi rows are primary first-class momenta, {result.primary_fc_count} "
            f"needed: a Psi row that mixes a primary constraint with a later one cannot be pinned to 0 in advance; "
            f"fix the gauge (--gauge-fixing) or keep each primary in a Psi row of its own"
        )
    for row in chart.rows:
        if row.role not in roles:
            continue
        val = Fraction(epsilon.pop(row.name, 0))
        if row.name in pinned:
            if val != 0:
                raise EmbeddingError(
                    f"{row.name} is a primary first-class momentum; quasi-canonical embeddings pin it to 0"
                )
            preconditions.append(f"{row.name} := 0 imposed in advance")
        fixed[row.name] = val
    if epsilon:
        raise EmbeddingError(f"epsilon overrides for coordinates not fixed by {kind}: {sorted(epsilon)}")
    conditions = gauge_fixing if isinstance(gauge_fixing, dict) else {}
    if conditions:
        verify_gauge(result, chart, ht, fixed, conditions)
    sols = {}
    if gauge_fixed:
        sols = conditions or derive_gauge(result, chart, ht, fixed)
        preconditions += [f"gauge fixing: {z.name} = {v}" for z, v in sols.items()]
    return EmbeddingPlan(kind, fixed, gauge_fixed, sols, preconditions)


def _primary_psi_names(chart: CanonicalChart):
    return {r.name for r in chart.rows if r.role == "Psi" and r.generation == 1}


def _gauge_velocities(chart: CanonicalChart, ht: Expr, fixed: dict):
    """Velocities of the Xi rows on the embedded subspace (the chart rows
    named in `fixed` at their values, the other non-(Q, P) rows at 0),
    multipliers symbolic: {Xi, H_T} = dH_T/dPsi in the chart, Psi the
    conjugate momentum and `ht` H_T in chart symbols."""
    subs = {r.symbol: Fraction(fixed.get(r.name, 0)) for r in chart.rows if r.role not in ("Q", "P")}
    return [(xi, ht.diff(psi.symbol).substitute(subs)) for xi, psi in chart.pairs("Xi")]


def derive_gauge(result: DiracResult, chart: CanonicalChart, ht: Expr, fixed: dict) -> dict:
    """Multiplier values that freeze every gauge position on the embedding."""
    free = result.free_multipliers
    if not free:
        return {}
    sols = {}
    pending = []
    for row, vel in _gauge_velocities(chart, ht, fixed):
        if vel.is_zero():
            continue
        const, coeffs = vel.split_affine(free)
        live = {z: c for z, c in coeffs.items() if not c.is_zero()}
        if not live:
            raise GaugeError(f"{row.name} cannot be frozen: velocity {vel} has no multiplier handle")
        pending.append((row, const, live))
    for row, const, live in pending:
        # each gauge position couples to one primary first-class multiplier
        z, c = next(iter(sorted(live.items(), key=lambda kv: kv[0].index)))
        if len(live) > 1:
            raise GaugeError(f"{row.name} velocity couples several multipliers; supply gauge conditions explicitly")
        val = -const / c
        if z in sols and sols[z] != val:
            raise GaugeError(f"conflicting staticity requirements for {z.name}")
        sols[z] = val
    return sols


def verify_gauge(result: DiracResult, chart: CanonicalChart, ht: Expr, fixed: dict, sols: dict):
    """Check user-supplied multiplier values `sols` freeze the gauge sector."""
    unknown = [z for z in sols if z not in result.free_multipliers]
    if unknown:
        raise GaugeError(f"gauge conditions for non-free multipliers: {[z.name for z in unknown]}")
    missing = [z for z in result.free_multipliers if z not in sols]
    if missing:
        raise GaugeError(f"gauge conditions missing for multipliers: {[z.name for z in missing]}")
    for row, vel in _gauge_velocities(chart, ht, fixed):
        residual = vel.substitute(sols)
        if not residual.is_zero():
            raise GaugeError(f"gauge conditions do not freeze {row.name}: residual velocity {residual}")


class PullbackLagrangian(_Record):
    __slots__ = ("kinetic", "minus_h", "total_derivative", "eps_values", "hamiltonian", "lagrangian", "constant")

    def __init__(self, kinetic: Expr, minus_h: Expr, total_derivative: Expr, eps_values: dict, hamiltonian: Expr,
                 lagrangian: Expr, constant: Fraction):
        # kinetic: sum of P*d(Q) over surviving pairs; minus_h: -H_T on the
        # embedding, fixed coordinates as epsilon symbols; total_derivative:
        # d/dt[Psi_a' Xi^a'] content for quasi-canonical kinds; eps_values:
        # epsilon Symbol -> Fraction; hamiltonian: H_T on the embedding at the
        # epsilon values; lagrangian: kinetic - hamiltonian, the additive
        # `constant` removed
        self._fields(kinetic, minus_h, total_derivative, eps_values, hamiltonian, lagrangian, constant)


def pullback_total_lagrangian(chart: CanonicalChart, plan: EmbeddingPlan, ht: Expr) -> PullbackLagrangian:
    """L_T = P dQ - H_T on the embedding `plan` fixes, `ht` H_T in chart symbols."""
    table = chart.table
    if plan.gauge_multiplier_solutions:
        ht = ht.substitute(plan.gauge_multiplier_solutions)

    pinned = set() if plan.gauge_fixed else _primary_psi_names(chart)
    subs = {}
    eps_values = {}
    for row in chart.rows:
        if row.name not in plan.fixed:
            continue
        if row.name in pinned:
            subs[row.symbol] = Expr.const(table, 0)
            continue
        eps = table.register_fresh(f"eps_{row.name}", "parameter")  # reused by a later pullback
        subs[row.symbol] = Expr.sym(table, eps)
        eps_values[eps] = Fraction(plan.fixed[row.name])
    minus_h = -(ht.substitute(subs)) if subs else -ht
    stray = [s for s in minus_h.free_symbols() if s.kind == "multiplier"]
    if stray:
        raise EmbeddingError(f"free multipliers {[s.name for s in stray]} survive the pullback; gauge data incomplete")

    kinetic = Expr.const(table, 0)
    for q_row, p_row in chart.pairs("Q"):
        kinetic = kinetic + Expr.sym(table, p_row.symbol) * Expr.sym(table, table.velocity(q_row.symbol))

    td = Expr.const(table, 0)
    if not plan.gauge_fixed:
        for xi_row, psi_row in chart.pairs("Xi"):
            if psi_row.name not in pinned:
                td = td + subs[psi_row.symbol] * Expr.sym(table, table.velocity(xi_row.symbol))

    value = minus_h.substitute({e: Expr.const(table, v) for e, v in eps_values.items()}) if eps_values else minus_h
    constant = _constant_part(value)
    lagrangian = kinetic + value - Expr.const(table, constant)
    return PullbackLagrangian(kinetic, minus_h, td, eps_values, -value, lagrangian, constant)


def _constant_part(e: Expr) -> Fraction:
    if not e.is_polynomial():
        return Fraction(0)
    return Fraction(e.num.get((), 0), e.den[()])


def effective_hamiltonian(result: DiracResult, chart: CanonicalChart, ht: Expr) -> Expr:
    """`ht`, H_T in chart symbols, with every primary first-class momentum set to zero."""
    if result.F == 0:
        raise EmbeddingError("effective Hamiltonian needs first-class constraints")
    table = chart.table
    primary_psi = _primary_psi_names(chart)
    return ht.substitute({r.symbol: Expr.const(table, 0) for r in chart.rows if r.name in primary_psi})


class BoundaryReport(_Record):
    """The rows an embedding fixes at both ends, at one end and never, and the
    2n (`total`) integral constants counted off them: `by_boundary` set by the
    endpoint data, `by_gauge` by the primary momenta pinned in advance, the
    two together `free`; the rows the embedding fixes occupy the rest."""

    __slots__ = ("fix_both_ends", "fix_initial_only", "never_fix", "initial_endpoint", "total")

    def __init__(self, fix_both_ends: tuple, fix_initial_only: tuple, never_fix: tuple, initial_endpoint: str,
                 total: int):
        self._fields(fix_both_ends, fix_initial_only, never_fix, initial_endpoint, total)

    @property
    def by_boundary(self) -> int:
        return 2 * len(self.fix_both_ends) + len(self.fix_initial_only)

    @property
    def by_gauge(self) -> int:
        return len(self.never_fix)

    @property
    def free(self) -> int:
        return self.by_boundary + self.by_gauge

    @property
    def occupied(self) -> int:
        return self.total - self.free


def boundary_report(chart: CanonicalChart, plan: EmbeddingPlan, endpoint: str = "t1") -> BoundaryReport:
    """Endpoint prescription making the variational principle well-posed.

    Physical positions are fixed at both ends.  Under quasi-canonical
    embeddings the gauge positions conjugate to *secondary or higher*
    first-class momenta are fixed at one endpoint only, while those conjugate
    to primary first-class momenta must not be fixed at all until a gauge is
    chosen.
    """
    if endpoint not in ("t1", "t2"):
        raise EmbeddingError("endpoint must be t1 or t2")
    both = [q.name for q, _p in chart.pairs("Q")]
    initial: list = []
    never: list = []
    if not plan.gauge_fixed:
        primary_psi = _primary_psi_names(chart)
        for xi, psi in chart.pairs("Xi"):
            (never if psi.name in primary_psi else initial).append(xi.name)
    return BoundaryReport(both, initial, never, endpoint, 2 * chart.n)
