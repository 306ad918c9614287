"""Embedding selection, pullback Lagrangians, and boundary prescriptions.

Embedding kinds follow the gauge-fixing table: first-class only systems get
sigma1 (gauge fixed) or sigma1~, second-class only systems sigma2, mixed
systems sigma3 or sigma3~; an unconstrained system gets the trivial plan.
The quasi-canonical (~) kinds leave the gauge positions unfixed and require
the primary first-class momenta to be pinned to zero in advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .chart import CanonicalChart, transform
from .dirac import DiracResult, poisson
from .expr import Expr


class EmbeddingError(Exception):
    pass


class GaugeError(EmbeddingError):
    pass


@dataclass
class EmbeddingPlan:
    kind: str  # sigma1 | sigma1_tilde | sigma2 | sigma3 | sigma3_tilde | trivial
    fixed: dict = field(default_factory=dict)  # chart row name -> Fraction epsilon
    gauge_fixed: bool = False
    gauge_multiplier_solutions: dict = field(default_factory=dict)  # Symbol -> Expr (chart space)
    preconditions: list = field(default_factory=list)


_FIXED_ROLES = {
    "sigma1": ("Xi", "Psi"),
    "sigma1_tilde": ("Psi",),
    "sigma2": ("ThU", "ThD"),
    "sigma3": ("Xi", "Psi", "ThU", "ThD"),
    "sigma3_tilde": ("Psi", "ThU", "ThD"),
    "trivial": (),
}

# restrictions that keep part of the constraint block dynamical; fixing their
# leftover coordinates through endpoint data is impossible
_INVALID_KINDS = {
    "sigma3_1": "second-class coordinates stay dynamical",
    "sigma3_2": "gauge pair coordinates stay dynamical",
    "sigma3_tilde_1": "second-class coordinates stay dynamical",
}


def select_embedding(result: DiracResult, gauge_fixing: bool) -> EmbeddingPlan:
    """Embedding kind for the constraint classes (the gauge-fixing table)."""
    if not result.classified:
        raise EmbeddingError("classify the Dirac result before selecting an embedding")
    f_cnt, s_cnt = result.F, result.S
    if f_cnt == 0 and s_cnt == 0:
        kind = "trivial"
    elif s_cnt == 0:
        kind = "sigma1" if gauge_fixing else "sigma1_tilde"
    elif f_cnt == 0:
        kind = "sigma2"
    else:
        kind = "sigma3" if gauge_fixing else "sigma3_tilde"
    return EmbeddingPlan(kind, gauge_fixed=gauge_fixing and kind in ("sigma1", "sigma3"))


def resolve_plan(
    plan: EmbeddingPlan,
    result: DiracResult,
    chart: CanonicalChart,
    epsilon: dict | None = None,
    gauge_conditions: dict | None = None,
) -> EmbeddingPlan:
    """A copy of `plan` with the fixed-coordinate values and gauge data for a
    chart filled in; `plan` itself is left untouched.

    epsilon maps chart row names to rational values (default 0, the limit
    that restores the constraint surface).  For quasi-canonical kinds the
    primary first-class momenta are pinned to zero regardless.
    """
    epsilon = dict(epsilon or {})
    if plan.kind in _INVALID_KINDS:
        raise EmbeddingError(
            f"{plan.kind} is not a well-posed embedding ({_INVALID_KINDS[plan.kind]}; "
            f"the endpoint-to-constants map does not exist)"
        )
    if plan.kind not in _FIXED_ROLES:
        raise EmbeddingError(f"unknown embedding kind {plan.kind!r}")
    roles = _FIXED_ROLES[plan.kind]
    fixed = {}
    preconditions = list(plan.preconditions)
    primary_psi = _primary_psi_names(chart)
    for row in chart.rows:
        if row.role not in roles:
            continue
        val = Fraction(epsilon.pop(row.name, 0))
        if plan.kind.endswith("_tilde") and row.name in primary_psi:
            if val != 0:
                raise EmbeddingError(
                    f"{row.name} is a primary first-class momentum; quasi-canonical embeddings pin it to 0"
                )
            preconditions.append(f"{row.name} := 0 imposed in advance")
        fixed[row.name] = val
    if epsilon:
        raise EmbeddingError(f"epsilon overrides for coordinates not fixed by {plan.kind}: {sorted(epsilon)}")
    plan = replace(plan, fixed=fixed, preconditions=preconditions)
    if plan.gauge_fixed:
        if gauge_conditions:
            plan.gauge_multiplier_solutions = dict(gauge_conditions)
            verify_gauge(result, chart, plan)
        else:
            plan.gauge_multiplier_solutions = derive_gauge(result, chart, plan)
        for z, v in plan.gauge_multiplier_solutions.items():
            plan.preconditions.append(f"gauge fixing: {z.name} = {v}")
    return plan


def _chart_hamiltonian(result: DiracResult, chart: CanonicalChart) -> Expr:
    """H_T (solved multipliers in) in chart symbols: the chart's own copy if
    it carries one, else transformed here."""
    if chart.hamiltonian is not None:
        return chart.hamiltonian
    return transform(result.total_hamiltonian(substitute_solved=True), chart)


def _primary_psi_names(chart: CanonicalChart):
    return {r.name for r in chart.rows if r.role == "Psi" and (r.generation or 1) == 1}


def _gauge_velocities(result: DiracResult, chart: CanonicalChart, plan: EmbeddingPlan):
    """Velocities of the Xi rows on the embedded subspace, multipliers symbolic."""
    table = chart.table
    ht_c = _chart_hamiltonian(result, chart)
    cp = chart.chart_phase()
    subs = {}
    for row in chart.rows:
        if row.role in ("Q", "P"):
            continue
        subs[row.symbol] = Expr.const(table, Fraction(plan.fixed.get(row.name, 0)))
    out = []
    for row in chart.rows:
        if row.role != "Xi":
            continue
        vel = poisson(Expr.sym(table, row.symbol), ht_c, cp)
        out.append((row, vel.substitute(subs)))
    return out


def derive_gauge(result: DiracResult, chart: CanonicalChart, plan: EmbeddingPlan) -> dict:
    """Multiplier values that freeze every gauge position on the embedding."""
    table = chart.table
    free = result.free_multipliers
    if not free:
        return {}
    sols = {}
    pending = []
    for row, vel in _gauge_velocities(result, chart, plan):
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


def verify_gauge(result: DiracResult, chart: CanonicalChart, plan: EmbeddingPlan):
    """Check user-supplied multiplier values freeze the gauge sector."""
    sols = plan.gauge_multiplier_solutions
    unknown = [z for z in sols if z not in result.free_multipliers]
    if unknown:
        raise GaugeError(f"gauge conditions for non-free multipliers: {[z.name for z in unknown]}")
    missing = [z for z in result.free_multipliers if z not in sols]
    if missing:
        raise GaugeError(f"gauge conditions missing for multipliers: {[z.name for z in missing]}")
    for row, vel in _gauge_velocities(result, chart, plan):
        residual = vel.substitute(sols)
        if not residual.is_zero():
            raise GaugeError(f"gauge conditions do not freeze {row.name}: residual velocity {residual}")


@dataclass
class PullbackLagrangian:
    kinetic: Expr  # sum of P*d(Q) over surviving pairs
    minus_h: Expr  # -H_T on the embedding, fixed coordinates as epsilon symbols
    total_derivative: Expr  # d/dt[Psi_a' Xi^a'] content for quasi-canonical kinds
    eps_values: dict  # epsilon Symbol -> Fraction
    lagrangian: Expr  # kinetic + minus_h at the epsilon values, constant removed
    constant: Fraction  # the removed additive constant


def pullback_total_lagrangian(result: DiracResult, chart: CanonicalChart, plan: EmbeddingPlan) -> PullbackLagrangian:
    table = chart.table
    ht_c = _chart_hamiltonian(result, chart)
    if plan.gauge_fixed and plan.gauge_multiplier_solutions:
        ht_c = ht_c.substitute(plan.gauge_multiplier_solutions)

    primary_psi = _primary_psi_names(chart)
    subs = {}
    eps_values = {}
    for row in chart.rows:
        if row.name not in plan.fixed:
            continue
        if plan.kind.endswith("_tilde") and row.name in primary_psi:
            subs[row.symbol] = Expr.const(table, 0)
            continue
        eps = _epsilon_symbol(table, row.name)
        subs[row.symbol] = Expr.sym(table, eps)
        eps_values[eps] = Fraction(plan.fixed[row.name])
    minus_h = -(ht_c.substitute(subs)) if subs else -ht_c
    stray = [s for s in minus_h.free_symbols() if s.kind == "multiplier"]
    if stray:
        raise EmbeddingError(f"free multipliers {[s.name for s in stray]} survive the pullback; gauge data incomplete")

    kinetic = Expr.const(table, 0)
    for q_row in chart.rows_by_role("Q"):
        p_row = chart.conjugate(q_row)
        kinetic = kinetic + Expr.sym(table, p_row.symbol) * Expr.sym(table, table.velocity(q_row.symbol))

    td = Expr.const(table, 0)
    if plan.kind.endswith("_tilde"):
        for psi_row in chart.rows_by_role("Psi"):
            if psi_row.name in primary_psi:
                continue
            eps = subs[psi_row.symbol]
            xi_row = chart.conjugate(psi_row)
            td = td + eps * Expr.sym(table, table.velocity(xi_row.symbol))

    value = minus_h.substitute({e: Expr.const(table, v) for e, v in eps_values.items()}) if eps_values else minus_h
    constant = _constant_part(value)
    lagrangian = kinetic + value - Expr.const(table, constant)
    return PullbackLagrangian(kinetic, minus_h, td, eps_values, lagrangian, constant)


def _epsilon_symbol(table, row_name):
    """The parameter eps_<row>: registered by the first pullback, reused by
    later ones; underscores are appended past names held by other kinds."""
    name = f"eps_{row_name}"
    while name in table and table[name].kind != "parameter":
        name += "_"
    return table.register(name, "parameter")


def _constant_part(e: Expr) -> Fraction:
    if not e.is_polynomial():
        return Fraction(0)
    c = e.num.get((), None)
    return Fraction(c) if c is not None else Fraction(0)


def effective_hamiltonian(result: DiracResult, chart: CanonicalChart) -> Expr:
    """Transformed H_T with every primary first-class momentum set to zero."""
    if result.F == 0:
        raise EmbeddingError("effective Hamiltonian needs first-class constraints")
    table = chart.table
    ht_c = _chart_hamiltonian(result, chart)
    subs = {}
    for row in chart.rows_by_role("Psi"):
        if (row.generation or 1) == 1:
            subs[row.symbol] = Expr.const(table, 0)
    return ht_c.substitute(subs)


@dataclass
class BoundaryReport:
    fix_both_ends: list
    fix_initial_only: list
    never_fix: list
    free_constant_count: int
    preconditions: list
    initial_endpoint: str = "t1"


def boundary_report(result: DiracResult, chart: CanonicalChart, plan: EmbeddingPlan, endpoint: str = "t1") -> BoundaryReport:
    """Endpoint prescription making the variational principle well-posed.

    Physical positions are fixed at both ends.  Under quasi-canonical
    embeddings the gauge positions conjugate to *secondary or higher*
    first-class momenta are fixed at one endpoint only, while those conjugate
    to primary first-class momenta must not be fixed at all until a gauge is
    chosen.
    """
    if endpoint not in ("t1", "t2"):
        raise EmbeddingError("endpoint must be t1 or t2")
    from .chart import integral_constant_budget

    both = [r.name for r in chart.rows_by_role("Q")]
    initial: list = []
    never: list = []
    if plan.kind.endswith("_tilde"):
        primary_psi = _primary_psi_names(chart)
        for xi in chart.rows_by_role("Xi"):
            psi = chart.conjugate(xi)
            if psi.name in primary_psi:
                never.append(xi.name)
            else:
                initial.append(xi.name)
    budget = integral_constant_budget(result, plan)
    return BoundaryReport(both, initial, never, budget.free, list(plan.preconditions), endpoint)
