"""End-to-end pipeline and the JSON report.

Drives: parse -> (optional order-2 reduction) -> Legendre -> consistency
iteration -> classification -> chart (built, or imported from the system
file) -> embedding selection -> pullback and boundary prescription.  The
report dict is built in a fixed key order so serialized output is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import qq
from .chart import (
    CanonicalChart,
    ChartRow,
    build_chart,
    frobenius_check,
    integral_constant_budget,
    transform,
    verify_chart,
)
from .dirac import classify, dirac_iterate
from .embedding import (
    boundary_report,
    effective_hamiltonian,
    pullback_total_lagrangian,
    resolve_plan,
    select_embedding,
)
from .expr import Expr, ExprError, _frac_str
from .lagrangian import LagrangianSystem, counter_term, legendre, ostrogradsky_reduce, pons_reduce
from .parser import parse_expr
from .symbols import SymbolTable
from .sysfile import ROLE_PATTERN, SystemFile

SCHEMA_VERSION = 1


class InputError(Exception):
    pass


@dataclass
class PipelineOptions:
    path: str | None = None  # ssok | pons for order-2 systems
    gauge_fixing: bool = False
    gauge_conditions: str | None = None  # "zeta1=-P1, zeta2=0"
    fix_endpoint: str | None = None  # None: file option, then t1
    epsilon: dict = field(default_factory=dict)  # chart row name -> Fraction


@dataclass
class Analysis:
    sysfile: SystemFile
    options: PipelineOptions
    table: SymbolTable
    system: LagrangianSystem
    reduced: LagrangianSystem
    path: str | None
    w_counter: Expr | None
    l_counter: Expr | None
    fos: object
    result: object
    chart: CanonicalChart | None = None
    chart_source: str = "built"
    plan: object = None
    pullback: object = None
    boundary: object = None
    frobenius: object = None
    budget: object = None
    effective_h: Expr | None = None
    pivot_log: list = field(default_factory=list)


def analyze_system(sysfile: SystemFile, options: PipelineOptions | None = None) -> Analysis:
    options = options or PipelineOptions()
    table = SymbolTable()
    coords = tuple(table.position(n) for n in sysfile.coordinates)
    try:
        lag = parse_expr(sysfile.lagrangian, table)
    except Exception as exc:
        raise InputError(f"Lagrangian: {exc}") from exc
    system = LagrangianSystem(table, coords, sysfile.order, lag)
    for c in coords:
        if sysfile.order == 1 and lag.degree_in(table.acceleration(c)) > 0:
            raise InputError(f"order 1 system uses dd({c.name}); declare order 2")

    pivot_log: list = []
    path = options.path or sysfile.options.get("path")
    w = l_red = None
    reduced = system
    if sysfile.order == 2:
        path = path or "ssok"
        try:
            w, red1 = counter_term(system)
            l_red = red1.L
        except Exception:
            w = l_red = None
        reduced = ostrogradsky_reduce(system) if path == "ssok" else pons_reduce(system)
    elif path:
        raise InputError("path option applies to order-2 systems only")

    fos = legendre(reduced, pivot_log=pivot_log)
    result = classify(dirac_iterate(fos, pivot_log=pivot_log), pivot_log=pivot_log)
    an = Analysis(sysfile, options, table, system, reduced, path, w, l_red, fos, result, pivot_log=pivot_log)
    an.frobenius = frobenius_check(result)
    return an


def attach_chart(an: Analysis) -> Analysis:
    if an.sysfile.chart_rows:
        an.chart = _import_chart(an)
        an.chart_source = "supplied"
    else:
        an.chart = build_chart(an.result)
        an.chart_source = "built"
    return an


def attach_embedding(an: Analysis) -> Analysis:
    opts = an.options
    plan = select_embedding(an.result, opts.gauge_fixing)
    gauge_conditions = None
    raw = opts.gauge_conditions
    if raw is None and an.sysfile.gauge and opts.gauge_fixing:
        raw = ",".join(f"{n}={t}" for n, t, _ln in an.sysfile.gauge)
    if raw:
        gauge_conditions = _parse_gauge_conditions(raw, an)
    eps = dict(an.sysfile.epsilon)
    eps.update(opts.epsilon)
    # H_T in chart symbols, transformed once for the plan, the pullback and the effective H
    an.chart.hamiltonian = transform(an.result.total_hamiltonian(substitute_solved=True), an.chart)
    an.plan = resolve_plan(plan, an.result, an.chart, epsilon=eps, gauge_conditions=gauge_conditions)
    an.pullback = pullback_total_lagrangian(an.result, an.chart, an.plan)
    endpoint = opts.fix_endpoint or an.sysfile.options.get("fix_endpoint") or "t1"
    an.boundary = boundary_report(an.result, an.chart, an.plan, endpoint=endpoint)
    an.budget = integral_constant_budget(an.result, an.plan)
    if an.result.F > 0:
        an.effective_h = effective_hamiltonian(an.result, an.chart)
    return an


def run_pipeline(sysfile: SystemFile, options: PipelineOptions | None = None, stage: str = "report") -> Analysis:
    an = analyze_system(sysfile, options)
    if stage in ("chart", "report", "simulate"):
        attach_chart(an)
    if stage in ("report", "simulate"):
        attach_embedding(an)
    return an


def _parse_gauge_conditions(raw: str, an: Analysis) -> dict:
    out = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"gauge condition {part!r} must look like zeta1=-P1")
        name, _, text = part.partition("=")
        name = name.strip()
        sym = an.table.get(name)
        if sym is None or sym.kind != "multiplier":
            raise InputError(f"{name!r} is not a multiplier of this system")
        try:
            out[sym] = parse_expr(text.strip(), an.table)
        except Exception as exc:
            raise InputError(f"gauge condition {part!r}: {exc}") from exc
    return out


def _import_chart(an: Analysis) -> CanonicalChart:
    """Parse, order, and validate a user-supplied chart."""
    table = an.table
    phase = an.fos.phase
    n = phase.n
    z = phase.z_order()
    by_role = {}
    for name, text, lineno in an.sysfile.chart_rows:
        m = ROLE_PATTERN.match(name)
        role, idx = m.group(1), int(m.group(2))
        if name in table:
            raise InputError(f"chart row name {name!r} collides with an existing symbol")
        sym = table.position(name)
        try:
            e = parse_expr(text, table)
            coeffs, offset = e.linear_form(z)
        except ExprError as exc:
            raise InputError(f"chart row {name} (line {lineno}) is not linear in phase coordinates: {exc}")
        except Exception as exc:
            raise InputError(f"chart row {name} (line {lineno}): {exc}") from exc
        if (role, idx) in by_role:
            raise InputError(f"duplicate chart row {name}")
        by_role[(role, idx)] = ChartRow(role, idx, coeffs, offset, sym)

    counts = {r: max((i for (rr, i) in by_role if rr == r), default=0) for r in ("Xi", "Psi", "ThU", "ThD", "Q", "P")}
    if counts["Xi"] != counts["Psi"] or counts["ThU"] != counts["ThD"] or counts["Q"] != counts["P"]:
        raise InputError("chart roles must pair up: Xi/Psi, ThU/ThD, Q/P")
    total = counts["Xi"] + counts["ThU"] + counts["Q"]
    if total != n:
        raise InputError(f"chart must have {n} conjugate pairs, found {total}")
    rows = []
    for role in ("Xi", "ThU", "Q"):
        for i in range(1, counts[role] + 1):
            if (role, i) not in by_role:
                raise InputError(f"missing chart row {role}{i}")
            rows.append(by_role[(role, i)])
    for role in ("Psi", "ThD", "P"):
        for i in range(1, counts[role] + 1):
            if (role, i) not in by_role:
                raise InputError(f"missing chart row {role}{i}")
            rows.append(by_role[(role, i)])
    chart = CanonicalChart(phase, rows)

    ok, violations, _ = verify_chart(chart.matrix(), mode="exact")
    if not ok:
        i, k, delta = violations[0]
        raise InputError(f"supplied chart fails S^T J S = J (entry {i},{k} off by {delta})")

    result = an.result
    fc_cov = [_covector(rep.expr, phase) for rep in result.first_class]
    psi_cov = [r.coeffs for r in chart.rows_by_role("Psi")]
    if not _same_span(fc_cov, psi_cov):
        raise InputError("supplied Psi rows do not span the first-class constraints")
    all_cov = [_covector(c.expr, phase) for c in result.constraints]
    theta_cov = [r.coeffs for r in chart.rows_by_role("ThU")] + [r.coeffs for r in chart.rows_by_role("ThD")]
    if not _same_span(all_cov, psi_cov + theta_cov):
        raise InputError("supplied Psi/Theta rows do not span the constraint set")

    prim_cov = [_covector(c.expr, phase) for c in result.constraints if c.generation == 1]
    for r in chart.rows_by_role("Psi"):
        r.generation = 1 if _in_span(prim_cov, r.coeffs) else 2
    return chart


def _covector(expr, phase):
    return expr.linear_form(phase.z_order())[0]


def _same_span(a, b):
    return qq.rank(a) == qq.rank(b) == qq.rank(a + b)


def _in_span(basis, v):
    return qq.rank(basis) == qq.rank(basis + [v])


# ---------------------------------------------------------------------------
# serialization

def build_report(an: Analysis, stage: str = "report") -> dict:
    table = an.table
    result = an.result
    rep = {
        "schema_version": SCHEMA_VERSION,
        "system": an.sysfile.name,
        "stage": stage,
        "n": result.phase.n,
        "order": an.sysfile.order,
        "path": an.path,
        "coordinates": [q.name for q in result.phase.positions],
        "momenta": [p.name for p in result.phase.momenta],
        "hamiltonian": str(result.H),
    }
    if an.w_counter is not None:
        rep["counter_term"] = {"W": str(an.w_counter), "L_reduced": str(an.l_counter)}
    rep["constraints"] = [
        {
            "name": c.name,
            "expr": str(c.expr),
            "chain": c.chain + 1,
            "generation": c.generation,
            "class": c.klass,
        }
        for c in result.constraints
    ]
    rep["classification"] = {
        "first_class": [{"expr": str(r.expr), "generation": r.generation} for r in result.first_class],
        "second_class": [{"expr": str(r.expr), "generation": r.generation} for r in result.second_class],
        "F": result.F,
        "S": result.S,
        "dof": result.dof,
    }
    rep["multipliers"] = {
        "attached_to": [str(e) for e in result.rebased_primaries],
        "free": [z.name for z in result.free_multipliers],
        "solved": {z.name: str(v) for z, v in sorted(result.multiplier_solutions.items(), key=lambda kv: kv[0].index)},
    }
    if an.frobenius is not None:
        fr = an.frobenius
        rep["frobenius"] = {
            "verdict": "pass" if fr.verdict else "fail",
            "residuals": {name: str(e) for name, e in fr.residuals},
            "budget": {"used": fr.budget_used, "total": fr.budget_total, "ok": fr.budget_ok},
        }
    rep["flags"] = list(result.flags)
    rep["genericity_pivots"] = sorted({str(p) for p in an.pivot_log if not p.is_constant()})

    if stage == "analyze" or an.chart is None:
        return rep

    rep["chart"] = chart_to_json(an.chart, result.phase, table, an.chart_source)

    if stage == "chart" or an.plan is None:
        return rep

    plan = an.plan
    rep["embedding"] = {
        "kind": plan.kind,
        "gauge_fixed": plan.gauge_fixed,
        "fixed": {k: _frac_str(v) for k, v in sorted(plan.fixed.items())},
        "gauge_multipliers": {z.name: str(v) for z, v in sorted(plan.gauge_multiplier_solutions.items(), key=lambda kv: kv[0].index)},
        "preconditions": list(plan.preconditions),
    }
    pb = an.pullback
    rep["pullback"] = {
        "kinetic": str(pb.kinetic),
        "minus_h_eps": str(pb.minus_h),
        "total_derivative": str(pb.total_derivative),
        "epsilon_values": {e.name: _frac_str(v) for e, v in sorted(pb.eps_values.items(), key=lambda kv: kv[0].index)},
        "lagrangian": str(pb.lagrangian),
        "constant": _frac_str(pb.constant),
    }
    rep["effective_hamiltonian"] = str(an.effective_h) if an.effective_h is not None else None
    br = an.boundary
    rep["boundary"] = {
        "fix_both_ends": br.fix_both_ends,
        "fix_initial_only": br.fix_initial_only,
        "never_fix": br.never_fix,
        "initial_endpoint": br.initial_endpoint,
        "free_constant_count": br.free_constant_count,
        "preconditions": br.preconditions,
    }
    bud = an.budget
    rep["integral_constants"] = {
        "total": bud.total,
        "occupied": bud.occupied,
        "free": bud.free,
        "by_boundary": bud.by_boundary,
        "by_gauge": bud.by_gauge,
    }
    return rep


def chart_to_json(chart: CanonicalChart, phase, table, source: str) -> dict:
    return {
        "source": source,
        "z_order": [s.name for s in phase.z_order()],
        "rows": [
            {
                "name": r.name,
                "role": r.role,
                "pair": r.pair,
                "generation": r.generation,
                "coeffs": [_frac_str(c) for c in r.coeffs],
                "offset": _frac_str(r.offset),
                "expr": str(r.expr(table, phase)),
            }
            for r in chart.rows
        ],
        "notes": list(chart.notes),
    }


def report_json(rep: dict) -> str:
    return json.dumps(rep, indent=2) + "\n"
