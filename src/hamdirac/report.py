"""End-to-end pipeline and the JSON report.

Drives: parse -> (optional order-2 reduction) -> Legendre -> consistency
iteration -> classification -> chart (`chart.build_chart`, or the system
file's checked by `chart.import_chart`) -> embedding selection -> pullback
and boundary prescription.  Input the analysis refuses raises
`sysfile.InputError`.  The report dict is built in a fixed key order so
serialized output is byte-stable.
"""

from __future__ import annotations

import json
from itertools import repeat

from .chart import CanonicalChart, build_chart, frobenius_check, import_chart, transform
from .dirac import classify, dirac_iterate
from .embedding import (
    boundary_report,
    effective_hamiltonian,
    pullback_total_lagrangian,
    resolve_plan,
    select_embedding,
)
from .expr import Expr, _frac_str
from .lagrangian import LagrangianSystem, MechanicsError, counter_term, legendre, ostrogradsky_reduce, pons_reduce
from .parser import parse_expr
from .symbols import SymbolError, SymbolTable, _Record
from .sysfile import InputError, SystemFile

SCHEMA_VERSION = 1


class PipelineOptions(_Record):
    __slots__ = ("path", "gauge_fixing", "fix_endpoint", "epsilon")

    def __init__(self, path: str | None = None, gauge_fixing: bool | dict = False, fix_endpoint: str | None = None,
                 epsilon: dict = {}):
        # path: ssok | pons for order-2 systems; gauge_fixing: False, True
        # (the file's [gauge] conditions, else derived ones) or the conditions
        # themselves, a nonempty {multiplier name: expression text} dict;
        # fix_endpoint None: the file's option, then t1; epsilon: chart row
        # name -> Fraction
        self._fields(path, gauge_fixing, fix_endpoint, epsilon)


class Analysis(_Record):
    __slots__ = (
        "sysfile", "options", "table", "system", "reduced", "path", "w_counter", "l_counter", "fos", "result",
        "chart", "chart_source", "plan", "pullback", "boundary", "frobenius", "effective_h",
    )

    def __init__(
        self, sysfile: SystemFile, options: PipelineOptions, table: SymbolTable, system: LagrangianSystem,
        reduced: LagrangianSystem, path: str | None, w_counter: Expr | None, l_counter: Expr | None, fos: object,
        result: object, chart: CanonicalChart | None = None, chart_source: str = "built", plan: object = None,
        pullback: object = None, boundary: object = None, frobenius: object = None, effective_h: Expr | None = None,
    ):
        self._fields(
            sysfile, options, table, system, reduced, path, w_counter, l_counter, fos, result, chart, chart_source,
            plan, pullback, boundary, frobenius, effective_h,
        )


def analyze_system(sysfile: SystemFile, options: PipelineOptions | None = None) -> Analysis:
    options = options or PipelineOptions()
    table = SymbolTable()
    try:
        coords = tuple(table.position(n) for n in sysfile.coordinates)
    except SymbolError as exc:  # a coordinate named like another's d(..) or dd(..)
        raise InputError(f"coordinates: {exc}") from exc
    try:
        lag = parse_expr(sysfile.lagrangian, table)
    except Exception as exc:
        raise InputError(f"Lagrangian: {exc}") from exc
    system = LagrangianSystem(table, coords, sysfile.order, lag)
    used = lag.free_symbols()  # dd(q) in a denominator, or of net degree <= 0, is used all the same
    for c in coords:
        if sysfile.order == 1 and table.acceleration(c) in used:
            raise InputError(f"order 1 system uses dd({c.name}); declare order 2")

    path = options.path or sysfile.options.get("path")
    w = l_red = None
    reduced = system
    if sysfile.order == 2:
        path = path or "ssok"
        try:
            w, red1 = counter_term(system)
            l_red = red1.L
        except MechanicsError:  # not a gradient, or a denominator in the velocity: no counter-term
            w = l_red = None
        reduced = ostrogradsky_reduce(system) if path == "ssok" else pons_reduce(system)
    elif path:
        raise InputError("path option applies to order-2 systems only")

    fos = legendre(reduced)
    result = classify(dirac_iterate(fos))
    return Analysis(sysfile, options, table, system, reduced, path, w, l_red, fos, result,
                    frobenius=frobenius_check(result))


def attach_chart(an: Analysis) -> Analysis:
    """A copy of `an` with its chart, supplied by the file or built; `an` is left untouched."""
    if an.sysfile.chart_rows:
        return an._replace(chart=import_chart(an.result, an.sysfile.chart_rows), chart_source="supplied")
    return an._replace(chart=build_chart(an.result), chart_source="built")


def attach_embedding(an: Analysis) -> Analysis:
    """A copy of `an` with its embedding plan, pullback, boundary data and
    effective Hamiltonian; `an` is left untouched."""
    opts, gf = an.options, an.options.gauge_fixing
    plan = select_embedding(an.result, bool(gf))
    if gf is True:  # the bare flag: the file's [gauge] rows, if it has any
        rows = an.sysfile.gauge
    else:
        rows = [(name, text, None) for name, text in gf.items()] if gf else ()
    gauge_conditions = _parse_gauge_conditions(rows, an.table) if rows else None
    eps = {**an.sysfile.epsilon, **opts.epsilon}
    # H_T in chart symbols, transformed once for the plan, the pullback and the effective H
    ht = transform(an.result.total_hamiltonian(), an.chart)
    plan = resolve_plan(plan, an.result, an.chart, ht, epsilon=eps, gauge_conditions=gauge_conditions)
    endpoint = opts.fix_endpoint or an.sysfile.options.get("fix_endpoint") or "t1"
    return an._replace(
        plan=plan,
        pullback=pullback_total_lagrangian(an.chart, plan, ht),
        boundary=boundary_report(an.chart, plan, endpoint=endpoint),
        effective_h=effective_hamiltonian(an.result, an.chart, ht) if an.result.F > 0 else None,
    )


def run_pipeline(sysfile: SystemFile, options: PipelineOptions | None = None, stage: str = "report") -> Analysis:
    an = analyze_system(sysfile, options)
    if stage in ("chart", "report", "simulate"):
        an = attach_chart(an)
    if stage in ("report", "simulate"):
        an = attach_embedding(an)
    return an


def _parse_gauge_conditions(rows, table) -> dict:
    """{multiplier: Expr} of gauge conditions given as (name, text, line)
    rows, line None for conditions not read from a file."""
    out = {}
    for name, text, line in rows:
        where = "" if line is None else f" (line {line})"
        sym = table.get(name)
        if sym is None or sym.kind != "multiplier":
            raise InputError(f"{name!r}{where} is not a multiplier of this system")
        try:
            out[sym] = parse_expr(text, table)
        except Exception as exc:
            raise InputError(f"gauge condition {f'{name}={text}'!r}{where}: {exc}") from exc
    return out


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
    rep["flags"] = result.flags
    rep["genericity_pivots"] = sorted({str(p) for p in an.fos.genericity_pivots})

    if stage == "analyze" or an.chart is None:
        return rep

    rep["chart"] = chart_to_json(an.chart, result.phase, table, an.chart_source)

    if stage == "chart" or an.plan is None:
        return rep

    plan = an.plan
    rep["embedding"] = {
        "kind": plan.kind,
        "gauge_fixed": plan.gauge_fixed,
        "fixed": {k: str(v) for k, v in sorted(plan.fixed.items())},
        "gauge_multipliers": {z.name: str(v) for z, v in sorted(plan.gauge_multiplier_solutions.items(), key=lambda kv: kv[0].index)},
        "preconditions": plan.preconditions,
    }
    pb = an.pullback
    rep["pullback"] = {
        "kinetic": str(pb.kinetic),
        "minus_h_eps": str(pb.minus_h),
        "total_derivative": str(pb.total_derivative),
        "epsilon_values": {e.name: str(v) for e, v in sorted(pb.eps_values.items(), key=lambda kv: kv[0].index)},
        "lagrangian": str(pb.lagrangian),
        "constant": str(pb.constant),
    }
    rep["effective_hamiltonian"] = str(an.effective_h) if an.effective_h is not None else None
    br = an.boundary
    rep["boundary"] = {
        "fix_both_ends": br.fix_both_ends,
        "fix_initial_only": br.fix_initial_only,
        "never_fix": br.never_fix,
        "initial_endpoint": br.initial_endpoint,
        "free_constant_count": br.free,
        "preconditions": plan.preconditions,
    }
    rep["integral_constants"] = {
        "total": br.total,
        "occupied": br.occupied,
        "free": br.free,
        "by_boundary": br.by_boundary,
        "by_gauge": br.by_gauge,
    }
    return rep


def chart_to_json(chart: CanonicalChart, phase, table, source: str) -> dict:
    strs = [[_frac_str(x, r.row[1]) for x in map(dict(r.row[0]).get, range(2 * phase.n + 1), repeat(0))] for r in chart.rows]
    return {
        "source": source,
        "z_order": [s.name for s in phase.z_order()],
        "rows": [
            {
                "name": r.name,
                "role": r.role,
                "pair": r.pair,
                "generation": r.generation,
                "coeffs": s[:-1],
                "offset": s[-1],
                "expr": str(r.expr(table, phase)),
            }
            for r, s in zip(chart.rows, strs)
        ],
        "notes": chart.notes,
    }


def report_json(rep: dict) -> str:
    return json.dumps(rep, indent=2) + "\n"
