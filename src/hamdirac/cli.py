"""Command-line driver.

Subcommands mirror the three analysis steps plus numerics:

    analyze      constraint structure, classes, degrees of freedom
    chart        + canonical chart (built or taken from the file)
    report       + embedding, pullback Lagrangian, boundary prescription
    simulate     integrate the reduced system and solve the two-point problem
    verify-chart check S^T J S = J for a chart matrix in a JSON file

Exit codes: 0 ok, 2 input error, 3 unsupported shape, 4 inconsistent
theory/gauge, 5 constraint budget exceeded, 1 analysis or numerics failure.
simulate fails with 1 in two documented ways:

    error: resonant interval [T1, T2]: dQ(t2)/dP(t1) has condition number K > 6.71e+07; ...
        the endpoint data cannot determine the initial momenta; K is taken
        relative to the whole Jacobian dy(t2)/dP(t1), and the bound is
        1/sqrt(machine epsilon), whatever the scale of the data
    error: shooting iteration did not converge after N iterations (relative residual R)
        Newton on a non-quadratic Hamiltonian did not bring max|Q(t2) - Q2|
        down to 1e-10 of the state's scale
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .dirac import BudgetExceeded, DiracError, InconsistentTheory
from .embedding import EmbeddingError, GaugeError
from .expr import ExprError
from .lagrangian import MechanicsError, UnsupportedShape
from .linalg import LinalgError
from .numerics import NumericsError, compile_field, solve_iota
from .parser import ParseError
from .report import (
    Analysis,
    InputError,
    PipelineOptions,
    build_report,
    report_json,
    run_pipeline,
)
from .chart import ChartError, verify_chart
from .symbols import SymbolTable
from .sysfile import SysFileError, load_system_file

EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONSISTENT = 4
EXIT_BUDGET = 5


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InconsistentTheory, GaugeError) as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (SysFileError, InputError, ParseError, EmbeddingError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedShape, ChartError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DiracError, MechanicsError, LinalgError, NumericsError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser():
    p = argparse.ArgumentParser(prog="hamdirac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(required=True)

    def common(sp):
        sp.add_argument("file", help="system file (.sys)")
        sp.add_argument("--path", choices=["ssok", "pons"], help="order-2 reduction path")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("analyze", help="constraint structure and degrees of freedom")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("chart", help="analysis plus the canonical chart")
    common(sp)
    sp.set_defaults(func=_cmd_chart)

    sp = sub.add_parser("report", help="full report with embedding and boundary conditions")
    common(sp)
    sp.add_argument("--gauge-fixing", nargs="?", const=True, default=False, metavar="CONDS",
                    help="fix the gauge; optionally give multiplier values like 'zeta1=-P1'")
    sp.add_argument("--fix-endpoint", choices=["t1", "t2"], default=None)
    sp.add_argument("--epsilon", action="append", default=[], metavar="NAME=RATIONAL",
                    help="off-surface value for a fixed chart coordinate")
    sp.set_defaults(func=_cmd_report)

    sp = sub.add_parser("simulate", help="integrate the reduced system between endpoint data")
    common(sp)
    sp.add_argument("--bc", action="append", default=[], metavar="Q=V1:V2",
                    help="boundary values for a physical position, e.g. Q1=1:0")
    sp.add_argument("--xi", action="append", default=[], metavar="NAME=VAL",
                    help="initial value for a gauge position fixed at t1 only")
    sp.add_argument("--t1", default="0")
    sp.add_argument("--t2", required=True)
    sp.add_argument("--step", default="1e-3")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify-chart", help="check S^T J S = J for a JSON chart matrix")
    sp.add_argument("file", help="JSON file with {\"matrix\": [[...]], \"mode\": \"exact\"|\"float\"}")
    sp.add_argument("--mode", choices=["exact", "float"], default=None)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=_cmd_verify_chart)
    return p


def _options(args) -> PipelineOptions:
    opts = PipelineOptions(path=args.path)
    if hasattr(args, "gauge_fixing"):
        gf = args.gauge_fixing
        opts.gauge_fixing = bool(gf)
        if isinstance(gf, str):
            opts.gauge_conditions = gf
    if getattr(args, "fix_endpoint", None):
        opts.fix_endpoint = args.fix_endpoint
    for item in getattr(args, "epsilon", []):
        name, _, val = item.partition("=")
        if not val:
            raise InputError(f"--epsilon wants NAME=RATIONAL, got {item!r}")
        try:
            opts.epsilon[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--epsilon {item!r}: {exc}") from exc
    return opts


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    an = run_pipeline(load_system_file(args.file), _options(args), stage="analyze")
    _emit(args, report_json(build_report(an, "analyze")))
    return 0


def _cmd_chart(args) -> int:
    an = run_pipeline(load_system_file(args.file), _options(args), stage="chart")
    _emit(args, report_json(build_report(an, "chart")))
    return 0


def _cmd_report(args) -> int:
    an = run_pipeline(load_system_file(args.file), _options(args), stage="report")
    _emit(args, report_json(build_report(an, "report")))
    return 0


def _parse_real(text: str, what: str) -> float:
    """A finite real given as a decimal or as an expression in rationals and pi."""
    try:
        value = float(text)
    except ValueError:
        table = SymbolTable()
        pi = table.register("pi", "parameter")
        from .parser import parse_expr

        try:
            value = parse_expr(text, table).eval_float({pi: math.pi})
        except (ParseError, ExprError, ArithmeticError, RecursionError) as exc:
            raise InputError(f"bad {what} {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"bad {what} {text!r}: not a finite number")
    return value


def _cmd_simulate(args) -> int:
    an = run_pipeline(load_system_file(args.file), _options(args), stage="simulate")
    q_rows = an.chart.rows_by_role("Q")
    if not q_rows:
        raise InputError(
            f"{an.sysfile.name}: no physical (Q, P) block survives the embedding; nothing to simulate"
        )
    reduced_h = reduced_hamiltonian(an)
    field = compile_field(reduced_h, [(q.symbol, an.chart.conjugate(q).symbol) for q in q_rows])
    t1 = _parse_real(args.t1, "time value")
    t2 = _parse_real(args.t2, "time value")
    step = _parse_real(args.step, "--step")
    if step <= 0:
        raise InputError(f"--step must be positive, got {args.step!r}")
    boundary = {}
    for item in args.bc:
        name, _, vals = item.partition("=")
        v1, _, v2 = vals.partition(":")
        if not v2:
            raise InputError(f"--bc wants Q=V1:V2, got {item!r}")
        boundary[name.strip()] = (_parse_real(v1, "--bc value"), _parse_real(v2, "--bc value"))
    init_only = {}
    for item in args.xi:
        name, _, val = item.partition("=")
        if not val:
            raise InputError(f"--xi wants NAME=VAL, got {item!r}")
        init_only[name.strip()] = _parse_real(val, "--xi value")
    sol = solve_iota(field, boundary, t1, t2, step=step, init_only=init_only)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(sol.trajectory.csv())
    out = {
        "system": an.sysfile.name,
        "t1": t1,
        "t2": t2,
        "initial_state": list(sol.initial_state),
        "constants": {k: (list(v) if isinstance(v, tuple) else v) for k, v in sol.constants.items()},
        "residual": sol.residual,
        "condition": sol.condition,
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def reduced_hamiltonian(an: Analysis):
    """Pulled-back Hamiltonian on the surviving (Q, P) block, epsilons applied."""
    pb = an.pullback
    table = an.table
    from .expr import Expr

    h = -(pb.minus_h)
    if pb.eps_values:
        h = h.substitute({e: Expr.const(table, v) for e, v in pb.eps_values.items()})
    return h


def _chart_entry(v, i, k, mode):
    """Entry (i, k) of a verify-chart matrix: a Fraction, or a float in float mode."""
    try:
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            raise TypeError
        x = Fraction(v)
        if mode == "float":
            return float(x) if isinstance(v, str) else float(v)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"matrix entry [{i}][{k}] = {v!r} is not a finite number") from exc
    if isinstance(v, float) and not v.is_integer():
        raise InputError("non-integer float entries need --mode float")
    return x


def _cmd_verify_chart(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError("chart JSON needs a 'matrix' field")
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("chart 'matrix' must be a list of rows, each a list of numbers")
    mode = args.mode or data.get("mode", "exact")
    matrix = [[_chart_entry(v, i, k, mode) for k, v in enumerate(row)] for i, row in enumerate(rows)]
    ok, violations, maxdev = verify_chart(matrix, mode=mode, tol=args.tol)
    out = {
        "mode": mode,
        "canonical": ok,
        "max_deviation": str(maxdev) if mode == "exact" else maxdev,
        "violations": [
            {"row": i, "col": k, "delta": (str(d) if mode == "exact" else d)} for i, k, d in violations[:16]
        ],
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
