"""Command-line driver.

Subcommands mirror the three analysis steps plus numerics:

    analyze      constraint structure, classes, degrees of freedom
    chart        + canonical chart (built or taken from the file)
    report       + embedding, pullback Lagrangian, boundary prescription
    simulate     integrate the reduced system and solve the two-point problem
    verify-chart check S^T J S = J for a chart matrix in a JSON file

Exit codes: 0 ok, 2 input error, 3 unsupported shape, 4 inconsistent
theory/gauge, 5 constraint budget exceeded, 1 analysis or numerics failure.
simulate fails with 1 in three documented ways:

    error: resonant interval [T1, T2]: dQ(t2)/dP(t1) has condition number K > 6.71e+07; ...
        the endpoint data cannot determine the initial momenta; K is taken
        relative to the whole Jacobian dy(t2)/dP(t1), and the bound is
        1/sqrt(machine epsilon), whatever the scale of the data
    error: shooting iteration did not converge after N iterations (relative residual R)
        Newton on a non-quadratic Hamiltonian did not bring max|Q(t2) - Q2|
        down to 1e-10 of the state's scale
    error: non-finite state at t = T
        the integrated state, or a power or division by zero on the way to
        it, left the floats at the RK4 step ending at grid time T (T = t1:
        the initial state)

simulate exits 2 when a physical position Q of the chart has no --bc, a --bc
name is not such a position, a --xi name is not a gauge position fixed at
one endpoint only (t1, or t2 by the file's fix_endpoint option, which also
labels the --xi values), t2 does not exceed t1, or the grid from t1 to t2 at
--step needs more than MAX_STEPS = 10**7 RK4 steps (counted as max(1,
ceil((t2 - t1) / step - 1e-12)), before anything is compiled or integrated).  verify-chart
exits 2 when the matrix is not square with an even dimension, and when --tol
is negative, nan or infinite; exact mode ignores --tol.  A --bc, --xi or
--epsilon name or a --gauge-fixing multiplier given twice exits 2.
report --gauge-fixing with a CONDS that names no condition (empty, blank,
or only commas and blanks) is the bare flag: the file's [gauge] conditions
if it has them, else derived ones.  Conditions are substituted all at once,
so values naming each other's multipliers (zeta1=zeta2, zeta2=zeta1) are
checked like any others and exit 4 when they do not freeze the gauge.  Each
[gauge] line is one condition, commas included; one that names no
multiplier or does not parse exits 2 with its line number.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .dirac import BudgetExceeded, DiracError, InconsistentTheory
from .embedding import EmbeddingError, GaugeError
from .expr import Expr, ExprError
from .lagrangian import MechanicsError, UnsupportedShape
from .linalg import LinalgError
from .numerics import NumericsError, compile_field, solve_iota
from .parser import ParseError, parse_expr
from .report import Analysis, PipelineOptions, build_report, report_json, run_pipeline
from .chart import ChartError, verify_chart
from .symbols import SymbolTable
from .sysfile import InputError, SysFileError, load_system_file

EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INCONSISTENT = 4
EXIT_BUDGET = 5

MAX_STEPS = 10**7  # RK4 steps of one simulate grid; about 320 MB of trajectory columns


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


@functools.cache  # built on the first call of main, then shared by every later call
def _build_parser():
    p = argparse.ArgumentParser(prog="hamdirac", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(required=True)

    def common(sp):
        sp.add_argument("file", help="system file (.sys)")
        sp.add_argument("--path", choices=["ssok", "pons"], help="order-2 reduction path")
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("analyze", help="constraint structure and degrees of freedom")
    common(sp)
    sp.set_defaults(func=_cmd_stage, stage="analyze")

    sp = sub.add_parser("chart", help="analysis plus the canonical chart")
    common(sp)
    sp.set_defaults(func=_cmd_stage, stage="chart")

    sp = sub.add_parser("report", help="full report with embedding and boundary conditions")
    common(sp)
    sp.add_argument("--gauge-fixing", nargs="?", const=True, default=False, metavar="CONDS",
                    help="fix the gauge; optionally give multiplier values like 'zeta1=-P1'")
    sp.add_argument("--fix-endpoint", choices=["t1", "t2"], default=None)
    sp.add_argument("--epsilon", action="append", default=[], metavar="NAME=RATIONAL",
                    help="off-surface value for a fixed chart coordinate")
    sp.set_defaults(func=_cmd_stage, stage="report")

    sp = sub.add_parser("simulate", help="integrate the reduced system between endpoint data")
    common(sp)
    sp.add_argument("--bc", action="append", default=[], metavar="Q=V1:V2",
                    help="boundary values for a physical position, e.g. Q1=1:0")
    sp.add_argument("--xi", action="append", default=[], metavar="NAME=VAL",
                    help="value for a gauge position fixed at one endpoint only (t1, or the file's fix_endpoint)")
    sp.add_argument("--t1", default="0")
    sp.add_argument("--t2", required=True)
    sp.add_argument("--step", default="1e-3")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify-chart", help="check S^T J S = J for a JSON chart matrix")
    sp.add_argument("file", help="JSON file with {\"matrix\": [[...]], \"mode\": \"exact\"|\"float\"}")
    sp.add_argument("--mode", choices=["exact", "float"], default=None)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="float mode: largest |S^T J S - J| entry still canonical, a finite number >= 0; "
                    "exact mode ignores it")
    sp.set_defaults(func=_cmd_verify_chart)
    return p


def _options(args) -> PipelineOptions:
    epsilon = {}
    for item in getattr(args, "epsilon", []):
        name, _, val = item.partition("=")
        if not val:
            raise InputError(f"--epsilon wants NAME=RATIONAL, got {item!r}")
        if name.strip() in epsilon:
            raise InputError(f"--epsilon {name.strip()} given twice")
        try:
            epsilon[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"--epsilon {item!r}: {exc}") from exc
    # --gauge-fixing: False when absent, True when bare; a CONDS naming no condition is the bare flag
    gf = getattr(args, "gauge_fixing", False)
    if isinstance(gf, str):
        conditions = {}
        for part in filter(None, map(str.strip, gf.split(","))):
            if "=" not in part:
                raise InputError(f"gauge condition {part!r} must look like zeta1=-P1")
            name, _, text = map(str.strip, part.partition("="))
            if name in conditions:
                raise InputError(f"gauge condition for {name!r} given twice")
            conditions[name] = text
        gf = conditions or True
    return PipelineOptions(args.path, gf, getattr(args, "fix_endpoint", None), epsilon)


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_stage(args) -> int:
    """analyze, chart and report: the pipeline up to the stage, as JSON."""
    an = run_pipeline(load_system_file(args.file), _options(args), stage=args.stage)
    _emit(args, report_json(build_report(an, args.stage)))
    return 0


def _parse_real(text: str, what: str) -> float:
    """A finite real given as a decimal or as an expression in rationals and pi."""
    try:
        value = float(text)
    except ValueError:
        table = SymbolTable()
        pi = table.register("pi", "parameter")
        try:
            value = parse_expr(text, table).eval_float({pi: math.pi})
        except (ParseError, ExprError, ArithmeticError, RecursionError) as exc:
            raise InputError(f"bad {what} {text!r}: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"bad {what} {text!r}: not a finite number")
    return value


def _cmd_simulate(args) -> int:
    an = run_pipeline(load_system_file(args.file), _options(args), stage="simulate")
    qp_rows = an.chart.pairs("Q")
    if not qp_rows:
        raise InputError(
            f"{an.sysfile.name}: no physical (Q, P) block survives the embedding; nothing to simulate"
        )
    t1 = _parse_real(args.t1, "time value")
    t2 = _parse_real(args.t2, "time value")
    step = _parse_real(args.step, "--step")
    if step <= 0:
        raise InputError(f"--step must be positive, got {args.step!r}")
    if t2 <= t1:
        raise InputError("t2 must exceed t1")
    if not (t2 - t1) / step - 1e-12 <= MAX_STEPS:  # numerics' step count, inf included
        raise InputError(f"[{t1}, {t2}] at step {step} needs more than MAX_STEPS = {MAX_STEPS} RK4 steps")
    reduced_h = reduced_hamiltonian(an)
    field = compile_field(reduced_h, [(q.symbol, p.symbol) for q, p in qp_rows])
    boundary = {}
    for item in args.bc:
        name, _, vals = item.partition("=")
        v1, _, v2 = vals.partition(":")
        if not v2:
            raise InputError(f"--bc wants Q=V1:V2, got {item!r}")
        if name.strip() in boundary:
            raise InputError(f"--bc {name.strip()} given twice")
        boundary[name.strip()] = (_parse_real(v1, "--bc value"), _parse_real(v2, "--bc value"))
    init_only = {}
    for item in args.xi:
        name, _, val = item.partition("=")
        if not val:
            raise InputError(f"--xi wants NAME=VAL, got {item!r}")
        if name.strip() in init_only:
            raise InputError(f"--xi {name.strip()} given twice")
        init_only[name.strip()] = _parse_real(val, "--xi value")
    end = an.boundary.initial_endpoint
    for flag, given, allowed, what in (
        ("--bc", boundary, an.boundary.fix_both_ends, "a physical position"),
        ("--xi", init_only, an.boundary.fix_initial_only, f"a gauge position fixed at {end} only"),
    ):
        stray = [nm for nm in given if nm not in allowed]
        if stray:
            raise InputError(f"{flag} {', '.join(stray)}: not {what} (these are: {', '.join(allowed) or 'none'})")
    missing = [q for q in an.boundary.fix_both_ends if q not in boundary]
    if missing:
        raise InputError(f"--bc missing for {', '.join(missing)}: every physical position needs Q=V1:V2")
    sol = solve_iota(field, boundary, t1, t2, step=step, init_only=init_only)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            sol.trajectory.write_csv(fh)
    label = {f"{nm}(t1)": f"{nm}({end})" for nm in init_only}  # solve_iota labels every value at t1
    out = {
        "system": an.sysfile.name,
        "t1": t1,
        "t2": t2,
        "initial_state": list(sol.initial_state),
        "constants": {label.get(k, k): (list(v) if isinstance(v, tuple) else v) for k, v in sol.constants.items()},
        "residual": sol.residual,
        "condition": sol.condition,
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def reduced_hamiltonian(an: Analysis):
    """Pulled-back Hamiltonian on the surviving (Q, P) block, epsilons applied."""
    pb = an.pullback
    table = an.table
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
    if not 0 <= args.tol < math.inf:  # nan fails both comparisons
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError("chart JSON needs a 'matrix' field")
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("chart 'matrix' must be a list of rows, each a list of numbers")
    mode = args.mode or data.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise InputError(f"chart 'mode' must be \"exact\" or \"float\", not {mode!r}")
    matrix = [[_chart_entry(v, i, k, mode) for k, v in enumerate(row)] for i, row in enumerate(rows)]
    if len(matrix) % 2 or any(len(row) != len(matrix) for row in matrix):
        raise InputError("chart matrix must be square with even dimension")
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
