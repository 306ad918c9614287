"""Reference sweep: calibrated `report` time on both L3 families, k = 1..6.

    python3 perfbench/sweep.py [--seed 1]

Not part of the gated benchmark.  It times one `report` per (family, k,
repeat) on 4k coordinates, each on fresh seeded coefficients and coordinate
names, calibrates it like run.py does, and fits the exponent e of time ~ n^e
over k >= 2.  The k = 6 row is the 24-coordinate baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile

import run  # sets up the import paths
from inputs import SMALL_RATIONALS, family_system, pass_rng
from refloop import Calibrated

MAX_K = 6
REPEATS = 3


def fit_exponent(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import hamdirac.cli

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="sweep-", dir=run.WORK)
    result = {}
    try:
        for family in ("coupled", "gauge"):
            rows = []
            for k in range(1, MAX_K + 1):
                cal, raw = [], []
                for rep in range(REPEATS):
                    rng = pass_rng(f"sweep-{family}", args.seed, k * 1000 + rep)
                    coeffs = [rng.choice(SMALL_RATIONALS) for _ in range(k)]
                    if family == "coupled":
                        text, _, _ = family_system(f"coupled{k}", k, rep, couplings=coeffs[1:])
                    else:
                        text, _, _ = family_system(f"gauge{k}", k, rep, scales=coeffs)
                    path = f"{workdir}/{family}{k}.sys"
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    with Calibrated() as timing:
                        rc, _, err = run.run_job(hamdirac.cli.main, ["report", path])
                    if rc != 0:
                        print(f"error: {family} k={k}: exit {rc}: {err.strip()}", file=sys.stderr)
                        return 1
                    cal.append(timing.seconds)
                    raw.append(timing.wall)
                row = {"k": k, "n": 4 * k, "report_s": statistics.median(cal), "raw_s": statistics.median(raw)}
                rows.append(row)
                print(f"# {family:8s} k={k} n={4 * k:2d} report_s={row['report_s']:.4f} raw_s={row['raw_s']:.4f}", flush=True)
            exponent = fit_exponent([(r["n"], r["report_s"]) for r in rows if r["k"] >= 2])
            print(f"# {family:8s} exponent over k >= 2: {exponent:.2f}", flush=True)
            result[family] = {"rows": rows, "exponent": exponent}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
