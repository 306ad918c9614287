"""hamdirac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload coupled --seed 1 --seconds 20 --trace 0

Runs whole passes of the workload's CLI jobs through `hamdirac.cli.main`
until `--seconds` have gone by, checks every output against the independent
computations in checks.py, and prints one JSON object as the last line.

--trace 0 reports the end-to-end metrics: setup_s, pass_s, peak_rss_mb.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py instead.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from refloop import C_REF, EXPONENT, NUMPY_IMPORT_REF, Calibrated  # noqa: E402

SETUP_SAMPLES = 7

_IMPORT_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import {module}
t = time.perf_counter() - t0
print(t, "numpy" in sys.modules)
"""


def import_seconds(module):
    """(seconds, numpy loaded) of one import of `module` in a fresh interpreter."""
    code = _IMPORT_CHILD.format(src=str(SRC), module=module)
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing {module} failed:\n{proc.stderr}")
    t, numpy_loaded = proc.stdout.split()
    return float(t), numpy_loaded == "True"


class SetupSampler:
    """SETUP_SAMPLES imports of hamdirac.cli, spread over the run between passes.

    Each is paired with an import of numpy alone in another fresh
    interpreter, and setup_s = median(hamdirac.cli) *
    (NUMPY_IMPORT_REF / median(numpy))^EXPONENT: import time follows the
    host's module-loading speed, which moves by up to 1.8x between host
    phases and does not follow the reference loop (see README).  One
    discarded import of each first, so every sample finds the bytecode cache.
    """

    def __init__(self, seconds):
        _, self.numpy_loaded = import_seconds("hamdirac.cli")
        import_seconds("numpy")
        self.samples = []  # (hamdirac.cli seconds, numpy seconds)
        self.t0, self.step = time.perf_counter(), seconds / SETUP_SAMPLES

    def _sample(self):
        self.samples.append((import_seconds("hamdirac.cli")[0], import_seconds("numpy")[0]))

    def take_due(self):
        while len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.t0 >= len(self.samples) * self.step:
            self._sample()

    def raw_medians(self):
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return statistics.median(t for t, _ in self.samples), statistics.median(n for _, n in self.samples)

    def seconds(self):
        hamdirac_s, numpy_s = self.raw_medians()
        return hamdirac_s * (NUMPY_IMPORT_REF / numpy_s) ** EXPONENT


def run_job(main, argv):
    """(exit code, stdout, stderr) of one CLI call, as a shell user sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught exception is exit 1 with a traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def digest(jobs, results):
    h = hashlib.sha256()
    for job, (rc, out, err) in zip(jobs, results):
        h.update(f"{rc}\0{out}\0{err}\0".encode())
        if job.out_file and rc == 0:
            h.update(Path(job.out_file).read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, workload, seed, workdir, main):
        self.workload, self.seed, self.workdir, self.main = workload, seed, workdir, main
        self.outcome = checks.Outcome()
        self.deferred = []
        self.attempted = 0
        self.first_digest = None

    def jobs(self, index):
        return inputs.make_pass(self.workload, self.seed, index, self.workdir)

    def timed_pass(self, index, tracer=None):
        """Run pass `index`; returns (calibrated s, raw s, c)."""
        jobs = self.jobs(index)
        gc.collect()
        results = []
        with Calibrated() as cal:
            for job in jobs:
                if tracer:
                    root = tracer.begin("job")
                    results.append(run_job(self.main, job.argv))
                    tracer.end(root)
                else:
                    results.append(run_job(self.main, job.argv))
        if index == 0:
            self.first_digest = digest(jobs, results)
        checks.check_pass(jobs, results, self.outcome, self.deferred)
        self.attempted += len(jobs)
        return cal.seconds, cal.wall, cal.c

    def replay_first(self):
        """Same input, same bytes: rerun pass 0 untimed and compare."""
        jobs = self.jobs(0)
        results = [run_job(self.main, job.argv) for job in jobs]
        self.outcome.expect(digest(jobs, results) == self.first_digest, "pass 0 replayed gave different output bytes")

    def deferred_checks(self):
        """Simulate checks that need the program's report and scipy."""
        reports = {}
        for job, data in self.deferred:
            text = job.params["system"]
            if text not in reports:
                path = self.workdir / "check.sys"
                path.write_text(text, encoding="utf-8")
                rc, out, err = run_job(self.main, ["report", str(path)])
                self.outcome.expect(rc == 0, f"report for the simulate check failed: {err.strip()}")
                reports[text] = json.loads(out) if rc == 0 else None
            if reports[text] is None:
                continue
            try:
                ok = checks.check_simulate_job(job, data, reports[text], self.outcome)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.outcome.problems.append(f"{' '.join(job.argv)}: output not in the expected form: {exc!r}")
                ok = False
            if job.known_fault and not ok:
                self.outcome.failed += 1


def run(workload, seed, seconds, trace, workdir):
    setup = SetupSampler(seconds)
    import hamdirac
    import hamdirac.cli

    if Path(hamdirac.__file__).resolve().parent != SRC / "hamdirac":
        raise RuntimeError(f"imported hamdirac from {hamdirac.__file__}, not from {SRC}")
    runner = Runner(workload, seed, workdir, hamdirac.cli.main)
    tracer = spans.Tracer() if trace else None
    plain, traced, layer_passes, span_log = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        setup.take_due()
        plain.append(runner.timed_pass(index))
        index += 1
        if tracer:
            tracer.install()
            try:
                cal, raw, c = runner.timed_pass(index, tracer)
            finally:
                tracer.uninstall()
            traced.append((cal, raw, c))
            log, busy, own, counts = tracer.take_pass()
            span_log.append(log)
            layer_passes.append((cal / raw, busy, own, counts))
            index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = setup.seconds()
    import_raw_s, numpy_raw_s = setup.raw_medians()
    runner.replay_first()
    runner.deferred_checks()

    med = statistics.median
    print(f"# {workload} seed={seed} passes={len(plain)} jobs/pass={runner.attempted // index}"
          f" pass_s={med(p[0] for p in plain):.4f} raw_s={med(p[1] for p in plain):.4f}"
          f" c={med(p[2] for p in plain):.5f} c_ref={C_REF} exponent={EXPONENT}"
          f" import_raw_s={import_raw_s:.4f} numpy_import_s={numpy_raw_s:.4f}")
    print("# per pass: raw_s=" + ",".join(f"{p[1]:.4f}" for p in plain) + " c=" + ",".join(f"{p[2]:.5f}" for p in plain))
    for problem in runner.outcome.problems[:20]:
        print(f"# problem: {problem}")
    for target in sorted(tracer.missing) if tracer else ():
        print(f"# trace: {target} not found; its metrics read 0")

    if trace:
        spans.write_spans(WORK / f"trace-{workload}-{seed}.jsonl", span_log)
        metrics = layer_metrics(layer_passes, setup.numpy_loaded)
        base, with_trace = med(p[0] for p in plain), med(p[0] for p in traced)
        metrics["trace.base_pass_s"] = (base, "s")
        metrics["trace.pass_s"] = (with_trace, "s")
        metrics["trace.overhead"] = (with_trace / base, "ratio")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "pass_s": (med(p[0] for p in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not runner.outcome.problems,
        "attempted": runner.attempted,
        "failed": runner.outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(layer_passes, numpy_loaded):
    """Calibrated busy/self seconds as medians over traced passes; counts of
    the first traced pass, whose input depends on the seed alone, so two
    traced runs of one seed give the same counts however many passes fit."""
    med = statistics.median
    out = {"setup.numpy_loaded": (int(numpy_loaded), "count")}
    for name in spans.SPAN_NAMES:
        out[f"{name}_s"] = (med(k * busy[name] for k, busy, _, _ in layer_passes), "s")
        out[f"{name}_self_s"] = (med(k * own[name] for k, _, own, _ in layer_passes), "s")
    for name in spans.COUNT_NAMES:
        out[name] = (layer_passes[0][3][name], "count")
    solves = out["numerics.solve_calls"][0]
    out["numerics.integrations_per_solve"] = (out["numerics.integrate_calls"][0] / solves if solves else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hamdirac" / "cli.py").is_file():
        print(f"error: no hamdirac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
