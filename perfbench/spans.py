"""Layer spans and counters, recorded from outside hamdirac.

`Tracer.install()` replaces every binding of the functions in `TARGETS`
that any loaded `hamdirac` module holds (say both `hamdirac.chart.transform`
and `hamdirac.embedding.transform`) with a wrapper, and `uninstall()` puts
the originals back, so untraced passes run the program untouched.  Spans
(name, start, end, parent) stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name or None, counter name or None)
TARGETS = (
    ("hamdirac.sysfile", "load_system_file", "sysfile.load", None),
    ("hamdirac.parser", "parse_expr", None, "parser.parse_expr_calls"),
    ("hamdirac.lagrangian", "ostrogradsky_reduce", "lagrangian.reduce", None),
    ("hamdirac.lagrangian", "pons_reduce", "lagrangian.reduce", None),
    ("hamdirac.lagrangian", "counter_term", "lagrangian.counter_term", None),
    ("hamdirac.lagrangian", "legendre", "lagrangian.legendre", None),
    ("hamdirac.dirac", "dirac_iterate", "dirac.iterate", None),
    ("hamdirac.dirac", "classify", "dirac.classify", None),
    ("hamdirac.dirac", "poisson", None, "dirac.poisson_calls"),
    ("hamdirac.dirac", "WeakReducer.reduce", None, "dirac.weak_reduce_calls"),
    ("hamdirac.linalg", "rank", "linalg.rank", "linalg.rank_calls"),
    ("hamdirac.linalg", "solve_linear", None, "linalg.solve_linear_calls"),
    ("hamdirac.report", "attach_chart", "chart.attach", None),
    ("hamdirac.chart", "transform", "chart.transform", "chart.transform_calls"),
    ("hamdirac.expr", "Expr.substitute", None, "expr.substitute_calls"),
    ("hamdirac.chart", "frobenius_check", "chart.frobenius", None),
    ("hamdirac.embedding", "select_embedding", "embedding.plan", None),
    ("hamdirac.embedding", "resolve_plan", "embedding.plan", None),
    ("hamdirac.embedding", "pullback_total_lagrangian", "embedding.pullback", None),
    ("hamdirac.embedding", "boundary_report", "embedding.boundary", None),
    ("hamdirac.embedding", "effective_hamiltonian", "embedding.effective_h", None),
    ("hamdirac.report", "build_report", "report.serialize", None),
    ("hamdirac.report", "report_json", "report.serialize", None),
    ("hamdirac.numerics", "compile_field", "numerics.compile", None),
    ("hamdirac.numerics", "solve_iota", "numerics.solve", "numerics.solve_calls"),
    ("hamdirac.numerics", "integrate", "numerics.integrate", "numerics.integrate_calls"),
)

RK4_STEPS = "numerics.rk4_steps"
SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS if t[2]))
COUNT_NAMES = tuple(t[3] for t in TARGETS if t[3]) + (RK4_STEPS,)


def _rk4_steps(args, kwargs):
    # integrate(field, init, t1, t2, step): the step count integrate computes
    t1, t2, step = (kwargs[k] if k in kwargs else args[i] for i, k in ((2, "t1"), (3, "t2"), (4, "step")))
    return max(1, math.ceil((t2 - t1) / step - 1e-12))


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.counts: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original)
        self.missing: set = set()  # targets not found in the loaded program

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span, count):
        tracer = self
        steps = fn.__name__ == "integrate"

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if steps:
                tracer.counts[RK4_STEPS] += _rk4_steps(args, kwargs)
            if not span:
                return fn(*args, **kwargs)
            idx = tracer.begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name == "hamdirac" or name.startswith("hamdirac.")]
        for modname, attr, span, count in TARGETS:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(sys.modules.get(modname), owner_name, None) if owner_name else sys.modules.get(modname)
            orig = vars(owner).get(name) if owner is not None else None
            if orig is None:  # renamed or removed: its metrics read 0
                self.missing.add(f"{modname}.{attr}")
                continue
            if owner_name:
                self._patch(owner, name, orig, self._wrap(orig, span, count))
                continue
            wrapper = self._wrap(orig, span, count)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def take_pass(self):
        """Per-layer busy and self seconds and the counts since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        busy, own = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            own[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # not nested in a span of its own name
                busy[name] += end - start
        return spans, busy, own, counts


def write_spans(path, passes):
    """One JSON line per span: pass, name, start, end, parent (pass-local)."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent in spans:
                fh.write(json.dumps({"pass": k, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
