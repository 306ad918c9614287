"""The benchmark's layer wrappers still find every function they time.

perfbench/spans.py binds its wrappers by module and function name; a rename
in hamdirac would make that layer's metrics read 0 with only a comment line
on the benchmark's stdout.  This loads the tracer by path (perfbench is not
a package) and checks that installing it finds every target.
"""

import importlib.util
from pathlib import Path

import hamdirac.cli  # noqa: F401  (loads every module the targets name)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_target_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
