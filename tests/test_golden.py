"""Report bytes pinned against committed golden files.

tests/golden/<fixture>.<stage>.json holds the exact `hamdirac <stage>` output
for each bundled fixture (l4 also under --path pons).  A golden file changes
only together with a CHANGES.md line that explains the diff; regenerate one
with `hamdirac <stage> src/hamdirac/fixtures/<fixture>.sys > tests/golden/...`.

coupled2.sys and gauge2.sys are two-block L3 families (8 coordinates) kept
beside their reports: coupled2 pairs four second-class pairs and completes
four (Q, P) pairs; gauge2 (F = S = 4) statically corrects two secondary gauge
rows, and under --gauge-fixing (gauge2.gauge.report.json) derives the gauge.
coupled3.sys and gauge3.sys are the three-block families (12 coordinates),
the size of the coupled and gauge benchmark workloads.
"""

import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from hamdirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [(f, stage, []) for f in ("cawley", "l2", "l3", "l4") for stage in ("analyze", "chart", "report")]
CASES.append(("l4", "report", ["--path", "pons"]))


def golden_name(fixture, stage, extra):
    return f"{fixture}.{'pons.' if extra else ''}{stage}.json"


@pytest.mark.parametrize("fixture,stage,extra", CASES, ids=[golden_name(*c) for c in CASES])
def test_report_bytes_match_golden(fixture, stage, extra, tmp_path):
    out = tmp_path / "out.json"
    path = str(resources.files("hamdirac") / "fixtures" / f"{fixture}.sys")
    assert main([stage, path, *extra, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden_name(fixture, stage, extra)).read_bytes()


FAMILY_CASES = [
    (system, extra)
    for k in (2, 3)
    for system, extra in ((f"coupled{k}", []), (f"gauge{k}", []), (f"gauge{k}", ["--gauge-fixing"]))
]


def family_golden_name(system, extra):
    return f"{system}.{'gauge.' if extra else ''}report.json"


@pytest.mark.parametrize("system,extra", FAMILY_CASES, ids=[family_golden_name(*c) for c in FAMILY_CASES])
def test_family_report_bytes_match_golden(system, extra, tmp_path):
    out = tmp_path / "out.json"
    assert main(["report", str(GOLDEN / f"{system}.sys"), *extra, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / family_golden_name(system, extra)).read_bytes()


def test_cli_import_does_not_load_numpy():
    import hamdirac

    src = str(Path(hamdirac.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import hamdirac.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"
