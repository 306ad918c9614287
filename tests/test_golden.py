"""Report bytes pinned against committed golden files.

tests/golden/<fixture>.<stage>.json holds the exact `hamdirac <stage>` output
for each bundled fixture (l4 also under --path pons).  Two `report` goldens
pin the gauge-fixing paths: l3.gauge.report.json under
`--gauge-fixing zeta1=-P1` (a supplied chart with supplied gauge conditions)
and cawley.gauge.report.json under `--gauge-fixing` (a gauge derived on a
system whose constraints are all first class).  A golden file changes
only together with a CHANGES.md line that explains the diff; regenerate one
with `hamdirac <stage> src/hamdirac/fixtures/<fixture>.sys > tests/golden/...`.

coupled2.sys and gauge2.sys are two-block L3 families (8 coordinates) kept
beside their reports: coupled2 pairs four second-class pairs and completes
four (Q, P) pairs; gauge2 (F = S = 4) statically corrects two secondary gauge
rows, and under --gauge-fixing (gauge2.gauge.report.json) derives the gauge.
coupled3.sys and gauge3.sys are the three-block families (12 coordinates),
the size of the coupled and gauge benchmark workloads.  coupled4.sys
(couplings -1/4, 2/3, 3/2) and gauge4.sys (block scales 1/4, -1/2, 3/5,
-2/3) are the four-block families (16 coordinates), made the same way with
`perfbench/inputs.family_system`; they pin only `report`, the integer
quadratic path at a size past the benchmark's.  l3quartic.sys is L3
plus a quartic potential: its static correction fails, so its chart and
report goldens pin the chart note that records the failure.

totalderiv.sys (L = 2*d(q3)^2 + 2*q2*d(q1) + 2*q1*d(q2)) is the one golden
with a failing Frobenius verdict: its two primaries p1 - 2*q2 and p2 - 2*q1
are first class and depend on q, so the residuals are q1: 2*zeta2 and
q2: 2*zeta1.  Regenerate its goldens with
`hamdirac <stage> tests/golden/totalderiv.sys > tests/golden/totalderiv.<stage>.json`
for the stages analyze and report.
"""

import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from hamdirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [(f, stage, []) for f in ("cawley", "l2", "l3", "l4") for stage in ("analyze", "chart", "report")]
CASES.append(("l4", "report", ["--path", "pons"]))
CASES.append(("l3", "report", ["--gauge-fixing", "zeta1=-P1"]))
CASES.append(("cawley", "report", ["--gauge-fixing"]))

EXTRA_TAGS = {"--path": "pons.", "--gauge-fixing": "gauge."}


def golden_name(fixture, stage, extra):
    return f"{fixture}.{EXTRA_TAGS[extra[0]] if extra else ''}{stage}.json"


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
FAMILY_CASES += [("coupled4", []), ("gauge4", [])]


def family_golden_name(system, extra):
    return f"{system}.{'gauge.' if extra else ''}report.json"


@pytest.mark.parametrize("system,extra", FAMILY_CASES, ids=[family_golden_name(*c) for c in FAMILY_CASES])
def test_family_report_bytes_match_golden(system, extra, tmp_path):
    out = tmp_path / "out.json"
    assert main(["report", str(GOLDEN / f"{system}.sys"), *extra, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / family_golden_name(system, extra)).read_bytes()


# sha256 of `report` stdout on conftest.l3_family at k = 8 (32 coordinates),
# drawn from rng_for(f"bytes:{kind}:8"): families whose rows are nearly
# empty, past the size of the committed family goldens.
SPARSE_FAMILY_DIGESTS = {
    ("coupled", ()): "ab8c761bc1b62b7e32375af63e7c519047ff527e5ad5830e20e8363959fadc05",
    ("gauge", ()): "83bb3ed1756b461dbd2c86438023b924a0de1cd86e8f4780b29f053c5874425c",
    ("gauge", ("--gauge-fixing",)): "50db9d1b5b1a0ee18e95a78315df8aac6922c395427c1a019c030aadcbd6ef32",
}


@pytest.mark.parametrize("kind,extra", list(SPARSE_FAMILY_DIGESTS), ids=["coupled8", "gauge8", "gauge8-fixing"])
def test_sparse_family_report_bytes_are_pinned(kind, extra, tmp_path, capsys):
    from conftest import l3_family_source, rng_for

    src, names = l3_family_source(kind, 8, rng_for(f"bytes:{kind}:8"))
    path = tmp_path / f"{kind}8.sys"
    path.write_text(f"system {kind}8\ncoordinates {' '.join(names)}\norder 1\nL = {src}\n", encoding="utf-8")
    assert main(["report", str(path), *extra]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == SPARSE_FAMILY_DIGESTS[kind, extra]


@pytest.mark.parametrize("stage", ["chart", "report"])
def test_quartic_bytes_match_golden(stage, tmp_path):
    out = tmp_path / "out.json"
    assert main([stage, str(GOLDEN / "l3quartic.sys"), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "Xi2: physical content of its velocity could not be absorbed; " in text
    assert out.read_bytes() == (GOLDEN / f"l3quartic.{stage}.json").read_bytes()


@pytest.mark.parametrize("stage", ["analyze", "report"])
def test_totalderiv_bytes_match_golden(stage, tmp_path):
    out = tmp_path / "out.json"
    assert main([stage, str(GOLDEN / "totalderiv.sys"), "--out", str(out)]) == 0
    assert '"verdict": "fail"' in out.read_text(encoding="utf-8")
    assert out.read_bytes() == (GOLDEN / f"totalderiv.{stage}.json").read_bytes()


ROUND_TRIP_INPUTS = [
    (resources.files("hamdirac") / "fixtures" / f"{name}.sys", extra)
    for name, extra in (("cawley", []), ("l2", []), ("l4", []), ("l4", ["--path", "pons"]))
]
ROUND_TRIP_INPUTS += [
    (GOLDEN / f"{name}.sys", [])
    for name in ("coupled2", "coupled3", "coupled4", "gauge2", "gauge3", "gauge4", "l3quartic", "totalderiv")
]
ROUND_TRIP = [(path, extra + gauge) for path, extra in ROUND_TRIP_INPUTS for gauge in ([], ["--gauge-fixing"])]


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def round_trip_name(path, extra):
    return Path(path).stem + "-pons" * ("pons" in extra) + "-gauge" * ("--gauge-fixing" in extra)


@pytest.mark.parametrize("path,extra", ROUND_TRIP, ids=[round_trip_name(*c) for c in ROUND_TRIP])
def test_built_chart_round_trips_as_a_supplied_chart(path, extra, tmp_path, capsys):
    # one chart contract: a built chart's rows, fed back as the file's [chart]
    # section, are imported unaltered with the same generations, so the report
    # is the same but for the chart's source.  A supplied chart is never
    # statically corrected, so it gets no correction note (l3quartic's) until
    # a check of supplied charts exists to write one.
    base = [a for a in extra if a != "--gauge-fixing"]
    rc, out, _err = _run(["chart", str(path), *base], capsys)
    assert rc == 0
    rows = "".join(f"{r['name']} = {r['expr']}\n" for r in json.loads(out)["chart"]["rows"])
    supplied = tmp_path / Path(path).name
    supplied.write_text(Path(path).read_text(encoding="utf-8") + "\n[chart]\n" + rows, encoding="utf-8")
    want = _run(["report", str(path), *extra], capsys)
    got = _run(["report", str(supplied), *extra], capsys)
    assert got[0] == want[0] and got[2] == want[2]
    if want[0]:  # deriving a gauge fails on l3quartic's uncorrected Xi2, for either chart
        assert (Path(path).stem, extra, want[0]) == ("l3quartic", ["--gauge-fixing"], 4)
        return
    want, got = json.loads(want[1]), json.loads(got[1])
    assert (want["chart"].pop("source"), got["chart"].pop("source")) == ("built", "supplied")
    if Path(path).stem == "l3quartic":
        assert want["chart"].pop("notes") and got["chart"].pop("notes") == []
    assert got == want


def test_cli_import_does_not_load_numpy():
    import hamdirac

    src = str(Path(hamdirac.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); import hamdirac.cli; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_cli_import_loads_no_code_generation():
    # the records are plain classes: importing the CLI runs no dataclass
    # decoration, so neither dataclasses nor the inspect it pulls in is loaded
    import hamdirac

    src = str(Path(hamdirac.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import hamdirac.cli; "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    res = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_cli_runs_without_numpy(tmp_path):
    # with numpy unimportable, analyze, report and simulate on the fixtures
    # and a float-mode verify-chart give the rc and stdout of a normal run
    import hamdirac

    src = str(Path(hamdirac.__file__).resolve().parent.parent)
    fix = resources.files("hamdirac") / "fixtures"
    r = 1 / 2**0.5
    chart = tmp_path / "sqrt2.json"
    chart.write_text(json.dumps({"matrix": [[0, r, r, 0], [r, 0, 0, r], [-r, 0, 0, r], [0, -r, r, 0]]}), encoding="utf-8")
    calls = [[cmd, str(fix / f"{name}.sys")] for cmd in ("analyze", "report") for name in ("cawley", "l2", "l3", "l4")]
    calls += [
        ["simulate", str(fix / "l2.sys"), "--bc", "Q1=1:0", "--t1", "0", "--t2", "pi/2"],
        ["simulate", str(fix / "l4.sys"), "--bc", "Q1=1:0.5", "--t2", "1"],
        ["verify-chart", str(chart), "--mode", "float"],
    ]
    script = (
        "import contextlib, io, json, sys\n{block}\n"
        f"sys.path.insert(0, {src!r})\n"
        "from hamdirac.cli import main\n"
        "out = []\n"
        f"for argv in {calls!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        out.append([main(argv), buf.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    runs = [
        json.loads(subprocess.run([sys.executable, "-I", "-c", script.format(block=block)], capture_output=True, text=True, check=True).stdout)
        for block in ("", "sys.modules['numpy'] = None")
    ]
    assert runs[0] == runs[1]
    assert [rc for rc, _out in runs[0]] == [0] * len(calls)
