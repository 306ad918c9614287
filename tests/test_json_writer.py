"""`report.report_json` against `json.dumps(value, indent=2) + "\\n"`.

The writer replaces json.dumps for every JSON the CLI prints, so its bytes
must be json.dumps's: on the report dict of every golden, on seeded family
reports, on the simulate and verify-chart outputs, and on edge values.  The
standard library is the only reference, so these tests need no extra.
"""

import json
import math
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from conftest import l3_family_source, rng_for
from hamdirac import cli
from hamdirac.cli import main
from hamdirac.report import PipelineOptions, build_report, report_json, run_pipeline
from hamdirac.sysfile import load_system_file

FIXTURES = resources.files("hamdirac") / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REPORTS = sorted(p.name for p in GOLDEN.glob("*.json"))


def dumps(value):
    return json.dumps(value, indent=2) + "\n"


def golden_options(name):
    """(system file, stage, options) of the golden report `name`, named
    <system>.[pons.|gauge.]<stage>.json."""
    system, *tags, stage, _ = name.split(".")
    path = FIXTURES / f"{system}.sys" if (FIXTURES / f"{system}.sys").is_file() else GOLDEN / f"{system}.sys"
    gauge = "gauge" in tags and ({"zeta1": "-P1"} if system == "l3" else True)
    return path, stage, PipelineOptions(path="pons" if "pons" in tags else None, gauge_fixing=gauge or False)


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_writer_matches_json_dumps_on_every_golden(name):
    path, stage, options = golden_options(name)
    rep = build_report(run_pipeline(load_system_file(path), options, stage=stage), stage)
    text = report_json(rep)
    assert text == dumps(rep)
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["coupled", "gauge"])
@pytest.mark.parametrize("k", [4, 5, 6])
def test_writer_matches_json_dumps_on_seeded_family_reports(tmp_path, kind, k):
    src, names = l3_family_source(kind, k, rng_for(f"json-writer:{kind}:{k}"))
    path = tmp_path / f"{kind}{k}.sys"
    path.write_text(f"system {kind}{k}\ncoordinates {' '.join(names)}\norder 1\nL = {src}\n", encoding="utf-8")
    rep = build_report(run_pipeline(load_system_file(path), PipelineOptions()))
    assert report_json(rep) == dumps(rep)


def test_writer_matches_json_dumps_on_simulate_and_verify_chart(tmp_path, capsys, monkeypatch):
    written = []

    def recording(value):
        written.append(value)
        return report_json(value)

    monkeypatch.setattr(cli, "report_json", recording)
    l3 = str(FIXTURES / "l3.sys")
    assert main(["simulate", str(FIXTURES / "l2.sys"), "--bc", "Q1=1:0", "--t2", "pi/2"]) == 0
    assert main(["simulate", l3, "--bc", "Q1=1:0", "--xi", "Xi2=1/2", "--t2", "1"]) == 0
    s = 1 / math.sqrt(2)
    for matrix, mode in (([[0, s, s, 0], [s, 0, 0, s], [-s, 0, 0, s], [0, -s, s, 0]], "float"),
                         ([[1, 0], [0, -1]], "exact"), ([[1.5, 0], [0, -1]], "float")):
        chart = tmp_path / "chart.json"
        chart.write_text(json.dumps({"matrix": matrix, "mode": mode}), encoding="utf-8")
        main(["verify-chart", str(chart)])
    outputs = capsys.readouterr().out
    assert len(written) == 5 and written[-1]["violations"]
    assert outputs == "".join(map(dumps, written))


EDGE_VALUES = [
    {}, [], (), "", 0, -7, 2**70, True, False, None,
    [[]], [{}], {"a": {}}, {"a": []}, [[], {}, ()], ((), [()]),
    (1, "x", None), ("a", "b"), ["a", 1], [1, "a"], ["a", ["b", "c"]], [{"k": "v"}, "s"],
    "café ψ₂ \U0001d53c", "\x00\x1f\n\t\"\\/\x7f", ["é", "\x01"], {"é\n": " "},
    -0.0, 0.0, 1e300, -1e-300, 0.1, 1.5, 5e-324, math.nan, math.inf, -math.inf,
    [math.nan, -math.inf, 1e16, -0.0], {"x": [1.0, 2], "y": {"z": [True, None, "w"]}},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=[repr(v)[:40] for v in EDGE_VALUES])
def test_writer_matches_json_dumps_on_edge_values(value):
    assert report_json(value) == dumps(value)
    assert report_json({"k": [value, value]}) == dumps({"k": [value, value]})


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), ["a", Fraction(1, 2)], {"a": {"b"}}, ["a", b"b"], {1: "a"}])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        report_json(value)
