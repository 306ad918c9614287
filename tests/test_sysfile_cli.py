import json
import math
from importlib import resources

import pytest

from hamdirac import parse_system_file
from hamdirac.cli import main
from hamdirac.sysfile import SysFileError


def fixture(name):
    return str(resources.files("hamdirac") / "fixtures" / name)


ALL_FIXTURES = ["cawley.sys", "l2.sys", "l3.sys", "l4.sys"]


def test_parse_fixture_files():
    for name in ALL_FIXTURES:
        with open(fixture(name), encoding="utf-8") as fh:
            sf = parse_system_file(fh.read(), name)
        assert sf.name
        assert sf.order in (1, 2)
    with open(fixture("l3.sys"), encoding="utf-8") as fh:
        l3 = parse_system_file(fh.read(), "l3.sys")
    assert len(l3.chart_rows) == 8
    with open(fixture("l4.sys"), encoding="utf-8") as fh:
        l4 = parse_system_file(fh.read(), "l4.sys")
    assert l4.options["path"] == "ssok"


def test_unknown_keys_rejected():
    with pytest.raises(SysFileError) as exc:
        parse_system_file("system x\nwibble 3\n", "t.sys")
    assert "line" not in str(exc.value) or True
    assert "t.sys:2" in str(exc.value)
    with pytest.raises(SysFileError):
        parse_system_file("system x\ncoordinates q\norder 1\nL = q\n[weird]\n", "t.sys")
    with pytest.raises(SysFileError):
        parse_system_file("system x\ncoordinates q\norder 1\nL = q\n[options]\nspin = up\n", "t.sys")
    with pytest.raises(SysFileError):
        parse_system_file("system x\ncoordinates q q\norder 1\nL = q\n", "t.sys")
    with pytest.raises(SysFileError):
        parse_system_file("system x\ncoordinates q\norder 3\nL = q\n", "t.sys")


def test_cli_analyze_all_fixtures(capsys):
    for name, expect in [
        ("cawley.sys", (3, 0, 0)),
        ("l2.sys", (0, 2, 1)),
        ("l3.sys", (2, 2, 1)),
        ("l4.sys", (0, 2, 1)),
    ]:
        assert main(["analyze", fixture(name)]) == 0
        rep = json.loads(capsys.readouterr().out)
        cls = rep["classification"]
        assert (cls["F"], cls["S"], cls["dof"]) == expect
        assert rep["frobenius"]["verdict"] == "pass"


def test_cli_l4_pons_path(capsys):
    assert main(["analyze", fixture("l4.sys"), "--path", "pons"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["classification"]["S"] == 4
    assert rep["classification"]["dof"] == 1
    assert rep["path"] == "pons"


def test_cli_chart_verified(capsys):
    from fractions import Fraction

    from hamdirac import verify_chart

    for name in ALL_FIXTURES:
        assert main(["chart", fixture(name)]) == 0
        rep = json.loads(capsys.readouterr().out)
        matrix = [[Fraction(x) for x in row["coeffs"]] for row in rep["chart"]["rows"]]
        ok, violations, _ = verify_chart(matrix, mode="exact")
        assert ok, (name, violations[:2])
    assert rep["chart"]["source"] == "built"  # l4 has no [chart] section


def test_cli_l3_uses_supplied_chart(capsys):
    assert main(["chart", fixture("l3.sys")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["chart"]["source"] == "supplied"
    assert [r["name"] for r in rep["chart"]["rows"]] == ["Xi1", "Xi2", "ThU1", "Q1", "Psi1", "Psi2", "ThD1", "P1"]


def test_cli_report_deterministic(tmp_path):
    for name in ALL_FIXTURES:
        out1 = tmp_path / f"{name}.1.json"
        out2 = tmp_path / f"{name}.2.json"
        assert main(["report", fixture(name), "--out", str(out1)]) == 0
        assert main(["report", fixture(name), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_cli_report_gauge_fixing_l3(capsys):
    assert main(["report", fixture("l3.sys"), "--gauge-fixing", "zeta1=-P1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["embedding"]["kind"] == "sigma3"
    assert rep["boundary"]["fix_both_ends"] == ["Q1"]
    assert rep["boundary"]["fix_initial_only"] == []
    assert rep["boundary"]["never_fix"] == []
    assert rep["integral_constants"]["occupied"] == 6


def test_cli_report_epsilon_and_endpoint(capsys):
    assert main(["report", fixture("l2.sys"), "--epsilon", "ThU1=1/2", "--fix-endpoint", "t2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["embedding"]["fixed"]["ThU1"] == "1/2"
    assert rep["boundary"]["initial_endpoint"] == "t2"


def test_file_endpoint_option_respected(tmp_path, capsys):
    custom = tmp_path / "l3end.sys"
    src = open(fixture("l3.sys"), encoding="utf-8").read()
    custom.write_text(src + "\n[options]\nfix_endpoint = t2\n", encoding="utf-8")
    assert main(["report", str(custom)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["boundary"]["initial_endpoint"] == "t2"
    # the CLI flag still wins over the file option
    assert main(["report", str(custom), "--fix-endpoint", "t1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["boundary"]["initial_endpoint"] == "t1"


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.sys"
    assert main(["analyze", str(missing)]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.sys"
    bad.write_text("system b\ncoordinates q\norder 1\nL = q +\n", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()

    cubic = tmp_path / "cubic.sys"
    cubic.write_text("system c\ncoordinates q\norder 1\nL = d(q)^3\n", encoding="utf-8")
    assert main(["analyze", str(cubic)]) == 3
    capsys.readouterr()

    contradictory = tmp_path / "one.sys"
    contradictory.write_text("system o\ncoordinates q\norder 1\nL = q\n", encoding="utf-8")
    assert main(["analyze", str(contradictory)]) == 4
    capsys.readouterr()

    wrong_gauge = ["report", fixture("l3.sys"), "--gauge-fixing", "zeta1=Q1"]
    assert main(wrong_gauge) == 4
    capsys.readouterr()

    # epsilon override for a coordinate the embedding does not fix
    assert main(["report", fixture("l2.sys"), "--epsilon", "Q1=1"]) == 2
    capsys.readouterr()

    # a supplied chart whose momentum rows miss the first-class span
    mangled = tmp_path / "mangled.sys"
    src = open(fixture("l3.sys"), encoding="utf-8").read()
    mangled.write_text(src.replace("Psi2 = p3", "Psi2 = p3 + q1"), encoding="utf-8")
    assert main(["chart", str(mangled)]) == 2
    capsys.readouterr()

    # an incomplete supplied chart
    short = tmp_path / "short.sys"
    short.write_text("\n".join(line for line in src.splitlines() if not line.startswith("P1")) + "\n", encoding="utf-8")
    assert main(["chart", str(short)]) == 2
    capsys.readouterr()


def test_cli_simulate_l2(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    rc = main(
        [
            "simulate",
            fixture("l2.sys"),
            "--bc",
            "Q1=1:0",
            "--t1",
            "0",
            "--t2",
            "pi/2",
            "--step",
            "0.001",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["constants"]["A"] - 0.5) < 1e-9
    assert abs(out["constants"]["B"] - 0.5) < 1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,Q1,P1,H"
    last = lines[-1].split(",")
    assert abs(float(last[0]) - math.pi / 2) < 1e-12
    assert abs(float(last[1])) < 1e-9


def test_cli_simulate_l4_matches_l2(tmp_path, capsys):
    a = tmp_path / "l2.csv"
    b = tmp_path / "l4s.csv"
    c = tmp_path / "l4p.csv"
    for path, args in ((a, ["simulate", fixture("l2.sys")]), (b, ["simulate", fixture("l4.sys")]), (c, ["simulate", fixture("l4.sys"), "--path", "pons"])):
        rc = main(args + ["--bc", "Q1=1:0", "--t1", "0", "--t2", "pi/2", "--step", "0.001", "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
    rows_a = [line.split(",") for line in a.read_text().strip().splitlines()[1:]]
    for other in (b, c):
        rows_o = [line.split(",") for line in other.read_text().strip().splitlines()[1:]]
        assert len(rows_a) == len(rows_o)
        # physical configurations agree up to the chart relabeling
        assert max(abs(float(x[1]) - float(y[1])) for x, y in zip(rows_a, rows_o)) < 1e-8


def test_cli_simulate_parses_bc_and_xi_like_times(capsys):
    runs = {}
    for spec in ("Q1=0.5:0", "Q1=1/2:0", "Q1=pi/4:0", "Q1=0.7853981633974483:0"):
        assert main(["simulate", fixture("l2.sys"), "--bc", spec, "--t2", "1"]) == 0
        runs[spec] = json.loads(capsys.readouterr().out)["initial_state"]
    assert runs["Q1=1/2:0"] == runs["Q1=0.5:0"]
    assert runs["Q1=pi/4:0"] == runs["Q1=0.7853981633974483:0"]


@pytest.mark.parametrize(
    "extra",
    [
        ["--bc", "Q1=half:0", "--t2", "1"],
        ["--bc", "Q1=1:1/0", "--t2", "1"],
        ["--bc", "Q1=1:inf", "--t2", "1"],
        ["--bc", "Q1=:0", "--t2", "1"],
        ["--bc", "Q1=1:0", "--t2", "1", "--xi", "Z=(1"],
        ["--bc", "Q1=1:0", "--t2", "2^2000"],
        ["--bc", "Q1=1:0", "--t2", "(" * 3000 + "1" + ")" * 3000],
        ["--bc", "Q1=1:0", "--t2", "1", "--step", "nan"],
        ["--bc", "Q1=1:0", "--t2", "1", "--step", "0"],
    ],
)
def test_cli_simulate_unparsable_values_exit_2(extra, capsys):
    assert main(["simulate", fixture("l2.sys"), *extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_simulate_resonant_and_near_resonant(capsys):
    assert main(["simulate", fixture("l2.sys"), "--bc", "Q1=1:0", "--t2", "pi"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resonant interval") and "condition number" in err
    assert main(["simulate", fixture("l2.sys"), "--bc", "Q1=1:0", "--t2", "3.1415"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 1e4 < out["condition"] < 1e5


def test_cli_reports_genericity_pivots(tmp_path, capsys):
    f = tmp_path / "curved.sys"
    f.write_text("system curved\ncoordinates q1\norder 1\nL = (1/2)*q1^2*d(q1)^2\n", encoding="utf-8")
    assert main(["analyze", str(f)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert "q1^2" in rep["genericity_pivots"]
    assert rep["hamiltonian"] == "(1/2*p1^2)/(q1^2)"


def test_cli_verify_chart(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"matrix": [[1, 0], [0, 1]], "mode": "exact"}), encoding="utf-8")
    assert main(["verify-chart", str(good)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["canonical"] is True

    s = 1 / math.sqrt(2)
    sqrt2 = tmp_path / "sqrt2.json"
    sqrt2.write_text(
        json.dumps({"matrix": [[0, s, s, 0], [s, 0, 0, s], [-s, 0, 0, s], [0, -s, s, 0]], "mode": "float"}),
        encoding="utf-8",
    )
    assert main(["verify-chart", str(sqrt2)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["canonical"] is True and rep["max_deviation"] <= 1e-12

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"matrix": [[1, 0], [0, -1]], "mode": "exact"}), encoding="utf-8")
    assert main(["verify-chart", str(broken)]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["canonical"] is False and rep["violations"]


@pytest.mark.parametrize(
    "text,named",
    [
        ('{"matrix": [[NaN, 0], [0, 1]], "mode": "float"}', "[0][0] = nan"),
        ('{"matrix": [[1, 0], [0, Infinity]], "mode": "float"}', "[1][1] = inf"),
        ('{"matrix": [[1, "a"], [0, 1]]}', "[0][1] = 'a'"),
        ('{"matrix": [[1, 0], ["1/0", 1]]}', "[1][0] = '1/0'"),
        ('{"matrix": 5}', "'matrix' must be a list of rows"),
    ],
    ids=["nan", "infinity", "letter", "zero-denominator", "not-a-list"],
)
def test_cli_verify_chart_rejects_non_numbers(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify-chart", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_verify_chart_float_edge_cases():
    from hamdirac import verify_chart

    for bad in (math.nan, math.inf):
        ok, violations, maxdev = verify_chart([[bad, 0.0], [0.0, 1.0]], mode="float")
        assert not ok and violations and not maxdev <= 1e-12
    # the 0 x 0 chart is canonical in both modes
    assert verify_chart([], mode="float") == (True, [], 0.0)
    assert verify_chart([], mode="exact")[0]
