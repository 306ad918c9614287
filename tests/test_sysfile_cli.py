import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from hamdirac import parse_system_file
from hamdirac.cli import main
from hamdirac.embedding import EmbeddingError, GaugeError
from hamdirac.report import PipelineOptions, build_report, report_json, run_pipeline
from hamdirac.sysfile import SysFileError, load_system_file


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


@pytest.mark.parametrize("path", ["ssok", "pons"])
def test_cli_report_without_counter_term(tmp_path, capsys, path):
    # d(q1)*dd(q2): the acceleration coefficients (0, d(q1)) are not a
    # gradient, so no counter-term exists; the report goes on without one
    sysfile = tmp_path / "nograd.sys"
    sysfile.write_text("system nograd\ncoordinates q1 q2\norder 2\nL = d(q1)*dd(q2)\n", encoding="utf-8")
    assert main(["report", str(sysfile), "--path", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["path"] == path and "counter_term" not in rep


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


def test_cli_gauge_fixing_with_empty_conds_is_the_bare_flag(tmp_path, capsys):
    # a CONDS that names no condition (empty, blank, or only separators) fixes
    # the gauge as the bare flag does: with the file's [gauge] conditions if it
    # has them, else with derived ones
    spellings = ([], [""], [" "], [","], [" , "], [",,"])
    outs = []
    for conds in spellings:
        assert main(["report", fixture("l3.sys"), "--gauge-fixing", *conds]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * len(spellings) and json.loads(outs[0])["embedding"]["gauge_fixed"]
    wrong = tmp_path / "l3wrong.sys"
    wrong.write_text(Path(fixture("l3.sys")).read_text(encoding="utf-8") + "\n[gauge]\nzeta1 = Q1\n", encoding="utf-8")
    for conds in spellings:
        assert main(["report", str(wrong), "--gauge-fixing", *conds]) == 4
        assert "gauge conditions do not freeze" in capsys.readouterr().err


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


def _run_each(argvs, capsys):
    """(exit code, stdout, stderr) of each in-process call, in order."""
    results = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


def test_cli_calls_sharing_one_parser_match_fresh_parsers(capsys, monkeypatch):
    # main builds its parser once per process; appended options and bad
    # arguments of one call must not reach the next
    import hamdirac.cli as cli

    l2, l3 = fixture("l2.sys"), fixture("l3.sys")
    argvs = [
        ["report", l3, "--epsilon", "Psi2=1/2", "--epsilon", "ThU1=2"],
        ["report", l3],
        ["simulate", l3, "--bc", "Q1=1:0", "--xi", "Xi2=1/2", "--t2", "1"],
        ["simulate", l3, "--bc", "Q1=1:0", "--t2", "1"],
        ["simulate", l2, "--bc", "Q1=1:0.5", "--t2", "1"],
        ["simulate", l2, "--t2", "1"],
        ["report", l3, "--gauge-fixing"],
        ["report", l3, "--gauge-fixing", "zeta1=-P1"],
        ["report", l3],
        ["bogus", l2],
        ["simulate", l2, "--bc", "Q1=1:0"],
        ["report", "--help"],
        ["analyze", fixture("cawley.sys")],
    ]
    assert cli._build_parser() is cli._build_parser()
    shared = _run_each(argvs, capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_each(argvs, capsys)
    assert shared == fresh
    # the first call's epsilon Psi2 leaves Xi1 loose in the embedded H (exit 2)
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0, 0, 2, 0, 0, 0, 2, 2, 0, 0]
    assert shared[1] == shared[8] != shared[0]
    assert shared[5] == (2, "", "error: --bc missing for Q1: every physical position needs Q=V1:V2\n")
    assert "invalid choice: 'bogus'" in shared[9][2]
    assert "the following arguments are required: --t2" in shared[10][2]


@pytest.mark.parametrize(
    "lagrangian,constraint",
    [("d(q1)*q2^2 + d(q1)*q1", "-1*q2^2 - q1 + p1"), ("(1/2)*d(q1)^2 + q2*(q1^2 + 1)", "q1^2 + 1")],
    ids=["primary", "secondary"],
)
def test_cli_non_affine_constraint_exits_3(tmp_path, capsys, lagrangian, constraint):
    f = tmp_path / "curved.sys"
    f.write_text(f"system curved\ncoordinates q1 q2\norder 1\nL = {lagrangian}\n", encoding="utf-8")
    assert main(["analyze", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"unsupported: constraint {constraint} is not affine with constant coefficients; weak reduction unsupported\n"
    )


def test_cli_unfreezable_gauge_exits_4(capsys):
    # l3quartic's static correction leaves Xi2 moving with -Q1, which no
    # free multiplier can cancel, so deriving the gauge fails
    path = Path(__file__).resolve().parent / "golden" / "l3quartic.sys"
    assert main(["report", str(path), "--gauge-fixing"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "inconsistent: Xi2 cannot be frozen: velocity -Q1 has no multiplier handle\n"


@pytest.mark.parametrize("path", [fixture("l2.sys"), str(Path(__file__).resolve().parent / "golden" / "coupled2.sys")],
                         ids=["l2", "coupled2"])
def test_cli_gauge_conditions_without_first_class_constraints_exit_4(capsys, path):
    # every constraint is second class, so zeta1 is a solved multiplier: the
    # condition is refused as on l3's solved zeta2, not dropped without a word
    assert main(["report", path, "--gauge-fixing", "zeta1=Q1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "inconsistent: gauge conditions for non-free multipliers: ['zeta1']\n"


L3_HEAD, _, _l3_chart = Path(fixture("l3.sys")).read_text(encoding="utf-8").partition("[chart]\n")
L3_ROWS = dict(line.split(" = ", 1) for line in _l3_chart.splitlines() if " = " in line)


def _renamed(moves, rows=L3_ROWS):
    return {moves.get(name, name): text for name, text in rows.items()}


@pytest.mark.parametrize(
    "head, rows, message",
    [
        (L3_HEAD.replace("q4", "Xi1"), L3_ROWS, "chart row name 'Xi1' collides with an existing symbol"),
        (L3_HEAD, {**L3_ROWS, "Psi2": "p3^2"},
         "chart row Psi2 (line 13) is not linear in phase coordinates: expression is not affine in the given symbols"),
        (L3_HEAD, {**L3_ROWS, "Psi2": "p3 +"}, "chart row Psi2 (line 13): unexpected token '' (at byte 4)"),
        (L3_HEAD, {k: v for k, v in L3_ROWS.items() if k != "Xi2"}, "chart roles must pair up: Xi/Psi, ThU/ThD, Q/P"),
        (L3_HEAD, {k: v for k, v in L3_ROWS.items() if k not in ("Q1", "P1")}, "chart must have 4 conjugate pairs, found 3"),
        (L3_HEAD, _renamed({"ThU1": "ThU2", "ThD1": "ThD2"}, {k: v for k, v in L3_ROWS.items() if k not in ("Q1", "P1")}),
         "missing chart row ThU1"),
        (L3_HEAD, {**L3_ROWS, "Q1": "2*q2 - 2*q4"}, "supplied chart fails S^T J S = J (entry 1,5 off by 1/2)"),
        (L3_HEAD, _renamed({"Xi1": "Q1", "Psi1": "P1", "Q1": "Xi1", "P1": "Psi1"}),
         "supplied Psi rows do not span the first-class constraints"),
        (L3_HEAD, _renamed({"ThU1": "Q1", "ThD1": "P1", "Q1": "ThU1", "P1": "ThD1"}),
         "supplied Psi/Theta rows do not span the constraint set"),
    ],
    ids=["collision", "non-linear", "unparsable", "unpaired", "pair-count", "missing", "stjs", "span-first-class",
         "span-constraints"],
)
def test_cli_supplied_chart_checks_exit_2(tmp_path, capsys, head, rows, message):
    # each check of the supplied-chart import, on a mangled copy of l3's chart
    # (swapped pairs stay symplectic, so only the span checks can refuse them)
    path = tmp_path / "l3mangled.sys"
    path.write_text(head + "[chart]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items()), encoding="utf-8")
    assert main(["chart", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["report", "simulate"])
def test_cli_psi_row_mixing_a_primary_with_a_later_constraint_exits_2(tmp_path, capsys, command):
    # Psi1 + Psi2 still spans the first-class constraints, so the import takes
    # it, but no Psi row is a primary momentum left to pin without a gauge
    rows = {**L3_ROWS, "Psi1": f"{L3_ROWS['Psi1']} + p3", "Xi2": f"{L3_ROWS['Xi2']} - ({L3_ROWS['Xi1']})"}
    path = tmp_path / "l3mixed.sys"
    path.write_text(L3_HEAD + "[chart]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items()), encoding="utf-8")
    extra = ["--bc", "Q1=1:0", "--t2", "1"] if command == "simulate" else []
    assert main([command, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: only 0 of the chart's Psi rows are primary first-class momenta, 1 needed: a Psi row that mixes a "
        "primary constraint with a later one cannot be pinned to 0 in advance; fix the gauge (--gauge-fixing) or "
        "keep each primary in a Psi row of its own\n"
    )
    if command == "report":
        assert main([command, str(path), "--gauge-fixing"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["embedding"]["kind"] == "sigma3" and rep["chart"]["source"] == "supplied"
        assert [r["generation"] for r in rep["chart"]["rows"] if r["role"] == "Psi"] == [2, 2]


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


QUARTIC_SYS = (
    "system anharmonic\ncoordinates q1 q2\norder 1\n"
    "L = q1*d(q2) - q2*d(q1) - q1^2 - q2^2 - (1/2)*q1^4\n"
)
# H = (Q1^4/2 + P1^2/2)/Q1^2: the compiled field divides by Q1^2
RATIONAL_SYS = "system rational\ncoordinates q1\norder 1\nL = (1/2)*q1^2*d(q1)^2 - (1/2)*q1^2\n"


@pytest.mark.parametrize(
    "system, bc, t2, stdout_sha, csv_sha",
    [
        # quadratic H: shooting by the RK4 propagator, the trajectory by its step matrix
        (None, "Q1=1:0", "pi/2",
         "b97c131cd44ca5cfc2ef79cb4f5fe6249beb06cb8b34ca42eadbec51815ca2a0",
         "6132da814d614710f8127a4404901bbca9ff12ad4730ec48bd1fa7e977f182f1"),
        # five CSV blocks, each energy column holding repeated values
        (None, "Q1=1:0", "20",
         "f2c99a638cb32b3a5f40e11c98287e020f6856dcb9b74de502dea6c5cf555ea1",
         "95d0cfd1b838b83bce21003d550907dd5bba01e20afcd0eaf0c3b46bfd2c38a6"),
        # quartic H: Newton on the variational equations
        (QUARTIC_SYS, "Q1=0.5:0.25", "3/2",
         "ffeab371aeca393e7886ac3c5c9c0905b37c5f00634d6afdc9d631ee31bb478c",
         "be532a4cea9e5cfaf5bd1a243d34f6ed41e1a7e0337df9ec75fa2d56c4d10bfc"),
    ],
)
def test_cli_simulate_bytes_pinned(tmp_path, capsys, system, bc, t2, stdout_sha, csv_sha):
    # CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 give these digests on x86-64
    # Linux, with the stdlib alone: the last bits of the floats follow the
    # left-to-right float sum() and the platform's pow.
    if system is None:
        path = fixture("l2.sys")
    else:
        path = tmp_path / "quartic.sys"
        path.write_text(system, encoding="utf-8")
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", str(path), "--bc", bc, "--t2", t2, "--out", str(csv_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha


@pytest.mark.parametrize(
    "system, bc, t2, t",
    [
        # Q1**4 overflows in the variational field during the first step
        (QUARTIC_SYS, "Q1=1e80:1", "3/2", "0.001"),
        # Q1**2 overflows in the energy of the initial state
        (None, "Q1=1e200:1", "1", "0.0"),
        # Q1 = 0 makes a denominator of the variational field vanish in the first step
        (RATIONAL_SYS, "Q1=0:1", "1", "0.001"),
    ],
    ids=["quartic-variational", "l2-energy", "rational-division-by-zero"],
)
def test_cli_simulate_overflowing_power_exits_1(tmp_path, capsys, system, bc, t2, t):
    if system is None:
        path = fixture("l2.sys")
    else:
        path = tmp_path / "quartic.sys"
        path.write_text(system, encoding="utf-8")
    assert main(["simulate", str(path), "--bc", bc, "--t2", t2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-finite state at t = {t}\n"


@pytest.mark.parametrize(
    "system, extra, named",
    [
        ("l2.sys", ["--bc", "Q1=1:0", "--bc", "Q9=5:5"], "--bc Q9: not a physical position (these are: Q1)"),
        ("l2.sys", ["--bc", "Q1=1:0", "--xi", "Foo=3"], "--xi Foo: not a gauge position fixed at t1 only (these are: none)"),
        ("l3.sys", ["--bc", "Q1=1:0", "--xi", "Xi1=3"], "--xi Xi1: not a gauge position fixed at t1 only (these are: Xi2)"),
    ],
    ids=["bc-not-a-position", "xi-without-gauge", "xi-never-fixed"],
)
def test_cli_simulate_rejects_unknown_names(capsys, system, extra, named):
    assert main(["simulate", fixture(system), *extra, "--t2", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize(
    "system, extra, missing",
    [("l2.sys", [], "Q1"), ("gauge2.sys", ["--bc", "Q1=1:0"], "Q2"), ("gauge2.sys", [], "Q1, Q2")],
    ids=["l2-none", "gauge2-one-of-two", "gauge2-none"],
)
def test_cli_simulate_missing_bc_exits_2(capsys, system, extra, missing):
    path = fixture(system) if system == "l2.sys" else str(Path(__file__).resolve().parent / "golden" / system)
    assert main(["simulate", path, *extra, "--t2", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --bc missing for {missing}: every physical position needs Q=V1:V2\n"


def test_cli_simulate_accepts_initial_only_gauge_position(capsys):
    assert main(["simulate", fixture("l3.sys"), "--bc", "Q1=1:0", "--xi", "Xi2=1/2", "--t2", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["constants"]["Xi2(t1)"] == 0.5
    assert hashlib.sha256(out.encode()).hexdigest() == "45945ded32841b27d820fc05323ef4b472674303fd058b6ba1a7db7f47da64fb"


def test_cli_simulate_labels_xi_by_the_initial_endpoint(tmp_path, capsys):
    # fix_endpoint = t2 fixes Xi2 at t2: the --xi value and the refusal say so
    path = tmp_path / "l3t2.sys"
    path.write_text(Path(fixture("l3.sys")).read_text(encoding="utf-8") + "\n[options]\nfix_endpoint = t2\n",
                    encoding="utf-8")
    argv = ["simulate", str(path), "--bc", "Q1=1:0", "--t2", "1"]
    assert main([*argv, "--xi", "Xi2=1/2"]) == 0
    t2 = json.loads(capsys.readouterr().out)
    assert main(["simulate", fixture("l3.sys"), "--bc", "Q1=1:0", "--xi", "Xi2=1/2", "--t2", "1"]) == 0
    t1 = json.loads(capsys.readouterr().out)
    assert list(t2["constants"]) == ["Q1(t1)", "P1(t1)", "Xi2(t2)", "A", "B"]
    assert list(t2["constants"].values()) == list(t1["constants"].values())
    assert main([*argv, "--xi", "Xi1=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --xi Xi1: not a gauge position fixed at t2 only (these are: Xi2)\n"


LOOSE_XI1 = "error: the Hamiltonian on the embedding depends on Xi1, which the embedding does not fix (epsilon Psi2=1/2)\n"


def l3_with_epsilon_psi2(tmp_path):
    # epsilon Psi2 = 1/2 brings the never-fixed gauge position Xi1 into the
    # embedded H, linearly: Xi1's Euler-Lagrange equation would read 1/6 = 0
    path = tmp_path / "l3eps.sys"
    path.write_text(Path(fixture("l3.sys")).read_text(encoding="utf-8") + "\n[options]\nepsilon Psi2 = 1/2\n",
                    encoding="utf-8")
    return path


def test_cli_simulate_refuses_a_hamiltonian_the_embedding_leaves_loose(tmp_path, capsys):
    # the pullback refuses it, so simulate exits 2 before its time and --bc checks
    path = l3_with_epsilon_psi2(tmp_path)
    assert main(["simulate", str(path), "--bc", "Q1=1:0", "--t2", "1"]) == 2
    assert capsys.readouterr() == ("", LOOSE_XI1)
    assert main(["simulate", str(path), "--t2", "0"]) == 2
    assert capsys.readouterr() == ("", LOOSE_XI1)


def test_cli_report_refuses_a_hamiltonian_the_embedding_leaves_loose(tmp_path, capsys):
    path = l3_with_epsilon_psi2(tmp_path)
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr() == ("", LOOSE_XI1)
    assert main(["report", fixture("l3.sys"), "--epsilon", "Psi2=1/2"]) == 2
    assert capsys.readouterr() == ("", LOOSE_XI1)
    with pytest.raises(EmbeddingError, match="depends on Xi1"):
        run_pipeline(load_system_file(path), PipelineOptions(), stage="report")
    # the chart stage stops before the embedding; ThU1 stays out of H
    assert main(["chart", str(path)]) == 0
    assert main(["report", fixture("l3.sys"), "--epsilon", "ThU1=1/2"]) == 0
    capsys.readouterr()


def test_cli_simulate_without_a_physical_block_exits_2(tmp_path, capsys):
    path = tmp_path / "l1.sys"
    path.write_text("system l1\ncoordinates q1 q2 q3\norder 1\nL = d(q1)*d(q3) + (1/2)*q2*q3^2\n", encoding="utf-8")
    assert main(["simulate", str(path), "--t2", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: l1: no physical (Q, P) block survives the embedding; nothing to simulate\n"


def test_cli_simulate_parses_bc_and_xi_like_times(capsys):
    runs = {}
    for spec in ("Q1=0.5:0", "Q1=1/2:0", "Q1=pi/4:0", "Q1=0.7853981633974483:0"):
        assert main(["simulate", fixture("l2.sys"), "--bc", spec, "--t2", "1"]) == 0
        runs[spec] = json.loads(capsys.readouterr().out)["initial_state"]
    assert runs["Q1=1/2:0"] == runs["Q1=0.5:0"]
    assert runs["Q1=pi/4:0"] == runs["Q1=0.7853981633974483:0"]


@pytest.mark.parametrize("line,lineno,name", [("Q0 = q1 + 5*p4", 18, "Q0"), ("Xi0 = p4", 18, "Xi0"), ("Psi01 = p4", 18, "Psi01")])
def test_cli_chart_row_numbered_from_zero_exits_2(tmp_path, capsys, line, lineno, name):
    # a row index starts at 1 and has no leading zero: Q0 or Psi01 is an
    # input error naming its line, not a row the chart silently drops
    path = tmp_path / "l3row.sys"
    path.write_text(Path(fixture("l3.sys")).read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    assert main(["chart", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}:{lineno}: chart row name {name!r} must be Xi#, Psi#, ThU#, ThD#, Q# or P#, # = 1, 2, ...\n"
    )


GAUGE2 = str(Path(__file__).resolve().parent / "golden" / "gauge2.sys")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", fixture("l2.sys"), "--bc", "Q1=1:0", "--bc", "Q1=1:0.5", "--t2", "1"], "--bc Q1 given twice"),
        (
            ["simulate", fixture("l3.sys"), "--bc", "Q1=1:0", "--xi", "Xi2=1", "--xi", " Xi2=2", "--t2", "1"],
            "--xi Xi2 given twice",
        ),
        (["report", fixture("l3.sys"), "--epsilon", "ThU1=1", "--epsilon", "ThU1=2"], "--epsilon ThU1 given twice"),
        (["report", GAUGE2, "--gauge-fixing", "zeta1=0, zeta1=0, zeta2=0"], "gauge condition for 'zeta1' given twice"),
    ],
    ids=["bc", "xi", "epsilon", "gauge-fixing"],
)
def test_cli_name_given_twice_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "base, section, message",
    [
        (GAUGE2, "[gauge]\nzeta1 = 0\nzeta1 = 0\nzeta2 = 0\n", "7: gauge multiplier 'zeta1' given twice"),
        (fixture("l3.sys"), "[options]\nepsilon ThU1 = 1\nepsilon ThU1 = 2\n", "20: epsilon 'ThU1' given twice"),
        (fixture("l3.sys"), "[options]\nfix_endpoint = t1\nfix_endpoint = t2\n", "20: option 'fix_endpoint' given twice"),
        (fixture("l2.sys"), "L = q1*d(q2)\n", "7: 'L' given twice"),
        (fixture("l3.sys"), "Q1 = q1\n", "18: chart row 'Q1' given twice"),
    ],
    ids=["gauge-line", "epsilon-line", "option-line", "header-line", "chart-line"],
)
def test_sysfile_name_given_twice_exits_2(tmp_path, capsys, base, section, message):
    path = tmp_path / "twice.sys"
    path.write_text(Path(base).read_text(encoding="utf-8") + section, encoding="utf-8")
    assert main(["report", str(path), "--gauge-fixing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:{message}\n"


@pytest.mark.parametrize(
    "section, message",
    [
        # one line is one condition: a comma does not split it into two that
        # slip past the given-twice check
        ("[gauge]\nzeta1 = 0, zeta2 = 0\nzeta2 = 0\n",
         "gauge condition 'zeta1=0, zeta2 = 0' (line 6): unexpected character ',' (at byte 1)"),
        ("[gauge]\nzeta1 = foo\nzeta2 = 0\n", "gauge condition 'zeta1=foo' (line 6): unknown symbol 'foo' (at byte 0)"),
        ("[gauge]\nzeta1 = 0\nzeta9 = 0\n", "'zeta9' (line 7) is not a multiplier of this system"),
    ],
    ids=["comma", "unknown-symbol", "not-a-multiplier"],
)
def test_sysfile_gauge_rows_name_their_line(tmp_path, capsys, section, message):
    path = tmp_path / "gauge.sys"
    path.write_text(Path(GAUGE2).read_text(encoding="utf-8") + section, encoding="utf-8")
    assert main(["report", str(path), "--gauge-fixing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_gauge_conditions_naming_each_other_exit_4(capsys):
    # the conditions are substituted at once, so a pair naming each other is
    # checked like any other: here it leaves Xi1 a velocity
    for conds in ("zeta1=zeta2, zeta2=zeta1", "zeta1=zeta2, zeta2=0"):
        assert main(["report", GAUGE2, "--gauge-fixing", conds]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inconsistent: gauge conditions do not freeze Xi1: residual velocity zeta2\n"


def test_library_gauge_conditions_match_the_cli(capsys):
    assert main(["report", fixture("l3.sys"), "--gauge-fixing", "zeta1=-P1"]) == 0
    cli = capsys.readouterr().out
    an = run_pipeline(load_system_file(fixture("l3.sys")), PipelineOptions(gauge_fixing={"zeta1": "-P1"}))
    assert report_json(build_report(an)) == cli
    assert json.loads(cli)["embedding"]["gauge_multipliers"] == {"zeta1": "-P1"}
    # the conditions are checked, not replaced by a derived gauge
    with pytest.raises(GaugeError, match="do not freeze"):
        run_pipeline(load_system_file(fixture("l3.sys")), PipelineOptions(gauge_fixing={"zeta1": "Q1"}))


def test_cli_epsilon_overrides_the_file_epsilon(tmp_path, capsys):
    # one --epsilon over the file's epsilon line for the same name is the
    # documented precedence, not a repeat
    path = tmp_path / "eps.sys"
    path.write_text(Path(fixture("l3.sys")).read_text(encoding="utf-8") + "[options]\nepsilon ThU1 = 1\n", encoding="utf-8")
    for extra, want in (([], "1"), (["--epsilon", "ThU1=2"], "2")):
        assert main(["report", str(path), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["pullback"]["epsilon_values"]["eps_ThU1"] == want


@pytest.mark.parametrize(
    "lagrangian, extra, message",
    [
        ("(1/2)*d(q1)^2 + 1/(1 + dd(q1)^2)", [], "order 1 system uses dd(q1); declare order 2"),
        ("(1/2)*d(q1)^2 + dd(q1)/(1 + dd(q1))", [], "order 1 system uses dd(q1); declare order 2"),
        ("(1/2)*d(q1)^2 + dd(q1)", [], "order 1 system uses dd(q1); declare order 2"),
        ("(1/2)*d(q1)^2", ["--path", "ssok"], "path option applies to order-2 systems only"),
    ],
    ids=["denominator", "net-degree-0", "numerator", "path"],
)
def test_cli_order_1_input_checks_exit_2(tmp_path, capsys, lagrangian, extra, message):
    # dd(q) anywhere in an order-1 L, a denominator included, is refused
    f = tmp_path / "o1.sys"
    f.write_text(f"system o1\ncoordinates q1\norder 1\nL = {lagrangian}\n", encoding="utf-8")
    assert main(["analyze", str(f), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_lagrangian_non_ascii_digit_exits_2(tmp_path, capsys):
    # "²" is a str.isdigit() character that int() rejects: an input error, not a crash
    path = tmp_path / "sup.sys"
    path.write_text("system s\ncoordinates q1\norder 1\nL = d(q1)^\u00b2\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: Lagrangian: unexpected character '\u00b2' (at byte 6)\n"


@pytest.mark.parametrize("coords,named", [("q1 d(q1)", "d(q1)"), ("q1 dd(q1)", "dd(q1)"), ("d(q1) q1", "d(q1)")])
def test_cli_coordinate_named_like_a_derived_symbol_exits_2(tmp_path, capsys, coords, named):
    path = tmp_path / "clash.sys"
    path.write_text(f"system c\ncoordinates {coords}\norder 1\nL = d(q1)^2\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coordinates:") and repr(named) in err


@pytest.mark.parametrize(
    "coords,path,fresh",
    [("q d(x1)", "pons", "x1_"), ("q dd(lam1)", "pons", "lam1_"), ("q d(Q1_q)", "ssok", "Q1_q_")],
)
def test_cli_order_2_reduction_skips_a_coordinate_named_like_its_derived_symbol(tmp_path, capsys, coords, path, fresh):
    # a new position is named past a coordinate that holds its d() or dd() name
    sysf = tmp_path / "taken.sys"
    sysf.write_text(f"system t\ncoordinates {coords}\norder 2\nL = q*dd(q)\n", encoding="utf-8")
    assert main(["analyze", str(sysf), "--path", path]) == 0
    assert fresh in json.loads(capsys.readouterr().out)["coordinates"]


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
        ["--bc", "Q1=1:0.5", "--t2", "\u00b2"],
        ["--bc", "Q1=1:\u00b2", "--t2", "1"],
        ["--bc", "Q1=1:0", "--t2", "1", "--step", "1/\u00b2"],
    ],
)
def test_cli_simulate_unparsable_values_exit_2(extra, capsys):
    assert main(["simulate", fixture("l2.sys"), *extra]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--t1", "2", "--t2", "1"], "error: t2 must exceed t1"),
        (["--t1", "1", "--t2", "1"], "error: t2 must exceed t1"),
        (["--t2", "1e300"], "needs more than MAX_STEPS = 10000000 RK4 steps"),
        (["--t2", "1", "--step", "1e-300"], "needs more than MAX_STEPS = 10000000 RK4 steps"),
    ],
    ids=["reversed", "empty", "huge-t2", "tiny-step"],
)
def test_cli_simulate_bad_grid_exits_2_before_compiling(tmp_path, monkeypatch, capsys, extra, message):
    # a free particle: the step count is checked before anything is compiled
    # or integrated, so no loop over the grid starts
    from hamdirac import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("simulate compiled or integrated a refused grid")

    monkeypatch.setattr(cli, "compile_field", unreachable)
    monkeypatch.setattr(cli, "solve_iota", unreachable)
    free = tmp_path / "free.sys"
    free.write_text("system free\ncoordinates q1\norder 1\nL = d(q1)^2/2\n", encoding="utf-8")
    assert main(["simulate", str(free), "--bc", "Q1=0:1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


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
        ('{"matrix": [[1, 0], [0]]}', "chart matrix must be square with even dimension"),
        ('{"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}', "chart matrix must be square with even dimension"),
        ('{"matrix": [[1, 0], [0, 1]], "mode": "foo"}', "chart 'mode' must be"),
        ('{"matrix": [[1, 0], [0, 1]], "mode": 5}', "chart 'mode' must be"),
        ('{"matrix": [[1, 0], [0, 1]], "mode": null}', "chart 'mode' must be"),
    ],
    ids=["nan", "infinity", "letter", "zero-denominator", "not-a-list", "ragged", "odd", "mode-unknown", "mode-number", "mode-null"],
)
def test_cli_verify_chart_rejects_non_numbers(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify-chart", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("tol,rc", [("-1", 2), ("nan", 2), ("inf", 2), ("0", 0)])
def test_cli_verify_chart_tol_must_be_finite_and_not_negative(tmp_path, capsys, tol, rc):
    # a negative or nan tolerance made every entry of the identity a violation
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps({"matrix": [[1, 0], [0, 1]], "mode": "float"}), encoding="utf-8")
    assert main(["verify-chart", str(ident), "--tol", tol]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.out == "" and captured.err.startswith("error: --tol must be a finite number >= 0")
    else:
        assert json.loads(captured.out)["canonical"] is True and captured.err == ""


def test_verify_chart_float_edge_cases():
    from hamdirac import verify_chart

    # a non-finite entry makes every bracket of its column a violation with
    # delta nan, and the maximum deviation nan
    for bad in (math.nan, math.inf, -math.inf):
        ok, violations, maxdev = verify_chart([[bad, 0.0], [0.0, 1.0]], mode="float")
        assert not ok and math.isnan(maxdev)
        assert [(i, k) for i, k, _d in violations] == [(0, 1), (1, 0)]
        assert all(math.isnan(d) for _i, _k, d in violations)
    ok, violations, maxdev = verify_chart([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, math.nan, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], mode="float")
    assert [(i, k) for i, k, _d in violations] == [(0, 2), (1, 2), (2, 0), (2, 1), (2, 3), (3, 2)] and math.isnan(maxdev)
    # the 0 x 0 chart is canonical in both modes
    assert verify_chart([], mode="float") == (True, [], 0.0)
    assert verify_chart([], mode="exact")[0]
