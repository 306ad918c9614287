"""Seeded inputs: the .sys files and CLI jobs of one pass of a workload.

A pass is a workload's fixed list of CLI jobs, run once.  Every pass draws
its coefficients from `random.Random(f"{workload}:{seed}:{index}")` and puts
its index into every coordinate name, so no file or Lagrangian of a pass
repeats one of an earlier pass, and the same (seed, index) always gives the
same files.  hamdirac sees only the files written here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "hamdirac" / "fixtures"

# Block count of the coupled and gauge families: 4k = 12 coordinates, a
# ~1 s report, so a run holds enough passes for a steady median.
FAMILY_K = 3

# Small nonzero rationals: the coefficients stay short, so a pass costs about
# the same whichever values the seed picks.
SMALL_RATIONALS = tuple(
    sorted({Fraction(s * a, b) for s in (1, -1) for a in range(1, 5) for b in range(1, 5)} - {Fraction(1), Fraction(-1)})
)
POSITIVE_RATIONALS = tuple(r for r in SMALL_RATIONALS if r > 0)

# Boundary values for simulate, written as decimals: `--bc` takes floats only.
BC_VALUES = ("-1.25", "-1", "-0.75", "-0.5", "0.5", "0.75", "1", "1.25")

ANHARMONIC_T2 = "3/2"
L4_T2 = "2"
L2_LONG_T2 = "100"
# Well posed (sin T ~ 9e-5, P(t1) ~ 1e4) but rejected today with exit 1 and
# this message; see README.
NEAR_RESONANT_T2 = "3.1415"
NEAR_RESONANT_ERROR = "shooting iteration did not converge"


@dataclass
class Job:
    """One CLI invocation and what its check needs to know."""

    argv: list
    check: str
    params: dict = field(default_factory=dict)
    out_file: str | None = None
    known_fault: str | None = None  # the stderr message of a job that fails on every run


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def make_pass(workload: str, seed: int, index: int, workdir: Path) -> list:
    """Write pass `index`'s .sys files into workdir and return its jobs."""
    return _MAKERS[workload](pass_rng(workload, seed, index), index, workdir)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _frac(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


# ---------------------------------------------------------------------------
# fixtures: the README commands on the bundled fixtures, L scaled by lambda

_COORDINATE = re.compile(r"\bq(\d*)\b")
_NUMBERED_MOMENTUM = re.compile(r"\bp(\d+)\b")


def renumber(text: str, index: int) -> str:
    """The .sys text with its coordinates q<i> (or q) renamed q<10(index+1)+i>.

    A coordinate q<j> has the momentum p<j>, so the [chart] rows' p<i> are
    renamed to match; comments are dropped.  Symbols keep their order, so
    the work is the same in every pass.
    """
    offset = 10 * (index + 1)
    out = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        body = line.split("#", 1)[0].rstrip()
        body = _COORDINATE.sub(lambda m: f"q{offset + int(m.group(1) or 0)}", body)
        out.append(_NUMBERED_MOMENTUM.sub(lambda m: f"p{offset + int(m.group(1))}", body))
    return "\n".join(out) + "\n"


def fixture_text(name: str, index: int) -> str:
    return renumber((FIXTURE_DIR / f"{name}.sys").read_text(encoding="utf-8"), index)

_MOMENTUM = re.compile(r"\bp(\d+|_\w+)\b")
_MOMENTUM_ROW = re.compile(r"\b(Psi|ThD|P)(\d+)\b")
_POSITION_ROLES = ("Xi", "ThU", "Q")


def scale_fixture(text: str, lam: Fraction) -> str:
    """The fixture with L -> lam*L, its [chart] rescaled to stay canonical.

    Momenta scale with L (p' = lam p).  A position-like row f(q, p) becomes
    f(q, p'/lam) and a momentum-like row g becomes lam*g(q, p'/lam), which
    keeps every chart bracket at its old value and every row in the span it
    had.  The physics, and every fact the checks assert, is unchanged.
    """
    inv = _frac(1 / lam)
    out, section = [], None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            section = body
        elif section is None and (body.startswith("L ") or body.startswith("L=")):
            line = f"L = {_frac(lam)}*({body.partition('=')[2].strip()})"
        elif section == "[chart]" and "=" in body:
            name, _, expr = body.partition("=")
            name = name.strip()
            expr = _MOMENTUM.sub(lambda m: f"({inv}*{m.group(0)})", expr.strip())
            if not name.startswith(_POSITION_ROLES):
                expr = f"{_frac(lam)}*({expr})"
            line = f"{name} = {expr}"
        out.append(line)
    return "\n".join(out) + "\n"


def scale_gauge_condition(cond: str, lam: Fraction) -> str:
    """Rewrite a gauge condition for the scaled chart (momentum rows / lam)."""
    inv = _frac(1 / lam)
    return _MOMENTUM_ROW.sub(lambda m: f"({inv}*{m.group(0)})", cond)


def _fixtures(rng, index, workdir):
    jobs = []
    files = {}
    lams = {}
    for name in ("cawley", "l2", "l3", "l4"):
        lam = rng.choice(POSITIVE_RATIONALS)
        text = scale_fixture(fixture_text(name, index), lam)
        files[name] = _write(workdir, f"{name}.sys", text)
        lams[name] = lam
        for stage in ("analyze", "chart", "report"):
            jobs.append(Job([stage, files[name]], "fixture", {"fixture": name, "stage": stage}))
    jobs.append(Job(["report", files["l4"], "--path", "pons"], "fixture", {"fixture": "l4", "stage": "report"}))
    gauge = scale_gauge_condition("zeta1=-P1", lams["l3"])
    jobs.append(Job(["report", files["l3"], "--gauge-fixing", gauge], "fixture",
                    {"fixture": "l3", "stage": "report", "gauge_fixed": True}))
    return jobs


# ---------------------------------------------------------------------------
# coupled and gauge: k copies of the l3 Lagrangian in x{b}_1..x{b}_4

def coordinate(b: int, i: int, tag: int) -> str:
    return f"x{b}_{i}_{tag}"


def l3_block(b: int, tag: int, scale: Fraction | None = None) -> str:
    x1, x2, x3, x4 = (coordinate(b, i, tag) for i in range(1, 5))
    body = (f"(1/2)*({x1} + d({x2}) + d({x3}))^2 + (1/2)*(d({x4}) - d({x2}))^2"
            f" + (1/2)*({x1} + 2*{x2})*({x1} + 2*{x4})")
    return body if scale is None else f"{_frac(scale)}*({body})"


def family_system(name: str, k: int, tag: int, couplings=None, scales=None) -> tuple:
    """(text, coordinates, Lagrangian) of k L3 blocks in x{b}_{i}_{tag}.

    couplings[b-2] multiplies x{b-1}_2*x{b}_4 (coupled family); scales[b-1]
    multiplies block b (gauge family).
    """
    coords = [coordinate(b, i, tag) for b in range(1, k + 1) for i in range(1, 5)]
    terms = [l3_block(b, tag, scales[b - 1] if scales else None) for b in range(1, k + 1)]
    for b, c in zip(range(2, k + 1), couplings or ()):
        terms.append(f"{_frac(c)}*{coordinate(b - 1, 2, tag)}*{coordinate(b, 4, tag)}")
    lag = " + ".join(terms)
    text = f"system {name}\ncoordinates {' '.join(coords)}\norder 1\nL = {lag}\n"
    return text, coords, lag


def _coupled(rng, index, workdir):
    k = FAMILY_K
    couplings = [rng.choice(SMALL_RATIONALS) for _ in range(k - 1)]
    text, coords, lag = family_system(f"coupled{k}", k, index, couplings=couplings)
    path = _write(workdir, f"coupled{k}.sys", text)
    return [Job(["report", path], "coupled", {"k": k, "coordinates": coords, "lagrangian": lag})]


def _gauge(rng, index, workdir):
    k = FAMILY_K
    scales = [rng.choice(SMALL_RATIONALS) for _ in range(k)]
    text, _, _ = family_system(f"gauge{k}", k, index, scales=scales)
    path = _write(workdir, f"gauge{k}.sys", text)
    return [Job(["report", path], "gauge", {"k": k})]


# ---------------------------------------------------------------------------
# simulate

ANHARMONIC_A = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2))
# Small amplitudes keep Newton, started at P = 0, on the low-energy orbit;
# from |Q| >= 0.75 it can diverge or land on an orbit with |P| ~ 2500.
ANHARMONIC_BC = ("-0.5", "-0.25", "0.25", "0.5")


def anharmonic_system(a: Fraction) -> str:
    return ("system anharmonic\ncoordinates q1 q2\norder 1\n"
            f"L = q1*d(q2) - q2*d(q1) - q1^2 - q2^2 - {_frac(a)}*q1^4\n")


def _bc(rng, values=BC_VALUES):
    return rng.choice(values), rng.choice(values)


def _simulate(rng, index, workdir):
    l2_text, l4_text = fixture_text("l2", index), fixture_text("l4", index)
    a = rng.choice(ANHARMONIC_A)
    anh_text = renumber(anharmonic_system(a), index)
    l2, l4 = _write(workdir, "l2.sys", l2_text), _write(workdir, "l4.sys", l4_text)
    anh = _write(workdir, "anharmonic.sys", anh_text)
    traj = str(workdir / "traj.csv")

    def job(path, text, bc, t2, check, argv=(), params=(), **extra):
        return Job(["simulate", path, "--bc", f"Q1={bc[0]}:{bc[1]}", "--t2", t2, *argv], check,
                   {"system": text, "bc": bc, "t2": float(Fraction(t2)), **dict(params)}, **extra)

    return [
        job(l2, l2_text, _bc(rng), L2_LONG_T2, "oscillator", argv=["--out", traj], out_file=traj),
        job(l4, l4_text, _bc(rng), L4_T2, "oscillator"),
        job(anh, anh_text, _bc(rng, ANHARMONIC_BC), ANHARMONIC_T2, "anharmonic", params={"a": a}),
        job(l2, l2_text, ("1", "0"), NEAR_RESONANT_T2, "oscillator", known_fault=NEAR_RESONANT_ERROR),
    ]


_MAKERS = {"fixtures": _fixtures, "coupled": _coupled, "gauge": _gauge, "simulate": _simulate}
WORKLOADS = tuple(_MAKERS)
