"""`legendre` on a constant kinetic matrix, which it reduces on qq integer
rows, against a dense Fraction Gauss-Jordan written here: the columns are
the velocities in reverse, each pivots on the last eligible momentum row,
and the leftover rows are the primaries.  Lagrangians outside that class
keep the Expr elimination, with the exit code and stderr they had.  Needs
no sympy."""

import contextlib
import io
from pathlib import Path

import pytest

import hamdirac.lagrangian as lagrangian
from hamdirac import cli, legendre, ostrogradsky_reduce, parse_expr, pons_reduce
from hamdirac.expr import Expr

from conftest import linear_form, make_system, random_quadratic_lagrangian, rng_for

GOLDEN = Path(__file__).resolve().parent / "golden"


def reference(sys, phase):
    """(velocity solution, primaries) of the momentum system p = dL/dv as
    dense Fraction vectors over (z, 1), by Gauss-Jordan on dense rows."""
    vels, syms, momentum = sys.velocity_symbols(), phase.z_order(), dict(phase.pairs)
    cols = vels[::-1]
    rows = []
    for c, v in zip(sys.genuine_coords(), vels):
        m = sys.L.diff(v)  # affine in (q, v) with constant coefficients
        at_zero = m.substitute({s: 0 for s in m.free_symbols()}).constant_value()
        rhs = [int(s == momentum[c]) - m.diff(s).constant_value() for s in syms]
        rows.append([m.diff(u).constant_value() for u in cols] + rhs + [-at_zero])
    nv, used, pivot_of = len(cols), set(), {}
    for col in range(nv):
        piv = next((i for i in reversed(range(len(rows))) if i not in used and rows[i][col]), None)
        if piv is None:
            continue
        used.add(piv)
        pivot_of[col] = piv
        rows[piv] = [x / rows[piv][col] for x in rows[piv]]
        for i in range(len(rows)):
            if i != piv and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[piv])]
    zero = [0] * (len(syms) + 1)
    solution = {u: rows[pivot_of[col]][nv:] if col in pivot_of else zero for col, u in enumerate(cols)}
    primaries = [rows[i][nv:] for i in range(len(rows)) if i not in used and any(rows[i][nv:])]
    return solution, primaries


def dense(e, syms):
    coeffs, offset = linear_form(e, syms)
    return coeffs + [offset]


def expr_of(vector, syms, table):
    e = Expr.const(table, vector[-1])
    for x, s in zip(vector, syms):
        e = e + x * Expr.sym(table, s)
    return e


def on_rows(sys, monkeypatch):
    """legendre(sys), the velocity solution its integer path returned (None
    when it took the Expr elimination) and its genericity pivots."""
    seen = []
    row_solve = lagrangian._row_solve

    def spy(*args):
        seen.append(row_solve(*args))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(lagrangian, "_row_solve", spy)
        fos = legendre(sys)
    return fos, (seen[0][1] if seen[0] else None), fos.genericity_pivots


def check_against_reference(sys, monkeypatch):
    fos, solution, log = on_rows(sys, monkeypatch)
    assert log == ()
    assert solution is not None, "a constant kinetic matrix takes the integer rows"
    syms, table = fos.phase.z_order(), sys.table
    want_solution, want_primaries = reference(sys, fos.phase)
    assert list(solution) == list(want_solution)
    assert {v: dense(e, syms) for v, e in solution.items()} == want_solution
    assert [dense(e, syms) for e in fos.primaries] == want_primaries
    h = -sys.L
    for c, p in fos.phase.pairs:
        h = h + Expr.sym(table, p) * sys.velocity_aliases.get(c, Expr.sym(table, table.velocity(c)))
    assert fos.H == h.substitute({v: expr_of(x, syms, table) for v, x in want_solution.items()})
    return fos, solution


def seeded_cases():
    rng = rng_for("legendre-integer-rows")
    cases = []
    for k in range(160):
        names = [f"q{j}" for j in range(1, k % 4 + 2)]
        cases.append((random_quadratic_lagrangian(rng, names, 1), names, 1, None))
    for k in range(40):
        names = [f"q{j}" for j in range(1, k % 2 + 2)]
        src = random_quadratic_lagrangian(rng, names, 2)
        cases += [(src, names, 2, "ssok"), (src, names, 2, "pons")]
    return cases


def test_seeded_quadratic_lagrangians_match_the_dense_reference(monkeypatch):
    cases = seeded_cases()
    assert len(cases) >= 200
    ranks = set()
    for src, names, order, path in cases:
        sys = make_system(src, names, order)
        if order == 2:
            sys = ostrogradsky_reduce(sys) if path == "ssok" else pons_reduce(sys)
        fos, _solution = check_against_reference(sys, monkeypatch)
        ranks.add((len(sys.genuine_coords()), len(fos.primaries)))
    # singular and regular kinetic matrices both occur
    assert any(m == 0 for _, m in ranks) and any(m > 0 for _, m in ranks)


def test_rank_deficient_matrix_pivots_on_the_later_row(monkeypatch):
    # p1 = v1 + v2 and p2 = v1 + v2 + q1: column v2 pivots on p2's row, so
    # p1's row is the primary and v1 is the free velocity
    sys = make_system("(1/2)*(d(q1) + d(q2))^2 + q1*d(q2)", ["q1", "q2"])
    fos, solution = check_against_reference(sys, monkeypatch)
    t = sys.table
    q1, q2 = sys.coords
    assert fos.primaries == (parse_expr("p1 - p2 + q1", t),)
    assert solution == {t.velocity(q2): parse_expr("p2 - q1", t), t.velocity(q1): parse_expr("0", t)}
    assert fos.H == parse_expr("(1/2)*(p2 - q1)^2", t)


def test_constant_momentum_offset(monkeypatch):
    sys = make_system("d(q1) + (1/2)*d(q2)^2 + q1*q2", ["q1", "q2"])
    fos, solution = check_against_reference(sys, monkeypatch)
    t = sys.table
    assert solution == {t.velocity(sys.coords[1]): parse_expr("p2", t), t.velocity(sys.coords[0]): parse_expr("0", t)}
    assert fos.primaries == (parse_expr("p1 - 1", t),)
    assert fos.H == parse_expr("(1/2)*p2^2 - q1*q2", t)


def test_quartic_potential_gives_a_quartic_hamiltonian(monkeypatch):
    text = (GOLDEN / "l3quartic.sys").read_text()
    src = next(line.partition("=")[2] for line in text.splitlines() if line.startswith("L ="))
    sys = make_system(src, ["q1", "q2", "q3", "q4"])
    fos, _solution = check_against_reference(sys, monkeypatch)
    assert fos.H.total_degree() == 4 and len(fos.primaries) == 2


# (L, exit code, stderr, genericity pivots) of `hamdirac analyze`, as they were when a
# constant matrix was still eliminated over Fractions
EXPR_CASES = [
    ("q1*d(q1)^2", 0, "", ["2*q1"]),
    ("q1^2*d(q2) - q2^2", 3,
     "unsupported: constraint -1*q1^2 + p2 is not affine with constant coefficients; weak reduction unsupported\n", []),
    ("d(q1)^2/(1 + q2^2) + d(q2)", 3,
     "unsupported: constraint -1/2*q2*p1^2 is not affine with constant coefficients; weak reduction unsupported\n",
     ["(2)/(q2^2 + 1)"]),
]


@pytest.mark.parametrize("src,rc,stderr,pivots", EXPR_CASES, ids=["q-kinetic", "q-squared-momentum", "rational"])
def test_other_lagrangians_keep_the_expr_elimination(src, rc, stderr, pivots, tmp_path, monkeypatch):
    names = ["q1"] if "q2" not in src else ["q1", "q2"]
    _fos, solution, log = on_rows(make_system(src, names), monkeypatch)
    assert solution is None and [str(p) for p in log] == pivots

    path = tmp_path / "case.sys"
    path.write_text(f"system case\ncoordinates {' '.join(names)}\norder 1\nL = {src}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = cli.main(["analyze", str(path)])
        except SystemExit as exc:
            got = exc.code
    assert (got, err.getvalue()) == (rc, stderr)
