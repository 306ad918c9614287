"""Checks of hamdirac's outputs against computations that share no code with it.

Everything here runs outside the timed region.  The exact checks use only
`fractions` and this file's own elimination; the anharmonic orbit is
integrated with scipy, imported only after the run has read its peak RSS.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

F = Fraction


# ---------------------------------------------------------------------------
# exact helpers

_INT = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_VELOCITY = re.compile(r"\bd\((\w+)\)")


def exact_function(text: str):
    """Compile a hamdirac expression string to a function of a dict over Q.

    `d(x)` is read as the variable `d_x`, `^` as power and every integer
    literal as a Fraction, so `1/2` stays exact.
    """
    py = _INT.sub(r"F(\1)", _VELOCITY.sub(r"d_\1", text).replace("^", "**"))
    code = compile(py, "<expr>", "eval")
    return lambda values: Fraction(eval(code, {"__builtins__": {}, "F": Fraction}, values))  # noqa: S307 - our own strings


def det(m) -> Fraction:
    """Determinant over Q by fraction Gaussian elimination."""
    a = [list(r) for r in m]
    n = len(a)
    d = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def quadratic_parts(lagrangian: str, coords: list):
    """A, B, C of L = 1/2 v^T A v + v^T B q + 1/2 q^T C q, by polarization.

    Exact for an L that is a quadratic form in (q, v), which every generated
    family member is.
    """
    n = len(coords)
    names = [f"d_{c}" for c in coords] + list(coords)
    f = exact_function(lagrangian)

    def at(*signed):
        point = dict.fromkeys(names, F(0))
        for i, v in signed:
            point[names[i]] += v
        return f(point)

    base = at()
    up = [at((i, 1)) for i in range(2 * n)]
    h = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(2 * n):
        h[i][i] = up[i] + at((i, -1)) - 2 * base
        for j in range(i + 1, 2 * n):
            h[i][j] = h[j][i] = at((i, 1), (j, 1)) - up[i] - up[j] + base
    a = [row[:n] for row in h[:n]]
    b = [row[n:] for row in h[:n]]
    c = [row[n:] for row in h[n:]]
    return a, b, c


def pencil_degree(a, b, c):
    """deg det P(s) for P(s) = A s^2 + (B - B^T) s - C, or None if det P == 0.

    det P has degree at most 2n; its values at s = 0..2n fix it, and the
    degree is the last order of forward differences that is not all zero.
    """
    n = len(a)
    values = []
    for s in range(2 * n + 1):
        s = F(s)
        values.append(det([[a[i][j] * s * s + (b[i][j] - b[j][i]) * s - c[i][j] for j in range(n)] for i in range(n)]))
    degree = None
    diffs = values
    for order in range(2 * n + 1):
        if any(diffs):
            degree = order
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    return degree


def chart_is_symplectic(chart: dict) -> bool:
    """S^T J S == J over Q for the chart's rows (z = q1..qn, p1..pn)."""
    s = [[F(x) for x in row["coeffs"]] for row in chart["rows"]]
    dim = len(s)
    if dim % 2 or any(len(r) != dim for r in s):
        return False
    n = dim // 2
    for i in range(dim):
        for k in range(dim):
            # (S^T J S)_ik = sum_a S_a,i (J S)_a,k with (J S)_a = S_(a+n) for a < n, -S_(a-n) otherwise
            acc = sum(s[a][i] * s[a + n][k] - s[a + n][i] * s[a][k] for a in range(n))
            want = 1 if k == i + n else -1 if i == k + n else 0
            if acc != want:
                return False
    return True


# ---------------------------------------------------------------------------
# per-job checks run right after each pass

class Outcome:
    """Problems found with a pass's outputs, and failed job count."""

    def __init__(self):
        self.problems: list = []
        self.failed = 0

    def expect(self, cond, msg):
        if not cond:
            self.problems.append(msg)


def check_report_common(rep: dict, where: str, out: Outcome):
    c = rep["classification"]
    out.expect(2 * c["dof"] == 2 * rep["n"] - 2 * c["F"] - c["S"], f"{where}: dof != (2n - 2F - S)/2")
    if "chart" in rep:
        out.expect(chart_is_symplectic(rep["chart"]), f"{where}: chart fails S^T J S = J")


_FIXTURE_FACTS = {  # F, S, dof as the README and the paper state them
    "cawley": (3, 0, 0),
    "l2": (0, 2, 1),
    "l3": (2, 2, 1),
}


def check_fixture(job, rep: dict, out: Outcome):
    name, where = job.params["fixture"], " ".join(job.argv)
    check_report_common(rep, where, out)
    c = rep["classification"]
    if name in _FIXTURE_FACTS:
        out.expect((c["F"], c["S"], c["dof"]) == _FIXTURE_FACTS[name], f"{where}: F, S, dof = {c['F']}, {c['S']}, {c['dof']}")
    if name == "cawley":
        cons = rep["constraints"]
        out.expect(len({k["chain"] for k in cons}) == 1 and sorted(k["generation"] for k in cons) == [1, 2, 3]
                   and all(k["class"] == "first" for k in cons), f"{where}: not one chain of three first-class constraints")
    if name == "l4":
        out.expect(c["dof"] == 1, f"{where}: dof {c['dof']} != 1")
        out.expect(rep["path"] == ("pons" if "pons" in job.argv else "ssok"), f"{where}: path {rep['path']}")
    if name == "l3" and job.params["stage"] == "report":
        b = rep["boundary"]
        if job.params.get("gauge_fixed"):
            out.expect(rep["embedding"]["kind"] == "sigma3" and rep["embedding"]["gauge_fixed"],
                       f"{where}: embedding {rep['embedding']['kind']} is not the canonical sigma3")
            out.expect((b["fix_both_ends"], b["fix_initial_only"], b["never_fix"]) == (["Q1"], [], []),
                       f"{where}: boundary {b}")
        else:
            out.expect(rep["embedding"]["kind"] == "sigma3_tilde", f"{where}: embedding {rep['embedding']['kind']} is not quasi-canonical")
            out.expect((b["fix_both_ends"], b["fix_initial_only"], b["never_fix"]) == (["Q1"], ["Xi2"], ["Xi1"]),
                       f"{where}: boundary {b}")


def check_coupled(job, rep: dict, out: Outcome):
    where = " ".join(job.argv)
    check_report_common(rep, where, out)
    c = rep["classification"]
    a, b, cc = quadratic_parts(job.params["lagrangian"], job.params["coordinates"])
    degree = pencil_degree(a, b, cc)
    out.expect(degree is not None, f"{where}: Euler-Lagrange pencil is singular")
    if degree is not None:
        out.expect(2 * c["dof"] == degree, f"{where}: dof {c['dof']} != deg det P / 2 = {degree}/2")
    out.expect(c["F"] == 0, f"{where}: F = {c['F']} on a regular pencil")


def check_gauge(job, rep: dict, out: Outcome):
    where, k = " ".join(job.argv), job.params["k"]
    check_report_common(rep, where, out)
    c = rep["classification"]
    # One L3 block has F = S = 2 and dof 1; uncoupled blocks add up.
    out.expect((c["F"], c["S"], c["dof"]) == (2 * k, 2 * k, k), f"{where}: F, S, dof = {c['F']}, {c['S']}, {c['dof']}")
    out.expect(len(rep["boundary"]["fix_both_ends"]) == k, f"{where}: {rep['boundary']['fix_both_ends']} fixed at both ends")
    out.expect(rep["effective_hamiltonian"] is not None, f"{where}: no effective Hamiltonian")


def oscillator_q(t, q1, q2, t1, t2):
    """Closed form of Q'' = -Q through Q(t1) = q1, Q(t2) = q2."""
    return (q1 * math.sin(t2 - t) + q2 * math.sin(t - t1)) / math.sin(t2 - t1)


def check_trajectory(job, path, out: Outcome):
    """Compare the CSV trajectory with the closed form, streaming the file."""
    q1, q2 = (float(v) for v in job.params["bc"])
    t2 = job.params["t2"]
    worst, rows = 0.0, 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        out.expect(header[:2] == ["t", "Q1"], f"trajectory header {header}")
        for i, line in enumerate(fh):
            rows += 1
            if i % 500 == 0:
                t, q = (float(x) for x in line.split(",", 2)[:2])
                worst = max(worst, abs(q - oscillator_q(t, q1, q2, 0.0, t2)))
    out.expect(worst < 1e-6, f"trajectory leaves the closed form by {worst:.3g}")
    out.expect(rows == round(t2 / 1e-3) + 1, f"trajectory has {rows} rows")


def check_pass(jobs, results, out: Outcome, deferred: list):
    """Immediate checks; simulate results needing oracles go to `deferred`."""
    for job, (rc, stdout, stderr) in zip(jobs, results):
        if rc != 0:
            out.failed += 1
            known = job.known_fault is not None and rc == 1 and job.known_fault in stderr
            out.expect(known, f"{' '.join(job.argv)}: exit {rc}: {stderr.strip()[-200:]}")
            continue
        try:
            data = json.loads(stdout)
            if job.check == "fixture":
                check_fixture(job, data, out)
            elif job.check == "coupled":
                check_coupled(job, data, out)
            elif job.check == "gauge":
                check_gauge(job, data, out)
            else:
                if job.out_file:
                    check_trajectory(job, job.out_file, out)
                deferred.append((job, data))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out.problems.append(f"{' '.join(job.argv)}: output not in the expected form: {exc!r}")


# ---------------------------------------------------------------------------
# deferred simulate checks

def oscillator_velocity(report: dict, q: float, p: float) -> float:
    """dQ/dt = dH/dP for the report's quadratic reduced H, evaluated in floats."""
    lag = exact_function(report["pullback"]["lagrangian"])

    def h(qq, pp):
        return -lag({"Q1": qq, "P1": pp, "d_Q1": F(0)})

    # H = a Q^2 + b Q P + c P^2 exactly; dH/dP = b Q + 2 c P
    c = (h(F(0), F(1)) + h(F(0), F(-1))) / 2
    b = h(F(1), F(1)) - h(F(1), F(0)) - h(F(0), F(1))
    return float(b) * q + 2 * float(c) * p


def check_simulate_job(job, data: dict, report: dict, out: Outcome):
    """Check one simulate result against its system's report; True if right."""
    where = " ".join(job.argv)
    q1, q2 = (float(v) for v in job.params["bc"])
    t2 = job.params["t2"]
    q, p = data["initial_state"][:2]
    if job.check == "oscillator":
        want = (q2 - q1 * math.cos(t2)) / math.sin(t2)  # dQ/dt at t1 = 0
        got = oscillator_velocity(report, q, p)
        # 1e-8 relative is the near-resonant job's bar; the others clear it too
        ok = abs(got - want) <= 1e-8 * max(1.0, abs(want))
        out.expect(ok, f"{where}: dQ/dt(t1) = {got!r}, closed form {want!r}")
        return ok
    # anharmonic: map (Q1, P1) through the printed chart, integrate the
    # Euler-Lagrange equations of the original L and land on Q1(t2).
    import numpy as np
    from scipy.integrate import solve_ivp

    a = float(job.params["a"])
    rows = {r["name"]: [float(F(x)) for x in r["coeffs"]] for r in report["chart"]["rows"]}
    offs = {r["name"]: float(F(r["offset"])) for r in report["chart"]["rows"]}
    order = ["ThU1", "Q1", "ThD1", "P1"]
    rhs = [0.0 - offs["ThU1"], q - offs["Q1"], 0.0 - offs["ThD1"], p - offs["P1"]]
    z = np.linalg.solve(np.array([rows[n] for n in order]), np.array(rhs))
    # on the constraint surface p1 = -q2 and p2 = q1
    out.expect(abs(z[2] + z[1]) < 1e-9 and abs(z[3] - z[0]) < 1e-9, f"{where}: initial state off the constraint surface")

    def el(_t, y):
        x1, x2 = y  # 2 q2' = dV/dq1, 2 q1' = -dV/dq2 for V = q1^2 + q2^2 + a q1^4
        return [-x2, x1 + 2 * a * x1 ** 3]

    sol = solve_ivp(el, (0.0, t2), [z[0], z[1]], method="DOP853", rtol=1e-12, atol=1e-13)
    x1, x2 = sol.y[:, -1]
    q_end = float(np.dot(rows["Q1"], [x1, x2, -x2, x1]) + offs["Q1"])
    ok = abs(q_end - q2) < 1e-7
    out.expect(ok, f"{where}: Euler-Lagrange orbit ends at Q1 = {q_end!r}, not {q2!r}")
    return ok
