import functools
import io
import math
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from hamdirac import SymbolTable, compile_field, integrate, parse_expr, solve_iota
from hamdirac import numerics
from hamdirac.cli import reduced_hamiltonian
from hamdirac.expr import Expr
from hamdirac.numerics import (
    CSV_BLOCK_ROWS,
    MAX_CONDITION,
    NumericsError,
    ShootingNotConverged,
    SingularShooting,
    Trajectory,
    rk4_propagator,
    rk4_variational,
)
from hamdirac.report import PipelineOptions, run_pipeline
from hamdirac.sysfile import load_system_file, parse_system_file

from conftest import l3_family_source, rng_for


def stagewise(field):
    """`field` without its affine form, so integrate runs the RK4 stages."""
    return field._replace(linear=None)


def oscillator(hamiltonian="(1/2)*Q^2 + (1/2)*P^2", params=None, extra=()):
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    syms = {}
    for name in extra:
        syms[name] = t.register(name, "parameter")
    h = parse_expr(hamiltonian, t).substitute({syms[n]: Expr.const(t, Fraction(v)) for n, v in (params or {}).items()})
    field = compile_field(h, [(q, p)])
    return t, field


def rows(traj):
    """Every state of traj as a tuple, after checking each column is as long as the times."""
    assert all(len(c) == len(traj.times) for c in (*traj.columns, traj.energies))
    return [traj.state(i) for i in range(len(traj.times))]


def test_compile_field_oscillator():
    t, field = oscillator()
    assert field.rhs(0.0, (1.0, 2.0)) == (2.0, -1.0)
    assert field.oscillator_like


def test_compile_field_constant_h_zero_field():
    t, field = oscillator("7/2")
    assert field.rhs(0.0, (1.0, 2.0)) == (0.0, 0.0)


def test_compile_field_with_parameter_shift():
    # a fixed constraint coordinate entering H linearly shifts the momentum
    # component of the field
    t, field = oscillator("(1/2)*Q^2 + (1/2)*P^2 + 2*eps*P", params={"eps": 0.25}, extra=("eps",))
    dq, dp = field.rhs(0.0, (0.0, 0.0))
    assert dq == pytest.approx(0.5) and dp == 0.0
    assert not field.oscillator_like  # linear term breaks the A/B normal form


def test_compile_field_rejects_stray_symbols():
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    z = t.register("zeta1", "multiplier")
    h = parse_expr("P^2/2 + zeta1*Q", t)
    with pytest.raises(NumericsError):
        compile_field(h, [(q, p)])


def test_compile_field_matches_finite_differences():
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    h = parse_expr("(1/2)*P^2 + (1/4)*Q^4 - Q*P", t)
    field = compile_field(h, [(q, p)])
    rng = rng_for("fd-check")
    eps = 1e-6
    for _ in range(25):
        y = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        dq, dp = field.rhs(0.0, y)
        h0 = lambda qq, pp: field.energy((qq, pp))
        fd_dq = (h0(y[0], y[1] + eps) - h0(y[0], y[1] - eps)) / (2 * eps)
        fd_dp = -(h0(y[0] + eps, y[1]) - h0(y[0] - eps, y[1])) / (2 * eps)
        scale = max(1.0, abs(fd_dq), abs(fd_dp))
        assert abs(dq - fd_dq) / scale < 1e-6
        assert abs(dp - fd_dp) / scale < 1e-6


def test_rk4_oscillator_closed_forms():
    t, field = oscillator()
    traj = integrate(field, (1.0, 0.0), 0.0, 2 * math.pi, 1e-3)
    qf, pf = traj.state(-1)
    assert abs(qf - 1.0) < 1e-8 and abs(pf) < 1e-8
    traj = integrate(field, (1.0, 0.0), 0.0, math.pi / 2, 1e-3)
    qf, pf = traj.state(-1)
    assert abs(qf) < 1e-8 and abs(pf + 1.0) < 1e-8


def test_rk4_zero_field_constant_trajectory():
    t, field = oscillator("3/4")
    traj = integrate(field, (2.0, -1.0), 0.0, 1.0, 0.1)
    assert all(s == (2.0, -1.0) for s in rows(traj))


def test_rk4_energy_drift_hundred_periods():
    t, field = oscillator()
    traj = integrate(field, (1.0, 0.0), 0.0, 200 * math.pi, 1e-3)
    e0 = traj.energies[0]
    drift = max(abs(e - e0) for e in traj.energies) / abs(e0)
    assert drift < 1e-6


def csv_text(traj):
    """The trajectory's CSV, as `write_csv` writes it to a text file."""
    buf = io.StringIO()
    traj.write_csv(buf)
    return buf.getvalue()


def test_csv_layout():
    t, field = oscillator()
    traj = integrate(field, (1.0, 0.0), 0.0, 0.1, 0.05)
    lines = csv_text(traj).strip().splitlines()
    assert lines[0] == "t,Q,P,H"
    assert len(lines) == 1 + len(traj.times)


def test_solve_iota_quarter_period_constants():
    t, field = oscillator()
    sol = solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, math.pi / 2, step=1e-3)
    assert abs(sol.constants["A"] - 0.5) < 1e-9
    assert abs(sol.constants["B"] - 0.5) < 1e-9
    assert abs(sol.initial_state[1]) < 1e-9  # P(t1) = 0 for the cosine branch


def test_solve_iota_zero_boundary_null_trajectory():
    t, field = oscillator()
    sol = solve_iota(field, {"Q": (0.0, 0.0)}, 0.0, 1.0, step=1e-3)
    assert abs(sol.constants["A"]) < 1e-9 and abs(sol.constants["B"]) < 1e-9
    assert max(abs(v) for s in rows(sol.trajectory) for v in s) < 1e-9


def test_solve_iota_round_trip_random():
    t, field = oscillator()
    rng = rng_for("iota-roundtrip")
    for _ in range(5):
        qa, qb = rng.uniform(-2, 2), rng.uniform(-2, 2)
        sol = solve_iota(field, {"Q": (qa, qb)}, 0.0, 1.0, step=1e-3)
        redo = integrate(field, sol.initial_state, 0.0, 1.0, 1e-3)
        assert abs(redo.state(0)[0] - qa) < 1e-9
        assert abs(redo.state(-1)[0] - qb) < 1e-9


def test_solve_iota_resonant_interval_rejected():
    t, field = oscillator()
    with pytest.raises(SingularShooting):
        solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, math.pi, step=1e-3)


def test_field_evaluation_matches_symbolic():
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    h = parse_expr("(3/7)*Q^2*P + (1/3)*P^3 - Q", t)
    field = compile_field(h, [(q, p)])
    rng = rng_for("eval-match")
    from fractions import Fraction

    for _ in range(20):
        qq = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        pp = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        sym = float(h.substitute({q: qq, p: pp}).constant_value())
        num = field.energy((float(qq), float(pp)))
        assert abs(sym - num) <= 1e-14 * max(1.0, abs(sym))


def analytic_p(q1, q2, t):
    # unit oscillator: Q(t) = Q1 cos t + P(t1) sin t
    return (q2 - q1 * math.cos(t)) / math.sin(t)


def test_solve_iota_near_resonant_interval_matches_closed_form():
    t, field = oscillator()
    sol = solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, 3.1415, step=1e-3)
    want = analytic_p(1.0, 0.0, 3.1415)
    assert abs(sol.initial_state[1] - want) <= 1e-8 * abs(want)
    assert 1e4 < sol.condition < 1.2e4  # 1 / sin(3.1415)


def test_solve_iota_just_past_resonance_solved_or_rejected_with_condition():
    t, field = oscillator()
    t2 = math.pi + 1e-6
    try:
        sol = solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, t2, step=1e-3)
    except SingularShooting as exc:
        assert "condition number" in str(exc)
        return
    want = analytic_p(1.0, 0.0, t2)
    assert abs(sol.initial_state[1] - want) <= 1e-7 * abs(want)


def test_solve_iota_singular_message_names_condition_and_bound():
    t, field = oscillator()
    with pytest.raises(SingularShooting) as info:
        solve_iota(field, {"Q": (1.0, 0.0)}, 0.0, math.pi, step=1e-3)
    msg = str(info.value)
    assert "resonant interval" in msg and "condition number" in msg
    assert f"{MAX_CONDITION:.3g}" in msg


def test_solve_iota_decision_is_scale_invariant():
    t, field = oscillator()
    for t2 in (1.0, 3.1415, math.pi + 1e-6, math.pi + 1e-9, math.pi):
        outcomes = []
        for scale in (1e-6, 1.0, 1e6):
            try:
                sol = solve_iota(field, {"Q": (0.75 * scale, -0.5 * scale)}, 0.0, t2, step=1e-3)
                outcomes.append(sol.initial_state[1] / scale)
            except SingularShooting:
                outcomes.append(None)
        if outcomes[1] is None:
            assert outcomes == [None, None, None], t2
        else:
            assert all(o is not None and abs(o - outcomes[1]) <= 1e-9 * abs(outcomes[1]) for o in outcomes), t2


def test_solve_iota_not_converged_is_its_own_error(monkeypatch):
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    field = compile_field(parse_expr("(1/4)*P^2 + Q^2 + (1/4)*Q^4", t), [(q, p)])
    with monkeypatch.context() as patch, pytest.raises(ShootingNotConverged) as info:
        patch.setattr(numerics, "SHOOTING_MAX_ITER", 0)
        solve_iota(field, {"Q": (0.5, 0.25)}, 0.0, 1.5, step=1e-3)
    assert not isinstance(info.value, SingularShooting)
    assert "did not converge after 0 iterations" in str(info.value)
    assert "relative residual" in str(info.value)
    sol = solve_iota(field, {"Q": (0.5, 0.25)}, 0.0, 1.5, step=1e-3)
    assert abs(sol.trajectory.state(-1)[0] - 0.25) <= 1e-10


def random_quadratic(rng, m):
    t = SymbolTable()
    pairs = [(t.position(f"Q{k}"), t.register(f"P{k}", "momentum")) for k in range(1, m + 1)]
    slots = [s.name for pair in pairs for s in pair]
    terms = []
    for i, a in enumerate(slots):
        for b in slots[i:]:
            terms.append(f"({rng.randint(-4, 4)}/{rng.randint(1, 4)})*{a}*{b}")
        terms.append(f"({rng.randint(-4, 4)}/{rng.randint(1, 4)})*{a}")  # affine shift, like 2*eps*P
    return pairs, compile_field(parse_expr(" + ".join(terms), t), pairs)


def test_rk4_propagator_matches_stepwise_integration():
    rng = rng_for("propagator-oracle")
    for trial in range(12):
        m = 1 + trial % 2
        pairs, field = random_quadratic(rng, m)
        assert field.linear is not None
        t2 = rng.uniform(0.5, 2.0)
        step = rng.choice((1e-3, 7e-3, 0.05))
        prop = rk4_propagator(field, 0.0, t2, step)
        y0 = [rng.uniform(-2, 2) for _ in range(2 * m)]
        want = integrate(field, y0, 0.0, t2, step).state(-1)
        got = [sum(a * b for a, b in zip(row, y0 + [1.0])) for row in prop[: 2 * m]]
        scale = max(abs(v) for v in want)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * scale, (trial, got, want)
        assert prop[2 * m] == [0.0] * (2 * m) + [1.0]


def test_affine_integrate_matches_stagewise_path():
    # the affine field steps by R; linear=None sends the same field through the stages
    rng = rng_for("affine-integrate")
    for m in (1, 2):
        for step in (1e-3, 7e-3, 0.05):
            for _ in range(3):
                pairs, field = random_quadratic(rng, m)
                assert field.linear is not None
                t1 = rng.uniform(-1.0, 1.0)
                t2 = t1 + rng.uniform(0.5, 2.0)
                y0 = [rng.uniform(-2, 2) for _ in range(2 * m)]
                got = integrate(field, y0, t1, t2, step)
                want = integrate(stagewise(field), y0, t1, t2, step)
                assert got.times == want.times
                got_rows, want_rows = rows(got), rows(want)
                assert len(got_rows) == len(want_rows) == len(got.energies)
                scale = max(abs(v) for y in want_rows for v in y)
                for a, b in zip(got_rows, want_rows):
                    assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-10 * scale, (m, step, a, b)


def test_affine_and_stagewise_overflow_name_the_same_t():
    # Q grows as e^(t/1000) and P decays, so H = Q*P/1000 stays finite and no
    # stage overflows before the state does
    t = SymbolTable()
    pairs = [(t.position("Q"), t.register("P", "momentum"))]
    field = compile_field(parse_expr("(1/1000)*Q*P", t), pairs)
    assert field.linear is not None
    messages = []
    for f in (field, stagewise(field)):
        with pytest.raises(NumericsError) as info:
            integrate(f, (1.0, 1.0), 0.0, 1e6, 50.0)
        messages.append(str(info.value))
    assert messages[0].startswith("non-finite state at t = ")
    assert messages[0] == messages[1]


def per_field_csv(traj):
    # the writer as it was: one repr per field and one join per row
    header = ["t"] + [q.name for q, _p in traj.pairs] + [p.name for _q, p in traj.pairs] + ["H"]
    lines = [",".join(header)]
    m = len(traj.pairs)
    for t, y, h in zip(traj.times, rows(traj), traj.energies):
        rec = [repr(t)]
        rec += [repr(y[2 * k]) for k in range(m)]
        rec += [repr(y[2 * k + 1]) for k in range(m)]
        rec.append(repr(h))
        lines.append(",".join(rec))
    return "\n".join(lines) + "\n"


class ListSink:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


def from_lists(times, states, energies, pairs):
    # a Trajectory whose rows were edited as lists, converted to columns
    return Trajectory(array("d", times), [array("d", c) for c in zip(*states)], array("d", energies), pairs)


def test_csv_bytes_match_per_field_writer():
    rng = rng_for("csv-bytes")
    special = (-0.0, 1e-300, 1e300, 0.1)
    for m in (1, 2):
        # a short trajectory, and one of more than two blocks with the special
        # rows straddling the first block boundary
        for t2, at in ((0.3, None), ((2 * CSV_BLOCK_ROWS + 37) * 1e-3, CSV_BLOCK_ROWS - 2)):
            pairs, field = random_quadratic(rng, m)
            traj = integrate(field, [rng.uniform(-2, 2) for _ in range(2 * m)], 0.0, t2, 0.05 if at is None else 1e-3)
            times, states, energies = list(traj.times), rows(traj), list(traj.energies)
            for i, v in enumerate(special):
                pos = len(times) if at is None else at + i
                times.insert(pos, v)
                states.insert(pos, tuple(special[(i + k) % 4] for k in range(2 * m)))
                energies.insert(pos, special[(i + 1) % 4])
            traj = from_lists(times, states, energies, traj.pairs)
            assert csv_text(traj).splitlines()[0] == ",".join(["t", *(f"Q{k}" for k in range(1, m + 1)), *(f"P{k}" for k in range(1, m + 1)), "H"])
            assert csv_text(traj).encode() == per_field_csv(traj).encode()
            sink = ListSink()
            traj.write_csv(sink)
            assert len(sink.parts) == 1 + math.ceil(len(traj.times) / CSV_BLOCK_ROWS)
            assert "".join(sink.parts) == csv_text(traj)
        assert len(traj.times) > 2 * CSV_BLOCK_ROWS
        # energy columns for the per-block memo, straddling the first block
        # boundary: repeated values, 0.0 beside -0.0, nan (one object twice,
        # and a second nan object) and both infinities
        nan = float("nan")
        repeated = energies[CSV_BLOCK_ROWS - 20]
        block0 = (0.0, repeated, -0.0, nan, math.inf, -0.0, repeated, 0.0)
        block1 = (nan, repeated, -math.inf, nan, float("nan"), math.inf, repeated, 0.1, 0.1)
        for i, e in enumerate(block0 + block1):
            energies[CSV_BLOCK_ROWS - len(block0) + i] = e
        # the last block repeats -0.0 alone
        energies[-3:] = [-0.0, repeated, -0.0]
        traj = from_lists(times, states, energies, traj.pairs)
        assert csv_text(traj).encode() == per_field_csv(traj).encode()
        rows_out = csv_text(traj).splitlines()[CSV_BLOCK_ROWS - len(block0) + 1 : CSV_BLOCK_ROWS + len(block1) + 1]
        assert [row.rsplit(",", 1)[1] for row in rows_out] == list(map(repr, block0 + block1))
        assert [row.rsplit(",", 1)[1] for row in csv_text(traj).splitlines()[-3:]] == ["-0.0", repr(repeated), "-0.0"]
        # an array column hands out a new float on every read, so its nans
        # are never one object: a block of nans and a repeated value, no zero
        short = from_lists(times[:6], states[:6], [nan, 1.5, nan, 1.5, nan, -2.5], traj.pairs)
        assert short.energies[0] is not short.energies[0]
        assert csv_text(short).encode() == per_field_csv(short).encode()
        assert [row.rsplit(",", 1)[1] for row in csv_text(short).splitlines()[1:]] == ["nan", "1.5", "nan", "1.5", "nan", "-2.5"]


def test_write_csv_memory_is_bounded():
    # l2's reduced field over [0, 100]: 100k steps, a 6.5 MB text when built whole
    t, field = oscillator()
    traj = integrate(field, (1.0, 0.0), 0.0, 100.0, 1e-3)

    class CountingSink:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = CountingSink()
    tracemalloc.start()
    try:
        traj.write_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 100_001
    assert sink.size == len(csv_text(traj)) > 6_000_000
    assert peak < 2_000_000, peak


def test_integrate_memory_is_bounded():
    # 100,001 rows of t, Q, P and H at 8 bytes a value: 3.2 MB of columns,
    # where a float object per value and a tuple per state took 17.6 MB
    t, field = oscillator()
    tracemalloc.start()
    try:
        traj = integrate(field, (1.0, 0.0), 0.0, 100.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == len(rows(traj)) == 100_001
    assert peak < 5_000_000, peak


def test_rk4_propagator_carries_affine_shift():
    t, field = oscillator("(1/2)*Q^2 + (1/2)*P^2 + 2*eps*P", params={"eps": 0.25}, extra=("eps",))
    prop = rk4_propagator(field, 0.0, 1.3, 1e-3)
    want = integrate(field, (0.4, -0.3), 0.0, 1.3, 1e-3).state(-1)
    got = [sum(a * b for a, b in zip(row, (0.4, -0.3, 1.0))) for row in prop[:2]]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * max(abs(v) for v in want)


def test_variational_jacobian_matches_central_differences():
    t = SymbolTable()
    pairs = [(t.position("Q1"), t.register("P1", "momentum")), (t.position("Q2"), t.register("P2", "momentum"))]
    h = parse_expr("(1/2)*P1^2 + (1/4)*P2^2 + Q1^2 + (1/2)*Q2^2 + (1/4)*Q1^4 + (1/3)*Q1*Q2^3 - P1*Q2", t)
    field = compile_field(h, pairs)
    assert field.linear is None
    rng = rng_for("variational-oracle")
    eps = 1e-5
    for _ in range(3):
        y0 = [rng.uniform(-0.6, 0.6) for _ in range(4)]
        yend, phi = rk4_variational(field, y0, 0.0, 1.2, 1e-3)
        assert list(yend) == list(integrate(field, y0, 0.0, 1.2, 1e-3).state(-1))
        for k in range(2):
            plus, minus = list(y0), list(y0)
            plus[2 * k + 1] += eps
            minus[2 * k + 1] -= eps
            hi = integrate(field, plus, 0.0, 1.2, 1e-3).state(-1)
            lo = integrate(field, minus, 0.0, 1.2, 1e-3).state(-1)
            for i in range(4):
                fd = (hi[i] - lo[i]) / (2 * eps)
                assert abs(phi[i][k] - fd) <= 1e-6 * max(1.0, abs(fd)), (i, k, phi[i][k], fd)


def test_quadratic_shooting_integrates_once(monkeypatch):
    calls = []
    real = numerics.integrate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", counting)
    pairs, field = random_quadratic(rng_for("count-integrations"), 2)
    sol = solve_iota(field, {"Q1": (0.3, -0.2), "Q2": (0.1, 0.4)}, 0.0, 0.7, step=1e-3)
    assert len(calls) == 1
    assert sol.trajectory.state(-1)[0] == pytest.approx(-0.2, abs=1e-10)
    assert sol.trajectory.state(-1)[2] == pytest.approx(0.4, abs=1e-10)


def test_only_a_non_quadratic_field_compiles_its_variational_system():
    # shooting with a quadratic H steps the propagator and never calls the
    # variational system, whose generated source grows as n^3
    for m in (1, 2, 3):
        _pairs, field = random_quadratic(rng_for(f"no-variational:{m}"), m)
        assert field.linear is not None and field.variational is None
    _pairs, _h, field = random_anharmonic(rng_for("variational-kept"), 2)
    assert field.linear is None and callable(field.variational)


def hessian_linear(h, pairs):
    """(linear, oscillator_like) as `compile_field` first derived them, from
    the Expr Hessian of the field in the state layout (Q1, P1, Q2, ...): None
    and False unless H is a polynomial of degree <= 2, else A and c read off
    as Fractions and rounded by float()."""
    if not (h.is_polynomial() and all(sum(e for _i, e in mono) <= 2 for mono in h.num)):
        return None, False
    slots = [s for q, p in pairs for s in (q, p)]
    comps = [c for q, p in pairs for c in (h.diff(p), -h.diff(q))]
    zero = {s: Expr.const(h.table, 0) for s in slots}
    a = [[c.diff(s).constant_value() for s in slots] for c in comps]
    c = [comp.substitute(zero).constant_value() for comp in comps]
    osc = len(pairs) == 1 and a[0][0] * a[1][1] - a[0][1] * a[1][0] == 1 and not any(c)
    return (tuple(tuple(map(float, row)) for row in a), tuple(map(float, c))), osc


def simulated_hamiltonians():
    """(label, reduced H, pairs) of every bundled system `simulate` can run
    and of seeded gauge and coupled families of k <= 3 L3 blocks."""
    tests = Path(__file__).resolve().parent
    fixtures = tests.parent / "src" / "hamdirac" / "fixtures"
    files = [(p, None) for p in sorted(fixtures.glob("*.sys"))] + [(fixtures / "l4.sys", "pons")]
    files += [(p, None) for p in sorted((tests / "golden").glob("*.sys"))]
    sysfiles = [(f"{p.stem}:{path}", load_system_file(p), path) for p, path in files]
    for kind in ("gauge", "coupled"):
        for k in (1, 2, 3):
            lag, names = l3_family_source(kind, k, rng_for(f"compile-field:{kind}:{k}"))
            text = f"system {kind}{k}\ncoordinates {' '.join(names)}\norder 1\nL = {lag}\n"
            sysfiles.append((f"{kind}{k}", parse_system_file(text), None))
    for label, sysfile, path in sysfiles:
        an = run_pipeline(sysfile, PipelineOptions(path=path), stage="simulate")
        if qp_rows := an.chart.pairs("Q"):
            yield label, reduced_hamiltonian(an), [(q.symbol, p.symbol) for q, p in qp_rows]


def test_compile_field_affine_form_matches_the_hessian_reference():
    # the affine form comes from `dirac.quadratic_field`'s integer rows; every
    # float and the oscillator decision must be the Hessian reference's, bit
    # for bit, on every system the CLI can simulate
    def bits(linear):
        return linear and ([[x.hex() for x in row] for row in linear[0]], [x.hex() for x in linear[1]])

    cases = list(simulated_hamiltonians())
    rng = rng_for("compile-field:shifted")
    for m in (1, 2, 3):  # with linear terms, so c is not zero
        t = SymbolTable()
        pairs = [(t.position(f"Q{k}"), t.register(f"P{k}", "momentum")) for k in range(1, m + 1)]
        slots = [s.name for pair in pairs for s in pair]
        terms = [f"({rng.randint(-4, 4)}/{rng.randint(1, 4)})*{a}*{b}" for i, a in enumerate(slots) for b in slots[i:]]
        terms += [f"({rng.randint(-4, 4)}/{rng.randint(1, 7)})*{a}" for a in slots]
        cases.append((f"shifted{m}", parse_expr(" + ".join(terms), t), pairs))
    labels = []
    for label, h, pairs in cases:
        field = compile_field(h, pairs)
        linear, osc = hessian_linear(h, pairs)
        assert bits(field.linear) == bits(linear), label
        assert field.oscillator_like == osc, label
        assert (field.variational is None) == (linear is not None), label
        labels.append((label, linear is not None, osc))
    assert len(labels) == 21  # of the bundled systems, cawley alone has no physical pair
    assert ("l3quartic:None", False, False) in labels and ("l2:None", True, True) in labels


def random_anharmonic(rng, m):
    # quadratic part plus sparse cubic and quartic terms: never affine
    t = SymbolTable()
    pairs = [(t.position(f"Q{k}"), t.register(f"P{k}", "momentum")) for k in range(1, m + 1)]
    slots = [s.name for pair in pairs for s in pair]
    terms = [f"(1/2)*{p.name}^2 + (1/2)*{q.name}^2" for q, p in pairs]
    for _ in range(2 * m):
        a, b, c = (rng.choice(slots) for _ in range(3))
        terms.append(f"({rng.randint(-3, 3) or 1}/{rng.randint(2, 6)})*{a}*{b}*{c}")
    terms.append(f"(1/4)*{rng.choice(slots)}^4")
    h = parse_expr(" + ".join(terms), t)
    return pairs, h, compile_field(h, pairs)


def dense_variational(field, h):
    """rk4_variational's augmented field as it was: the whole Jacobian built at
    each stage from the exact Hessian of `h`, the H `field` was compiled from,
    then Df(y) times each column."""
    pairs = field.pairs
    slots = [s for pair in pairs for s in pair]
    names = {s.index: f"y[{i}]" for i, s in enumerate(slots)}
    comps = [c for q, p in pairs for c in (h.diff(p), -h.diff(q))]
    rows = ", ".join("(" + ", ".join(numerics._expr_to_py(c.diff(s), names) for s in slots) + ",)" for c in comps)
    jac = eval(f"lambda y: ({rows},)")
    n, m = len(slots), len(pairs)

    def dot(row, col):
        # sum(a * b for ...) on floats before Python 3.12: from 0, left to right
        return functools.reduce(lambda acc, ab: acc + ab[0] * ab[1], zip(row, col), 0)

    def aug(t, z):
        y = z[:n]
        d = jac(y)
        out = list(field.rhs(t, y))
        for k in range(n, n + n * m, n):
            col = z[k : k + n]
            out += [dot(row, col) for row in d]
        return out

    return aug, jac


def dense_rk4_variational(field, h, init, t1, t2, step):
    aug, _jac = dense_variational(field, h)
    n, m = field.dim, len(field.pairs)
    z0 = list(init) + [float(i == 2 * k + 1) for k in range(m) for i in range(n)]
    z = integrate(numerics._Variational(field.pairs, aug, lambda z: 0.0, n + n * m), z0, t1, t2, step).state(-1)
    return z[:n], [[z[n + k * n + i] for k in range(m)] for i in range(n)]


def test_compiled_variational_field_equals_dense_product():
    rng = rng_for("variational-compiled")
    fields = []
    for m in (1, 2, 3):
        for _ in range(3):
            fields.append(random_anharmonic(rng, m))
    t = SymbolTable()
    pairs = [(t.position("Q1"), t.register("P1", "momentum")), (t.position("Q2"), t.register("P2", "momentum"))]
    # separable: d(dQ/dt)/dQ and d(dP/dt)/dP vanish, and the blocks do not couple in P
    h = parse_expr("(1/2)*P1^2 + (1/3)*P2^2 + (1/4)*Q1^4 + Q1*Q2^3", t)
    separable = compile_field(h, pairs)
    _aug, jac = dense_variational(separable, h)
    assert sum(v == 0.0 for row in jac((0.3, -0.2, 0.7, 0.1)) for v in row) >= 8
    fields.append((pairs, h, separable))
    t = SymbolTable()
    pairs = [(t.position("Q"), t.register("P", "momentum"))]
    h = parse_expr("P^2/(2*(1 + Q^2)) + (1/2)*Q^2", t)
    rational = compile_field(h, pairs)
    assert not h.is_polynomial()
    fields.append((pairs, h, rational))
    for pairs, h, field in fields:
        assert field.linear is None
        m = len(pairs)
        y0 = [rng.uniform(-0.5, 0.5) for _ in range(2 * m)]
        t1 = rng.uniform(-0.5, 0.5)
        z = [rng.uniform(-1, 1) for _ in range(2 * m + 2 * m * m)]
        aug, _jac = dense_variational(field, h)
        assert tuple(field.variational(t1, tuple(z))) == tuple(aug(t1, tuple(z)))
        # a zero entry times inf is nan: no product may be dropped
        z[-1] = math.inf
        assert list(map(repr, field.variational(t1, tuple(z)))) == list(map(repr, aug(t1, tuple(z))))
        got = rk4_variational(field, y0, t1, t1 + 0.4, 0.01)
        want = dense_rk4_variational(field, h, y0, t1, t1 + 0.4, 0.01)
        assert list(got[0]) == list(want[0]) and got[1] == want[1], (m, h)
        assert all(map(math.isfinite, got[0]))


def test_non_quadratic_shooting_steps_only_compiled_closures(monkeypatch):
    t = SymbolTable()
    q = t.position("Q")
    p = t.register("P", "momentum")
    field = compile_field(parse_expr("(1/4)*P^2 + Q^2 + (1/4)*Q^4", t), [(q, p)])
    assert field.linear is None and not hasattr(field, "jac")
    calls = {"rhs": 0, "variational": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    field = field._replace(rhs=counting("rhs", field.rhs), variational=counting("variational", field.variational))
    fields = []
    real = numerics.integrate

    def recording(f, *args):
        fields.append(f)
        return real(f, *args)

    monkeypatch.setattr(numerics, "integrate", recording)
    sol = solve_iota(field, {"Q": (0.5, 0.25)}, 0.0, 1.5, step=1e-3)
    assert abs(sol.trajectory.state(-1)[0] - 0.25) <= 1e-10
    # Newton integrates the augmented system by the variational closure alone;
    # one plain integration at the solved momenta supplies the trajectory
    assert len(fields) >= 3 and fields[-1] is field
    assert all(f.rhs is field.variational for f in fields[:-1])
    assert calls == {"rhs": 4 * 1500, "variational": 4 * 1500 * (len(fields) - 1)}


def closure_stage_step(rhs, h):
    # the step closures integrate used before its loop was generated
    half = h / 2.0
    sixth = h / 6.0

    def advance(t, y):
        k1 = rhs(t, y)
        y2 = tuple(a + half * b for a, b in zip(y, k1))
        k2 = rhs(t + half, y2)
        y3 = tuple(a + half * b for a, b in zip(y, k2))
        k3 = rhs(t + half, y3)
        y4 = tuple(a + h * b for a, b in zip(y, k3))
        k4 = rhs(t + h, y4)
        return tuple(a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))

    return advance


def closure_affine_step(r):
    n = len(r) - 1
    rows = ", ".join(" + ".join(f"{r[i][j]!r}*y[{j}]" for j in range(n)) + f" + {r[i][n]!r}" for i in range(n))
    return eval(f"lambda t, y: ({rows})", {"inf": math.inf, "nan": math.nan})


def closure_integrate(field, init, t1, t2, step):
    """integrate as it was: one closure call per step, then the check and the appends."""
    nsteps, h = numerics._grid(t1, t2, step)
    y = tuple(float(v) for v in init)
    advance = closure_stage_step(field.rhs, h) if field.linear is None else closure_affine_step(numerics._step_matrix(field, h))
    times, states, energies = [t1], [y], [field.energy(y)]
    t = t1
    for i in range(nsteps):
        y = advance(t, y)
        t = t1 + (i + 1) * h
        if not all(map(math.isfinite, y)):
            raise NumericsError(f"non-finite state at t = {t}")
        times.append(t)
        states.append(y)
        energies.append(field.energy(y))
    return times, states, energies


def test_generated_loop_equals_closure_steps():
    rng = rng_for("generated-loop")
    runs = []
    for m in (1, 2, 3):
        for _ in range(2):
            pairs, _h, field = random_anharmonic(rng, m)
            n = field.dim
            y0 = [rng.uniform(-0.5, 0.5) for _ in range(n)]
            t1 = rng.uniform(-1.0, 1.0)
            runs.append((field, y0, t1, t1 + rng.uniform(0.2, 0.6), rng.choice((1e-3, 7e-3))))
            # its variational system, as rk4_variational integrates it
            z0 = y0 + [float(i == 2 * k + 1) for k in range(m) for i in range(n)]
            aug = numerics._Variational(pairs, field.variational, lambda z: 0.0, n + n * m)
            runs.append((aug, z0, t1, t1 + 0.3, 0.01))
    for m in (1, 2, 3):
        for _ in range(2):
            pairs, field = random_quadratic(rng, m)
            assert field.linear is not None
            runs.append((field, [rng.uniform(-2, 2) for _ in range(2 * m)], 0.0, rng.uniform(0.5, 2.0), rng.choice((1e-3, 0.05))))
    for field, y0, t1, t2, step in runs:
        got = integrate(field, y0, t1, t2, step)
        times, states, energies = closure_integrate(field, y0, t1, t2, step)
        assert list(got.times) == times
        assert rows(got) == states, (field.dim, field.linear is None)
        assert list(got.energies) == energies
        assert all(map(math.isfinite, states[-1]))
    # Q grows as e^(t/1000) to overflow, through R and through the stages
    t = SymbolTable()
    pairs = [(t.position("Q"), t.register("P", "momentum"))]
    field = compile_field(parse_expr("(1/1000)*Q*P", t), pairs)
    for f in (field, stagewise(field)):
        messages = []
        for run in (integrate, closure_integrate):
            with pytest.raises(NumericsError) as info:
                run(f, (1.0, 1.0), 0.0, 1e6, 50.0)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "non-finite state at t = 709800.0"
