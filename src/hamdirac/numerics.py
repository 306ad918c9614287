"""Numeric side of the boundary-value story.

The reduced Hamilton equations are compiled to plain float closures, a
fixed-step RK4 integrator produces deterministic trajectories, and a shooting
Newton iteration realizes the endpoint-to-constants map: given positions at
both ends it reconstructs the missing initial momenta.  Each Newton step takes
the end state and its exact Jacobian with respect to the initial momenta from
one source: for a quadratic H the N-step RK4 propagator (one matrix, built by
repeated squaring, so shooting is a single linear solve), otherwise the
variational equations integrated alongside the state, by one compiled
function that evaluates each Jacobian entry once per stage; only a
non-quadratic H has that function compiled.  Whether H is quadratic, and
its affine field if so, is `dirac.quadratic_field`'s answer.  `integrate`
runs the whole step loop as one generated function over unpacked state
components: for a quadratic H it steps by the same one-step matrix R that the
propagator squares, one matrix-vector product per step; other fields run the
four RK4 stages.  A `Trajectory` holds flat `array('d')` columns: the
times, the energies and one column per state component, which the loop
appends to one float at a time; `Trajectory.state(i)` reads row i back as a
tuple.  `Trajectory.write_csv` streams a trajectory to a file in fixed
blocks of rows sliced from the columns, formatting each distinct energy of a
block once.  For the unit oscillator the classical A/B constants of
Q(t) = A e^{it} + B e^{-it} are reported as well.
"""

from __future__ import annotations

import cmath
import math
from array import array

from .dirac import hamilton_field, quadratic_field
from .expr import Expr, _plead
from .lagrangian import PhaseSpace
from .symbols import _Record

# Shooting is refused when the condition number of dQ(t2)/dP(t1), taken
# relative to the whole Jacobian dy(t2)/dP(t1), exceeds 1/sqrt(machine
# epsilon) = 2**26 (about 6.7e7): past it fewer than half of a double's
# significant digits of P(t1) survive the rounding of the end state.
MAX_CONDITION = 2.0**26

# Newton on the initial momenta stops once max|Q(t2) - Q2| is at most
# SHOOTING_TOL times the state's scale, and gives up after SHOOTING_MAX_ITER
# steps.
SHOOTING_TOL = 1e-10
SHOOTING_MAX_ITER = 60

# Trajectory.write_csv formats and writes this many rows at a time, so the
# text in memory stays a few hundred kB however long the trajectory is.
CSV_BLOCK_ROWS = 4096


class NumericsError(Exception):
    pass


class SingularShooting(NumericsError):
    """Resonant interval: the endpoint data cannot determine the momenta."""


class ShootingNotConverged(NumericsError):
    """Newton ran out of iterations before the residual met its tolerance."""


class ReducedField(_Record):
    __slots__ = ("pairs", "rhs", "energy", "oscillator_like", "variational", "linear")

    def __init__(self, pairs: list, rhs: object, energy: object, oscillator_like: bool, variational: object = None,
                 linear: tuple | None = None):
        # pairs: [(Q Symbol, P Symbol), ...]; rhs(t, y) -> tuple(dy); energy:
        # H(y) -> float; oscillator_like: 1 dof, unit frequency, no linear
        # terms; linear: (A, c) with rhs = A y + c when H is quadratic, else
        # variational(t, z) -> dz for z = (y, dy/dP_1, ..., dy/dP_m)
        self._fields(pairs, rhs, energy, oscillator_like, variational, linear)

    @property
    def dim(self):
        return 2 * len(self.pairs)


def compile_field(h: Expr, pairs) -> ReducedField:
    """Compile (dQ, dP) = (dH/dP, -dH/dQ) into float closures, with the
    variational system for a non-quadratic H (a quadratic one keeps None).

    The field is `dirac.hamilton_field` over `PhaseSpace(table, pairs)`,
    reordered into the state layout (Q1, P1, Q2, P2, ...).  Whether H is
    quadratic is decided exactly by `dirac.quadratic_field`, the consistency
    iteration's own test; for a quadratic H, `linear`'s A and c are its
    integer rows over their denominator, each float the correctly rounded
    value of the rational, and `oscillator_like` is decided on the rationals.
    H may hold no symbol outside `pairs`: anything else loose (an unfixed
    gauge coordinate, a multiplier, an unsubstituted parameter) is an error.
    """
    allowed = {s for q, p in pairs for s in (q, p)}
    stray = [s for s in h.free_symbols() if s not in allowed]
    if stray:
        raise NumericsError(f"stray symbols in reduced Hamiltonian: {[s.name for s in stray]}")

    names = {}
    for k, (q, p) in enumerate(pairs):
        names[q.index] = f"y[{2 * k}]"
        names[p.index] = f"y[{2 * k + 1}]"

    phase, m = PhaseSpace(h.table, tuple(pairs)), len(pairs)
    state = [k for j in range(m) for k in (j, m + j)]  # the z column of each state component
    field = hamilton_field(h, phase)
    comps = [field[k] for k in state]
    body = ", ".join(_expr_to_py(c, names) for c in comps)
    rhs = eval(f"lambda t, y: ({body}{',' if len(comps) == 1 else ''})")  # noqa: S307 - generated from exact expressions
    energy = eval(f"lambda y: ({_expr_to_py(h, names)})")  # noqa: S307

    # a quadratic H makes the field affine, y' = A y + c, and shooting steps
    # its propagator; only another H needs the variational system
    linear, osc, variational = None, False, None
    qfield = quadratic_field(h, phase)
    if qfield is None:
        slots = [s for q, p in pairs for s in (q, p)]
        variational = _variational_field(comps, [[c.diff(s) for s in slots] for c in comps], names)
    else:
        rows, den = [dict(qfield[0][k]) for k in state], qfield[1]
        a = [[row.get(j, 0) for j in state] for row in rows]
        c = [row.get(2 * m, 0) for row in rows]
        linear = (tuple(tuple(x / den for x in row) for row in a), tuple(x / den for x in c))
        # one pair with det A = H_QQ H_PP - H_QP^2 = 1 and no linear terms
        osc = m == 1 and a[0][0] * a[1][1] - a[0][1] * a[1][0] == den * den and not any(c)
    return ReducedField(tuple(pairs), rhs, energy, osc, variational, linear)


def _variational_field(comps, grads, names):
    """The field followed by Phi' = Df(y) Phi, Phi's m columns dy/dP_k stacked after y.

    One generated function: each entry of Df, from the exact Hessian of H, is
    evaluated once per call and multiplied into every column. Each product
    sum starts from 0 and adds left to right, zero entries included, as
    `sum(a * b ...)` over a row and a column does on CPython up to 3.11
    (3.12 compensates float sums), so every float equals that dense
    product's.
    """
    n = len(comps)
    lines = [f"    d{i}_{j} = {_expr_to_py(g, names)}\n" for i, row in enumerate(grads) for j, g in enumerate(row)]
    out = [_expr_to_py(c, names) for c in comps]
    for base in range(n, n + n * (n // 2), n):
        out += ["0" + "".join(f" + d{i}_{j}*y[{base + j}]" for j in range(n)) for i in range(n)]
    src = "def variational(t, y):\n" + "".join(lines) + "    return (" + "".join(f"{e}, " for e in out) + ")\n"
    scope = {}
    exec(src, scope)  # noqa: S102 - generated from exact expressions
    return scope["variational"]


def _expr_to_py(e: Expr, names: dict) -> str:
    lead = e.den[_plead(e.den)]

    def poly(p):
        if not p:
            return "0.0"
        parts = []
        for mono, c in sorted(p.items()):
            factors = [repr(c / lead)]  # correctly rounded, as the float of the reduced Fraction
            for idx, exp in mono:
                var = names.get(idx)
                if var is None:
                    raise NumericsError(f"no runtime slot for symbol index {idx}")
                factors.append(var if exp == 1 else f"{var}**{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    if e.is_polynomial():
        return f"({poly(e.num)})"
    return f"(({poly(e.num)}) / ({poly(e.den)}))"


class Trajectory(_Record):
    __slots__ = ("times", "columns", "energies", "pairs")

    def __init__(self, times: array, columns: list, energies: array, pairs: list):
        # times: array('d') of grid times; columns: one array('d') per state
        # component, layout (Q1, P1, Q2, P2, ...); energies: array('d'), H at each row
        self._fields(times, columns, energies, pairs)

    def state(self, i) -> tuple:
        """The state at row i (negative i counts from the end), layout (Q1, P1, Q2, P2, ...)."""
        return tuple(c[i] for c in self.columns)

    def write_csv(self, fh) -> None:
        """Write the header, then the rows in blocks of CSV_BLOCK_ROWS, one `write` per block.

        Columns are t, the positions, the momenta and H, each value its repr.
        H is a first integral, so a block repeats few distinct energies: each
        is formatted once per block.
        """
        fh.write(",".join(["t", *(q.name for q, _p in self.pairs), *(p.name for _q, p in self.pairs), "H"]) + "\n")
        order = (self.times, *self.columns[0::2], *self.columns[1::2])
        for start in range(0, len(self.times), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            cols = [map(repr, c[block]) for c in order]
            cols.append(_repr_column(self.energies[block].tolist()))
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _repr_column(values: list):
    """map(repr, values), taking the repr of each distinct value once.

    0.0 and -0.0 are one key but print differently, so a column holding
    either is formatted value by value.  A nan is its own key (nan != nan;
    dict lookup matches it by identity), so it maps to its own repr; that
    needs the very objects of `values`, hence a list, not an array, whose
    every read makes a new float.
    """
    memo = dict.fromkeys(values)
    if 0.0 in memo:
        return map(repr, values)
    return map(dict(zip(memo, map(repr, memo))).__getitem__, values)


def _grid(t1: float, t2: float, step: float):
    """Step count and step length of the fixed RK4 grid (step adjusted to land on t2)."""
    if not step > 0:
        raise NumericsError("step must be positive")
    if t2 <= t1:
        raise NumericsError("t2 must exceed t1")
    nsteps = max(1, math.ceil((t2 - t1) / step - 1e-12))
    return nsteps, (t2 - t1) / nsteps


def integrate(field: ReducedField, init, t1: float, t2: float, step: float) -> Trajectory:
    """Classical fixed-step RK4 from t1 to t2 (step adjusted to land on t2).

    The whole step loop is one generated function over unpacked locals.  An
    affine field (quadratic H) advances by the one-step matrix R that
    `rk4_propagator` raises to the N-th power: the same map as the four
    stages, one matrix-vector product per step.  Any other field runs the
    four stages of `field.rhs`.  A state that is not finite, or a power that
    overflows or a denominator that vanishes on the way to it, raises
    NumericsError naming the grid time of the step.
    """
    nsteps, h = _grid(t1, t2, step)
    y = tuple(float(v) for v in init)
    if len(y) != field.dim:
        raise NumericsError(f"state dimension {len(y)} != {field.dim}")
    loop = _stage_loop(field.dim) if field.linear is None else _affine_loop(_step_matrix(field, h))
    times, columns, energies = array("d", [t1]), [array("d", [v]) for v in y], array("d")
    try:
        energies.append(field.energy(y))
        loop(field.rhs, field.energy, y, t1, h, nsteps, times.append, [c.append for c in columns], energies.append)
    except (OverflowError, ZeroDivisionError):
        # a `**` in a generated field overflowed, or a denominator vanished, while computing state k
        k = len(energies)
        raise NumericsError(f"non-finite state at t = {t1 + k * h if k else t1}") from None
    return Trajectory(times, columns, energies, field.pairs)


def _step_loop(n, update, stages="", setup=""):
    """One generated function running the whole step loop over the components y0, y1, ...

    Each step runs `stages`, assigns the components the `update` tuple, takes
    its grid time t1 + (i+1)*h, checks every component is finite and appends
    the time, each component to its own column and the state's energy.
    """
    ys = "".join(f"y{j}, " for j in range(n))
    adds = "".join(f"add_y{j}, " for j in range(n))
    finite = " and ".join(f"isfinite(y{j})" for j in range(n)) or "True"
    src = (
        "def loop(rhs, energy, y, t1, h, nsteps, add_t, add_ys, add_e):\n"
        f"    ({ys}) = y\n    ({adds}) = add_ys\n    t = t1\n{setup}"
        f"    for i in range(nsteps):\n{stages}"
        f"        ({ys}) = ({update})\n"
        "        t = t1 + (i + 1) * h\n"
        f"        if not ({finite}):\n"
        '            raise NumericsError(f"non-finite state at t = {t}")\n'
        f"        y = ({ys})\n"
        "        add_t(t)\n"
        + "".join(f"        add_y{j}(y{j})\n" for j in range(n))
        + "        add_e(energy(y))\n"
    )
    scope = {"isfinite": math.isfinite, "NumericsError": NumericsError, "inf": math.inf, "nan": math.nan}
    exec(src, scope)  # noqa: S102 - generated from the dimension and float constants
    return scope["loop"]


def _stage_loop(n):
    """RK4 through the four stages of rhs for an n-component state.

    Each stage state and the update are written out per component, in the
    float order a + half*k, t + half, a + sixth*(k1 + 2*k2 + 2*k3 + k4).
    """

    def stage(s, t, coef=None):
        ks = "".join(f"k{s}_{j}, " for j in range(n))
        arg = "y" if coef is None else "(" + "".join(f"y{j} + {coef}*k{s - 1}_{j}, " for j in range(n)) + ")"
        return f"        ({ks}) = rhs({t}, {arg})\n"

    stages = stage(1, "t") + stage(2, "t + half", "half") + stage(3, "t + half", "half") + stage(4, "t + h", "h")
    update = "".join(f"y{j} + sixth*(k1_{j} + 2*k2_{j} + 2*k3_{j} + k4_{j}), " for j in range(n))
    return _step_loop(n, update, stages, "    half = h / 2.0\n    sixth = h / 6.0\n")


def _affine_loop(r):
    """The step y -> R [y; 1], row by row.

    Every term is kept, zero coefficients included, so a non-finite component
    reaches every row as it does through the dense product.
    """
    n = len(r) - 1
    return _step_loop(n, "".join(" + ".join(f"{r[i][j]!r}*y{j}" for j in range(n)) + f" + {r[i][n]!r}, " for i in range(n)))


def _step_matrix(field: ReducedField, h: float) -> list:
    """One RK4 step of y' = A y + c as the (2m+1)-square matrix R acting on [y; 1].

    With G = h [[A, c], [0, 0]], R = I + G + G^2/2 + G^3/6 + G^4/24, built by
    Horner: I + G (I + G/2 (I + G/3 (I + G/4))).
    """
    a, c = field.linear
    g = [[h * v for v in row] + [h * ci] for row, ci in zip(a, c)] + [[0.0] * (len(c) + 1)]
    eye = [[float(i == j) for j in range(len(g))] for i in range(len(g))]
    r = eye
    for k in (4, 3, 2, 1):
        r = [[e + v / k for e, v in zip(er, gr)] for er, gr in zip(eye, _matmul(g, r))]
    return r


def rk4_propagator(field: ReducedField, t1: float, t2: float, step: float) -> list:
    """The N-step RK4 map of a quadratic H as one (2m+1)-square matrix.

    One RK4 step of y' = A y + c is exactly [y; 1] -> R [y; 1] with R from
    `_step_matrix`; the grid is the one `integrate` uses, and R^N comes from
    O(log N) products by repeated squaring.
    """
    if field.linear is None:
        raise NumericsError("the RK4 propagator needs a quadratic Hamiltonian")
    nsteps, h = _grid(t1, t2, step)
    r = _step_matrix(field, h)
    out = None
    while nsteps:
        if nsteps & 1:
            out = r if out is None else _matmul(out, r)
        nsteps >>= 1
        if nsteps:
            r = _matmul(r, r)
    return out


class _Variational(_Record):
    """State followed by the columns dy/dP_k(t1), laid out for `integrate`."""

    __slots__ = ("pairs", "rhs", "energy", "dim", "linear")

    def __init__(self, pairs: list, rhs: object, energy: object, dim: int, linear: None = None):
        self._fields(pairs, rhs, energy, dim, linear)  # linear: never affine, integrate runs the stages


def rk4_variational(field: ReducedField, init, t1: float, t2: float, step: float):
    """End state y(t2) and Phi = dy(t2)/dP(t1) (rows: state, columns: momenta).

    The variational equations Phi' = Df(y) Phi ride along the state through
    one `integrate` call of `field.variational`, so Phi is the exact
    derivative of the discrete RK4 map, not a finite-difference estimate.
    """
    n, m = field.dim, len(field.pairs)
    z0 = list(init) + [float(i == 2 * k + 1) for k in range(m) for i in range(n)]
    z = integrate(_Variational(field.pairs, field.variational, lambda z: 0.0, n + n * m), z0, t1, t2, step).state(-1)
    return z[:n], [[z[n + k * n + i] for k in range(m)] for i in range(n)]


class IotaSolution(_Record):
    __slots__ = ("initial_state", "constants", "trajectory", "residual", "condition")

    def __init__(self, initial_state: tuple, constants: dict, trajectory: Trajectory, residual: float,
                 condition: float):
        # initial_state: full (Q1, P1, ...) at t1; constants: name -> float,
        # the integral-constant parametrization, Q(t1) and P(t1) of each pair
        # (then A and B for the unit oscillator); condition: of dQ(t2)/dP(t1)
        # relative to dy(t2)/dP(t1), at the solution
        self._fields(initial_state, constants, trajectory, residual, condition)


def solve_iota(field: ReducedField, boundary: dict, t1: float, t2: float, step: float = 1e-3) -> IotaSolution:
    """Shooting solve of the two-point problem Q(t1), Q(t2) -> initial state.

    boundary maps each position symbol name to (value at t1, value at t2).
    Newton iterates on the unknown initial momenta with the exact Jacobian of
    the RK4 map: from the propagator for a quadratic H (one step solves it),
    from the variational equations otherwise.  A shooting block whose
    condition number exceeds MAX_CONDITION (a resonant interval) raises
    SingularShooting.  The residual max|Q(t2) - Q2| must fall to SHOOTING_TOL times the
    state's scale (the largest of |Q1|, |Q2|, |P(t1)|, |y(t2)|), checked
    once more on the single RK4 integration at the solved momenta that
    supplies the trajectory; otherwise ShootingNotConverged.
    """
    m = len(field.pairs)
    if m == 0:
        raise NumericsError("the reduced system has no physical pairs; nothing to solve")
    names = [q.name for q, _p in field.pairs]
    missing = [nm for nm in names if nm not in boundary]
    if missing:
        raise NumericsError(f"boundary values required for positions: {missing}")
    q1 = [float(boundary[nm][0]) for nm in names]
    q2 = [float(boundary[nm][1]) for nm in names]

    def start(pvec):
        return [v for qa, pa in zip(q1, pvec) for v in (qa, pa)]

    if field.linear is not None:
        prop = rk4_propagator(field, t1, t2, step)[: 2 * m]
        phi = [[row[2 * k + 1] for k in range(m)] for row in prop]

        def shoot(pvec):
            y0 = start(pvec) + [1.0]
            return [sum(a * b for a, b in zip(row, y0)) for row in prop], phi

    else:

        def shoot(pvec):
            return rk4_variational(field, start(pvec), t1, t2, step)

    def residual(pvec, yend):
        res = [yend[2 * k] - q2[k] for k in range(m)]
        scale = max(abs(v) for v in (*q1, *q2, *pvec, *yend))
        return res, max(abs(r) for r in res), scale

    p = [0.0] * m
    it = 0
    while True:
        yend, phi = shoot(p)
        res, worst, scale = residual(p, yend)
        delta, cond = _newton_step(phi, res, t1, t2)
        if worst <= SHOOTING_TOL * scale:
            break
        if it >= SHOOTING_MAX_ITER:
            raise ShootingNotConverged(_not_converged(it, worst, scale))
        p = [a + d for a, d in zip(p, delta)]
        it += 1

    traj = integrate(field, start(p), t1, t2, step)
    res, worst, scale = residual(p, traj.state(-1))
    if worst > SHOOTING_TOL * scale:
        raise ShootingNotConverged(_not_converged(it, worst, scale))

    constants = {}
    for k, (qs, ps) in enumerate(field.pairs):
        constants[f"{qs.name}(t1)"] = q1[k]
        constants[f"{ps.name}(t1)"] = p[k]
    if field.oscillator_like and m == 1:
        qa, qb = q1[0], q2[0]
        s = cmath.sin(complex(t2 - t1))
        a_const = (qa * cmath.exp(1j * t2) - qb * cmath.exp(1j * t1)) / (2j * s)
        b_const = (qb * cmath.exp(-1j * t1) - qa * cmath.exp(-1j * t2)) / (2j * s)
        constants["A"] = _tidy_complex(a_const)
        constants["B"] = _tidy_complex(b_const)
    return IotaSolution(tuple(start(p)), constants, traj, worst, cond)


def _not_converged(iterations, worst, scale):
    # scale > 0 here: a zero scale forces a zero residual
    return f"shooting iteration did not converge after {iterations} iterations (relative residual {worst / scale:.3g})"


def _newton_step(phi, res, t1, t2):
    """Newton update B^-1 (-res) for the block B = dQ(t2)/dP(t1), and its condition.

    The condition is |Phi| |B^-1| in the max-row-sum norm, Phi = dy(t2)/dP(t1)
    the full Jacobian: it does not change when the boundary data and the state
    are scaled together.
    """
    m = len(res)
    inv = _inverse([phi[2 * i] for i in range(m)])
    cond = math.inf
    if inv is not None:
        cond = _norm(phi) * _norm(inv)
    if not cond <= MAX_CONDITION:
        raise SingularShooting(
            f"resonant interval [{t1}, {t2}]: dQ(t2)/dP(t1) has condition number {cond:.3g} "
            f"> {MAX_CONDITION:.3g}; endpoint data cannot determine the constants"
        )
    return [-sum(a * r for a, r in zip(row, res)) for row in inv], cond


def _tidy_complex(z):
    return z.real if abs(z.imag) < 1e-12 else (z.real, z.imag)


def _norm(a):
    return max(sum(abs(v) for v in row) for row in a)


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _inverse(a):
    """Gauss-Jordan inverse with partial pivoting; None on an exactly zero pivot."""
    n = len(a)
    m = [list(a[i]) + [float(i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(m[i][c]))
        if m[piv][c] == 0.0:
            return None
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]
