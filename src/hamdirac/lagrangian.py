"""Lagrangian-side reductions.

Covers the degenerate Legendre transform with primary constraint extraction,
the counter-term that strips accelerations from a Newton-compatible
second-order Lagrangian, and the two standard first-order rewritings of a
second-order system (auxiliary-coordinate pair per original coordinate, with
or without explicit multipliers).

When every momentum dL/dv_i is affine in (q, v) with constant coefficients
(a polynomial L whose monomials holding a velocity have degree <= 2), the
Legendre map is a constant kinetic matrix: `Expr.affine_row` reads each
momentum off as a qq integer row, and `qq.rref_rows` reduces the system.
Any other L (a kinetic matrix in q, a momentum not affine in q, a rational
momentum) is eliminated on Exprs by `linalg.solve_linear`, with the same
pivots; its non-constant ones are returned as
`FirstOrderSystem.genericity_pivots`.
"""

from __future__ import annotations

import re

from . import qq
from .expr import Expr, ExprError, _row_expr
from .linalg import solve_linear
from .symbols import Symbol, SymbolTable, _Record


class MechanicsError(Exception):
    pass


class UnsupportedShape(MechanicsError):
    """Input outside the supported class (super-quadratic velocities, ...)."""


class LagrangianSystem(_Record):
    __slots__ = ("table", "coords", "order", "L", "velocity_aliases")

    def __init__(self, table: SymbolTable, coords: tuple, order: int, L: Expr, velocity_aliases: dict = {}):
        # SSOK-style systems declare the velocity of a coordinate to *be* another
        # coordinate; such coordinates get an undetermined momentum and no primary.
        self._fields(table, coords, order, L, velocity_aliases)

    def velocity_symbols(self):
        return [self.table.velocity(c) for c in self.coords if c not in self.velocity_aliases]

    def genuine_coords(self):
        return [c for c in self.coords if c not in self.velocity_aliases]


class PhaseSpace(_Record):
    __slots__ = ("table", "pairs")

    def __init__(self, table: SymbolTable, pairs: tuple):
        self._fields(table, pairs)  # pairs: ((q, p), ...) in symplectic layout order

    @property
    def n(self):
        return len(self.pairs)

    @property
    def positions(self):
        return [q for q, _ in self.pairs]

    @property
    def momenta(self):
        return [p for _, p in self.pairs]

    def z_order(self):
        """Phase symbols in (q1..qn, p1..pn) covector order."""
        return self.positions + self.momenta


class FirstOrderSystem(_Record):
    __slots__ = ("phase", "H", "primaries", "genericity_pivots")

    def __init__(self, phase: PhaseSpace, H: Expr, primaries: tuple, genericity_pivots: tuple = ()):
        # primaries: Exprs, in coordinate row order; genericity_pivots: the
        # non-constant velocity pivots, in the order chosen
        self._fields(phase, H, primaries, genericity_pivots)


def _momentum_name(coord: Symbol) -> str:
    m = re.fullmatch(r"q(\d+)", coord.name)
    return f"p{m.group(1)}" if m else f"p_{coord.name}"


def legendre(sys: LagrangianSystem) -> FirstOrderSystem:
    """Degenerate Legendre transform.

    Momenta are p_i = dL/dv_i; solvable velocities are eliminated, and each
    unsolvable momentum row yields one primary constraint (the leftover
    equation of the momentum system).  H comes out velocity-free.  Velocities
    are solved highest-indexed first, each from the latest momentum row that
    holds it: the free section then lives on the earliest velocities (set to
    0) and the earliest redundant momentum rows carry the primaries; the
    result holds where no `genericity_pivots` entry vanishes.  A repeat call
    returns the momenta the first one registered.
    """
    if sys.order != 1:
        raise MechanicsError("legendre expects a first-order system; reduce first")
    table = sys.table
    vels = sys.velocity_symbols()
    high = {i for m in sys.L.num for i, e in m if e > 2}  # one pass over L, not one per velocity
    for v in vels:
        if v.index in high and sys.L.degree_in(v) > 2:
            raise UnsupportedShape(f"L is super-quadratic in {v}; momentum not affine in velocities")

    momenta = {c: table.register_fresh(_momentum_name(c), "momentum") for c in sys.coords}
    phase = PhaseSpace(table, tuple(momenta.items()))
    genuine = sys.genuine_coords()
    # momentum definitions for genuine velocities: p_i = b_i + sum_j A_ij v_j
    defs = dict(zip((momenta[c] for c in genuine), sys.L.gradient(vels)))
    primaries, subs, pivots = _row_solve(defs, vels, phase) or _expr_solve(genuine, defs, vels, phase)

    h = Expr.const(table, 0)
    for c in sys.coords:
        p = Expr.sym(table, momenta[c])
        if c in sys.velocity_aliases:
            h = h + p * sys.velocity_aliases[c]
        else:
            h = h + p * Expr.sym(table, table.velocity(c))
    h = (h - sys.L).substitute(subs)
    leftover = [s for s in h.free_symbols() if s.kind in ("velocity", "acceleration")]
    if leftover:
        raise MechanicsError(f"internal: H kept velocity symbols {leftover}")
    return FirstOrderSystem(phase, h, primaries, pivots)


def _row_solve(defs: dict, vels, phase: PhaseSpace):
    """(primaries, velocity solution, ()) of the momentum equations dL/dv_i - p_i
    = 0 as qq integer rows over (vels in reverse, z, 1); None unless
    `Expr.affine_row` accepts every momentum dL/dv_i over (vels in reverse,
    z), that is, each is affine in (q, v) with constant coefficients, as when
    L is a polynomial whose monomials holding a velocity have degree <= 2.
    Its row gets -p_i's column appended.  `qq.rref_rows` gets the rows last
    first, so its first unused row is `solve_linear`'s last eligible one.  A
    pivot row reads v + (free velocities) + rest = 0, and a leftover row is
    its primary times the primary's momentum coefficient."""
    nv, table, syms = len(vels), phase.table, phase.z_order()
    columns = [*reversed(vels), *syms]  # the offset at nv + 2n
    col = {s: k for k, s in enumerate(columns)}
    system = []
    for p, d in reversed(defs.items()):
        try:
            entries, den = d.affine_row(columns)
        except ExprError:
            return None
        system.append((tuple(sorted((*entries, (col[p], -den)))), den))
    pivots = qq.rref_rows(system, range(nv))
    used = set(pivots.values())

    def tail(r, k, den):  # k times row r's (z, 1) part, over den
        return _row_expr((tuple((j - nv, k * x) for j, x in system[r][0] if j >= nv), den), syms, table)

    solved = {vels[nv - 1 - c]: tail(r, -1, system[r][1]) for c, r in pivots.items()}
    leftover = [(r, qq.entry(system[r], col[p])) for r, p in zip(reversed(range(nv)), defs) if r not in used]
    primaries = [tail(r, 1 if x > 0 else -1, abs(x)) for r, x in leftover]
    return primaries, {v: solved.get(v, Expr.const(table, 0)) for v in reversed(vels)}, ()


def _expr_solve(genuine, defs: dict, vels, phase: PhaseSpace):
    """(primaries, velocity solution, genericity pivots) by `solve_linear`,
    its columns the velocities in reverse.  A value affine with constant
    coefficients is rebuilt from its row, so it has `_row_solve`'s order."""
    table, syms = phase.table, phase.z_order()
    a_rows, rhs = [], []
    for c, (p, p_def) in zip(genuine, defs.items()):
        try:
            b, coeffs = p_def.split_affine(vels)
        except ExprError as exc:
            raise UnsupportedShape(f"momentum of {c} not affine in velocities: {exc}") from exc
        a_rows.append([coeffs.get(v, Expr.const(table, 0)) for v in reversed(vels)])
        rhs.append(Expr.sym(table, p) - b)
    sol = solve_linear(a_rows, rhs)

    def as_row(e):
        try:
            return _row_expr(e.affine_row(syms), syms, table)
        except ExprError:
            return e

    solution = {v: as_row(x) for v, x in zip(reversed(vels), sol.particular)}
    return [as_row(w) for w in sol.witnesses], solution, sol.genericity_pivots


def _acceleration_decomposition(sys: LagrangianSystem):
    """L = sum_i f_i(q, v) * a_i + g(q, v); raises if L is not affine in accelerations."""
    table = sys.table
    accs = [table.acceleration(c) for c in sys.coords]
    try:
        g, coeffs = sys.L.split_affine(accs)
    except ExprError as exc:
        raise UnsupportedShape(f"L not affine in accelerations: {exc}") from exc
    f = [coeffs.get(a, Expr.const(table, 0)) for a in accs]
    return f, g


def _integrate_in(e: Expr, v: Symbol) -> Expr:
    """Polynomial antiderivative in v (denominator must be v-free)."""
    if any(i == v.index for m in e.den for i, _ in m):
        raise MechanicsError(f"cannot integrate: denominator depends on {v}")
    table = e.table
    out = Expr.const(table, 0)
    num = e.num
    vsym = Expr.sym(table, v)
    for m, c in num.items():
        k = 0
        rest = []
        for i, ee in m:
            if i == v.index:
                k = ee
            else:
                rest.append((i, ee))
        term = Expr(table, {tuple(rest): c}, dict(e.den))
        out = out + term * vsym ** (k + 1) / (k + 1)
    return out


def counter_term(sys: LagrangianSystem):
    """Total-derivative counter-term W with L + dW/dt acceleration-free.

    The integration constant C(q) is fixed to zero.  Requires the symmetry
    d f_i/d v_j = d f_j/d v_i, which is exactly the Newton-compatibility
    condition on the acceleration-affine Lagrangian.
    """
    if sys.order != 2:
        raise MechanicsError("counter_term expects a second-order system")
    table = sys.table
    f, _ = _acceleration_decomposition(sys)
    vels = [table.velocity(c) for c in sys.coords]
    n = len(sys.coords)
    for i in range(n):
        for j in range(i):
            if f[i].diff(vels[j]) != f[j].diff(vels[i]):
                raise UnsupportedShape("acceleration coefficients are not a gradient; no counter-term exists")
    w = Expr.const(table, 0)
    for i in range(n):
        residual = -f[i] - w.diff(vels[i])
        w = w + _integrate_in(residual, vels[i])
    dw_dt = Expr.const(table, 0)
    for c in sys.coords:
        v, a = Expr.sym(table, table.velocity(c)), Expr.sym(table, table.acceleration(c))
        dw_dt = dw_dt + w.diff(c) * v + w.diff(table.velocity(c)) * a
    reduced = sys.L + dw_dt
    for c in sys.coords:
        if reduced.degree_in(table.acceleration(c)) > 0:
            raise MechanicsError("internal: counter-term failed to cancel accelerations")
    return w, LagrangianSystem(table, sys.coords, 1, reduced)


def ostrogradsky_reduce(sys: LagrangianSystem) -> LagrangianSystem:
    """Rewrite a second-order system over doubled coordinates.

    Per original coordinate c a pair (c1, c2) is introduced; c2 stands for the
    velocity of c and d(c2) for its acceleration.  c1 carries c2 as its
    velocity alias, so the downstream Legendre transform produces the two
    momentum families and the primary constraints p2_i - f_i.
    """
    if sys.order == 1:
        return sys
    if sys.order != 2:
        raise MechanicsError("ostrogradsky_reduce supports order 2 only")
    _acceleration_decomposition(sys)  # shape check
    table = sys.table
    new_coords = []
    subs = {}
    aliases = {}
    for c in sys.coords:
        c1 = table.register_fresh(f"Q1_{c.name}", "position")
        c2 = table.register_fresh(f"Q2_{c.name}", "position")
        new_coords.extend([c1, c2])
        subs[c] = Expr.sym(table, c1)
        subs[table.velocity(c)] = Expr.sym(table, c2)
        subs[table.acceleration(c)] = Expr.sym(table, table.velocity(c2))
        aliases[c1] = Expr.sym(table, c2)
    return LagrangianSystem(table, tuple(new_coords), 1, sys.L.substitute(subs), aliases)


def pons_reduce(sys: LagrangianSystem) -> LagrangianSystem:
    """Rewrite a second-order system with auxiliary coordinates and multipliers.

    Adds x_i standing for the velocity of coordinate i and a multiplier lam_i
    enforcing x_i - d(q_i); the multiplier is itself treated as a position
    coordinate.  Works for any order-2 Lagrangian.
    """
    if sys.order == 1:
        return sys
    if sys.order != 2:
        raise MechanicsError("pons_reduce supports order 2 only")
    table = sys.table
    xs, lams = [], []
    subs = {}
    for i, c in enumerate(sys.coords, start=1):
        x = table.register_fresh(f"x{i}", "position")
        lam = table.register_fresh(f"lam{i}", "position")
        xs.append(x)
        lams.append(lam)
        subs[table.velocity(c)] = Expr.sym(table, x)
        subs[table.acceleration(c)] = Expr.sym(table, table.velocity(x))
    new_l = sys.L.substitute(subs)
    for c, x, lam in zip(sys.coords, xs, lams):
        new_l = new_l + Expr.sym(table, lam) * (Expr.sym(table, x) - Expr.sym(table, table.velocity(c)))
    return LagrangianSystem(table, tuple(sys.coords) + tuple(xs) + tuple(lams), 1, new_l)
