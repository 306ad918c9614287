"""Poisson brackets, weak equality, and the consistency iteration.

The iteration keeps the joint multiplier system honest: each round it forms
the time derivative of *every* constraint against the total Hamiltonian,
weak-reduces all coefficients, solves the affine system in the multipliers,
and turns leftover multiplier-free residues into new constraints.  A round
that adds nothing terminates the procedure.

Classification re-bases the constraint set using the kernel of the bracket
Gram matrix, so first-class representatives are genuine gauge directions and
the multiplier solution splits cleanly into free (first-class primary) and
uniquely solved (second-class primary) parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import qq
from .expr import Expr, ExprError
from .lagrangian import FirstOrderSystem, PhaseSpace, UnsupportedShape
from .linalg import ExprMatrix, rank


class DiracError(Exception):
    pass


class InconsistentTheory(DiracError):
    pass


class BudgetExceeded(DiracError):
    pass


@dataclass
class Constraint:
    expr: Expr
    chain: int
    generation: int
    klass: str = "unclassified"
    name: str = ""


@dataclass
class ClassRep:
    """A re-based constraint representative of definite class."""

    expr: Expr
    klass: str
    generation: int
    coeffs: list  # Fractions: combination over the discovery-order constraint list


@dataclass
class DiracResult:
    phase: PhaseSpace
    H: Expr
    constraints: list
    multiplier_symbols: list = field(default_factory=list)
    rebased_primaries: list = field(default_factory=list)  # Expr, FC combos first
    primary_fc_count: int = 0
    multiplier_solutions: dict = field(default_factory=dict)
    free_multipliers: list = field(default_factory=list)
    first_class: list = field(default_factory=list)  # ClassRep
    second_class: list = field(default_factory=list)  # ClassRep
    F: int = 0
    S: int = 0
    dof: int = -1
    flags: list = field(default_factory=list)
    genericity_pivots: list = field(default_factory=list)
    classified: bool = False

    @property
    def table(self):
        return self.phase.table

    def primaries(self):
        return [c for c in self.constraints if c.generation == 1]

    def total_hamiltonian(self, substitute_solved: bool = False) -> Expr:
        h = self.H
        for z, prim in zip(self.multiplier_symbols, self.rebased_primaries):
            coeff = Expr.sym(self.table, z)
            if substitute_solved and z in self.multiplier_solutions:
                coeff = self.multiplier_solutions[z]
            h = h + coeff * prim
        return h


def poisson(f: Expr, g: Expr, phase: PhaseSpace) -> Expr:
    """Canonical Poisson bracket sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).

    A product is formed only where f depends on one slot of the pair and g
    on the other (numerator or denominator); every skipped product is exactly
    zero and the rest are summed in pair order, so the result is the same
    Expr, dict order included, as the full sum's.
    """
    fs, gs = ({s.index for s in e.free_symbols()} for e in (f, g))
    out = Expr.const(phase.table, 0)
    for q, p in phase.pairs:
        if q.index in fs and p.index in gs:
            out = out + f.diff(q) * g.diff(p)
        if p.index in fs and q.index in gs:
            out = out - f.diff(p) * g.diff(q)
    return out


class WeakReducer:
    """Substitution engine for weak equality against affine constraints.

    Each constraint is solved for its highest-index phase symbol; the
    triangularized ensemble is applied as one simultaneous substitution, so a
    weakly vanishing expression reduces to the exact zero normal form.
    """

    def __init__(self, constraint_exprs, phase: PhaseSpace):
        self.phase = phase
        syms = phase.z_order()
        rows = _affine_rows([e for e in constraint_exprs if not e.is_zero()], syms)
        self.subs = _affine_rref(rows, syms, phase.table)

    def reduce(self, e: Expr) -> Expr:
        if not self.subs:
            return e
        return e.substitute(self.subs)


def _affine_rows(exprs, syms):
    """Each expression as a rational row [coefficients over syms..., offset]."""
    rows = []
    for e in exprs:
        try:
            coeffs, offset = e.linear_form(syms)
        except ExprError as exc:
            raise UnsupportedShape(
                f"constraint {e} is not affine with constant coefficients; weak reduction unsupported"
            ) from exc
        rows.append([Fraction(c) for c in coeffs] + [Fraction(offset)])
    return rows


def _affine_rref(rows, syms, table):
    """RREF of augmented affine rows, highest symbol index first; returns the
    pivot-symbol substitution map."""
    n = len(syms)
    pivots = qq.rref(rows, sorted(range(n), key=lambda k: -syms[k].index))
    used = set(pivots.values())
    for i, row in enumerate(rows):
        if i in used:
            continue
        if any(row[:n]):
            raise DiracError("internal: affine reduction left an unpivoted row")
        if row[n]:
            raise InconsistentTheory("constraint set has no common solution")
    subs = {}
    for k, i in pivots.items():
        row = rows[i]  # fully reduced: only free symbols remain
        rhs = {(): -row[n]} if row[n] else {}
        for j, c in enumerate(row[:n]):
            if j != k and c:
                rhs[((syms[j].index, 1),)] = -c
        subs[syms[k]] = Expr(table, rhs, _normalized=True)
    return subs


def weak_reduce(e: Expr, constraints, phase: PhaseSpace) -> Expr:
    exprs = [c.expr if isinstance(c, Constraint) else c for c in constraints]
    return WeakReducer(exprs, phase).reduce(e)


def _normalize_candidate(expr: Expr, table):
    """Irreducibility normalization of a would-be constraint.

    A nonzero rational multiple of a power of an affine form is replaced by
    the monic affine factor (flagged when an actual power was stripped);
    anything else is kept verbatim, flagged if it is not affine.
    """
    flags = []
    if expr.total_degree() <= 1 and expr.is_polynomial():
        return expr, flags
    if expr.is_polynomial():
        reduced = expr
        stripped = 0
        while True:
            g = None
            for s in reduced.free_symbols():
                d = reduced.diff(s)
                if d.is_zero():
                    continue
                g = d if g is None else _poly_gcd_expr(g, d)
            if g is None or g.is_constant():
                break
            g2 = _poly_gcd_expr(reduced, g)
            if g2.is_constant():
                break
            reduced = reduced / g2
            stripped += 1
        if stripped and reduced.total_degree() == 1:
            lead = _monic_affine(reduced)
            flags.append(f"irreducibility reduction: replaced {expr} by affine factor {lead}")
            return lead, flags
    flags.append(f"non-affine constraint kept verbatim: {expr}")
    return expr, flags


def _poly_gcd_expr(a: Expr, b: Expr) -> Expr:
    from .expr import _pgcd

    return Expr(a.table, _pgcd(a.num, b.num), _normalized=False)


def _monic_affine(e: Expr) -> Expr:
    syms = e.free_symbols()
    lead = None
    for s in syms:
        c = e.diff(s)
        if not c.is_zero():
            lead = c
            break
    return e / lead if lead is not None else e


def dirac_iterate(fos: FirstOrderSystem, pivot_log: list | None = None) -> DiracResult:
    phase = fos.phase
    table = phase.table
    n = phase.n
    h = fos.H

    prim_exprs = list(fos.primaries)
    if prim_exprs:
        jac = ExprMatrix.from_rows([[e.diff(s) for s in phase.z_order()] for e in prim_exprs])
        if rank(jac) != len(prim_exprs):
            raise DiracError("primary constraints are not independent")

    constraints = [Constraint(e, chain=i, generation=1, name=f"phi{i + 1}_1") for i, e in enumerate(prim_exprs)]
    zetas = [table.register_fresh(f"zeta{i + 1}", "multiplier") for i in range(len(prim_exprs))]
    result = DiracResult(phase, h, constraints, multiplier_symbols=zetas, rebased_primaries=list(prim_exprs))
    flags = result.flags

    for _round in range(2 * n + 2):
        reducer = WeakReducer([c.expr for c in constraints], phase)
        rows = _consistency_rows(constraints, prim_exprs, zetas, h, phase, reducer)
        solved, residues = _eliminate(rows, zetas, table, pivot_log)
        new_any = False
        tips = {c.chain: c for c in constraints}  # last write wins: discovery order
        for src_idx, residue in residues:
            if residue.is_zero():
                continue
            if residue.is_constant():
                raise InconsistentTheory(f"consistency forces {residue} = 0; contradictory theory")
            cand, cflags = _normalize_candidate(residue, table)
            flags.extend(cflags)
            red = reducer.reduce(cand)
            if red.is_zero():
                continue
            src = constraints[src_idx]
            tip = tips[src.chain]
            gen = tip.generation + 1
            if src is not tip:
                flags.append(f"non-tip constraint {src.name} produced a new condition")
            newc = Constraint(cand, chain=src.chain, generation=gen, name=f"phi{src.chain + 1}_{gen}")
            constraints.append(newc)
            tips[src.chain] = newc
            new_any = True
            reducer = WeakReducer([c.expr for c in constraints], phase)
        if len(constraints) > 2 * n:
            raise BudgetExceeded(
                f"{len(constraints)} constraints exceed the 2n = {2 * n} budget; no consistent dynamics"
            )
        if not new_any:
            break
    else:
        raise DiracError("consistency iteration failed to terminate")

    result.multiplier_solutions = solved
    result.free_multipliers = [z for z in zetas if z not in solved]
    return result


def _consistency_rows(constraints, prim_exprs, zetas, h, phase, reducer):
    """One weak-reduced consistency row per constraint: const + sum(coeff_a zeta_a)."""
    rows = []
    for idx, c in enumerate(constraints):
        const = reducer.reduce(poisson(c.expr, h, phase))
        coeffs = [reducer.reduce(poisson(c.expr, p, phase)) for p in prim_exprs]
        if const.is_zero() and all(x.is_zero() for x in coeffs):
            continue
        rows.append((idx, coeffs, const))
    return rows


def _pivot_quality(e: Expr):
    if e.is_constant():
        v = e.constant_value()
        return (0, 0) if abs(v) == 1 else (0, 1)
    return (1, 0)


def _eliminate(rows, zetas, table, pivot_log=None):
    """Solve the affine multiplier system; returns ({zeta: Expr}, residues).

    Residues are (source_constraint_index, zeta-free expression) pairs for the
    rows whose multiplier content was fully consumed.
    """
    work = [(idx, list(coeffs), const) for idx, coeffs, const in rows]
    solutions = {}
    for col in range(len(zetas)):
        best = None
        for k, (idx, coeffs, const) in enumerate(work):
            if coeffs[col].is_zero():
                continue
            q = (*_pivot_quality(coeffs[col]), idx, k)
            if best is None or q < best[0]:
                best = (q, k)
        if best is None:
            continue
        _, k = best
        idx, coeffs, const = work.pop(k)
        piv = coeffs[col]
        if pivot_log is not None and not piv.is_constant():
            pivot_log.append(piv)
        sol_const = -const / piv
        sol_coeffs = [-c / piv for c in coeffs]
        sol_coeffs[col] = Expr.const(table, 0)
        solutions[col] = (sol_const, sol_coeffs)
        new_work = []
        for idx2, coeffs2, const2 in work:
            f = coeffs2[col]
            if not f.is_zero():
                const2 = const2 + f * sol_const
                coeffs2 = [c2 + f * sc for c2, sc in zip(coeffs2, sol_coeffs)]
                coeffs2[col] = Expr.const(table, 0)
            new_work.append((idx2, coeffs2, const2))
        work = new_work
    # back-substitute solved columns into each other
    changed = True
    while changed:
        changed = False
        for col, (sc, scoeffs) in list(solutions.items()):
            for col2, (sc2, scoeffs2) in solutions.items():
                if col2 == col:
                    continue
                f = scoeffs[col2]
                if not f.is_zero():
                    sc = sc + f * sc2
                    scoeffs = [a + f * b for a, b in zip(scoeffs, scoeffs2)]
                    scoeffs[col2] = Expr.const(table, 0)
                    solutions[col] = (sc, scoeffs)
                    changed = True
    solved = {}
    for col, (sc, scoeffs) in solutions.items():
        val = sc
        for j, c in enumerate(scoeffs):
            if not c.is_zero():
                val = val + c * Expr.sym(table, zetas[j])
        solved[zetas[col]] = val
    residues = [(idx, const) for idx, coeffs, const in work]
    return solved, residues


# ---------------------------------------------------------------------------
# classification

def classify(result: DiracResult, pivot_log: list | None = None) -> DiracResult:
    phase = result.phase
    table = result.table
    cons = result.constraints
    m = len(cons)
    if m == 0:
        result.F = result.S = 0
        result.dof = dof(phase.n, 0, 0)
        result.classified = True
        return result

    cov = [row[:-1] for row in _affine_rows([c.expr for c in cons], phase.z_order())]
    gram = [[qq.bracket(a, b, phase.n) for b in cov] for a in cov]
    kernel = _gram_kernel(gram, cons)
    f_count = len(kernel)
    s_count = m - f_count  # the rank of the Gram matrix
    if s_count % 2:
        raise DiracError("second-class count came out odd; classification bug")
    result.S, result.F = s_count, f_count
    result.dof = dof(phase.n, f_count, s_count)

    for i, c in enumerate(cons):
        c.klass = "second" if any(gram[i]) else "first"

    first_reps = []
    for vec, gen in kernel:
        expr = _combine(vec, cons, table)
        first_reps.append(ClassRep(expr, "first", gen, vec))
    first_reps.sort(key=lambda r: (r.generation, _first_support(r.coeffs)))

    second_reps = []
    basis = [r.coeffs for r in first_reps]
    for j in range(m):
        e_j = _unit(j, m)
        if _independent(basis + [r.coeffs for r in second_reps] + [e_j]):
            second_reps.append(ClassRep(cons[j].expr, "second", cons[j].generation, e_j))
        if len(second_reps) == s_count:
            break
    if len(second_reps) != s_count:
        raise DiracError("internal: could not complete second-class representatives")

    result.first_class = first_reps
    result.second_class = second_reps

    _resolve_multipliers(result, pivot_log)
    result.classified = True
    return result


def _first_support(vec):
    return next((i for i, c in enumerate(vec) if c), len(vec))


def _unit(j, m):
    return [Fraction(1 if k == j else 0) for k in range(m)]


def _combine(vec, cons, table):
    out = Expr.const(table, 0)
    for c, con in zip(vec, cons):
        if c:
            out = out + con.expr * c
    return out


def _independent(vectors):
    return qq.rank(vectors) == len(vectors)


def _gram_kernel(gram, cons):
    """Kernel basis of the Gram matrix, one vector per free column of its RREF,
    scaled to a leading 1; returns (vector, generation of its support) pairs.

    A vector's support is its free column plus pivot columns left of it, so
    it ends as early as the kernel allows: the basis is already in echelon
    form over the reversed column order.
    """
    m = len(gram)
    g = [list(row) for row in gram]
    pivots = qq.rref(g, range(m))
    out = []
    for free in range(m):
        if free in pivots:
            continue
        v = _unit(free, m)
        for col, i in pivots.items():
            v[col] = -g[i][free]
        support = [i for i, c in enumerate(v) if c]
        lead = v[support[0]]
        out.append(([c / lead for c in v], max(cons[i].generation for i in support)))
    return out


def _resolve_multipliers(result: DiracResult, pivot_log=None):
    """Re-express the multiplier system over the classified primary basis.

    First-class primary combinations keep free multipliers; the rest are
    solved uniquely.  Without first-class content the original primary basis
    is kept untouched.
    """
    phase = result.phase
    table = result.table
    prim_cons = result.primaries()
    m1 = len(prim_cons)
    if m1 == 0:
        result.rebased_primaries = []
        result.multiplier_solutions = {}
        result.free_multipliers = []
        result.primary_fc_count = 0
        return

    prim_fc = []
    for rep in result.first_class:
        if rep.generation == 1:
            vec = [rep.coeffs[c_idx] for c_idx, c in enumerate(result.constraints) if c.generation == 1]
            prim_fc.append((vec, rep.expr))
    complement = []
    fc_vecs = [v for v, _ in prim_fc]
    for j in range(m1):
        e_j = _unit(j, m1)
        if _independent(fc_vecs + [v for v, _ in complement] + [e_j]):
            complement.append((e_j, prim_cons[j].expr))
        if len(prim_fc) + len(complement) == m1:
            break

    rebased = [e for _, e in prim_fc] + [e for _, e in complement]
    result.rebased_primaries = rebased
    result.primary_fc_count = len(prim_fc)
    zetas = result.multiplier_symbols

    reducer = WeakReducer([c.expr for c in result.constraints], phase)
    rows = _consistency_rows(result.constraints, rebased, zetas, result.H, phase, reducer)
    solved, residues = _eliminate(rows, zetas, table, pivot_log)
    for _idx, residue in residues:
        if not residue.is_zero():
            raise DiracError("internal: rebased multiplier system left an unexplained residue")
    result.multiplier_solutions = solved
    result.free_multipliers = [z for z in zetas if z not in solved]


def dof(n: int, f_count: int, s_count: int) -> int:
    """Physical degrees of freedom (2n - 2F - S)/2; parity violations are bugs."""
    raw = 2 * n - 2 * f_count - s_count
    if raw < 0 or raw % 2:
        raise DiracError(f"degree-of-freedom count invalid: (2*{n} - 2*{f_count} - {s_count})/2")
    return raw // 2
