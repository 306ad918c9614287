"""Poisson brackets, weak equality (`WeakReducer`), and the consistency iteration.

Each constraint is affine with constant coefficients and is turned into its
exact row once, when it is accepted (`_affine_row`, stored as
`Constraint.row`, as is `ClassRep.row`): a sparse qq integer row over (z, 1),
its nonzero coefficients as (column, int) pairs, the offset at column 2n,
over one denominator.  The bracket of two constraints is the constant
pairing of their rows, read through `qq.pairings` so that rows sharing no
conjugate column are never paired, and a constraint's bracket with H is its
row against H's Hamiltonian field {z_k, H}, taken once.

The iteration keeps the joint multiplier system honest: each round it forms
the time derivative of *every* constraint against the total Hamiltonian
(its bracket with H and with the primaries taken once per constraint),
weak-reduces the bracket with H, solves the affine system in the multipliers
(`qq.rref_rows`), and turns leftover multiplier-free residues into new
constraints, until a round adds nothing.  The weak reducer is built once and
extended by each accepted row; the last round's brackets are kept.

When H has degree <= 2 in z = (q, p), its field is one sparse integer matrix
(`quadratic_field`): a bracket is a constraint's row times that matrix,
reduced by the reducer's pivot rows (`reduce_row`), and it is the tail of
its constraint's row over (zeta, z, 1).  Otherwise the field is a list of
Exprs (`hamilton_field`), brackets are reduced by substitution, and
constraint i's bracket enters its row as a tag, a 1 in tail column i, which
`_eliminate` reads back as the bracket once it has solved.  Either way the
multiplier system is one qq integer row per constraint, and one
`qq.rref_rows` call over the multiplier columns solves it.  A residue that
is not affine becomes a constraint through `_normalize_candidate`: a power
c*a^k of an affine form is recognised in closed form, from k - 1
derivatives, and replaced by a; anything else is kept verbatim.

Classification re-bases the constraint set on the kernel of the bracket Gram
matrix, so first-class representatives are genuine gauge directions and the
multiplier solution splits into free (first-class primary) and solved
(second-class primary) parts.  The Gram matrix is one row of brackets per
constraint (`_bracket_rows`); its kernel and that kernel's unit complement
come from `qq.rref_rows`, and the re-based multiplier coefficients are read
off its rows, so classification brackets each pair once and reduces nothing.
`dirac_iterate` and `classify` each return a new frozen `DiracResult` and
write into nothing they are given.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from . import qq
from .expr import Expr, ExprError, _row_expr
from .lagrangian import FirstOrderSystem, PhaseSpace, UnsupportedShape
from .symbols import _Record


class DiracError(Exception):
    pass


class InconsistentTheory(DiracError):
    pass


class BudgetExceeded(DiracError):
    pass


class Constraint(_Record):
    __slots__ = ("expr", "chain", "generation", "row", "klass", "name")

    def __init__(self, expr: Expr, chain: int, generation: int, row: tuple, klass: str = "unclassified",
                 name: str = ""):
        # row: `expr` as a sparse qq integer row over (z, 1), offset at column 2n
        self._fields(expr, chain, generation, (tuple(row[0]), row[1]), klass, name)


class ClassRep(_Record):
    """A re-based constraint representative of definite class, with `row`,
    `expr` as a qq integer row like Constraint.row."""

    __slots__ = ("expr", "klass", "generation", "row")

    def __init__(self, expr: Expr, klass: str, generation: int, row: tuple):
        self._fields(expr, klass, generation, (tuple(row[0]), row[1]))


class DiracResult(_Record):
    """The constraints of one analysis as `dirac_iterate` leaves them or, with
    `classified` set, as `classify` splits them.  `rebased_primaries` are
    Exprs, first-class combinations first; `first_class` and `second_class`
    hold ClassReps; `h_brackets` holds the weak-reduced {c, H} of each
    constraint, as qq integer rows over (z, 1) when H has degree <= 2 in z,
    else as Exprs."""

    __slots__ = (
        "phase", "H", "constraints", "multiplier_symbols", "rebased_primaries", "primary_fc_count",
        "multiplier_solutions", "free_multipliers", "first_class", "second_class", "F", "S", "dof", "flags",
        "classified", "h_brackets",
    )

    def __init__(
        self, phase: PhaseSpace, H: Expr, constraints: tuple, multiplier_symbols: tuple = (),
        rebased_primaries: tuple = (), primary_fc_count: int = 0, multiplier_solutions: dict = {},
        free_multipliers: tuple = (), first_class: tuple = (), second_class: tuple = (), F: int = 0, S: int = 0,
        dof: int = -1, flags: tuple = (), classified: bool = False, h_brackets: tuple = (),
    ):
        self._fields(
            phase, H, constraints, multiplier_symbols, rebased_primaries, primary_fc_count, multiplier_solutions,
            free_multipliers, first_class, second_class, F, S, dof, flags, classified, h_brackets,
        )

    @property
    def table(self):
        return self.phase.table

    def total_hamiltonian(self) -> Expr:
        """H_T = H + sum_a zeta_a phi_a over the re-based primaries, each
        solved multiplier replaced by its solution."""
        h = self.H
        for z, prim in zip(self.multiplier_symbols, self.rebased_primaries):
            coeff = self.multiplier_solutions[z] if z in self.multiplier_solutions else Expr.sym(self.table, z)
            h = h + coeff * prim
        return h


def poisson(f: Expr, g: Expr, phase: PhaseSpace) -> Expr:
    """Canonical Poisson bracket sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).  No
    pipeline step calls it (the pipeline brackets only linear functions, via
    the field); it is the reference `field_bracket` is tested against.

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


def hamilton_field(h: Expr, phase: PhaseSpace) -> list:
    """The brackets {z_k, h} over z = (q1..qn, p1..pn): dh/dp_1..dh/dp_n,
    then -dh/dq_1..-dh/dq_n."""
    return [h.diff(p) for p in phase.momenta] + [-h.diff(q) for q in phase.positions]


def field_bracket(entries, field, table) -> Expr:
    """{X, h} for X affine with constant coefficients over z, given as a
    qq row's (column, coefficient) entries, from h's `hamilton_field`;
    entries at 2n and past (an offset) have no bracket."""
    out = Expr.const(table, 0)
    for j, c in entries:
        if j < len(field):
            out = out + field[j] * c
    return out


def quadratic_field(h: Expr, phase: PhaseSpace):
    """H's Hamiltonian field as one integer matrix, when H is a polynomial of
    degree <= 2 in z = (q1..qn, p1..pn) and nothing else; else None.

    Returns (rows, den): {z_k, h} is the affine form sum_j rows[k][j] z_j / den
    with the offset as j = 2n; each row is sparse, (j, integer) pairs.
    """
    pos = {s.index: k for k, s in enumerate(phase.z_order())}
    if not h.is_polynomial() or any(i not in pos for m in h.num for i, _ in m) or h.total_degree() > 2:
        return None
    n2 = len(pos)
    grad = [dict() for _ in range(n2)]  # grad[k][j]: dh/dz_k, entry j (offset at 2n)
    for m, v in h.num.items():
        ks = [pos[i] for i, _ in m]
        if len(ks) == 2:
            a, b = ks
            grad[a][b] = grad[a].get(b, 0) + v
            grad[b][a] = grad[b].get(a, 0) + v
        elif ks and m[0][1] == 2:
            grad[ks[0]][ks[0]] = grad[ks[0]].get(ks[0], 0) + 2 * v
        elif ks:
            grad[ks[0]][n2] = v
    n = n2 // 2
    rows = [sorted(g.items()) for g in grad[n:]] + [[(j, -x) for j, x in sorted(g.items())] for g in grad[:n]]
    return rows, h.den[()]


def row_field_bracket(row, qfield):
    """{X, h} as a qq integer row over (z, 1) for X given by a qq integer
    `row` over (z, 1) and h's `quadratic_field`."""
    return qq._combine([(x, qfield[0][k]) for k, x in row[0] if k < len(qfield[0])], row[1] * qfield[1])


class WeakReducer:
    """Substitution engine for weak equality against affine constraints.

    Keeps the RREF of the constraints' rows (`_affine_row`), highest symbol
    index first, as qq integer rows with pivot entry 1: each constraint is
    solved for its highest-index phase symbol, and the triangularized
    ensemble is applied as one simultaneous substitution, so a weakly
    vanishing expression reduces to the exact zero normal form.

    Built once by `qq.rref_rows`; `extend` adds one row in O(mn) by one more
    `qq.rref_rows` step.  An RREF over a fixed column order is unique, so the
    pivot rows are then a fresh build's; they are all it keeps: `reduce`
    reads its substitution rules off them once per extension, so reducing
    rows alone builds no Expr.
    """

    def __init__(self, rows, phase: PhaseSpace):
        self.phase = phase
        self._syms = syms = phase.z_order()
        n = len(syms)
        self._order = sorted(range(n), key=lambda k: -syms[k].index)
        work = list(rows)
        pivots = qq.rref_rows(work, self._order)
        used = set(pivots.values())
        for i, (entries, _den) in enumerate(work):
            if i in used or not entries:
                continue
            if entries[0][0] < n:
                raise DiracError("internal: affine reduction left an unpivoted row")
            raise InconsistentTheory("constraint set has no common solution")
        self._rows = {k: work[i] for k, i in pivots.items()}
        self._subs = None

    def extend(self, row):
        """Add one constraint row: reduce it by the pivot rows, then pivot it
        on its highest-index column k by `qq.rref_rows`, over it and the
        pivot rows nonzero at k; the new pivot row goes last."""
        entries, _den = row = self.reduce_row(row)
        k = max((j for j, _x in entries if j < len(self._syms)), key=lambda j: self._syms[j].index, default=None)
        if k is None:
            if entries:
                raise InconsistentTheory("constraint set has no common solution")
            return
        hit = [j for j, p in self._rows.items() if qq.entry(p, k)]
        work = [row] + [self._rows[j] for j in hit]
        qq.rref_rows(work, [k])
        self._rows.update([*zip(hit, work[1:]), (k, work[0])])
        self._subs = None

    def reduce(self, e: Expr) -> Expr:
        if self._subs is None:  # each pivot symbol's rule: its row less the pivot entry, negated
            syms, table = self._syms, self.phase.table
            rhs = lambda k, entries, den: _row_expr((tuple((j, -x) for j, x in entries if j != k), den), syms, table)
            self._subs = {syms[k]: rhs(k, *self._rows[k]) for k in self._order if k in self._rows}
        return e.substitute(self._subs) if self._subs else e

    def reduce_row(self, row):
        """A qq integer row (not necessarily primitive) reduced as `reduce`
        reduces its affine Expr: each of its pivot columns cleared by its
        pivot row (zero in every other pivot column), in one integer sum."""
        entries, den = row
        hits = [(x, self._rows[k]) for k, x in entries if k in self._rows]
        big = lcm(*(d for _x, (_p, d) in hits))
        return qq._combine([(big, entries)] + [(-x * (big // d), p) for x, (p, d) in hits], den * big)


def _affine_row(e: Expr, syms):
    """The constraint e as a qq integer row [coefficients over syms..., offset]."""
    try:
        return e.affine_row(syms)
    except ExprError as exc:
        raise UnsupportedShape(
            f"constraint {e} is not affine with constant coefficients; weak reduction unsupported"
        ) from exc


def _normalize_candidate(expr: Expr):
    """Irreducibility normalization of a would-be constraint.

    A polynomial of total degree k >= 2 is c*a^k for an affine a exactly when
    its (k-1)-th derivative d in its first free symbol s has degree 1 in s
    and it is a constant multiple of (d / dd/ds)^k; it is then replaced by
    that a, monic in s (flagged).  Anything else is kept verbatim, flagged
    if it is not affine.
    """
    if expr.is_polynomial():
        k = expr.total_degree()
        if k <= 1:
            return expr, []
        s = expr.free_symbols()[0]
        d = expr
        for _ in range(k - 1):
            d = d.diff(s)
        lead = d.diff(s)  # d has total degree <= 1: a constant, 0 when d is free of s
        if not lead.is_zero():
            a = d / lead
            if a ** k * lead == expr * factorial(k):  # expr = (lead / k!) a^k
                return a, [f"irreducibility reduction: replaced {expr} by affine factor {a}"]
    return expr, [f"non-affine constraint kept verbatim: {expr}"]


def dirac_iterate(fos: FirstOrderSystem) -> DiracResult:
    phase = fos.phase
    table = phase.table
    n = phase.n
    h = fos.H
    syms = phase.z_order()

    prim_exprs = list(fos.primaries)
    constraints = [
        Constraint(e, chain=i, generation=1, row=_affine_row(e, syms), name=f"phi{i + 1}_1")
        for i, e in enumerate(prim_exprs)
    ]
    prim_rows = [c.row for c in constraints]
    if len(qq.rref_rows(list(prim_rows), range(2 * n))) != len(prim_rows):
        raise DiracError("primary constraints are not independent")
    zetas = [table.register_fresh(f"zeta{i + 1}", "multiplier") for i in range(len(prim_exprs))]
    flags = []

    reducer = WeakReducer(prim_rows, phase)
    qfield = quadratic_field(h, phase)
    field = hamilton_field(h, phase) if qfield is None else None
    fields, coeff_rows = [], []  # each constraint's {c, H} and brackets with the primaries, taken once
    for _round in range(2 * n + 2):
        new = [c.row for c in constraints[len(fields):]]
        coeff_rows += _bracket_rows(new, prim_rows, n)
        if qfield is None:
            fields += [field_bracket(entries, field, table) / den for entries, den in new]
            brackets = [reducer.reduce(b) for b in fields]
        else:
            fields += [row_field_bracket(row, qfield) for row in new]
            brackets = [reducer.reduce_row(b) for b in fields]
        rows = _consistency_rows(coeff_rows, brackets, len(zetas))
        solved, residues = _eliminate(rows, zetas, table, syms, brackets)
        new_any = False
        tips = {c.chain: c for c in constraints}  # last write wins: discovery order
        for src_idx, residue in residues:
            cand = _candidate(residue, reducer, syms, flags)
            if cand is None:
                continue
            expr, row = cand
            src = constraints[src_idx]
            tip = tips[src.chain]
            gen = tip.generation + 1
            if src is not tip:
                flags.append(f"non-tip constraint {src.name} produced a new condition")
            newc = Constraint(expr, chain=src.chain, generation=gen, row=row, name=f"phi{src.chain + 1}_{gen}")
            constraints.append(newc)
            tips[src.chain] = newc
            new_any = True
            reducer.extend(newc.row)
        if len(constraints) > 2 * n:
            raise BudgetExceeded(
                f"{len(constraints)} constraints exceed the 2n = {2 * n} budget; no consistent dynamics"
            )
        if not new_any:
            break
    else:
        raise DiracError("consistency iteration failed to terminate")

    # the last round added nothing: these are the final brackets
    return DiracResult(
        phase, h, constraints, zetas, prim_exprs, 0, solved, [z for z in zetas if z not in solved],
        flags=flags, h_brackets=brackets,
    )


def _candidate(residue, reducer, syms, flags):
    """(expr, row) of the new constraint a consistency residue gives, or None
    when it vanishes weakly.  A residue is an Expr, normalized by
    `_normalize_candidate`, or, for a quadratic H, an affine qq integer row."""
    table = reducer.phase.table
    if _vanishes(residue):
        return None
    if isinstance(residue, Expr):
        if residue.is_constant():
            raise InconsistentTheory(f"consistency forces {residue} = 0; contradictory theory")
        cand, cflags = _normalize_candidate(residue)
        flags.extend(cflags)
        if reducer.reduce(cand).is_zero():
            return None
        return cand, _affine_row(cand, syms)
    if residue[0][0][0] >= len(syms):  # an offset alone
        raise InconsistentTheory(f"consistency forces {_row_expr(residue, syms, table)} = 0; contradictory theory")
    if not any(reducer.reduce_row(residue)[0]):
        return None
    return _row_expr(residue, syms, table), residue


def _vanishes(residue):
    return residue.is_zero() if isinstance(residue, Expr) else not residue[0]


def _bracket_rows(rows, others, n):
    """Each row's brackets with `others` as a qq integer row over them, the
    `qq.pairings` numerators over its denominator times the others' lcm."""
    den = lcm(*(d for _v, d in others))
    return [
        (tuple((a, x * (den // others[a][1])) for a, x in sorted(pairs.items())), d * den)
        for (_u, d), pairs in zip(rows, qq.pairings(rows, others, n))
    ]


def _consistency_rows(coeff_rows, brackets, m):
    """One consistency row per constraint, const + sum(coeff_a zeta_a) = 0, as
    (constraint index, qq integer row over (zeta_1..zeta_m, tail)) pairs,
    zero rows skipped.  coeff_rows[i] holds constraint i's brackets with the m
    primaries as a qq row over the zetas, and brackets[i] its weak-reduced
    bracket with H.  A bracket that is a qq row over (z, 1) is its own tail;
    an Expr bracket is a tag, a 1 in tail column i, that `_eliminate` reads
    back as the bracket (a zero one, too, so no tagged row is skipped)."""
    if brackets and isinstance(brackets[0], Expr):
        brackets = [(((i, 1),), 1) for i in range(len(brackets))]
    rows = []
    for idx, ((cs, dc), (b, db)) in enumerate(zip(coeff_rows, brackets, strict=True)):
        den = lcm(dc, db)
        entries = [(a, x * (den // dc)) for a, x in cs] + [(m + j, x * (den // db)) for j, x in b]
        if entries:
            rows.append((idx, qq._primitive(entries, den)))
    return rows


def _eliminate(rows, zetas, table, syms, brackets):
    """Solve the affine multiplier system; returns ({zeta: Expr}, residues).

    Rows come as `_consistency_rows` gives them for `brackets`; one
    `qq.rref_rows` call, a unit pivot first, then the earliest source row,
    leaves each solution over the free multipliers alone.  Residues are
    (source index, zeta-free remainder) pairs for the unused rows, in source
    order: a qq row over (syms..., 1) on the quadratic path, else the sum of
    its tags' weights times their Expr brackets, read back once here.
    """
    m = len(zetas)
    work = [row for _idx, row in rows]
    pivots = qq.rref_rows(work, range(m), unit_first=True)
    if brackets and isinstance(brackets[0], Expr):
        def read(entries, den):  # weight * zeta over the multipliers, weight * bracket over the tags
            out = Expr.const(table, 0)
            for j, x in entries:
                out = out + (Expr.sym(table, zetas[j]) if j < m else brackets[j - m]) * x
            return out / den
        residue = lambda row: read(*row)
    else:
        read = lambda entries, den: _row_expr((tuple(entries), den), (*zetas, *syms), table)
        residue = lambda row: (tuple((j - m, x) for j, x in row[0]), row[1])  # over (syms..., 1)
    solved = {zetas[col]: read([(j, -x) for j, x in work[i][0][1:]], work[i][1]) for col, i in pivots.items()}
    used = set(pivots.values())
    return solved, [(idx, residue(work[i])) for i, (idx, _row) in enumerate(rows) if i not in used]


# ---------------------------------------------------------------------------
# classification

def classify(result: DiracResult) -> DiracResult:
    """A new, classified DiracResult: the constraints split into first and
    second class by the kernel of their bracket Gram matrix, with the
    multiplier system re-based on the split.  `result` is left as it was."""
    phase = result.phase
    cons = result.constraints
    m = len(cons)
    gram = _bracket_rows([c.row for c in cons], [c.row for c in cons], phase.n)
    kernel = _gram_kernel(gram, cons)
    f_count = len(kernel)
    s_count = m - f_count  # the rank of the Gram matrix
    if s_count % 2:
        raise DiracError("second-class count came out odd; classification bug")

    # by generation, then by the first constraint a combination takes
    kernel.sort(key=lambda vg: (vg[1], vg[0][0][0][0]))
    syms = phase.z_order()
    first_reps = []
    for vec, gen in kernel:
        row = _combine_row(vec, cons)
        first_reps.append(ClassRep(_row_expr(row, syms, phase.table), "first", gen, row))
    second_reps = [
        ClassRep(cons[j].expr, "second", cons[j].generation, cons[j].row)
        for j in _unit_complement([vec for vec, _gen in kernel], m, s_count)
    ]
    rebased, fc_count, solved = _resolve_multipliers(result, gram, kernel, first_reps)
    classed = [
        Constraint(c.expr, c.chain, c.generation, c.row, "second" if entries else "first", c.name)
        for c, (entries, _den) in zip(cons, gram)
    ]
    zetas = result.multiplier_symbols
    return DiracResult(
        phase, result.H, classed, zetas, rebased, fc_count, solved, [z for z in zetas if z not in solved],
        first_reps, second_reps, f_count, s_count, dof(phase.n, f_count, s_count), result.flags, True,
        result.h_brackets,
    )


def _combine_row(vec, cons):
    """The row of the combination of the constraints by the qq integer row
    `vec`, summed on integers over one denominator."""
    entries, den = vec
    big = lcm(*(cons[b].row[1] for b, _x in entries))
    return qq._combine([(x * (big // cons[b].row[1]), cons[b].row[0]) for b, x in entries], den * big)


def _unit_complement(basis, m, k):
    """The first k unit directions e_j, by increasing j, that are independent
    of `basis` (qq integer rows of length m) and of each earlier one: the
    columns that are not pivots of the basis's RREF with columns visited last
    to first.

    Column j is a pivot exactly when e_j lies in the span of the basis and
    e_0..e_{j-1}, so one RREF decides every candidate.
    """
    pivots = qq.rref_rows(list(basis), range(m - 1, -1, -1))
    return [j for j in range(m) if j not in pivots][:k]


def _gram_kernel(gram, cons):
    """Kernel basis of the Gram matrix, given as qq integer rows (each any
    nonzero multiple of its row), one vector per free column of its RREF;
    returns (qq integer row scaled to a leading 1, generation of its
    support) pairs.  A vector's support is its free column plus pivot
    columns left of it, so it ends as early as the kernel allows."""
    g = list(gram)
    pivots = qq.rref_rows(g, range(len(g)))
    rows = {col: (dict(g[i][0]), g[i][1]) for col, i in pivots.items()}
    out = []
    for free in range(len(g)):
        if free in pivots:
            continue
        terms = [(col, entries[free], d) for col, (entries, d) in rows.items() if free in entries]
        den = lcm(*(d for _col, _x, d in terms))
        v = sorted([(free, den)] + [(col, -x * (den // d)) for col, x, d in terms])
        out.append((qq.row_div((v, den), Fraction(v[0][1], den)), max(cons[i].generation for i, _x in v)))
    return out


def _resolve_multipliers(result: DiracResult, gram, kernel, first_reps):
    """The multiplier system re-based on the classified primaries: returns
    (re-based primary Exprs, first-class count among them, {zeta: solution}).

    `kernel` holds the first-class combinations as (qq integer row,
    generation) pairs and `first_reps` their representatives, in one order.
    First-class primary combinations keep free multipliers; the rest are
    solved uniquely.  The coefficients are read off the Gram rows: a
    first-class combination lies in the Gram kernel, so its bracket with
    every constraint is zero, and a kept primary b's with constraint c is
    gram[c] at b.
    """
    cons = result.constraints
    prim = [i for i, c in enumerate(cons) if c.generation == 1]
    pos = {b: a for a, b in enumerate(prim)}
    prim_fc = [
        ((tuple((pos[b], x) for b, x in entries), den), rep)
        for ((entries, den), _gen), rep in zip(kernel, first_reps) if rep.generation == 1
    ]
    complement = _unit_complement([v for v, _rep in prim_fc], len(prim), len(prim) - len(prim_fc))
    rebased = [rep for _v, rep in prim_fc] + [cons[prim[j]] for j in complement]

    col = {prim[j]: a for a, j in enumerate(complement, start=len(prim_fc))}
    coeff_rows = [(tuple((col[b], x) for b, x in entries if b in col), den) for entries, den in gram]
    brackets = result.h_brackets
    rows = _consistency_rows(coeff_rows, brackets, len(rebased))
    solved, residues = _eliminate(rows, result.multiplier_symbols, result.table, result.phase.z_order(), brackets)
    for _idx, residue in residues:
        if not _vanishes(residue):
            raise DiracError("internal: rebased multiplier system left an unexplained residue")
    return [r.expr for r in rebased], len(prim_fc), solved


def dof(n: int, f_count: int, s_count: int) -> int:
    """Physical degrees of freedom (2n - 2F - S)/2; parity violations are bugs."""
    raw = 2 * n - 2 * f_count - s_count
    if raw < 0 or raw % 2:
        raise DiracError(f"degree-of-freedom count invalid: (2*{n} - 2*{f_count} - {s_count})/2")
    return raw // 2
