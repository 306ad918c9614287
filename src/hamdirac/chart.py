"""Canonical charts built from classified constraints or imported from a
system file, their verification and the Frobenius check.  Which chart rows an
embedding fixes, and the integral constants that costs, is `embedding`'s
business.  Every chart lays its rows out as Xi, ThU, Q | Psi, ThD, P, so row
i + n is row i's conjugate (`CanonicalChart.pairs`).

Both chart makers, `build_chart` and `import_chart` (a supplied chart,
checked and never altered), end in `_chart`, which sets every row's
generation by one rule.

The linear construction: second-class representatives are paired by a
symplectic Gram-Schmidt sweep with one member of each pair rescaled to a unit
bracket; every first-class representative becomes a momentum row and gets a
conjugate position row solved inside the remaining symplectic complement; the
same sweep completes the leftover complement into physical (Q, P) pairs.  A
chart row (`ChartRow.row`) is one sparse qq integer row over (z, 1), its
nonzeros over one denominator with the offset at column 2n, from its
construction through the static correction, verification and transform.

The correction pass never transforms H_T: a chart row's velocity is the row
against H_T's Hamiltonian field, written in (Q, P) through `_inverse_map`, the
affine map z -> chart symbols that `transform` substitutes (`_chart_map`),
read off the closed-form S^-1 of the chart's rows.  Verification decides each
entry of S^T J S on the integer pairing of two columns, visiting only pairs
that share a conjugate column; float mode (for the usual 1/sqrt(2) entries)
runs the same kernel on the exact values of the given doubles, compared with
a tolerance.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from . import qq
from .dirac import DiracResult, DiracError, field_bracket, hamilton_field, quadratic_field, row_field_bracket
from .expr import Expr, ExprError, _row_expr
from .lagrangian import PhaseSpace
from .parser import parse_expr
from .symbols import _Record
from .sysfile import ROLE_PATTERN, InputError


class ChartError(Exception):
    pass


ROLE_CONJUGATE = {"Xi": "Psi", "Psi": "Xi", "ThU": "ThD", "ThD": "ThU", "Q": "P", "P": "Q"}


class ChartRow(_Record):
    __slots__ = ("role", "pair", "row", "symbol", "generation")

    def __init__(self, role: str, pair: int, row: tuple, symbol: object, generation: int | None = None):
        # pair: 1-based index within the role family; row: a qq integer row
        # over (z, 1), z = (q1..qn, p1..pn); generation: a Psi or Xi row's,
        # as `_chart` sets it, None for any other role
        self._fields(role, pair, (tuple(row[0]), row[1]), symbol, generation)

    @property
    def name(self):
        return self.symbol.name

    def expr(self, table, phase) -> Expr:
        return _row_expr(self.row, phase.z_order(), table)


class CanonicalChart(_Record):
    __slots__ = ("phase", "rows", "notes")

    def __init__(self, phase: PhaseSpace, rows: tuple, notes: tuple = ()):
        # rows: position block then momentum block, canonical role order
        self._fields(phase, rows, notes)

    @property
    def n(self):
        return self.phase.n

    @property
    def table(self):
        return self.phase.table

    def pairs(self, role):
        """(row i, row i + n) for each row i of the position block with
        `role` (Xi, ThU or Q): the row and its conjugate momentum, in pair
        order, as every chart lays its rows out."""
        n = self.n
        return [(r, self.rows[i + n]) for i, r in enumerate(self.rows[:n]) if r.role == role]


def build_chart(result: DiracResult) -> CanonicalChart:
    """Symplectic Gram-Schmidt completion of the classified constraints."""
    if not result.classified:
        raise ChartError("classify the Dirac result before building a chart")
    n = result.phase.n
    pool = [rep.row for rep in result.second_class]  # the offset is carried as column 2n
    theta_rows = _symplectic_pairs(pool, n)

    # conjugate positions for the first-class momenta: <x_a, psi_b> = delta_ab
    # and <x_a, theta> = 0, one elimination with the right-hand side a at 2n + a
    f_count = len(result.first_class)
    grads = [rep.row for rep in result.first_class] + [v for pair in theta_rows for v in pair]
    system = [
        qq._primitive(_sympl_grad(entries, n) + ([(2 * n + b, den)] if b < f_count else []), den)
        for b, (entries, den) in enumerate(grads)
    ]
    pivots = qq.rref_rows(system, range(2 * n)) if f_count else {}
    used = set(pivots.values())
    if any(entries and entries[-1][0] >= 2 * n for i, (entries, _den) in enumerate(system) if i not in used):
        raise DiracError("no conjugate for a first-class momentum; classification bug")
    den = math.lcm(*(system[i][1] for i in used))
    xi_rows = []  # the offset is carried as column 2n
    for a in range(2 * n, 2 * n + f_count):
        x = qq._combine([(1, [(col, qq.entry(system[i], a) * (den // system[i][1])) for col, i in pivots.items()])], den)
        for xb, rep_b in zip(xi_rows, result.first_class):
            c = qq.row_bracket(xb, x, n)
            if c:
                x = qq.row_add(x, -c, rep_b.row)
        xi_rows.append(x)

    # each standard-basis seed e_i is projected off the placed pairs, which
    # are mutually symplectic-orthogonal, in one sum e_i - sum_p (<e_i, f_p> e_p
    # - <e_i, e_p> f_p), then paired; the pairs' offsets are left out, so a
    # (Q, P) row gets offset zero
    placed = theta_rows + list(zip(xi_rows, [rep.row for rep in result.first_class]))
    flat = [(tuple(x for x in v[0] if x[0] < 2 * n), v[1]) for e, f in placed for v in (f, e)]
    seeds = [(((i, 1),), 1) for i in range(2 * n)]
    for i, hit in enumerate(qq.pairings(seeds, flat, n)):
        dens = {k: flat[k][1] * flat[k ^ 1][1] for k in hit}
        den = math.lcm(*dens.values())
        terms = [((x if k % 2 else -x) * (den // dens[k]), flat[k ^ 1][0]) for k, x in hit.items()]
        seeds[i] = qq._combine([(den, seeds[i][0]), *terms], den)
    qp_rows = _symplectic_pairs(seeds, n)
    if 2 * len(theta_rows) != len(pool) or f_count + len(theta_rows) + len(qp_rows) != n:
        raise DiracError("symplectic Gram-Schmidt left rows unpaired; classification bug")

    chart = _assemble(result, xi_rows, theta_rows, qp_rows)
    # the rows' brackets: S J S^T = J, which for a square S is S^T J S = J
    if dev := _bracket_deviations([r.row for r in chart.rows], n):
        raise DiracError(f"internal: built chart fails S J S^T = J at {sorted(dev.items())[:3]}")
    return chart


def _symplectic_pairs(rows, n):
    """Symplectic Gram-Schmidt on qq integer rows: the first nonzero row e is
    paired with the first later row it brackets with, rescaled to <e, f> = 1,
    and the rest that share a column with the pair (by an index) are projected
    off it, zero rows dropped; stops when no row is left or e brackets with none."""
    live = {}  # in row order; a row that reaches zero is skipped, never paired
    where = {}  # column -> the rows that have been nonzero there

    def put(i, row):
        for j, _x in live.get(i, ((), 1))[0]:
            where[j].discard(i)
        live[i] = row
        for j, _x in row[0]:
            where.setdefault(j, set()).add(i)

    def meeting(*vs):
        cols = {j + n if j < n else j - n for v in vs for j, _x in v[0] if j < 2 * n}
        return sorted(set().union(*(where.get(j, ()) for j in cols)) & live.keys())

    for i, row in enumerate(rows):
        put(i, row)
    pairs = []
    while live:
        e = live.pop(next(iter(live)))
        if not e[0]:
            continue
        k, br = next(((k, br) for k in meeting(e) if (br := qq.row_bracket(e, live[k], n))), (None, 0))
        if not br:
            break
        f = qq.row_div(live.pop(k), br)
        for i in meeting(e, f):
            put(i, qq.row_project(live[i], e, f, n))
        pairs.append((e, f))
    return pairs


def _assemble(result: DiracResult, xi_rows, theta_rows, qp_rows) -> CanonicalChart:
    """The chart of the placed integer rows (offset at column 2n), statically
    corrected: rows in the order Xi, ThU, Q | Psi, ThD, P, each with a fresh
    symbol registered in that order.  The Psi rows are the first-class
    representatives, so their generations are the ClassReps'."""
    heads = [("Xi", len(xi_rows)), ("ThU", len(theta_rows)), ("Q", len(qp_rows))]
    heads += [(ROLE_CONJUGATE[role], count) for role, count in heads]
    layout = [(role, k) for role, count in heads for k in range(1, count + 1)]
    pairs = theta_rows + qp_rows
    vectors = xi_rows + [e for e, _f in pairs] + [rep.row for rep in result.first_class] + [f for _e, f in pairs]
    rows = {result.table.register_fresh(f"{role}{k}", "position"): row for (role, k), row in zip(layout, vectors)}
    rows, notes = _static_correct(rows, layout, result)
    gens = [rep.generation for rep in result.first_class]
    return _chart(result.phase, [(*key, sym, row) for key, (sym, row) in zip(layout, rows.items())], gens, notes)


def _chart(phase: PhaseSpace, rows, generations, notes=()) -> CanonicalChart:
    """The chart of `rows`, (role, pair, symbol, qq row) in chart order, and
    the one place a row's generation is set: Psi k's is `generations[k - 1]`,
    the largest generation among the constraints it combines, Xi k's the
    same, every other row's None."""
    gen = lambda role, k: generations[k - 1] if role in ("Xi", "Psi") else None
    return CanonicalChart(phase, [ChartRow(role, k, row, sym, gen(role, k)) for role, k, sym, row in rows], notes)


def import_chart(result: DiracResult, chart_rows) -> CanonicalChart:
    """The chart a system file supplies, `chart_rows` its (name, text, line)
    triples, each row named through `register_fresh`: checked, never altered,
    and refused with an InputError naming the first check it fails."""
    table, phase = result.table, result.phase
    n = phase.n
    by_role = {}  # (role, index) -> (symbol, qq integer row over (z, 1))
    for name, text, lineno in chart_rows:
        role, idx = ROLE_PATTERN.match(name).groups()
        sym = table.register_fresh(name, "position")
        if sym.name != name:
            raise InputError(f"chart row name {name!r} collides with an existing symbol")
        try:
            row = parse_expr(text, table).affine_row(phase.z_order())
        except ExprError as exc:
            raise InputError(f"chart row {name} (line {lineno}) is not linear in phase coordinates: {exc}")
        except Exception as exc:
            raise InputError(f"chart row {name} (line {lineno}): {exc}") from exc
        by_role[role, int(idx)] = (sym, row)

    counts = {r: max((i for (rr, i) in by_role if rr == r), default=0) for r in ("Xi", "Psi", "ThU", "ThD", "Q", "P")}
    if counts["Xi"] != counts["Psi"] or counts["ThU"] != counts["ThD"] or counts["Q"] != counts["P"]:
        raise InputError("chart roles must pair up: Xi/Psi, ThU/ThD, Q/P")
    total = counts["Xi"] + counts["ThU"] + counts["Q"]
    if total != n:
        raise InputError(f"chart must have {n} conjugate pairs, found {total}")
    order = [(role, i) for role in ("Xi", "ThU", "Q", "Psi", "ThD", "P") for i in range(1, counts[role] + 1)]
    for role, i in order:
        if (role, i) not in by_role:
            raise InputError(f"missing chart row {role}{i}")
    rows = [(*key, *by_role[key]) for key in order]  # chart order
    ok, violations, _ = verify_chart([qq.from_row(row, 2 * n) for *_key, _sym, row in rows], mode="exact")
    if not ok:
        i, k, delta = violations[0]
        raise InputError(f"supplied chart fails S^T J S = J (entry {i},{k} off by {delta})")

    # The constraints' covectors are independent, and so are the chart's rows.
    # So the Psi rows span the first-class constraints when there are F of
    # them and each is a combination of constraints in involution with all of
    # them, and Psi with Theta span the constraints when all are combinations
    # and they number m.
    cons = result.constraints
    psi = [row for role, *_rest, row in rows if role == "Psi"]
    theta = [row for role, *_rest, row in rows if role in ("ThU", "ThD")]
    coords = qq.solve([c.row for c in cons], psi + theta, 2 * n)  # {constraint index: coefficient}, or None
    first_class = [x is not None and not any(qq._pair(v[0], c.row[0], n) for c in cons) for v, x in zip(psi, coords)]
    if len(psi) != result.F or not all(first_class):
        raise InputError("supplied Psi rows do not span the first-class constraints")
    if len(psi) + len(theta) != len(cons) or None in coords:
        raise InputError("supplied Psi/Theta rows do not span the constraint set")
    gens = [max(cons[i].generation for i, xc in x.items() if xc) for x in coords[: len(psi)]]
    return _chart(phase, rows, gens)


def _static_correct(rows: dict, layout, result: DiracResult):
    """Absorb physical-block content of secondary-and-higher gauge velocities.

    A Xi row conjugate to a non-primary first-class momentum should evolve
    only through constraint/gauge coordinates; leftover (Q, P) content is
    removed by shifting the row inside the physical block and compensating
    the physical rows with multiples of the paired momentum, which keeps the
    bracket table canonical.  Failure to solve is recorded, not fatal.

    `rows` maps each chart symbol to its qq integer row in chart order, and
    `layout` gives each its (role, pair).  Returns the rows, corrected in a
    copy (the given dict is left as it was), and the notes.

    A row's velocity is the row against the Hamiltonian field of H_T at free
    multipliers zero, written on the embedded subspace (every chart
    coordinate but Q and P at zero) as a qq row over (Q, P, 1): for an H_T of
    degree <= 2 the row times the integer columns of S^-1 (`_inverse_map`),
    otherwise an Expr substituted with `_chart_map`.
    """
    phase, table = result.phase, result.table
    n = phase.n
    syms = list(rows)
    qp_syms = [s for s, (role, _k) in zip(syms, layout) if role in ("Q", "P")]
    # the Xi rows come first, each conjugate Psi row n rows later
    targets = [(syms[a], syms[a + n]) for a, rep in enumerate(result.first_class) if rep.generation > 1]
    notes = []
    if not (qp_syms and targets):
        return rows, notes
    rows = dict(rows)
    ht, _ = result.total_hamiltonian().split_affine(result.free_multipliers)
    qfield = quadratic_field(ht, phase)
    field = hamilton_field(ht, phase) if qfield is None else None

    def embedding():
        if qfield is None:
            return _chart_map(phase, list(rows.items()), qp_syms)
        return _inverse_map(list(rows.items()), n, qp_syms)[1:]

    def velocity(sym, embedded):  # a qq row over (qp_syms..., 1)
        if qfield is None:
            entries, den = rows[sym]
            return (field_bracket(entries, field, table) / den).substitute(embedded).affine_row(qp_syms)
        inv, den = embedded
        b, bden = row_field_bracket(rows[sym], qfield)  # its offset times den is the velocity's
        return qq._combine([(x, inv[i]) if i < 2 * n else (x * den, ((len(qp_syms), 1),)) for i, x in b], bden * den)

    for xi, psi in targets:
        embedded = embedding()
        try:
            v = velocity(xi, embedded)
            if not v[0]:
                continue
            (alpha,) = qq.solve([velocity(w, embedded) for w in qp_syms], [qq.row_div(v, Fraction(-1))], len(qp_syms) + 1)
        except ExprError:
            alpha = None
        if alpha is None:
            notes.append(
                f"{xi.name}: physical content of its velocity could not be absorbed; "
                f"canonical embeddings may be unavailable in this chart"
            )
            continue
        x = rows[xi]
        for k, a in alpha.items():
            if a:
                x = qq.row_add(x, a, rows[qp_syms[k]])
        rows[xi] = x
        for w in qp_syms:
            lam = -qq.row_bracket(x, rows[w], n)
            if lam:
                rows[w] = qq.row_add(rows[w], lam, rows[psi])
    return rows, notes


def _inverse_map(rows, n, keep=None):
    """z = S^-1 (Y - offsets), read off `rows`, the chart's (symbol, qq row)
    pairs in chart order, the coordinates outside `keep` (default: all, pair
    by pair) at zero: (kept symbols, one row's entries per z_i over (kept...,
    1), their common denominator).  By S^-1 = -J S^T J a position's column is
    the symplectic gradient of its momentum's row; a momentum's, minus its position's."""
    kept = [y for pair in zip(rows[:n], rows[n:]) for y, _row in pair] if keep is None else list(keep)
    col = {y.index: c for c, y in enumerate(kept)}
    den = math.lcm(*(da * db for (_a, (_, da)), (_b, (_, db)) in zip(rows[:n], rows[n:])))
    inv, shift = [[] for _ in range(2 * n)], {}
    for a, b in zip(rows[:n], rows[n:]):
        for (y, yrow), (_c, (entries, d)), sign in ((a, b, 1), (b, a, -1)):
            grad, k = _sympl_grad(entries, n), sign * (den // (d * yrow[1]))
            if off := qq.entry(yrow, 2 * n):
                for i, x in grad:
                    shift[i] = shift.get(i, 0) - x * k * off
            if y.index in col:
                for i, x in grad:
                    inv[i].append((col[y.index], x * k * yrow[1]))
    for i, s in shift.items():
        if s:
            inv[i].append((len(kept), s))
    return kept, [sorted(r) for r in inv], den


def _chart_map(phase: PhaseSpace, rows, keep=None) -> dict:
    """`_inverse_map` as one affine Expr per phase symbol z_i."""
    kept, inv, den = _inverse_map(rows, phase.n, keep)
    return {z: _row_expr((row, den), kept, phase.table) for z, row in zip(phase.z_order(), inv)}


def _sympl_grad(entries, n):
    """Entries of the row r with r . x = <x, c>, c given by its entries (below 2n)."""
    return [(j - n, x) for j, x in entries if n <= j < 2 * n] + [(j + n, -x) for j, x in entries if j < n]


# ---------------------------------------------------------------------------
# verification

def verify_chart(matrix, mode="exact", tol=1e-12):
    """Check S^T J S = J.

    Returns (ok, violations, max_deviation); each violation is (i, j, delta)
    naming the offending bracket entry.  Exact mode takes the entries as
    rationals and every nonzero delta is a violation.  Float mode takes each
    double as the rational it equals, so delta is the exact S^T J S - J of
    the given doubles: a violation where |delta| > tol, reported rounded once
    to a float, for a tol that is a finite number >= 0.  A non-finite entry
    makes every bracket of its column a violation with delta nan, and the
    maximum deviation nan.
    """
    dim = len(matrix)
    if dim % 2 or any(len(r) != dim for r in matrix):
        raise ChartError("chart matrix must be square with even dimension")
    if mode not in ("exact", "float"):
        raise ChartError(f"unknown verify mode {mode!r}")
    if mode == "float" and not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):  # nan fails both
        raise ChartError(f"tolerance must be a finite number >= 0, got {tol!r}")
    n = dim // 2
    # (S^T J S)_ik is the bracket of columns i and k
    cols = [
        None if mode == "float" and not all(map(math.isfinite, col)) else qq.to_row([Fraction(x) for x in col])
        for col in zip(*matrix)
    ]
    dev = _bracket_deviations(cols, n)
    if mode == "exact":
        violations = [(i, k, dev[i, k]) for i, k in sorted(dev)]
        return (not violations), violations, max((abs(d) for _, _, d in violations), default=Fraction(0))
    # an entry missing from dev is 0, within every tol
    violations = [(i, k, float(dev[i, k])) for i, k in sorted(dev) if not abs(dev[i, k]) <= tol]
    maxdev = math.nan if None in cols else float(max(map(abs, dev.values()), default=0))
    return (not violations), violations, maxdev


def _bracket_deviations(vecs, n):
    """{(i, k): B_ik - J_ik} where nonzero, B_ik the bracket of 2n qq integer
    vectors over z, J_ik = +1 at k = i + n, -1 at i = k + n, a deviation a
    Fraction; a None vector (non-finite) makes its row and column nan.  Only
    the J entries and pairs that share a conjugate column are visited."""
    rows = [((), 1) if v is None else v for v in vecs]
    dev = {}
    for i, pairs in enumerate(qq.pairings(rows, rows, n)):
        for k in {*pairs, i + n}:
            if i < k < len(rows) and (x := Fraction(pairs.get(k, 0), rows[i][1] * rows[k][1]) - (k == i + n)):
                dev[i, k], dev[k, i] = x, -x
    bad = [i for i, v in enumerate(vecs) if v is None]
    dev.update({key: math.nan for i in bad for k in range(len(vecs)) if k != i for key in ((i, k), (k, i))})
    return dev


def transform(e: Expr, chart: CanonicalChart) -> Expr:
    """Rewrite a phase-space expression in chart symbols.

    Exact canonical charts only (S^T J S = J, as every chart leaving
    build_chart or the supplied-chart import is), so S^-1 has a closed form.
    """
    return e.substitute(_chart_map(chart.phase, [(r.symbol, r.row) for r in chart.rows]))


# ---------------------------------------------------------------------------
# integrability

class FrobeniusReport(_Record):
    __slots__ = ("residuals", "verdict", "budget_used", "budget_total", "budget_ok")

    def __init__(self, residuals: tuple, verdict: bool, budget_used: int, budget_total: int, budget_ok: bool):
        # residuals: (coordinate name, residual Expr)
        self._fields(residuals, verdict, budget_used, budget_total, budget_ok)


def frobenius_check(result: DiracResult) -> "FrobeniusReport":
    """Hamilton-side integrability: the free-multiplier 1-form residuals
    -sum_alpha zeta^alpha dPhi_alpha/dq_i must vanish per position coordinate,
    and the constraint count must respect the 2n budget.  The constraints are
    affine with constant coefficients, so no residual can vanish only weakly:
    nothing is reduced: residual i is column q_i of the first-class primaries'
    rows (the first `primary_fc_count` of `first_class`), over the multipliers."""
    if not result.classified:
        raise ChartError("classify the Dirac result before the Frobenius check")
    phase = result.phase
    free = result.free_multipliers
    fc_rows = [rep.row for rep in result.first_class[: result.primary_fc_count]]
    if len(free) != len(fc_rows):
        raise DiracError("free multipliers out of sync with first-class primaries")
    den = math.lcm(*(d for _entries, d in fc_rows))
    columns = [[] for _ in phase.positions]  # column q_i of the rows, over (free..., 1)
    for a, (entries, d) in enumerate(fc_rows):
        for i, x in entries:
            if i < phase.n:
                columns[i].append((a, -x * (den // d)))
    residuals = [(q.name, _row_expr((tuple(c), den), free, result.table)) for q, c in zip(phase.positions, columns)]
    ok = all(r.is_zero() for _name, r in residuals)
    used = len(result.constraints)
    total = 2 * phase.n
    budget_ok = used <= total
    return FrobeniusReport(residuals, ok and budget_ok, used, total, budget_ok)
