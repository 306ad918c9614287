from fractions import Fraction

import pytest

from hamdirac import (
    InconsistentTheory,
    SymbolTable,
    dirac_iterate,
    dof,
    legendre,
    parse_expr,
    poisson,
)
from hamdirac.dirac import DiracError
from hamdirac.expr import Expr
from hamdirac.lagrangian import PhaseSpace
from hamdirac.linalg import rank

from conftest import (
    FAMILY_RATIONALS,
    L3_SRC,
    analyzed,
    l3_family,
    linear_form,
    make_system,
    random_poly,
    rng_for,
    sympy_rank,
    weak_reducer,
)


def phase2():
    t = SymbolTable()
    qs = [t.position(n) for n in ("q1", "q2")]
    ps = [t.register(n, "momentum") for n in ("p1", "p2")]
    return t, PhaseSpace(t, tuple(zip(qs, ps)))


def test_poisson_examples():
    t, phase = phase2()
    f = parse_expr("p1 + q2", t)
    g = parse_expr("p2 - q1", t)
    assert poisson(f, g, phase) == Expr.const(t, 2)
    assert poisson(f, f, phase).is_zero()


def test_poisson_l3_second_class_bracket(l3):
    t, fos, res = l3
    phi22 = parse_expr("(1/3)*p3 + q1 + q2 + q4", t)
    phi12 = parse_expr("(1/3)*(p1 + p2 - p3 + p4)", t)
    assert poisson(phi22, phi12, fos.phase) == Expr.const(t, 1)


def test_poisson_properties_random():
    t, phase = phase2()
    syms = [s for q, p in phase.pairs for s in (q, p)]
    rng = rng_for("poisson-props")
    one = Expr.const(t, 1)
    for _ in range(210):
        f = random_poly(t, syms, rng, max_degree=3, terms=3)
        g = random_poly(t, syms, rng, max_degree=3, terms=3)
        h = random_poly(t, syms, rng, max_degree=3, terms=3)
        pb = lambda a, b: poisson(a, b, phase)
        assert pb(f, g) == -pb(g, f)
        assert pb(f + 2 * g, h) == pb(f, h) + 2 * pb(g, h)
        jac = pb(f, pb(g, h)) + pb(g, pb(h, f)) + pb(h, pb(f, g))
        assert jac.is_zero()
        assert pb(f * g, h) == f * pb(g, h) + pb(f, h) * g


def test_weak_reduce_examples():
    t, phase = phase2()
    e = parse_expr("p1*p2", t)
    assert weak_reducer([parse_expr("p1", t)], phase).reduce(e).is_zero()
    assert weak_reducer([], phase).reduce(e) == e


def test_weak_reduce_random_multiple():
    # q1*X + p2 vanishes weakly for arbitrary polynomial X once q1 and p2 do
    t, phase = phase2()
    syms = [s for q, p in phase.pairs for s in (q, p)]
    rng = rng_for("weak-reduce")
    reducer = weak_reducer([parse_expr("q1", t), parse_expr("p2", t)], phase)
    for _ in range(40):
        x = random_poly(t, syms, rng)
        e = parse_expr("q1", t) * x + parse_expr("p2", t)
        assert reducer.reduce(e).is_zero()


def test_weak_reduce_affine_solve():
    t, phase = phase2()
    reducer = weak_reducer([parse_expr("p2 - q1", t)], phase)
    # p2 is solved (highest index), leaving the expression in the rest
    assert reducer.reduce(parse_expr("p2", t)) == parse_expr("q1", t)


def test_cawley_chain(l1):
    t, fos, res = l1
    chain = [(c.generation, str(c.expr)) for c in res.constraints]
    assert chain == [(1, "p2"), (2, "q3"), (3, "p1")]
    assert any("irreducibility" in f and "q3" in f for f in res.flags)
    assert [z.name for z in res.free_multipliers] == ["zeta1"]
    assert res.multiplier_solutions == {}
    assert (res.F, res.S, res.dof) == (3, 0, 0)
    assert all(c.klass == "first" for c in res.constraints)


def test_l2_multipliers(l2):
    t, fos, res = l2
    assert len(res.constraints) == 2  # no secondaries
    sols = {z.name: v for z, v in res.multiplier_solutions.items()}
    assert sols["zeta1"] == parse_expr("-q2", t)
    assert sols["zeta2"] == parse_expr("q1", t)
    assert res.free_multipliers == ()
    assert (res.F, res.S, res.dof) == (0, 2, 1)


def test_l3_chains_and_multipliers(l3):
    t, fos, res = l3
    gens = {}
    for c in res.constraints:
        gens.setdefault(c.generation, []).append(c.expr)
    assert sorted(gens) == [1, 2]
    # generation spans match the printed chains
    span1 = [parse_expr("p1", t), parse_expr("p2 - p3 + p4", t)]
    rebased1 = [parse_expr("p1 - (1/2)*(p2 - p3 + p4)", t), parse_expr("(1/3)*(p1 + p2 - p3 + p4)", t)]
    assert same_span(t, fos, gens[1], span1) and same_span(t, fos, gens[1], rebased1)
    rebased2 = [parse_expr("p3", t), parse_expr("(1/3)*p3 + q1 + q2 + q4", t)]
    assert same_span(t, fos, gens[2], rebased2)
    # one free multiplier on the first-class primary, one solved weakly -p4
    assert [z.name for z in res.free_multipliers] == ["zeta1"]
    (z2, val), = res.multiplier_solutions.items()
    assert z2.name == "zeta2"
    delta = val - parse_expr("-p4", t)
    assert weak_reducer([c.expr for c in res.constraints], fos.phase).reduce(delta).is_zero()
    assert (res.F, res.S, res.dof) == (2, 2, 1)
    # first-class representatives literally land on the printed combination
    assert [str(r.expr) for r in res.first_class] == ["p1 - 1/2*p2 + 1/2*p3 - 1/2*p4", "p3"]


def same_span(t, fos, a, b):
    z = fos.phase.z_order()
    rows_a = [[e.diff(s) for s in z] for e in a]
    rows_b = [[e.diff(s) for s in z] for e in b]
    ra = rank(rows_a)
    rb = rank(rows_b)
    rab = rank(rows_a + rows_b)
    return ra == rb == rab


def test_solved_multiplier_consistency_invariant(l1, l2, l3, l4_ssok, l4_pons):
    # after substituting the solved multipliers, every constraint's bracket
    # with H_T weakly vanishes identically in the remaining free multipliers
    for t, fos, res in (l1, l2, l3, l4_ssok, l4_pons):
        ht = res.total_hamiltonian()
        reducer = weak_reducer([c.expr for c in res.constraints], fos.phase)
        for c in res.constraints:
            r = reducer.reduce(poisson(c.expr, ht, fos.phase))
            if res.free_multipliers:
                const, coeffs = r.split_affine(res.free_multipliers)
                assert reducer.reduce(const).is_zero()
                for coeff in coeffs.values():
                    assert reducer.reduce(coeff).is_zero()
            else:
                assert r.is_zero()


def test_classification_gram_invariants(l3):
    t, fos, res = l3
    cons = [c.expr for c in res.constraints]
    reducer = weak_reducer(cons, fos.phase)
    # every first-class representative commutes weakly with all constraints
    for rep in res.first_class:
        for ce in cons:
            assert reducer.reduce(poisson(rep.expr, ce, fos.phase)).is_zero()
    # the second-class Gram submatrix has full rank
    reps = [r.expr for r in res.second_class]
    gram = [[reducer.reduce(poisson(a, b, fos.phase)) for b in reps] for a in reps]
    assert rank(gram) == res.S


def test_dof_examples_and_guards():
    assert dof(4, 2, 2) == 1
    assert dof(2, 0, 2) == 1
    assert dof(3, 3, 0) == 0
    with pytest.raises(DiracError):
        dof(1, 0, 1)  # odd remainder
    with pytest.raises(DiracError):
        dof(1, 2, 0)  # negative


def test_contradictory_theory():
    # L = q forces the consistency condition 1 = 0
    sys = make_system("q", ["q"])
    fos = legendre(sys)
    with pytest.raises(InconsistentTheory):
        dirac_iterate(fos)


def test_l4_ssok_chain(l4_ssok):
    t, fos, res = l4_ssok
    assert len(res.constraints) == 2
    assert (res.F, res.S, res.dof) == (0, 2, 1)
    prim, sec = res.constraints
    assert poisson(prim.expr, sec.expr, fos.phase) == Expr.const(t, -1)
    # the mathematically forced multiplier: consistency of the secondary
    (z, val), = res.multiplier_solutions.items()
    q1 = t["Q1_q"]
    assert val == -Expr.sym(t, q1)


def test_l4_pons_chain(l4_pons):
    t, fos, res = l4_pons
    assert (res.F, res.S, res.dof) == (0, 4, 1)
    assert [str(c.expr) for c in res.constraints] == ["lam1 + p_q", "1/2*q + p_x1", "p_lam1", "1/2*x1 + lam1"]
    sols = {z.name: str(v) for z, v in res.multiplier_solutions.items()}
    assert sols == {"zeta1": "x1", "zeta2": "-q", "zeta3": "1/2*q"}
    brackets = {
        ("lam1 + p_q", "1/2*q + p_x1"): "-1/2",
        ("lam1 + p_q", "p_lam1"): "1",
        ("1/2*x1 + lam1", "1/2*q + p_x1"): "1/2",
        ("1/2*x1 + lam1", "p_lam1"): "1",
    }
    by_expr = {str(c.expr): c.expr for c in res.constraints}
    for (a, b), v in brackets.items():
        assert str(poisson(by_expr[a], by_expr[b], fos.phase)) == v


@pytest.mark.extras
def test_gram_kernel_matches_sympy_nullspace():
    """The first-class combinations are sympy's nullspace basis (one vector per
    free column), each scaled to a leading 1 and given as its qq integer row,
    with the latest generation on its support.  The Gram matrix comes as one
    qq integer row per constraint, as is and each row scaled by a nonzero
    rational, which moves no pivot."""
    import random
    from fractions import Fraction
    from types import SimpleNamespace

    import sympy

    from hamdirac import qq
    from hamdirac.dirac import _gram_kernel

    rng = random.Random("gram-kernel")
    for _ in range(80):
        m = rng.randint(1, 7)
        gram = [[Fraction(0)] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.4:
                    gram[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    gram[j][i] = -gram[i][j]
        gens = sorted(rng.randint(1, 3) for _ in range(m))
        cons = [SimpleNamespace(generation=g) for g in gens]
        want = []
        for v in sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in gram]).nullspace():
            support = [i for i in range(m) if v[i] != 0]
            want.append((qq.to_row([Fraction(str(x / v[support[0]])) for x in v]), max(gens[i] for i in support)))
        rows = [qq.to_row(row) for row in gram]
        assert _gram_kernel(rows, cons) == want
        scaled = [qq.row_div(row, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))) for row in rows]
        assert _gram_kernel(scaled, cons) == want


def dense_poisson(f, g, phase):
    """The bracket summed over every pair, no skipping."""
    out = Expr.const(phase.table, 0)
    for q, p in phase.pairs:
        out = out + f.diff(q) * g.diff(p) - f.diff(p) * g.diff(q)
    return out


def test_sparse_poisson_equals_dense_sum():
    # operands over random subsets of three pairs, a third of them rational
    # functions; the sparse bracket must be the same Expr down to dict order
    t = SymbolTable()
    qs = [t.position(f"q{i}") for i in (1, 2, 3)]
    ps = [t.register(f"p{i}", "momentum") for i in (1, 2, 3)]
    phase = PhaseSpace(t, tuple(zip(qs, ps)))
    slots = qs + ps
    rng = rng_for("sparse-poisson")

    def operand():
        syms = rng.sample(slots, rng.randint(1, len(slots)))
        e = random_poly(t, syms, rng, max_degree=2, terms=3)
        if rng.random() < 0.35:
            den = random_poly(t, rng.sample(slots, rng.randint(1, 3)), rng, max_degree=1, terms=2)
            if not den.is_zero():
                e = e / den
        return e

    for _ in range(300):
        f, g = operand(), operand()
        got, want = poisson(f, g, phase), dense_poisson(f, g, phase)
        assert list(got.num.items()) == list(want.num.items())
        assert list(got.den.items()) == list(want.den.items())


def test_field_bracket_equals_poisson():
    # {X, H} of an affine X (with an offset, carried past the 2n entries the
    # field pairs with) is X's coefficients against H's Hamiltonian field;
    # H is a random polynomial or, a third of the time, a rational function
    from hamdirac.dirac import field_bracket, hamilton_field

    t = SymbolTable()
    qs = [t.position(f"q{i}") for i in (1, 2, 3)]
    ps = [t.register(f"p{i}", "momentum") for i in (1, 2, 3)]
    phase = PhaseSpace(t, tuple(zip(qs, ps)))
    slots = qs + ps
    rng = rng_for("field-bracket")
    small = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    for _ in range(150):
        h = random_poly(t, rng.sample(slots, rng.randint(1, len(slots))), rng, max_degree=3, terms=4)
        if rng.random() < 0.35:
            den = random_poly(t, rng.sample(slots, rng.randint(1, 3)), rng, max_degree=1, terms=2)
            if not den.is_zero():
                h = h / den
        field = hamilton_field(h, phase)
        assert field == [poisson(Expr.sym(t, z), h, phase) for z in phase.z_order()]
        for _ in range(3):
            coeffs = [small() if rng.random() < 0.6 else Fraction(0) for _ in slots]
            offset = small()
            x = Expr.const(t, offset)
            for c, z in zip(coeffs, slots):
                x = x + Expr.sym(t, z) * c
            entries = [(j, c) for j, c in enumerate(coeffs + [offset]) if c]
            assert field_bracket(entries, field, t) == poisson(x, h, phase)


def greedy_unit_complement(basis, m, k):
    """The greedy completion: take e_j, by increasing j, whenever it raises the rank."""
    from fractions import Fraction

    chosen = []
    for j in range(m):
        if len(chosen) == k:
            break
        e_j = [Fraction(int(i == j)) for i in range(m)]
        vecs = basis + [[Fraction(int(i == c)) for i in range(m)] for c in chosen] + [e_j]
        if sympy_rank(vecs) == len(vecs):
            chosen.append(j)
    return chosen


@pytest.mark.extras
def test_unit_complement_matches_greedy_rank_loop():
    import random
    from fractions import Fraction

    from hamdirac import qq
    from hamdirac.dirac import _unit_complement

    rng = random.Random("unit-complement")
    assert _unit_complement([], 4, 4) == [0, 1, 2, 3]
    assert _unit_complement([], 4, 2) == [0, 1]
    assert _unit_complement([], 3, 0) == []
    for _ in range(300):
        m = rng.randint(1, 7)
        size = rng.randint(0, m)
        basis = []
        while len(basis) < size:  # independent, sparse, small entries
            v = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0) for _ in range(m)]
            if sympy_rank(basis + [v]) == len(basis) + 1:
                basis.append(v)
        k = rng.randint(0, m - size)
        rows = [qq.to_row(v) for v in basis]
        before = list(rows)
        got = _unit_complement(rows, m, k)
        assert got == greedy_unit_complement(basis, m, k)
        assert rows == before  # the basis is not reduced in place
        assert sympy_rank(basis + [[Fraction(int(i == j)) for i in range(m)] for j in got]) == size + k


def eliminate_fixpoint(rows, zetas, table):
    """The multiplier solve with back-substitution repeated until nothing
    changes; oracle for the one-pass Gauss-Jordan `_eliminate`.

    Pivot policy: in each column, a row whose coefficient is +1 or -1 if
    there is one, else the row with the earliest source index."""
    work = [(idx, list(coeffs), const) for idx, coeffs, const in rows]
    solutions = {}
    for col in range(len(zetas)):
        live = [(abs(coeffs[col]) != 1, idx, k) for k, (idx, coeffs, const) in enumerate(work) if coeffs[col] != 0]
        if not live:
            continue
        idx, coeffs, const = work.pop(min(live)[2])
        piv = coeffs[col]
        sol_const = -const / piv
        sol_coeffs = [-c / piv for c in coeffs]
        sol_coeffs[col] = Fraction(0)
        solutions[col] = (sol_const, sol_coeffs)
        new_work = []
        for idx2, coeffs2, const2 in work:
            f = coeffs2[col]
            if f != 0:
                const2 = const2 + f * sol_const
                coeffs2 = [c2 + f * sc for c2, sc in zip(coeffs2, sol_coeffs)]
                coeffs2[col] = Fraction(0)
            new_work.append((idx2, coeffs2, const2))
        work = new_work
    changed = True
    while changed:
        changed = False
        for col, (sc, scoeffs) in list(solutions.items()):
            for col2, (sc2, scoeffs2) in solutions.items():
                if col2 == col:
                    continue
                f = scoeffs[col2]
                if f != 0:
                    sc = sc + f * sc2
                    scoeffs = [a + f * b for a, b in zip(scoeffs, scoeffs2)]
                    scoeffs[col2] = Fraction(0)
                    solutions[col] = (sc, scoeffs)
                    changed = True
    solved = {}
    for col, (sc, scoeffs) in solutions.items():
        val = sc
        for j, c in enumerate(scoeffs):
            if c != 0:
                val = val + Expr.const(table, c) * Expr.sym(table, zetas[j])
        solved[zetas[col]] = val
    return solved, [(idx, const) for idx, coeffs, const in work]


def test_eliminate_matches_fixpoint_back_substitution():
    # seeded multiplier systems over Q: zero columns, unit and non-unit
    # pivots, and dependent rows whose constants disagree (nonzero residues).
    # Each system is solved twice through `_consistency_rows`: with brackets
    # of degree <= 3 as tags (a non-quadratic H) and with affine brackets as
    # (z, 1) tails (a quadratic H)
    from hamdirac import qq
    from hamdirac.dirac import _consistency_rows, _eliminate, _row_expr

    t, phase = phase2()
    syms = [s for q, p in phase.pairs for s in (q, p)]
    z = phase.z_order()
    rng = rng_for("eliminate-gauss-jordan")
    residue_systems = {"tags": 0, "tails": 0}
    for _ in range(150):
        zetas = [t.register_fresh(f"z{j + 1}", "multiplier") for j in range(rng.randint(1, 4))]

        def coeff():
            if rng.random() < 0.35:
                return Fraction(0)
            return Fraction(rng.choice([-2, -1, 1, 1, 2, 3]), rng.randint(1, 2))

        coeff_rows = []
        for _idx in range(rng.randint(1, 5)):
            if coeff_rows and rng.random() < 0.3:  # a multiple of an earlier row, new constant
                f = Fraction(rng.randint(1, 3))
                coeff_rows.append([c * f for c in rng.choice(coeff_rows)])
            else:
                coeff_rows.append([coeff() for _ in zetas])
        cubic = [random_poly(t, syms, rng, max_degree=3, terms=3) for _ in coeff_rows]
        affine = [random_poly(t, syms, rng, max_degree=1, terms=2) for _ in coeff_rows]
        for kind, consts, brackets in (("tags", cubic, cubic), ("tails", affine, [e.affine_row(z) for e in affine])):
            rows = _consistency_rows([qq.to_row(c) for c in coeff_rows], brackets, len(zetas))
            solved, residues = _eliminate(rows, zetas, t, z, brackets)
            if kind == "tails":
                residues = [(idx, _row_expr(r, z, t)) for idx, r in residues]
            want = eliminate_fixpoint(list(zip(range(len(consts)), coeff_rows, consts)), zetas, t)
            kept = {idx for idx, _row in rows}  # a zero (z, 1) tail row is skipped; every tagged row is kept
            zero = {i for i, (c, e) in enumerate(zip(coeff_rows, consts)) if not any(c) and e.is_zero()}
            assert kept == set(range(len(consts))) - (zero if kind == "tails" else set())
            assert list(solved.items()) == list(want[0].items())
            assert residues == [(idx, r) for idx, r in want[1] if idx in kept]
            residue_systems[kind] += any(not r.is_zero() for _, r in residues)
    assert min(residue_systems.values()) > 20, residue_systems


def test_eliminate_prefers_a_unit_pivot():
    # rows 2*z + a and z + b: z pivots on the unit row 1 although row 0 is
    # earlier, so z = -b and row 0 keeps the residue a - 2*b, whether a and
    # b come as tagged Expr brackets or as (z, 1) tails
    from hamdirac import qq
    from hamdirac.dirac import _consistency_rows, _eliminate

    t, phase = phase2()
    (q1, p1), _ = phase.pairs
    a, b = Expr.sym(t, q1), Expr.sym(t, p1)
    z = t.register_fresh("z1", "multiplier")
    syms = phase.z_order()
    coeff_rows = [qq.to_row([Fraction(2)]), qq.to_row([Fraction(1)])]
    tails = [a.affine_row(syms), b.affine_row(syms)], (a - 2 * b).affine_row(syms)
    for brackets, residue in (([a, b], a - 2 * b), tails):
        solved, residues = _eliminate(_consistency_rows(coeff_rows, brackets, 1), [z], t, syms, brackets)
        assert solved == {z: -b}
        assert residues == [(0, residue)]


def test_weak_reducer_built_once_per_constraint_set(monkeypatch):
    # dirac_iterate builds one reducer from the primaries and extends it by
    # each constraint it accepts; nothing after the iteration builds another,
    # and it ends equal to a fresh build over every row
    from importlib import resources
    from pathlib import Path

    from hamdirac import dirac
    from hamdirac.report import run_pipeline
    from hamdirac.sysfile import load_system_file

    builds, extensions, reducers = [], [], []
    init, extend = dirac.WeakReducer.__init__, dirac.WeakReducer.extend

    def counting_init(self, rows, phase):
        builds.append(list(rows))
        reducers.append(self)
        init(self, rows, phase)

    def counting_extend(self, row):
        extensions.append(row)
        extend(self, row)

    monkeypatch.setattr(dirac.WeakReducer, "__init__", counting_init)
    monkeypatch.setattr(dirac.WeakReducer, "extend", counting_extend)
    fixtures = resources.files("hamdirac") / "fixtures"
    golden = Path(__file__).resolve().parent / "golden"
    for path, accepted in ((fixtures / "l3.sys", 2), (fixtures / "cawley.sys", 2), (golden / "coupled3.sys", 8)):
        builds.clear()
        extensions.clear()
        reducers.clear()
        an = run_pipeline(load_system_file(path), stage="report")
        res = an.result
        m1 = sum(c.generation == 1 for c in res.constraints)
        assert builds == [[c.row for c in res.constraints[:m1]]], path
        assert extensions == [c.row for c in res.constraints[m1:]], path
        assert len(extensions) == accepted, path
        (reducer,) = reducers
        fresh = dirac.WeakReducer([c.row for c in res.constraints], res.phase)
        assert reducer._rows == fresh._rows
        for e in [res.H] + [Expr.sym(res.table, s) ** 2 for s in res.phase.z_order()]:
            got, want = reducer.reduce(e), fresh.reduce(e)
            assert (list(got.num.items()), got.den) == (list(want.num.items()), want.den)


def _affine_row_sets(rng, n, count):
    """Random affine row sets over 2n symbols plus an offset, as qq integer
    rows: sparse rows, combinations of earlier rows (dependent, or with a
    shifted offset: inconsistent), and the zero row."""
    from hamdirac import qq

    for _ in range(count):
        rows = []
        for _ in range(rng.randint(1, 2 * n + 2)):
            kind = rng.random()
            if rows and kind < 0.25:
                a, b = rng.choice(rows), rng.choice(rows)
                fa, fb = Fraction(rng.randint(-2, 2), rng.randint(1, 2)), Fraction(rng.randint(-2, 2))
                v = [fa * x + fb * y for x, y in zip(qq.from_row(a, 2 * n + 1), qq.from_row(b, 2 * n + 1))]
                if kind < 0.05:
                    v[-1] += 1
            elif kind < 0.3:
                v = [Fraction(0)] * (2 * n + 1)
            else:
                v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else Fraction(0)
                     for _ in range(2 * n + 1)]
            rows.append(qq.to_row(v))
        yield rows


def test_weak_reducer_extension_matches_fresh_build():
    # extending a reducer one row at a time keeps the RREF a fresh build over
    # the same rows would give: the same pivot rows, the same reductions (a
    # rule read before an extension is not reused after it) and the same
    # InconsistentTheory; every row reduces to zero under the result
    from hamdirac import qq
    from hamdirac.dirac import WeakReducer

    t = SymbolTable()
    n = 3
    qs = [t.position(f"q{i}") for i in range(1, n + 1)]
    ps = [t.register(f"p{i}", "momentum") for i in range(1, n + 1)]
    phase = PhaseSpace(t, tuple(zip(qs, ps)))
    syms = phase.z_order()
    rng = rng_for("reducer-extension")
    outcomes = {"consistent": 0, "inconsistent": 0}

    def fresh(rows):
        try:
            return WeakReducer(rows, phase)
        except InconsistentTheory:
            return None

    for rows in _affine_row_sets(rng, n, 150):
        split = rng.randint(0, len(rows))
        probes = [random_poly(t, syms, rng, max_degree=3, terms=3) for _ in range(2)]
        grown = fresh(rows[:split])
        if grown is not None:
            grown.reduce(probes[0])  # read the rules before any extension
        for k in range(split, len(rows)):
            if grown is None:
                break
            try:
                grown.extend(rows[k])
            except InconsistentTheory:
                grown = None
            want = fresh(rows[: k + 1])
            assert (grown is None) == (want is None)
            if grown is not None:
                assert grown._rows == want._rows
                for e in probes:
                    got, ref = grown.reduce(e), want.reduce(e)
                    assert (list(got.num.items()), got.den) == (list(ref.num.items()), ref.den)
        if grown is None:
            outcomes["inconsistent"] += 1
            continue
        outcomes["consistent"] += 1
        for k, (entries, den) in grown._rows.items():  # a pivot column is in its own row only, with entry 1
            assert qq.entry((entries, den), k) == den
            assert {j for j, _x in entries} & set(grown._rows) == {k}
        pivots = {syms[k].index for k in grown._rows}
        assert not any({s.index for s in grown.reduce(e).free_symbols()} & pivots for e in probes)
        for entries, den in rows:
            expr = Expr(t, {((syms[j].index, 1),): c for j, c in entries if j < len(syms)}, {(): den})
            assert grown.reduce(expr + Fraction(qq.entry((entries, den), len(syms)), den)).is_zero()
    assert min(outcomes.values()) > 20


def test_classify_makes_no_weak_reduction(monkeypatch):
    # classification re-bases the multiplier system on the brackets with H
    # that dirac_iterate's last round reduced: it reduces nothing itself
    from pathlib import Path

    from hamdirac import dirac, report
    from hamdirac.sysfile import load_system_file

    calls = {"all": 0, "classify": 0}
    inside = []
    reduce, classify = dirac.WeakReducer.reduce, dirac.classify

    def counting_reduce(self, e):
        calls["all"] += 1
        calls["classify"] += bool(inside)
        return reduce(self, e)

    def marked_classify(result):
        inside.append(True)
        try:
            return classify(result)
        finally:
            inside.pop()

    monkeypatch.setattr(dirac.WeakReducer, "reduce", counting_reduce)
    monkeypatch.setattr(report, "classify", marked_classify)
    golden = Path(__file__).resolve().parent / "golden"
    # gauge3's H is quadratic: the iteration brackets and reduces integer rows
    # only.  l3quartic's is quartic, the Expr path: 6 reductions in the
    # iteration's rounds, 2 candidate checks
    for system, f_count, reductions in (("gauge3", 6, 0), ("l3quartic", 2, 8)):
        calls.update(all=0, classify=0)
        an = report.run_pipeline(load_system_file(golden / f"{system}.sys"), stage="report")
        assert an.result.F == f_count
        assert calls == {"all": reductions, "classify": 0}, system


def _both_paths(monkeypatch, src, names, order, path):
    """`analyzed` and `build_chart` twice: as the pipeline runs them, and with
    `quadratic_field` answering None, which forces the Expr path."""
    from hamdirac import chart, dirac
    from hamdirac.chart import build_chart

    out = []
    for force_expr in (False, True):
        if force_expr:
            monkeypatch.setattr(dirac, "quadratic_field", lambda h, phase: None)
            monkeypatch.setattr(chart, "quadratic_field", lambda h, phase: None)
        try:
            t, fos, res = analyzed(src, names, order, path)
        except InconsistentTheory:
            out.append(None)
            continue
        out.append((t, res, build_chart(res)))
    monkeypatch.undo()
    return out


def test_integer_path_matches_expr_path(monkeypatch):
    # seeded random quadratic systems, order 1 and 2 (both reductions), with
    # first-class constraints and constant offsets: the integer path gives
    # what the Expr path gives, constraint by constraint, bracket by bracket,
    # multiplier by multiplier and chart row by chart row
    from hamdirac import qq
    from hamdirac.chart import _chart_map, transform
    from hamdirac.dirac import WeakReducer, _row_expr, field_bracket, hamilton_field

    from conftest import random_quadratic_lagrangian
    from test_expr import termwise_psubstitute

    rng = rng_for("integer-quadratic-path")
    seen = {"order2": 0, "F>0": 0, "offset": 0, "static": 0, "inconsistent": 0}
    for trial in range(60):
        order = 2 if trial % 4 == 3 else 1
        names = ["q1", "q2"] if order == 2 else ["q1", "q2", "q3"]
        src = random_quadratic_lagrangian(rng, names, order)
        path = rng.choice(["ssok", "pons"]) if order == 2 else None
        fast, ref = _both_paths(monkeypatch, src, names, order, path)
        if fast is None or ref is None:
            assert fast is ref is None, src
            seen["inconsistent"] += 1
            continue
        (t, res, chart), (_t, want, want_chart) = fast, ref
        # each path keeps its own brackets: qq integer rows here, Exprs there
        assert all(isinstance(br, tuple) for br in res.h_brackets)
        assert all(isinstance(br, Expr) for br in want.h_brackets)
        brackets = tuple(_row_expr(br, res.phase.z_order(), t) for br in res.h_brackets)
        assert [(c.name, c.expr, c.row) for c in res.constraints] == [(c.name, c.expr, c.row) for c in want.constraints]
        assert brackets == want.h_brackets
        assert list(res.multiplier_solutions.items()) == list(want.multiplier_solutions.items())
        assert res.flags == want.flags and res.free_multipliers == want.free_multipliers
        assert [(r.name, r.row) for r in chart.rows] == [(r.name, r.row) for r in want_chart.rows]
        assert chart.notes == want_chart.notes

        reducer = WeakReducer([c.row for c in res.constraints], res.phase)
        field = hamilton_field(res.H, res.phase)
        for c, br in zip(res.constraints, brackets, strict=True):
            assert br == reducer.reduce(field_bracket(c.row[0], field, t) / c.row[1])
        ht = res.total_hamiltonian()
        rules = {s.index: e for s, e in _chart_map(chart.phase, [(r.symbol, r.row) for r in chart.rows]).items()}
        got, ref_ht = transform(ht, chart), termwise_psubstitute(t, ht.num, rules, ht.den[()])
        assert got.num == ref_ht.num and got.den == ref_ht.den

        seen["order2"] += order == 2
        seen["F>0"] += res.F > 0
        seen["offset"] += any(qq.entry(c.row, 2 * res.phase.n) for c in res.constraints)
        seen["static"] += any(r.role == "Xi" and r.generation > 1 for r in chart.rows)
    assert min(seen.values()) >= 2, seen


def test_rows_match_linear_forms_and_expr_brackets(l1, l2, l3, l4_ssok, l4_pons):
    # every stored row is its expression's linear form, and the row bracket
    # of any two constraints or representatives is their weak-reduced Expr
    # Poisson bracket; the linear terms added to L3 give constraint offsets
    from pathlib import Path

    from hamdirac import qq
    from hamdirac.dirac import WeakReducer
    from hamdirac.report import run_pipeline
    from hamdirac.sysfile import load_system_file

    golden = Path(__file__).resolve().parent / "golden"
    rng = rng_for("constraint-rows")
    results = [trip[2] for trip in (l1, l2, l3, l4_ssok, l4_pons)]
    results += [
        run_pipeline(load_system_file(golden / f"{name}.sys"), stage="analyze").result
        for name in ("coupled2", "gauge2", "coupled3", "gauge3")
    ]
    results += [l3_family(kind, k, rng)[2] for kind in ("coupled", "gauge") for k in (1, 2, 2)]
    results.append(analyzed("(1/2)*d(q1)^2 + d(q2)", ["q1", "q2"])[2])
    for _ in range(3):
        a, b = rng.choice(FAMILY_RATIONALS), rng.choice(FAMILY_RATIONALS)
        results.append(analyzed(f"{L3_SRC} + ({a})*d(q3) + ({b})*q4", ["q1", "q2", "q3", "q4"])[2])
    for res in results:
        phase = res.phase
        z = phase.z_order()
        items = res.constraints + res.first_class + res.second_class
        for item in items:
            coeffs, offset = linear_form(item.expr, z)
            assert qq.from_row(item.row, len(z) + 1) == coeffs + [offset], item.expr
        reducer = WeakReducer([c.row for c in res.constraints], phase)
        for a in items:
            for b in items:
                br = reducer.reduce(poisson(a.expr, b.expr, phase))
                assert br.is_constant() and br.constant_value() == qq.row_bracket(a.row, b.row, phase.n)


def normalize_candidate_by_gcd(expr):
    """The square-free reduction as a loop of multivariate gcds, the
    reference for `_normalize_candidate`'s closed form: strip gcd(expr,
    gcd of its partials) until it is constant, and return the monic affine
    factor when what is left has degree 1."""
    from hamdirac.expr import _pgcd, _plead

    def poly_gcd(a, b):
        g = _pgcd(a.num, b.num)
        return Expr(a.table, g, {(): g[_plead(g)]}, _normalized=True)

    def monic_affine(e):
        for s in e.free_symbols():
            c = e.diff(s)
            if not c.is_zero():
                return e / c
        return e

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
                g = d if g is None else poly_gcd(g, d)
            if g is None or g.is_constant():
                break
            g2 = poly_gcd(reduced, g)
            if g2.is_constant():
                break
            reduced = reduced / g2
            stripped += 1
        if stripped and reduced.total_degree() == 1:
            lead = monic_affine(reduced)
            flags.append(f"irreducibility reduction: replaced {expr} by affine factor {lead}")
            return lead, flags
    flags.append(f"non-affine constraint kept verbatim: {expr}")
    return expr, flags


def seeded_residues(t, syms, rng):
    """Would-be constraints of every shape `_normalize_candidate` tells
    apart, seeded: powers of affine forms with offsets and rational scales,
    products of affine forms (repeated ones too), random polynomials up to
    degree 6, constants times products of distinct symbols (whose (k-1)-th
    derivative in the first symbol is free of it, like q1*q2's), affine
    forms, quotients, and cawley's 1/2*q3^2."""
    rats = FAMILY_RATIONALS

    def scale():
        return Expr.const(t, rng.choice(rats))

    def affine(offset=True):
        picked = rng.sample(syms, rng.randint(1, 4))
        e = Expr.const(t, rng.choice(rats) if offset and rng.random() < 0.7 else 0)
        for s in picked:
            e = e + Expr.sym(t, s) * rng.choice(rats)
        return e

    out = [parse_expr("1/2*q3^2", t), parse_expr("-3/2*q1*q2", t)]
    for _ in range(90):
        out.append(scale() * affine() ** rng.randint(2, 5))
    for _ in range(60):
        factors = [affine() for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.3:
            factors.append(factors[0])
        prod = scale()
        for f in factors:
            prod = prod * f
        out.append(prod)
    for _ in range(80):
        out.append(random_poly(t, syms, rng, max_degree=6, terms=4))
    for _ in range(40):
        picked = rng.sample(syms, rng.randint(2, 3))
        prod = scale()
        for s in picked:
            prod = prod * Expr.sym(t, s) ** rng.randint(1, 2)
        out.append(prod)
    for _ in range(20):
        out.append(affine())
    for _ in range(15):
        out.append(affine() ** 2 / affine(offset=False))
    return out


def test_square_free_reduction_closed_form_matches_gcd_loop():
    # the closed form (k-1 derivatives in the first free symbol) returns the
    # same constraint and flag as the gcd loop it replaced, on every residue
    from hamdirac.dirac import _normalize_candidate

    t = SymbolTable()
    syms = [t.register(f"q{i}", "position") for i in range(1, 5)] + [t.register(f"p{i}", "momentum") for i in range(1, 5)]
    residues = seeded_residues(t, syms, rng_for("square-free-closed-form"))
    assert len(residues) >= 300
    kinds = {"reduced": 0, "verbatim": 0, "affine": 0}
    for e in residues:
        got, flags = _normalize_candidate(e)
        want, want_flags = normalize_candidate_by_gcd(e)
        assert (str(got), flags) == (str(want), want_flags), e
        assert got == want
        kinds["affine" if not flags else "reduced" if "irreducibility" in flags[0] else "verbatim"] += 1
    assert min(kinds.values()) >= 20, kinds
    assert _normalize_candidate(parse_expr("1/2*q3^2", t)) == (
        Expr.sym(t, t["q3"]), ["irreducibility reduction: replaced 1/2*q3^2 by affine factor q3"]
    )


MULTIVARIATE_GCD_RUNS = [
    [stage, path, *extra]
    for path in [f"fixtures/{name}.sys" for name in ("l2", "l3", "l4", "cawley")]
    + [f"golden/{name}.sys" for name in (
        "coupled2", "coupled3", "coupled4", "gauge2", "gauge3", "gauge4", "l3quartic", "totalderiv"
    )]
    for stage, *extra in (
        ("analyze",), ("chart",), ("report",), ("report", "--gauge-fixing"), ("report", "--fix-endpoint", "t2"),
    )
] + [["report", "fixtures/l4.sys", "--path", "pons"], ["report", "fixtures/l3.sys", "--gauge-fixing", "zeta1=-P1"]]


def test_polynomial_inputs_make_no_multivariate_gcd(monkeypatch, capsys):
    # every bundled fixture and golden system under every CLI stage: only a
    # rational-function input reaches the multivariate gcd, and none of these
    # has one (cawley's square-free reduction is a closed form)
    from importlib import resources
    from pathlib import Path

    from hamdirac import expr
    from hamdirac.cli import main

    where = {"fixtures": resources.files("hamdirac") / "fixtures", "golden": Path(__file__).resolve().parent / "golden"}
    calls = []
    pgcd = expr._pgcd

    def counting_pgcd(a, b):
        calls.append(1)
        return pgcd(a, b)

    monkeypatch.setattr(expr, "_pgcd", counting_pgcd)
    rcs = {}
    for stage, path, *extra in MULTIVARIATE_GCD_RUNS:
        base, name = path.split("/")
        rcs[(path, stage, *extra)] = main([stage, str(where[base] / name), *extra])
        capsys.readouterr()
    assert len(rcs) == 62
    assert rcs[("fixtures/cawley.sys", "report")] == 0
    assert sum(rc == 0 for rc in rcs.values()) > 40, rcs
    assert calls == []
