import pytest

from hamdirac import (
    InconsistentTheory,
    SymbolTable,
    dirac_iterate,
    dof,
    legendre,
    parse_expr,
    poisson,
    weak_reduce,
)
from hamdirac.dirac import DiracError
from hamdirac.expr import Expr
from hamdirac.lagrangian import PhaseSpace
from hamdirac.linalg import ExprMatrix, rank

from conftest import make_system, random_poly, rng_for


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
    assert weak_reduce(e, [parse_expr("p1", t)], phase).is_zero()
    assert weak_reduce(e, [], phase) == e


def test_weak_reduce_random_multiple():
    # q1*X + p2 vanishes weakly for arbitrary polynomial X once q1 and p2 do
    t, phase = phase2()
    syms = [s for q, p in phase.pairs for s in (q, p)]
    rng = rng_for("weak-reduce")
    cons = [parse_expr("q1", t), parse_expr("p2", t)]
    for _ in range(40):
        x = random_poly(t, syms, rng)
        e = parse_expr("q1", t) * x + parse_expr("p2", t)
        assert weak_reduce(e, cons, phase).is_zero()


def test_weak_reduce_affine_solve():
    t, phase = phase2()
    cons = [parse_expr("p2 - q1", t)]
    # p2 is solved (highest index), leaving the expression in the rest
    assert weak_reduce(parse_expr("p2", t), cons, phase) == parse_expr("q1", t)


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
    assert res.free_multipliers == []
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
    assert weak_reduce(delta, [c.expr for c in res.constraints], fos.phase).is_zero()
    assert (res.F, res.S, res.dof) == (2, 2, 1)
    # first-class representatives literally land on the printed combination
    assert [str(r.expr) for r in res.first_class] == ["p1 - 1/2*p2 + 1/2*p3 - 1/2*p4", "p3"]


def same_span(t, fos, a, b):
    z = fos.phase.z_order()
    rows_a = [[e.diff(s) for s in z] for e in a]
    rows_b = [[e.diff(s) for s in z] for e in b]
    ra = rank(ExprMatrix.from_rows(rows_a))
    rb = rank(ExprMatrix.from_rows(rows_b))
    rab = rank(ExprMatrix.from_rows(rows_a + rows_b))
    return ra == rb == rab


def test_solved_multiplier_consistency_invariant(l1, l2, l3, l4_ssok, l4_pons):
    # after substituting the solved multipliers, every constraint's bracket
    # with H_T weakly vanishes identically in the remaining free multipliers
    for t, fos, res in (l1, l2, l3, l4_ssok, l4_pons):
        ht = res.total_hamiltonian(substitute_solved=True)
        cons = [c.expr for c in res.constraints]
        for c in res.constraints:
            r = weak_reduce(poisson(c.expr, ht, fos.phase), cons, fos.phase)
            if res.free_multipliers:
                const, coeffs = r.split_affine(res.free_multipliers)
                assert weak_reduce(const, cons, fos.phase).is_zero()
                for coeff in coeffs.values():
                    assert weak_reduce(coeff, cons, fos.phase).is_zero()
            else:
                assert r.is_zero()


def test_classification_gram_invariants(l3):
    t, fos, res = l3
    cons = [c.expr for c in res.constraints]
    # every first-class representative commutes weakly with all constraints
    for rep in res.first_class:
        for ce in cons:
            assert weak_reduce(poisson(rep.expr, ce, fos.phase), cons, fos.phase).is_zero()
    # the second-class Gram submatrix has full rank
    reps = [r.expr for r in res.second_class]
    gram = ExprMatrix.from_rows(
        [[weak_reduce(poisson(a, b, fos.phase), cons, fos.phase) for b in reps] for a in reps]
    )
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


def test_gram_kernel_matches_sympy_nullspace():
    """The first-class combinations are sympy's nullspace basis (one vector per
    free column), each scaled to a leading 1, with the latest generation on
    its support."""
    import random
    from fractions import Fraction
    from types import SimpleNamespace

    import sympy

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
            want.append(([Fraction(str(x / v[support[0]])) for x in v], max(gens[i] for i in support)))
        assert _gram_kernel(gram, cons) == want


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


def greedy_unit_complement(basis, m, k):
    """The greedy completion: take e_j, by increasing j, whenever it raises the rank."""
    from fractions import Fraction

    from hamdirac import qq

    chosen = []
    for j in range(m):
        if len(chosen) == k:
            break
        e_j = [Fraction(int(i == j)) for i in range(m)]
        vecs = basis + [[Fraction(int(i == c)) for i in range(m)] for c in chosen] + [e_j]
        if qq.rank(vecs) == len(vecs):
            chosen.append(j)
    return chosen


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
            if qq.rank(basis + [v]) == len(basis) + 1:
                basis.append(v)
        k = rng.randint(0, m - size)
        before = [list(v) for v in basis]
        got = _unit_complement(basis, m, k)
        assert got == greedy_unit_complement(basis, m, k)
        assert basis == before  # the basis is not reduced in place
        assert qq.rank(basis + [[Fraction(int(i == j)) for i in range(m)] for j in got]) == size + k


def eliminate_fixpoint(rows, zetas, table):
    """The multiplier solve with back-substitution repeated until nothing
    changes; oracle for the one-pass Gauss-Jordan `_eliminate`."""
    from hamdirac.dirac import _pivot_quality

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
    return solved, [(idx, const) for idx, coeffs, const in work]


def test_eliminate_matches_fixpoint_back_substitution():
    # seeded multiplier systems: constant and symbolic coefficients, zero
    # columns, and dependent rows whose constants disagree (nonzero residues)
    from fractions import Fraction

    from hamdirac.dirac import _eliminate

    t, phase = phase2()
    syms = [s for q, p in phase.pairs for s in (q, p)]
    rng = rng_for("eliminate-gauss-jordan")
    residue_systems = 0
    for trial in range(150):
        zetas = [t.register_fresh(f"z{j + 1}", "multiplier") for j in range(rng.randint(1, 4))]
        symbolic = trial % 3 == 0

        def coeff():
            r = rng.random()
            if r < 0.35:
                return Expr.const(t, 0)
            if symbolic and r < 0.55:
                return random_poly(t, syms, rng, max_degree=1, terms=2)
            return Expr.const(t, Fraction(rng.choice([-2, -1, 1, 1, 2, 3]), rng.randint(1, 2)))

        rows = []
        for idx in range(rng.randint(1, 5)):
            if rows and rng.random() < 0.3:  # a multiple of an earlier row, new constant
                _, base, _ = rng.choice(rows)
                f = Expr.const(t, Fraction(rng.randint(1, 3)))
                coeffs = [c * f for c in base]
            else:
                coeffs = [coeff() for _ in zetas]
            rows.append((idx, coeffs, random_poly(t, syms, rng, max_degree=1, terms=2)))
        got = _eliminate(rows, zetas, t)
        want = eliminate_fixpoint(rows, zetas, t)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]
        residue_systems += any(not r.is_zero() for _, r in got[1])
    assert residue_systems > 20


def test_weak_reducer_built_once_per_constraint_set(monkeypatch):
    # dirac_iterate builds one reducer before its loop and one per accepted
    # constraint; classification and the Frobenius check reuse the last one
    from importlib import resources
    from pathlib import Path

    from hamdirac import dirac
    from hamdirac.report import run_pipeline
    from hamdirac.sysfile import load_system_file

    builds = []
    init = dirac.WeakReducer.__init__

    def counting_init(self, exprs, phase):
        builds.append(tuple(str(e) for e in exprs))
        init(self, exprs, phase)

    monkeypatch.setattr(dirac.WeakReducer, "__init__", counting_init)
    fixtures = resources.files("hamdirac") / "fixtures"
    golden = Path(__file__).resolve().parent / "golden"
    for path, distinct in ((fixtures / "l3.sys", 3), (fixtures / "cawley.sys", 3), (golden / "coupled3.sys", 9)):
        builds.clear()
        an = run_pipeline(load_system_file(path), stage="report")
        assert len(builds) == len(set(builds)) == distinct, path
        res = an.result
        assert builds[-1] == tuple(str(c.expr) for c in res.constraints)
        assert res.reducer.subs == dirac.WeakReducer([c.expr for c in res.constraints], res.phase).subs
