"""Expr arithmetic against sympy, an implementation that shares no code with it.

Seeded random rational functions in q1, q2, q3 are built twice, as Exprs and
as sympy expressions, from the same recipe: rational coefficients of both
signs, denominators that are neither monic nor positive-leading, and
combinations that cancel to zero.  Each Expr is read into sympy from its
integer dicts alone (not through its printer) and compared after
`sympy.cancel`; its normal form is checked against sympy's gcd, and its
printed form against sympy's parser and ours.
"""

from fractions import Fraction
from math import gcd

import pytest

from hamdirac import SymbolTable, parse_expr
from hamdirac.expr import Expr, ZeroDenominator, _mono_key

from conftest import linear_form, rng_for

pytestmark = pytest.mark.extras
sp = pytest.importorskip("sympy")

NAMES = ("q1", "q2", "q3")


@pytest.fixture
def world():
    t = SymbolTable()
    syms = [t.position(n) for n in NAMES]
    return t, syms, {s.index: sp.Symbol(s.name) for s in syms}


def to_sympy(e, s_of):
    """The Expr's value from its num and den dicts."""
    def poly(p):
        return sp.Add(*(sp.Integer(c) * sp.Mul(*(s_of[i] ** k for i, k in m)) for m, c in p.items()))

    return poly(e.num) / poly(e.den)


def to_polys(e, s_of):
    """The Expr's num and den as sympy Polys over q1, q2, q3, from its dicts."""
    order = sorted(s_of)
    exps = lambda m: tuple(dict(m).get(i, 0) for i in order)
    return tuple(sp.Poly.from_dict({exps(m): c for m, c in p.items()} or {(0,) * len(order): 0}, *s_of.values())
                 for p in (e.num, e.den))


def same(e, want, s_of):
    n, d = to_polys(e, s_of)
    wn, wd = (sp.Poly(x, *s_of.values()) for x in sp.fraction(sp.together(want)))
    assert (n * wd - d * wn).is_zero, (str(e), want)
    # the normal form: integer coefficients with no common factor, den leading positive, no common factor
    assert all(type(c) is int for c in (*e.num.values(), *e.den.values()))
    assert gcd(*e.num.values(), *e.den.values()) == 1
    assert e.den[max(e.den, key=_mono_key)] > 0
    assert sp.gcd(n, d).is_ground if e.num else e.den == {(): 1}


def random_poly(rng, t, syms, s_of, terms=3, degree=2):
    e, s = Expr.const(t, 0), sp.Integer(0)
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
        te, ts = Expr.const(t, c), sp.Rational(c.numerator, c.denominator)
        for _ in range(rng.randint(0, degree)):
            q = rng.choice(syms)
            te, ts = te * Expr.sym(t, q), ts * s_of[q.index]
        e, s = e + te, s + ts
    return e, s


def random_rational(rng, t, syms, s_of):
    """A polynomial, a quotient (its denominator scaled by a negative or
    non-unit rational, so neither monic nor positive-leading), or a
    combination that cancels to zero."""
    kind = rng.random()
    a, sa = random_poly(rng, t, syms, s_of)
    if kind < 0.3:
        return a, sa
    b, sb = random_poly(rng, t, syms, s_of, terms=2, degree=1)
    if b.is_zero():
        return a, sa
    k = Fraction(rng.choice([-3, -2, -1, 2, 5]), rng.randint(1, 3))
    b, sb = b * k, sb * sp.Rational(k.numerator, k.denominator)
    if kind < 0.8:
        return a / b, sa / sb
    return a * b / b - a, sp.Integer(0)


def test_arithmetic_matches_sympy(world):
    t, syms, s_of = world
    rng = rng_for("expr-oracle-arithmetic")
    zeros = 0
    for _ in range(60):
        (a, sa), (b, sb) = random_rational(rng, t, syms, s_of), random_rational(rng, t, syms, s_of)
        same(a, sa, s_of)
        same(a + b, sa + sb, s_of)
        same(a - b, sa - sb, s_of)
        same(a * b, sa * sb, s_of)
        same(a - a, sp.Integer(0), s_of)
        zeros += a.is_zero()
        if not b.is_zero():
            same(a / b, sa / sb, s_of)
        k = rng.randint(-2, 3)
        if k >= 0 or not a.is_zero():
            same(a ** k, sa ** k, s_of)
        c = Fraction(rng.choice([-7, -1, 2, 9]), rng.randint(1, 5))
        sc = sp.Rational(c.numerator, c.denominator)
        same(a * c, sa * sc, s_of)
        same(a / c, sa / sc, s_of)
        same(c - a, sc - sa, s_of)
    assert zeros > 3


def test_diff_and_substitute_match_sympy(world):
    t, syms, s_of = world
    rng = rng_for("expr-oracle-calculus")
    for _ in range(80):
        a, sa = random_rational(rng, t, syms, s_of)
        for q in syms:
            same(a.diff(q), sp.diff(sa, s_of[q.index]), s_of)
        # simultaneous rules: polynomial, constant or rational; a rule mentions
        # its own key and later ones only, so the set is acyclic
        rules, srules = {}, {}
        for q in rng.sample(syms, rng.randint(1, 3)):
            body = [s for s in syms if s.index >= q.index]
            kind = rng.random()
            if kind < 0.2:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                r, sr = Expr.const(t, c), sp.Rational(c.numerator, c.denominator)
            elif kind < 0.7:
                r, sr = random_poly(rng, t, body, s_of, terms=2, degree=1)
            else:
                r, sr = random_rational(rng, t, body, s_of)
            rules[q], srules[s_of[q.index]] = r, sr
        want = sa.subs(srules, simultaneous=True)
        try:
            got = a.substitute(rules)
        except ZeroDenominator:
            assert sp.cancel(sp.denom(sp.together(sa)).subs(srules, simultaneous=True)) == 0
            continue
        same(got, want, s_of)


def test_linear_form_matches_sympy(world):
    t, syms, s_of = world
    rng = rng_for("expr-oracle-linear-form")
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0) for _ in syms]
        off = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        e = Expr.const(t, off)
        for c, q in zip(coeffs, syms):
            e = e + Expr.sym(t, q) * c
        # a cancelling detour must not change the form
        junk, _ = random_poly(rng, t, syms, s_of)
        e = e + junk - junk
        row, got_off = linear_form(e, syms)
        poly = sp.Poly(to_sympy(e, s_of), *(s_of[q.index] for q in syms))
        want = [poly.coeff_monomial(s_of[q.index]) for q in syms]
        assert [sp.Rational(c.numerator, c.denominator) for c in row] == want
        assert sp.Rational(got_off.numerator, got_off.denominator) == poly.coeff_monomial(1)
        assert all(type(c) is Fraction for c in row) and type(got_off) is Fraction
        entries, den = e.affine_row(syms)
        dense = [Fraction(0)] * (len(syms) + 1)
        for j, x in entries:
            dense[j] = Fraction(x, den)
        assert dense == row + [got_off]


def test_printed_form_parses_back(world):
    t, syms, s_of = world
    rng = rng_for("expr-oracle-printing")
    q1 = Expr.sym(t, syms[0])
    cases = [random_rational(rng, t, syms, s_of) for _ in range(120)]
    # a leading -x^2 is spelled -1*x^2: "-x^2" would parse as (-x)^2
    cases += [(-q1 ** 2, -s_of[syms[0].index] ** 2), (-(q1 ** 2) * Expr.sym(t, syms[1]) + 1, None)]
    for e, se in cases:
        text = str(e)
        assert parse_expr(text, t) == e, text
        locals_ = {n: sp.Symbol(n) for n in NAMES}
        parsed = sp.sympify(text.replace("^", "**"), locals=locals_)
        assert sp.cancel(parsed - to_sympy(e, s_of)) == 0, text
        if se is not None:
            assert sp.cancel(parsed - se) == 0, text
    assert str(-q1 ** 2) == "-1*q1^2"
    assert str(-(q1 ** 2) * Expr.sym(t, syms[1]) + 1).startswith("-1*q1^2*q2")
