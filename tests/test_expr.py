from fractions import Fraction

import pytest

from hamdirac import SymbolTable, parse_expr
from hamdirac.expr import CyclicRules, Expr, ZeroDenominator, _padd, _pmul
from hamdirac.parser import ParseError, UnknownSymbol

from conftest import random_poly, rng_for


def table3():
    t = SymbolTable()
    for n in ("q1", "q2", "q3"):
        t.position(n)
    return t


def test_parse_l1_lagrangian():
    t = table3()
    e = parse_expr("d(q1)*d(q3) + (1/2)*q2*q3^2", t)
    v1, v3 = t["d(q1)"], t["d(q3)"]
    q2, q3 = t["q2"], t["q3"]
    expected = Expr.sym(t, v1) * Expr.sym(t, v3) + Expr.const(t, Fraction(1, 2)) * Expr.sym(t, q2) * Expr.sym(t, q3) ** 2
    assert e == expected


def test_parse_zero_literal():
    t = table3()
    assert parse_expr("0", t).is_zero()


def test_gcd_cancellation():
    t = table3()
    e = parse_expr("q1^2/(q1)", t)
    q1 = Expr.sym(t, t["q1"])
    assert e == q1
    # oracle: the quotient times the denominator reproduces the numerator
    assert e * q1 == parse_expr("q1^2", t)
    # a non-monomial common factor
    f = parse_expr("(q1^2 + 2*q1*q2 + q2^2)/(q1 + q2)", t)
    assert f == parse_expr("q1 + q2", t)


def test_parse_errors_carry_offsets():
    t = table3()
    with pytest.raises(UnknownSymbol) as exc:
        parse_expr("q1 + zzz", t)
    assert exc.value.pos == 5
    with pytest.raises(ParseError):
        parse_expr("q1 + ", t)
    with pytest.raises(ParseError):
        parse_expr("q1 / 0", t)
    with pytest.raises(ParseError):
        parse_expr("d(zzz)", t)


def test_diff_examples():
    t = table3()
    q2, q3 = t["q2"], t["q3"]
    e = parse_expr("(1/2)*q2*q3^2", t)
    assert e.diff(q3) == parse_expr("q2*q3", t)
    assert parse_expr("5/7", t).diff(t["q1"]).is_zero()
    # momentum of the antisymmetric-velocity model
    l2 = parse_expr("q1*d(q2) - q2*d(q1) - q1^2 - q2^2", t)
    assert l2.diff(t["d(q2)"]) == parse_expr("q1", t)


def test_diff_quotient_rule():
    t = table3()
    q1 = t["q1"]
    e = parse_expr("q2/(q1)", t)
    assert e.diff(q1) == parse_expr("-q2/(q1^2)", t)


def test_substitute_examples():
    t = table3()
    q1, q2 = t["q1"], t["q2"]
    e = parse_expr("q1*q3", t)
    assert e.substitute({q1: Expr.const(t, 0)}).is_zero()
    assert e.substitute({}) == e
    # simultaneous substitution against direct expansion
    f = parse_expr("(q1 + q2)^2", t)
    rep = parse_expr("q3 + q1", t)
    direct = parse_expr("(q1 + q3 + q1)^2", t)
    assert f.substitute({q2: rep}) == direct


def test_substitute_swap_is_rejected_as_cyclic():
    t = table3()
    q1, q2 = t["q1"], t["q2"]
    with pytest.raises(CyclicRules):
        parse_expr("q1*q2", t).substitute({q1: Expr.sym(t, q2), q2: Expr.sym(t, q1)})
    # self-reference is simultaneous and fine
    e = parse_expr("q1^2", t).substitute({q1: parse_expr("q1 + 1", t)})
    assert e == parse_expr("q1^2 + 2*q1 + 1", t)


def test_is_zero_and_degree():
    t = table3()
    assert (parse_expr("q1", t) - parse_expr("q1", t)).is_zero()
    l2 = parse_expr("q1*d(q2) - q2*d(q1) - q1^2 - q2^2", t)
    assert l2.degree_in(t["d(q1)"]) == 1
    assert parse_expr("q2*q3^2", t).degree_in(t["q3"]) == 2
    assert parse_expr("q2/(q3)", t).degree_in(t["q3"]) == -1


def test_zero_denominator():
    t = table3()
    with pytest.raises(ZeroDenominator):
        parse_expr("q1", t) / Expr.const(t, 0)


def test_ring_axioms_random():
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"], t["d(q1)"]]
    rng = rng_for("ring-axioms")
    for _ in range(60):
        a = random_poly(t, syms, rng)
        b = random_poly(t, syms, rng)
        c = random_poly(t, syms, rng)
        assert a + (b + c) == (a + b) + c
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == Expr.const(t, 0)


def test_polynomial_add_mul_match_general_path():
    # polynomial operands skip the products by the denominator 1; the result
    # must be the general quotient rule's Expr down to dict key order
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"], t["d(q1)"]]
    rng = rng_for("polynomial-fast-path")

    def general_add(a, b):
        return Expr(t, _padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den))

    def general_mul(a, b):
        return Expr(t, _pmul(a.num, b.num), _pmul(a.den, b.den))

    def same(got, want):
        assert list(got.num.items()) == list(want.num.items())
        assert list(got.den.items()) == list(want.den.items())

    for _ in range(200):
        a = random_poly(t, syms, rng)
        b = rng.choice([random_poly(t, syms, rng), -a, Expr.const(t, 0), Expr.const(t, Fraction(-3, 2))])
        assert a.is_polynomial() and b.is_polynomial()
        same(a + b, general_add(a, b))
        same(b + a, general_add(b, a))
        same(a * b, general_mul(a, b))
        same(b * a, general_mul(b, a))
        same(a + 2, general_add(a, Expr.const(t, 2)))
        same(a * 0, general_mul(a, Expr.const(t, 0)))


def test_diff_linear_and_leibniz_random():
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"]]
    rng = rng_for("leibniz")
    s = t["q2"]
    for _ in range(60):
        a = random_poly(t, syms, rng)
        b = random_poly(t, syms, rng)
        assert (a + b).diff(s) == a.diff(s) + b.diff(s)
        assert (a * b).diff(s) == a.diff(s) * b + a * b.diff(s)


def test_print_parse_round_trip_random():
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"], t["d(q2)"], t["dd(q3)"]]
    rng = rng_for("round-trip")
    for _ in range(80):
        e = random_poly(t, syms, rng)
        if rng.random() < 0.3:
            d = random_poly(t, syms, rng, max_degree=1, terms=2)
            if not d.is_zero():
                e = e / d
        assert parse_expr(str(e), t) == e


def test_normalize_idempotent():
    t = table3()
    e = parse_expr("(2*q1^2 + 2*q1*q2)/(4*q1)", t)
    assert e == parse_expr("(q1 + q2)/2", t)
    assert str(parse_expr(str(e), t)) == str(e)


def test_linear_form_and_affine_split():
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"]]
    e = parse_expr("2*q1 - q3 + 5/2", t)
    row, off = e.linear_form(syms)
    assert row == [Fraction(2), Fraction(0), Fraction(-1)] and off == Fraction(5, 2)
    const, coeffs = parse_expr("q2*q1 + q3 + 7", t).split_affine([t["q1"]])
    assert const == parse_expr("q3 + 7", t)
    assert coeffs[t["q1"]] == parse_expr("q2", t)


def test_linear_form_yields_fractions():
    # callers use the row and the offset as Fractions without wrapping them
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"]]
    q1 = Expr.sym(t, syms[0])
    texts = ("2*q1 - q3 + 5", "(2/3)*q2 - (1/2)*q1 + 1/7", "q1", "0", "3", "q2 - q2")
    built = (Expr.const(t, 3), Expr.const(t, 0), q1 * 2 + 5, q1 * Expr.const(t, 2) / 4 - 1)
    for e in [parse_expr(text, t) for text in texts] + list(built):
        row, off = e.linear_form(syms)
        assert all(type(c) is Fraction for c in row), e
        assert type(off) is Fraction, e
