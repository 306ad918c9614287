from fractions import Fraction

import pytest

from hamdirac import SymbolTable, parse_expr
from hamdirac.expr import Expr, ZeroDenominator, _mono_key, _mono_mul, _padd, _pmul, _psubstitute
from hamdirac.parser import ParseError, UnknownSymbol

from conftest import linear_form, random_poly, rng_for


def same(got, want):
    """Equal Exprs down to the key order of their dicts."""
    assert list(got.num.items()) == list(want.num.items())
    assert list(got.den.items()) == list(want.den.items())


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


def test_polynomial_constructor_takes_int_or_fraction_coefficients():
    # without a den the coefficients may be Fractions (or zero); the result is
    # the normal form over the lcm of their denominators
    t = table3()
    q1, q2 = t["q1"], t["q2"]
    cases = [
        ({((q1.index, 1),): Fraction(1, 2)}, "(1/2)*q1"),
        ({((q1.index, 1),): Fraction(-4, 6), (): Fraction(1, 3), ((q2.index, 2),): 0}, "-(2/3)*q1 + 1/3"),
        ({((q1.index, 1),): 2, (): 4}, "2*q1 + 4"),
        ({((q2.index, 1),): Fraction(6, 3)}, "2*q2"),
        ({(): 0}, "0"),
    ]
    for poly, text in cases:
        got = Expr(t, poly)
        want = parse_expr(text, t)
        assert got == want and hash(got) == hash(want)
        same(got, want)
        assert all(type(c) is int for c in (*got.num.values(), *got.den.values()))


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


def test_substitute_swap_is_simultaneous():
    # no rule is applied to another rule's value, so rules naming each other
    # are well defined: a swap exchanges the two symbols
    t = table3()
    q1, q2 = t["q1"], t["q2"]
    e = parse_expr("q1^2*q2 + 3*q1 - q3", t)
    swap = {q1: Expr.sym(t, q2), q2: Expr.sym(t, q1)}
    assert e.substitute(swap) == parse_expr("q2^2*q1 + 3*q2 - q3", t)
    assert e.substitute(swap).substitute(swap) == e
    shifted = {q1: parse_expr("q2 + 1", t), q2: parse_expr("q1 - q3", t)}
    assert e.substitute(shifted) == parse_expr("(q2 + 1)^2*(q1 - q3) + 3*(q2 + 1) - q3", t)
    # rational values and a rational expression take the term-by-term path
    r = parse_expr("q1/(q2 + 1)", t)
    assert r.substitute({q1: parse_expr("q2/q3", t), q2: parse_expr("q1", t)}) == parse_expr("q2/(q3*(q1 + 1))", t)
    # self-reference is simultaneous and fine
    e = parse_expr("q1^2", t).substitute({q1: parse_expr("q1 + 1", t)})
    assert e == parse_expr("q1^2 + 2*q1 + 1", t)


def test_substitute_leaves_no_reference_cycle():
    # substitution must not leave garbage that only the cyclic collector
    # can free: a report makes hundreds of substitutions
    import gc

    t = table3()
    q1, q2 = t["q1"], t["q2"]
    e = parse_expr("q1*q2 + q3", t)
    gc.collect()
    gc.disable()
    try:
        assert e.substitute({q1: parse_expr("q2 + 1", t), q2: Expr.const(t, 3)}) == parse_expr("3*q2 + 3 + q3", t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def termwise_psubstitute(table, poly, idx_rules, den=1):
    """`_psubstitute` as first written: one Expr per term, one ** per factor."""
    acc = Expr.const(table, 0)
    for m, c in poly.items():
        term = Expr.const(table, Fraction(c, den))
        for i, e in m:
            rep = idx_rules.get(i)
            term = term * (Expr.sym(table, table[i]) if rep is None else rep) ** e
        acc = acc + term
    return acc


def test_horner_substitution_matches_termwise():
    # polynomial rules go through the one-dict Horner expansion; it must give
    # the term-by-term result on polynomials of degree <= 4 with multipliers
    # (no rule), self-referencing, constant and rational rules, and on a rule
    # set whose values name each other's keys
    t = table3()
    zeta = t.register("zeta1", "multiplier")
    syms = [t["q1"], t["q2"], t["q3"], t["d(q1)"], zeta]
    keys = syms[:4]
    rng = rng_for("horner-substitution")

    def rule(key):
        # a rule mentions itself, later keys and zeta only: the set is acyclic
        body = [key, zeta] + [k for k in keys if k.index > key.index]
        kind = rng.choice(["poly", "poly", "self", "const", "rational"])
        if kind == "const":
            return Expr.const(t, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if kind == "self":
            return Expr.sym(t, key) + random_poly(t, body, rng, max_degree=2)
        e = random_poly(t, body, rng, max_degree=2)
        if kind == "rational":
            den = random_poly(t, body, rng, max_degree=1, terms=2)
            return e / den if not den.is_zero() else e
        return e

    polynomial_cases = 0
    for case in range(200):
        rules = {k: rule(k) for k in rng.sample(keys, rng.randint(1, len(keys)))}
        idx_rules = {k.index: v for k, v in rules.items()}
        polynomial = all(v.is_polynomial() for v in rules.values())
        polynomial_cases += polynomial
        # the term-by-term gcds of rational rules grow fast with the degree
        e = random_poly(t, syms, rng, max_degree=4 if polynomial else 2, terms=6 if polynomial else 3)
        got, want = _psubstitute(t, e.num, idx_rules, e.den[()]), termwise_psubstitute(t, e.num, idx_rules, e.den[()])
        assert got.num == want.num and got.den == want.den
        got = e.substitute(rules)
        assert got.num == want.num and got.den == want.den
        a, b = rng.sample(keys, 2)
        cyclic = {**rules, a: Expr.sym(t, b) + 1, b: Expr.sym(t, a)}
        got = e.substitute(cyclic)
        want = termwise_psubstitute(t, e.num, {k.index: v for k, v in cyclic.items()}, e.den[()])
        assert got.num == want.num and got.den == want.den
    assert 50 < polynomial_cases < 180


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


def test_constant_division_matches_general_path():
    # dividing by a nonzero constant scales the numerator and keeps the
    # denominator; the result must be the general quotient's Expr down to
    # dict key order, for polynomials and rational functions alike
    t = table3()
    syms = [t["q1"], t["q2"], t["q3"], t["d(q1)"]]
    rng = rng_for("constant-division")

    def general_div(a, c):
        return Expr(t, _pmul(a.num, c.den), _pmul(a.den, c.num))

    divisors = [Fraction(-3, 2), Fraction(5, 7), Fraction(-1, 4), 2, -1, 1]
    for k in range(200):
        a = random_poly(t, syms, rng)
        if k % 2:
            b = random_poly(t, syms, rng)
            while b.is_constant():
                b = random_poly(t, syms, rng)
            a = a / b
        c = rng.choice(divisors)
        want = general_div(a, Expr.const(t, c))
        same(a / c, want)
        same(a / Expr.const(t, c), want)
    for zero in (0, Fraction(0), Expr.const(t, 0)):
        with pytest.raises(ZeroDenominator, match="division by zero expression"):
            a / zero


def test_reflected_division_by_unsupported_operand_is_type_error():
    e = parse_expr("q1 + 1", table3())
    for other in (2.5, "q1"):
        with pytest.raises(TypeError):
            other / e
    assert 2 / e == Expr.const(e.table, 2) / e


def test_mono_mul_matches_dict_merge():
    # the merge of the sorted (index, exp) pairs against the dict-and-sort
    # product it replaced; negative exponents make zero sums, which drop
    def dict_mono_mul(m1, m2):
        if not m1:
            return m2
        if not m2:
            return m1
        out = dict(m1)
        for idx, e in m2:
            out[idx] = out.get(idx, 0) + e
        return tuple(sorted((i, e) for i, e in out.items() if e))

    rng = rng_for("mono-mul")

    def mono():
        return tuple((i, rng.choice([-2, -1, 1, 1, 2, 3])) for i in sorted(rng.sample(range(8), rng.randint(0, 4))))

    for _ in range(5000):
        a, b = mono(), mono()
        assert _mono_mul(a, b) == dict_mono_mul(a, b)


def test_mono_key_orders_like_graded_lex_comparison():
    def graded_lex_cmp(m1, m2):
        d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
        if d1 != d2:
            return -1 if d1 < d2 else 1
        e1, e2 = dict(m1), dict(m2)
        for idx in sorted(set(e1) | set(e2)):
            a, b = e1.get(idx, 0), e2.get(idx, 0)
            if a != b:
                return 1 if a > b else -1
        return 0

    rng = rng_for("mono-key")

    def mono():
        return tuple((i, rng.randint(1, 3)) for i in sorted(rng.sample(range(6), rng.randint(0, 3))))

    for _ in range(20000):
        a, b = mono(), mono()
        ka, kb = _mono_key(a), _mono_key(b)
        assert (ka > kb) - (ka < kb) == graded_lex_cmp(a, b)


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
    row, off = linear_form(e, syms)
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
        row, off = linear_form(e, syms)
        assert all(type(c) is Fraction for c in row), e
        assert type(off) is Fraction, e
