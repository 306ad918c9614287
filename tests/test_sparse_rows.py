"""The sparse integer-row kernel against a dense Fraction reference written
here, on random rows over n in {1, 2, 12, 48} whose densities run from one
nonzero to full.  Needs no sympy: the exact kernel runs without extras."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hamdirac import qq
from hamdirac.chart import _bracket_deviations

SIZES = (1, 2, 12, 48)


def dense_vector(rng, size, nonzeros):
    v = [Fraction(0)] * size
    for j in rng.sample(range(size), nonzeros):
        v[j] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return v


def random_vectors(rng, size, count):
    """Rows of every density from one nonzero to full, with zero rows,
    multiples and combinations of earlier rows mixed in."""
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.1:
            out.append([Fraction(0)] * size)
        elif roll < 0.25 and out:
            c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            out.append([c * x for x in rng.choice(out)])
        elif roll < 0.4 and len(out) > 1:
            a, b = rng.sample(out, 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-2, 2))
            out.append([s * x + t * y for x, y in zip(a, b)])
        else:
            out.append(dense_vector(rng, size, rng.choice([1, 2, rng.randint(1, size), size])))
    return out


def dense_pair(u, v, n):
    return sum((u[i] * v[n + i] - u[n + i] * v[i] for i in range(n)), Fraction(0))


def dense_rref(rows, cols, unit_first=False):
    """Gauss-Jordan on Fraction lists: each column in the order given pivots
    on the first row not yet used that is nonzero there (with `unit_first`,
    on the first of them that is +-1 there, if one is), scaled to a leading
    1, and is cleared from every other row."""
    rows = [list(r) for r in rows]
    used, pivots = set(), {}
    for c in cols:
        live = [i for i, r in enumerate(rows) if i not in used and r[c]]
        if not live:
            continue
        src = next((i for i in live if unit_first and abs(rows[i][c]) == 1), live[0])
        used.add(src)
        rows[src] = [x / rows[src][c] for x in rows[src]]
        for i, r in enumerate(rows):
            if i != src and r[c]:
                rows[i] = [x - r[c] * y for x, y in zip(r, rows[src])]
        pivots[c] = src
    return pivots, rows


def check_row(row, values):
    """`row` is the one canonical row of `values`: nonzeros only, in column
    order, over a positive denominator, divided by their gcd."""
    entries, den = row
    assert type(entries) is tuple and den > 0
    assert [j for j, _x in entries] == [j for j, x in enumerate(values) if x]
    assert all(type(x) is int and x for _j, x in entries)
    assert gcd(den, *(x for _j, x in entries)) == 1
    assert qq.from_row(row, len(values)) == values


@pytest.mark.parametrize("n", SIZES)
def test_rows_round_trip_and_scale(n):
    rng = random.Random(f"sparse-rows-{n}")
    size = 2 * n + 1
    for v in random_vectors(rng, size, 40):
        row = qq.to_row(v)
        check_row(row, v)
        assert qq.from_row(row, 2 * n) == v[:-1] and qq.entry(row, 2 * n) * Fraction(1, row[1]) == v[-1]
        c = Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(1, 7))
        check_row(qq.row_div(row, c), [x / c for x in v])
        w = dense_vector(rng, size, rng.randint(1, size))
        check_row(qq.row_add(row, c, qq.to_row(w)), [x + c * y for x, y in zip(v, w)])
        check_row(qq.row_add(row, Fraction(0), qq.to_row(w)), v)


@pytest.mark.parametrize("n", SIZES)
def test_bracket_and_projection_match_dense(n):
    rng = random.Random(f"sparse-bracket-{n}")
    size = 2 * n + 1  # the offset rides along outside the pairing
    vectors = random_vectors(rng, size, 40)
    projected = 0
    for u, v, x in zip(vectors, vectors[1:] + vectors[:1], vectors[2:] + vectors[:2]):
        br = dense_pair(u, v, n)
        assert qq.row_bracket(qq.to_row(u), qq.to_row(v), n) == br
        assert qq.row_bracket(qq.to_row(v), qq.to_row(u), n) == -br
        if not br:
            continue
        e, f = u, [c / br for c in v]  # <e, f> = 1
        a, b = dense_pair(x, f, n), dense_pair(x, e, n)
        want = [xi - a * ei + b * fi for xi, ei, fi in zip(x, e, f)]
        check_row(qq.row_project(qq.to_row(x), qq.to_row(e), qq.to_row(f), n), want)
        projected += bool(a or b)
    assert projected >= 5 or n == 1


@pytest.mark.parametrize("n", SIZES)
def test_rref_pivots_and_reduced_rows_match_dense(n):
    rng = random.Random(f"sparse-rref-{n}")
    size = 2 * n + 1
    for trial in range(30):
        m = rng.randint(1, min(2 * size, 14))
        vectors = random_vectors(rng, size, m)
        natural = list(range(size))
        for order in (natural, rng.sample(natural, size), natural[::-1][: rng.randint(1, size)]):
            work = [qq.to_row(v) for v in vectors]
            if trial % 2:  # any nonzero multiple of a row, not primitive
                work = [(tuple((j, 6 * x) for j, x in entries), 6 * den) for entries, den in work]
            pivots = qq.rref_rows(work, order)
            want_pivots, want = dense_rref(vectors, order)
            assert pivots == want_pivots and list(pivots) == list(want_pivots)
            for row, values in zip(work, want):
                assert qq.from_row(row, size) == values
            for i in pivots.values():
                check_row(work[i], want[i])


def check_rref(vectors, cols, unit_first):
    """`qq.rref_rows` on the primitive rows of `vectors` against `dense_rref`:
    the same pivot map in visit order, and every row the reference's, exactly
    and as its one primitive row.  Returns the pivot map."""
    work = [qq.to_row(v) for v in vectors]
    pivots = qq.rref_rows(work, cols, unit_first)
    want_pivots, want = dense_rref(vectors, cols, unit_first)
    assert list(pivots.items()) == list(want_pivots.items())
    assert [qq.from_row(row, len(v)) for row, v in zip(work, want)] == want
    assert work == [qq.to_row(v) for v in want]
    return pivots


@pytest.mark.parametrize(
    "rows,first_unused,unit_first",
    [
        # a unit row after an earlier non-unit one
        ([[2, 1, 5], [1, 0, 3]], {0: 0, 1: 1}, {0: 1, 1: 0}),
        # row 2 is 2 at column 1 and turns unit there once column 0 is cleared
        ([[0, 3, 1], [1, 1, 0], [1, 2, 7]], {0: 1, 1: 0}, {0: 1, 1: 2}),
    ],
)
def test_rref_pivot_policies_on_small_systems(rows, first_unused, unit_first):
    vectors = [[Fraction(x) for x in r] for r in rows]  # column 2 is a carried tail
    assert check_rref(vectors, [0, 1], False) == first_unused
    assert check_rref(vectors, [0, 1], True) == unit_first


@pytest.mark.parametrize("n", SIZES)
def test_rref_pivot_policies_match_dense(n):
    # both policies on seeded systems that visit a random subset of the
    # columns in a random order, the others carried as a tail
    rng = random.Random(f"sparse-rref-policy-{n}")
    size = 2 * n + 1
    differ = 0
    for _ in range(40):
        vectors = random_vectors(rng, size, rng.randint(1, min(2 * size, 14)))
        cols = rng.sample(range(size), rng.randint(1, size))
        differ += check_rref(vectors, cols, False) != check_rref(vectors, cols, True)
    assert differ >= 3


@pytest.mark.parametrize("n", SIZES)
def test_bracket_deviations_match_dense(n):
    rng = random.Random(f"sparse-deviations-{n}")
    dim = 2 * n
    broken = 0
    for trial in range(6):
        # a canonical basis, then a few of its vectors disturbed or replaced
        vecs = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for _ in range(trial):
            k = rng.randrange(dim)
            vecs[k] = dense_vector(rng, dim, rng.randint(1, dim)) if trial % 2 else [2 * x for x in vecs[k]]
        got = _bracket_deviations([qq.to_row(v) for v in vecs], n)
        # the dense product on integers: each vector over the lcm of its denominators
        ints = [(v, lcm(*(x.denominator for x in v))) for v in vecs]
        ints = [([int(x * d) for x in v], d) for v, d in ints]
        want = {}
        for i, (u, du) in enumerate(ints):
            for k, (v, dv) in enumerate(ints):
                pair = sum(u[j] * v[n + j] - u[n + j] * v[j] for j in range(n))
                d = Fraction(pair, du * dv) - (k == i + n) + (i == k + n)
                if d:
                    want[i, k] = d
        assert got == want
        broken += bool(got)
        assert trial or not got
    assert broken >= 3
