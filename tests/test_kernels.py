"""The int kernels against the coefficient-tuple references of exhaustive.py.

Fields with q <= 2^10 run on log/antilog tables, larger ones on packed
slots; both are checked element by element (every ordered pair of every
field with q <= 256, random pairs on six large fields and on GF(31^2)),
through ``Poly`` and the oracle's ``Matrix``, and against the canonical
moduli and generators recorded in tests/golden/fields.json; the packed
ring's products also on random moduli, at its slot bound and for large p,
and its Frobenius map and powers on random, mostly reducible moduli.
"""

import itertools
import json
import os
import random

import pytest

from constagalois import Poly, make_field, poly_gcd
from constagalois.gf import _DLOG_MAX, _TABLE_MAX, Field
from constagalois.numtheory import _isprime, _prime_factors
from constagalois.oracle import Matrix
from constagalois.packed import PackedRing
from exhaustive import ReferenceField, poly_coeffs, reference_first_primitive

HERE = os.path.dirname(os.path.abspath(__file__))


def fields_up_to(bound):
    for p in range(2, bound + 1):
        if _isprime(p):
            m = 1
            while p ** m <= bound:
                yield p, m
                m += 1


def exponents(q):
    return [-3, -1, 0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 5]


def check_element(field, ref, x):
    """Every unary operation on x against the reference."""
    a = x.coeffs
    assert (-x).coeffs == ref.neg(a)
    for t in range(field.m):
        assert x.frobenius(t).coeffs == ref.frobenius(a, t), (x, t)
    for k in exponents(field.order):
        if x or k >= 0:
            assert (x ** k).coeffs == ref.pow(a, k), (x, k)
    if x:
        assert x.inverse().coeffs == ref.inverse(a)
        assert ref.pow(field.generator.coeffs, field.dlog(x)) == a


@pytest.mark.parametrize("p,m", [pm for pm in fields_up_to(256) if pm[1] > 1])
def test_every_pair_of_small_extension_fields(p, m):
    field = make_field(p, m)
    ref = ReferenceField(field)
    elems = list(field.elements())
    coeffs = [x.coeffs for x in elems]
    decode, add, sub, mul = field.decode, field.add, field.sub, field.mul
    for x, a in zip(elems, coeffs):
        u = x.v
        for y, b in zip(elems, coeffs):
            v = y.v
            assert decode(mul(u, v)) == ref.mul(a, b), (x, y)
            assert decode(add(u, v)) == ref.add(a, b), (x, y)
            assert decode(sub(u, v)) == ref.sub(a, b), (x, y)
        check_element(field, ref, x)


def test_every_pair_of_prime_fields_up_to_256():
    for p, m in fields_up_to(256):
        if m > 1:
            continue
        field = make_field(p, 1)
        ref = ReferenceField(field)
        add, sub, mul = field.add, field.sub, field.mul
        for a in range(p):
            assert [mul(a, b) for b in range(p)] == [a * b % p for b in range(p)]
            assert [add(a, b) for b in range(p)] == [(a + b) % p for b in range(p)]
            assert [sub(a, b) for b in range(p)] == [(a - b) % p for b in range(p)]
        for x in field.elements():
            check_element(field, ref, x)


# GF(31^2) is a table field with odd p and m = 2: the ring's sums near the
# table bound
LARGE = [(2, 16), (3, 10), (5, 24), (7, 12), (257, 2), (1000003, 1), (31, 2)]


@pytest.mark.parametrize("p,m", LARGE)
def test_random_pairs_of_large_fields(p, m):
    field = make_field(p, m)
    ref = ReferenceField(field)
    rng = random.Random(f"{p}^{m}")
    xs = [field.element(rng.randrange(p) for _ in range(m)) for _ in range(2000)]
    ys = [field.element(rng.randrange(p) for _ in range(m)) for _ in range(2000)]
    for x, y in zip(xs, ys):
        a, b = x.coeffs, y.coeffs
        assert (x * y).coeffs == ref.mul(a, b), (x, y)
        assert (x + y).coeffs == ref.add(a, b), (x, y)
        assert (x - y).coeffs == ref.sub(a, b), (x, y)
        assert (-x).coeffs == ref.neg(a)
    # the unary operations cost a reference power each: fewer samples
    for x in xs[:300]:
        if x:
            assert ref.mul(x.inverse().coeffs, x.coeffs) == ref.one
    for x in xs[:20]:
        a = x.coeffs
        frob = a
        for t in range(m):
            assert x.frobenius(t).coeffs == frob, (x, t)
            frob = ref.pow(frob, p)
        k = rng.randrange(-field.order, 2 * field.order)
        if x:
            assert (x ** k).coeffs == ref.pow(a, k), (x, k)
    if field.order > _DLOG_MAX:
        with pytest.raises(ValueError, match="too large"):
            field.dlog(field.generator)
        return
    n1 = field.order - 1
    assert field.dlog(field.one) == 0 and field.dlog(field.generator) == 1
    for x, y in zip(xs, ys):
        if x and y:
            assert field.dlog(x * y) == (field.dlog(x) + field.dlog(y)) % n1
    for x in xs[:20]:
        if x:
            assert ref.pow(field.generator.coeffs, field.dlog(x)) == x.coeffs


@pytest.mark.parametrize("p,m", [pm for pm in LARGE if pm[0] ** pm[1] > _TABLE_MAX])
def test_packed_powers_at_zero_and_the_group_order(p, m):
    # Field.pow reduces k mod q - 1, so x^(q-1) reaches the ring as x^0
    field = make_field(p, m)
    ring = PackedRing(p, field.modulus)
    rng = random.Random(f"powers {p}^{m}")
    for _ in range(20):
        a = field.encode([rng.randrange(p) for _ in range(m)])
        assert ring.power(a, 0) == 1
        if a:
            assert field.pow(a, field.order - 1) == 1
            assert field.pow(a, field.order) == a


def test_kernel_choice_follows_field_size():
    assert make_field(2, 10).order <= _TABLE_MAX < make_field(2, 11).order
    assert make_field(2, 10)._dlog_table is not None   # the table kernel's own log
    assert Field(3, 7, make_field(3, 7).modulus)._dlog_table is None  # packed: no tables


@pytest.mark.parametrize("p,m", [(3, 2), (2, 10), (3, 7), (2, 11)])
def test_table_and_packed_fields_share_one_encoding(p, m):
    # an element's int is its packed coefficient int whichever kernel runs
    # the field: every vector of the table fields, 2 000 of the packed ones
    field = make_field(p, m)
    ring = PackedRing(p, field.modulus)
    if field.order <= _TABLE_MAX:
        vectors = itertools.product(range(p), repeat=m)
    else:
        rng = random.Random(p * 100 + m)
        vectors = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(2000)]
    for c in vectors:
        v = field.encode(c)
        assert v == ring.encode(c) and field.decode(v) == c, c
    assert field.generator.v == ring.encode(field.generator.coeffs)
    assert not hasattr(field, "index")


def test_canonical_fields_match_the_recorded_table():
    # (p, m, modulus, generator coefficients) for every p <= 13 with
    # p^m <= 2^20 and every splitting field of the construct benchmark,
    # recorded from the coefficient-tuple implementation; then four fields
    # with p >= 32, where the modulus search has no root screen, recorded
    # while Rabin's coprimality step still ran as a gcd over Poly; then
    # GF(65537^2), recorded from the candidate-by-candidate generator walk,
    # and GF(1000003^2) and GF(1000003^4), whose first primitive elements
    # follow the p - 1 multiples of X and of X^3
    with open(os.path.join(HERE, "golden", "fields.json")) as fh:
        table = json.load(fh)
    for p, m, modulus, generator in table:
        field = make_field(p, m)
        assert list(field.modulus) == modulus, (p, m)
        assert list(field.generator.coeffs) == generator, (p, m)


def test_generator_search_matches_the_all_cofactor_walk():
    # the search by direction of _first_primitive against one power per
    # prime of q - 1 on each candidate in turn, on every recorded field:
    # GF(2) (q - 1 = 1, no prime) and GF(2^13), GF(2^17), GF(2^19) (q - 1
    # prime) among them.  Over p = 1000003 that walk visits about 10^6
    # candidates, minutes of CPU: those two fields are held to it outside
    # this suite
    with open(os.path.join(HERE, "golden", "fields.json")) as fh:
        table = json.load(fh)
    assert {(2, 1), (2, 13), (2, 17), (2, 19)} <= {(p, m) for p, m, _, _ in table}
    for p, m, _, _ in table:
        if p == 1000003:
            continue
        field = make_field(p, m)
        assert field.generator.v == reference_first_primitive(field), (p, m)


def valuation(l, k):
    v = 0
    while k % l == 0:
        k //= l
        v += 1
    return v


def test_direction_identities_on_random_fields():
    # x = c * y, c the first nonzero coefficient of x: for a prime l | q - 1
    # with v_l(q-1) > v_l(p-1), x^((q-1)/l) = y^((q-1)/l); for every other l,
    # x^((q-1)/l) = (c^m N(y))^((p-1)/l) mod p, N(y) = y^((q-1)/(p-1)); on
    # every element of six seeded random fields with m >= 2
    rng = random.Random("directions")
    fields = rng.sample([pm for pm in fields_up_to(4096) if pm[1] > 1], 6)
    for p, m in fields:
        field = make_field(p, m)
        power, n1 = PackedRing(p, field.modulus).power, field.order - 1
        for x in itertools.islice(field.ints(), 1, None):
            coeffs = field.decode(x)
            c = next(a for a in coeffs if a)
            y = field.mul(x, field.inv(c))
            norm = power(y, n1 // (p - 1))
            assert norm < p, (p, m, coeffs)
            for l in _prime_factors(n1):
                if valuation(l, n1) > valuation(l, p - 1):
                    assert power(x, n1 // l) == power(y, n1 // l), (p, m, coeffs, l)
                else:
                    want = pow(pow(c, m, p) * norm, (p - 1) // l, p)
                    assert power(x, n1 // l) == want, (p, m, coeffs, l)


# -- polynomials and matrices --------------------------------------------------

POLY_FIELDS = [(2, 2), (3, 2), (5, 2), (2, 8), (5, 6)]


def random_poly(field, rng, max_deg):
    return Poly(field, [field.element(rng.randrange(field.p) for _ in range(field.m))
                        for _ in range(rng.randint(0, max_deg + 1))])


def as_tuples(poly):
    return [c.coeffs for c in poly_coeffs(poly)]


@pytest.mark.parametrize("p,m", POLY_FIELDS)
def test_poly_ops_against_reference(p, m):
    field = make_field(p, m)
    ref = ReferenceField(field)
    rng = random.Random(f"poly {p}^{m}")
    for _ in range(60):
        a, b = random_poly(field, rng, 9), random_poly(field, rng, 6)
        ta, tb = as_tuples(a), as_tuples(b)
        assert as_tuples(a * b) == ref.poly_mul(ta, tb)
        assert as_tuples(a ** 3) == ref.poly_pow(ta, 3)
        if b:
            quot, rem = divmod(a, b)
            assert (as_tuples(quot), as_tuples(rem)) == ref.poly_divmod(ta, tb)
        if a or b:
            assert as_tuples(poly_gcd(a, b)) == ref.poly_gcd(ta, tb)
    # a common factor makes the gcd nontrivial
    c = random_poly(field, rng, 3) * Poly(field, [field.generator, field.one])
    a, b = c * random_poly(field, rng, 4), c * random_poly(field, rng, 4)
    if a and b:
        assert as_tuples(poly_gcd(a, b)) == ref.poly_gcd(as_tuples(a), as_tuples(b))


def test_long_products_on_the_packed_kernel():
    # more terms per coefficient than one packed product holds
    field = make_field(5, 6)
    ref = ReferenceField(field)
    rng = random.Random(6)
    a = Poly(field, [field.element(rng.randrange(5) for _ in range(6)) for _ in range(45)])
    b = Poly(field, [field.element(rng.randrange(5) for _ in range(6)) for _ in range(40)])
    assert as_tuples(a * b) == ref.poly_mul(as_tuples(a), as_tuples(b))


def slot_sum_bound(p, m, limit):
    """The most a low slot holds before ``reduce``'s last pass: a sum of
    ``limit`` products of residues plus the Barrett correction."""
    return (limit * m + m - 1) * (p - 1) ** 2


def test_slot_bound_holds_below_the_top_bit():
    limit = PackedRing.TERM_LIMIT
    assert limit == PackedRing.ACC - 1
    for p in range(2, 64):
        if _isprime(p):
            for m in range(1, 41):
                W = PackedRing(p, [1] * (m + 1)).W
                assert slot_sum_bound(p, m, limit) < 1 << (W - 1), (p, m)
    # one more term (the limit ACC) would pass the top bit of a slot of
    # GF(7^14), a construct field
    W = PackedRing(7, make_field(7, 14).modulus).W
    assert slot_sum_bound(7, 14, PackedRing.ACC) >= 1 << (W - 1)


# the rings with under 2.5 % headroom, 2^(W-1) / (ACC m (p-1)^2)
TIGHT_RINGS = [(7, 7), (7, 14), (11, 5), (13, 7)]


def schoolbook_mod(p, f, a, b):
    """a * b mod (f, p) on plain ints, a and b coefficient lists."""
    m = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k] % p
        for j in range(m + 1):
            prod[k - m + j] -= c * f[j]
    return tuple(c % p for c in prod[:m])


@pytest.mark.parametrize("p,m", TIGHT_RINGS)
def test_products_at_the_term_limit_fill_every_slot(p, m):
    # every coefficient p - 1, as many terms per coefficient as poly_mul
    # takes in one product, and one more, which it splits; f = 1 + X + ...
    # + X^m makes the Barrett correction as large as it gets
    acc, limit = PackedRing.ACC, PackedRing.TERM_LIMIT
    W = PackedRing(p, [1] * (m + 1)).W
    assert 1 << (W - 1) < 1.025 * acc * m * (p - 1) ** 2
    full = [p - 1] * m
    for f in ([1] * (m + 1), make_field(p, m).modulus):
        ring = PackedRing(p, f)
        square = schoolbook_mod(p, f, full, full)
        assert ring.decode(ring.mul(ring.encode(full), ring.encode(full))) == square
        for terms in (limit, limit + 1):
            a = [ring.encode(full)] * terms
            got = ring.poly_mul(a, a)
            assert len(got) == 2 * terms - 1
            for k, c in enumerate(got):
                count = min(k + 1, 2 * terms - 1 - k)
                assert ring.decode(c) == tuple(count * x % p for x in square), (f, terms, k)


# large p with m >= 3: the Barrett quotient's slots exceed p before its
# mod-p pass, and without that pass a third or more of these products over
# (257, 6) and (1009, 3) come out wrong
@pytest.mark.parametrize("p,m", [(257, 6), (1009, 3), (101, 8)])
def test_products_with_large_p_against_schoolbook(p, m):
    # five seeded random monic f, reducible or not, 300 products on each;
    # the rings share one layout, as make_field's candidates do
    rng = random.Random(f"barrett {p}^{m}")
    layout = PackedRing.layout(p, m)
    for _ in range(5):
        f = [rng.randrange(p) for _ in range(m)] + [1]
        ring = PackedRing(p, f, layout)
        for _ in range(300):
            a = [rng.randrange(p) for _ in range(m)]
            b = [rng.randrange(p) for _ in range(m)]
            got = ring.decode(ring.mul(ring.encode(a), ring.encode(b)))
            assert got == schoolbook_mod(p, f, a, b), (f, a, b)


@pytest.mark.parametrize("p,m", [(2, 12), (3, 8), (7, 6), (257, 3)])
def test_frobenius_and_powers_on_random_rings(p, m):
    # the rings make_field tests, on one layout, for seeded random monic
    # f, mostly reducible: x -> x^(p^t) is a ring map on each, so t
    # passes of the ring's one table must give the power p^t for every
    # t < m, and a power must be the repeated product
    rng = random.Random(f"frobenius {p}^{m}")
    exponents = {1, 2, 3} | {2 ** j + d for j in range(2, 7) for d in (-1, 0, 1)}
    layout = PackedRing.layout(p, m)
    for _ in range(5):
        f = [rng.randrange(p) for _ in range(m)] + [1]
        ring = PackedRing(p, f, layout)
        for a in [ring.encode((0, 1)), ring.encode([p - 1] * m)] + [
                ring.encode([rng.randrange(p) for _ in range(m)]) for _ in range(6)]:
            for t in range(m):
                assert ring.frob(a, t) == ring.power(a, p ** t), (f, a, t)
            acc = a
            for k in range(1, max(exponents) + 1):
                if k in exponents:
                    assert ring.power(a, k) == acc, (f, a, k)
                acc = ring.mul(acc, a)


@pytest.mark.parametrize("p,m", POLY_FIELDS)
def test_matrix_ops_against_reference(p, m):
    field = make_field(p, m)
    ref = ReferenceField(field)
    rng = random.Random(f"matrix {p}^{m}")
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 7)
        entries = [[field.element(rng.randrange(p) for _ in range(m)) for _ in range(cols)]
                   for _ in range(rows)]
        if rows > 2:  # a dependent row
            s = field.element(rng.randrange(p) for _ in range(m))
            entries[-1] = [x + s * y for x, y in zip(entries[0], entries[1])]
        mat = Matrix(field, entries)
        red, pivots = mat.rref()
        want, want_pivots = ref.rref([[x.coeffs for x in row] for row in entries])
        assert [list(map(field.decode, row)) for row in red.ints] == want
        assert pivots == want_pivots and mat.rank() == len(want_pivots)
        kernel = mat.kernel_basis()
        assert len(kernel) == cols - len(want_pivots)
        if kernel:  # the kernel's own RREF
            assert Matrix.wrap(field, [list(v) for v in kernel]).rref()[0].ints == [
                list(v) for v in kernel]
        for vec in kernel:
            for row in entries:
                acc = ref.zero
                for x, y in zip(row, vec):
                    acc = ref.add(acc, ref.mul(x.coeffs, field.decode(y)))
                assert acc == ref.zero
