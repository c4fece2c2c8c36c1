"""The int kernels against the coefficient-tuple references of exhaustive.py.

Fields with q <= 2^10 run on log/antilog tables, larger ones on packed
slots; both are checked element by element (every ordered pair of every
field with q <= 256, random pairs on six large fields and on GF(31^2)),
through ``Poly`` and the oracle's ``Matrix``, and against the canonical
moduli and generators recorded in tests/golden/fields.json.
"""

import itertools
import json
import os
import random

import pytest

from constagalois import Poly, make_field, poly_gcd
from constagalois.gf import _DLOG_MAX, _TABLE_MAX, Field
from constagalois.numtheory import _isprime
from constagalois.oracle import Matrix
from constagalois.packed import PackedRing
from exhaustive import ReferenceField

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
    # recorded from the coefficient-tuple implementation
    with open(os.path.join(HERE, "golden", "fields.json")) as fh:
        table = json.load(fh)
    for p, m, modulus, generator in table:
        field = make_field(p, m)
        assert list(field.modulus) == modulus, (p, m)
        assert list(field.generator.coeffs) == generator, (p, m)


# -- polynomials and matrices --------------------------------------------------

POLY_FIELDS = [(2, 2), (3, 2), (5, 2), (2, 8), (5, 6)]


def random_poly(field, rng, max_deg):
    return Poly(field, [field.element(rng.randrange(field.p) for _ in range(field.m))
                        for _ in range(rng.randint(0, max_deg + 1))])


def as_tuples(poly):
    return [c.coeffs for c in poly.coeffs]


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
        for vec in kernel:
            for row in entries:
                acc = ref.zero
                for x, y in zip(row, vec):
                    acc = ref.add(acc, ref.mul(x.coeffs, y.coeffs))
                assert acc == ref.zero
