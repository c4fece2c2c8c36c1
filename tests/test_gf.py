import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from constagalois import (embed, format_element, frobenius, make_field,
                          mult_order, parse_element, section)
from constagalois import gf
from constagalois.gf import Field, _lex
from constagalois.numtheory import (_PSI_13, _group_order_factors, _isprime,
                                    _prime_factors, _strong_lucas_probable_prime)
from constagalois.packed import PackedRing
from exhaustive import (brute_monic_irreducibles, factor_walk_order,
                        gauss_irreducible_count, reference_is_irreducible,
                        reference_map_int)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_make_field_rejects_bad_arguments():
    with pytest.raises(ValueError, match="not a prime"):
        make_field(6, 2)
    with pytest.raises(ValueError, match="degree must be positive"):
        make_field(2, 0)


def test_prime_field_modulus_is_x():
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # there is exactly one monic irreducible quadratic over GF(2)
    irreducibles = brute_monic_irreducibles(2, 2)
    assert irreducibles == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf25_modulus_is_lex_smallest_irreducible():
    irreducibles = brute_monic_irreducibles(5, 2)
    assert make_field(5, 2).modulus == min(f[:-1] + (1,) for f in irreducibles)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (5, 2), (2, 6), (2, 8),
                                 (3, 5), (5, 5)])
def test_modulus_minimality_general(p, m):
    assert make_field(p, m).modulus == min(brute_monic_irreducibles(p, m))


# the top degree tested per p: degrees 5 and 6 over GF(2) run the
# coprimality step for one and two primes of m; the root screen is
# make_field's, so every polynomial reaches Rabin's test here
RABIN_DEGREES = {2: 6, 3: 4, 5: 4, 37: 2}


@pytest.mark.parametrize("p", sorted(RABIN_DEGREES))
def test_irreducibility_matches_rabin_by_powers(p):
    # every monic polynomial of degree 1 up to RABIN_DEGREES[p]: the
    # Frobenius steps and unit norms of PackedRing.is_field against m
    # powers by p and gcds, and the count of irreducibles against Gauss's
    # formula; the rings share one layout per degree, as make_field's
    # candidates do
    for m in range(1, RABIN_DEGREES[p] + 1):
        count = 0
        layout = PackedRing.layout(p, m)
        for low in itertools.product(range(p), repeat=m):
            f = low + (1,)
            want = reference_is_irreducible(f, p)
            assert PackedRing(p, f, layout).is_field() == want, f
            count += want
        assert count == gauss_irreducible_count(p, m), (p, m)


@pytest.mark.parametrize("p,m", [(2, 16), (3, 12), (5, 8), (7, 12)])
def test_root_screen_leaves_rabin_only_root_free_candidates(monkeypatch, p, m):
    # make_field's search builds a ring only for a candidate f with no root
    # a != 0 mod p; every ring before the last is on a reducible f, and the
    # last is on the canonical modulus
    built = []

    class Spy(PackedRing):
        def __init__(self, p, f, *args):
            built.append(tuple(f))
            super().__init__(p, f, *args)

    monkeypatch.setattr(gf, "PackedRing", Spy)
    make_field.__wrapped__(p, m)
    monkeypatch.undo()
    for f in built:
        assert all(sum(c * pow(a, i, p) for i, c in enumerate(f)) % p
                   for a in range(1, p)), f
    assert not any(reference_is_irreducible(f, p) for f in built[:-1])
    assert built[-1] == make_field(p, m).modulus


def test_lazy_walks_keep_the_product_order_and_hold_no_range():
    for p, k, low in [(2, 3, 0), (3, 2, 1), (5, 3, 1), (7, 1, 0), (3, 0, 0)]:
        ranges = [range(low, p)] + [range(p)] * (k - 1) if k else []
        assert list(_lex(p, k, low)) == list(itertools.product(*ranges))
    field = make_field(3, 3)
    walk = itertools.product(range(3), repeat=3)
    assert list(field.ints()) == list(map(field.encode, walk))
    # p = 2^61 - 1: a tuple of range(p) would not fit in memory
    big = make_field(2 ** 61 - 1, 2)
    first = [0, big.encode((0, 1)), big.encode((0, 2))]
    assert list(itertools.islice(big.ints(), 3)) == first


def test_additive_identity():
    field = make_field(3, 2)
    for x in field.elements():
        assert x + field.zero == x


def test_gf4_product_of_generators():
    # theta * theta^2 = theta^3 = 1 for any primitive cube root theta
    field = make_field(2, 2)
    theta = field.generator
    assert theta * theta ** 2 == field.one


def test_gf9_inverse_law():
    field = make_field(3, 2)
    g = field.generator
    assert g * g.inverse() == field.one


def test_mixed_field_arithmetic_rejected():
    a = make_field(2, 2).one
    b = make_field(3, 2).one
    with pytest.raises(ValueError, match="mixed fields"):
        a + b
    with pytest.raises(ValueError, match="mixed fields"):
        a * b


def test_division_by_zero_rejected():
    field = make_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        field.one / field.zero


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    field = make_field(p, m)
    elems = list(field.elements())
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in elems:
        if a:
            assert a * a.inverse() == field.one


def test_frobenius_identity_power():
    for p, m in [(2, 2), (2, 3), (3, 2), (3, 4), (5, 2)]:
        field = make_field(p, m)
        for x in field.elements():
            assert frobenius(x, 0) == x
            assert frobenius(x, m) == x


def test_frobenius_squares_in_gf4():
    field = make_field(2, 2)
    theta = field.generator
    assert frobenius(theta, 1) == theta * theta
    assert frobenius(theta, 1) == theta + field.one  # theta^2 = theta + 1


def test_frobenius_composition():
    field = make_field(3, 4)
    for k in range(0, 30, 7):
        x = field.generator ** k
        for s in range(4):
            for t in range(4):
                assert frobenius(frobenius(x, s), t) == frobenius(x, s + t)


def test_mult_order_basics():
    field = make_field(2, 2)
    assert mult_order(field.one) == 1
    assert mult_order(field.generator ** 2) == 3
    with pytest.raises(ValueError, match="zero has no order"):
        mult_order(field.zero)


def test_mult_order_gf81_sixteenth_roots():
    field = make_field(3, 4)
    theta = field.generator ** 5          # a primitive 16th root of unity
    assert mult_order(theta) == 16
    assert mult_order(theta ** 12) == 4


def _table_fields():
    """Every field with q <= 2^10: the fields that run on log tables."""
    for p in range(2, 1 << 10):
        if any(p % f == 0 for f in range(2, int(p ** 0.5) + 1)):
            continue
        m = 1
        while p ** m <= 1 << 10:
            yield make_field(p, m)
            m += 1


def test_mult_order_matches_factor_walk_up_to_2_10():
    # every nonzero element of every field with q <= 2^10, read off the
    # dlog table
    for field in _table_fields():
        field.dlog(field.one)          # builds the table
        for x in field.elements():
            if x:
                assert mult_order(x) == factor_walk_order(x), x


def test_table_fields_hold_one_element_per_int():
    # a table field wraps by lookup: one element per int, made once, and
    # an int outside the field (a slot holding p, or beyond the top slot)
    # raises instead of making an invalid element
    for field in _table_fields():
        ints = list(field.ints())
        made = [field.wrap(v) for v in ints]
        assert all(x.field is field and x.v == v for x, v in zip(made, ints)), field
        assert all(field.wrap(v) is x for x, v in zip(made, ints)), field
        assert len(set(map(id, made))) == field.order
        assert field.zero is made[0] and field.one is field.wrap(1)
        for v in (-1, field.p, max(ints) + 1):
            with pytest.raises(KeyError):
                field.wrap(v)


@pytest.mark.parametrize("p,m", [(1031, 1), (2, 11), (5, 24)])
def test_packed_fields_make_elements_through_field_wrap(p, m):
    field = make_field(p, m)
    assert "wrap" not in vars(field)
    assert field.wrap.__func__ is Field.wrap
    v = field.generator.v
    x, y = field.wrap(v), field.wrap(v)
    assert x == y and x is not y and x.field is field and x.v == v


def test_mult_order_without_dlog_table():
    field = make_field(7, 3)
    saved, field._dlog_table = field._dlog_table, None
    try:
        for k in range(0, field.order - 1, 7):
            x = field.generator ** k
            assert mult_order(x) == factor_walk_order(x)
        assert field._dlog_table is None       # one order builds no table
    finally:
        field._dlog_table = saved


def test_mult_order_above_dlog_tables():
    field = make_field(257, 2)             # q = 66049 > 2^16: no dlog table
    with pytest.raises(ValueError, match="too large"):
        field.dlog(field.generator)
    assert mult_order(field.generator) == field.order - 1
    assert mult_order(-field.one) == 2
    assert mult_order(field.generator ** 258) == 256
    x = field.element([0, 1])
    assert mult_order(x) == factor_walk_order(x)


def test_canonical_generator_is_primitive():
    for p, m in [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 2), (3, 4)]:
        field = make_field(p, m)
        assert mult_order(field.generator) == field.order - 1


def test_embed_identity_and_unit():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    assert embed(f4.one, f16) == f16.one


def test_embed_section_round_trip():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for x in f4.elements():
        assert section(embed(x, f16), f4) == x


def test_embed_is_ring_homomorphism_exhaustive():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    for x in f4.elements():
        for y in f4.elements():
            assert embed(x, f16) * embed(y, f16) == embed(x * y, f16)
            assert embed(x, f16) + embed(y, f16) == embed(x + y, f16)
    images = {embed(x, f16) for x in f4.elements()}
    assert len(images) == 4  # injective


def test_embed_gf9_into_gf81():
    f9 = make_field(3, 2)
    f81 = make_field(3, 4)
    for x in f9.elements():
        for y in f9.elements():
            assert embed(x, f81) * embed(y, f81) == embed(x * y, f81)
            assert embed(x, f81) + embed(y, f81) == embed(x + y, f81)


def test_embed_incompatible_degrees_rejected():
    with pytest.raises(ValueError, match="incompatible"):
        embed(make_field(2, 2).one, make_field(2, 3))


def test_section_outside_subfield_rejected():
    f4 = make_field(2, 2)
    f16 = make_field(2, 4)
    outside = f16.generator  # order 15, not in the order-3 subgroup + {0,1}
    with pytest.raises(ValueError, match="not in subfield"):
        section(outside, f4)


def test_section_into_prime_field_needs_no_table():
    # a constant c of GF(p) is the int c in GF(p^2) too, so sectioning
    # into GF(10007) reads it off instead of tabling 10007 images
    f = make_field(10007, 1)
    big = make_field(10007, 2)
    for c in (0, 1, 2, 5003, 10006):
        assert section(embed(f.from_int(c), big), f) == f.from_int(c)
    with pytest.raises(ValueError, match="not in subfield"):
        section(big.generator, f)
    assert "_section_table" not in vars(f.embedding_into(big))


def _embedding_pairs():
    """(p, m, M, coefficients of beta) for every pair of recorded fields
    with 2 <= m < M, m | M and p^m <= 2^10, recorded before map_int
    became Horner's rule at beta."""
    with open(os.path.join(HERE, "golden", "embeddings.json")) as fh:
        return json.load(fh)


def test_canonical_embedding_roots_match_the_recorded_table():
    # beta, the least-log root of the subfield modulus, fixes the whole
    # embedding: the section tables and every coset polynomial read it
    table = _embedding_pairs()
    assert {(7, 2, 6), (2, 3, 12), (5, 2, 24)} <= {(p, m, M) for p, m, M, _ in table}
    for p, m, M, beta in table:
        sup = make_field(p, M)
        assert list(sup.decode(make_field(p, m).embedding_into(sup).beta)) == beta, (p, m, M)


def test_map_int_is_the_power_sum_at_beta():
    # Horner's rule at beta against the sum over 1, beta, ..., beta^(m-1),
    # on every subfield element of the recorded pairs, and on the identity
    # (beta = X) and prime-subfield (beta = 0) cases
    pairs = [(p, m, M) for p, m, M, _ in _embedding_pairs()]
    pairs += [(2, 4, 4), (3, 2, 2), (5, 1, 1), (2, 1, 8), (3, 1, 6), (257, 1, 2)]
    for p, m, M in pairs:
        emb = make_field(p, m).embedding_into(make_field(p, M))
        reference = reference_map_int(emb)
        for v in emb.sub.ints():
            assert emb.map_int(v) == reference(v), (p, m, M, v)


def test_embedding_into_a_directly_built_field_lands_there():
    # embeddings are memoised on the field pair, and fields compare by
    # identity: the canonical GF(9) built first must not answer for a
    # GF(9) with another modulus
    gf3 = make_field(3, 1)
    gf3.embedding_into(make_field(3, 2))
    other = Field(3, 2, (2, 1, 1))
    assert gf3.embedding_into(other).sup is other
    assert embed(gf3.one, other).field is other
    assert gf3.embedding_into(other) is gf3.embedding_into(other)


def test_make_field_is_interned_and_positional_only():
    assert make_field(3, 2) is make_field(3, 2)
    with pytest.raises(TypeError):
        make_field(p=3, m=2)  # would otherwise open a second cache entry
    hits = make_field.cache_info().hits
    make_field(3, 2)
    assert make_field.cache_info().hits == hits + 1


def test_element_text_round_trip():
    field = make_field(5, 2)
    for x in field.elements():
        assert parse_element(format_element(x), field) == x
    assert parse_element("-1", field) == -field.one
    assert parse_element("[1,3]", field) == field.generator
    for text in ("g^x", "[1,x]", "[]", "x"):
        with pytest.raises(ValueError, match=r"^bad field element .*, expected an integer"):
            parse_element(text, field)


# -- integer primality and factoring (stdlib, in place of sympy) ---------------

def test_isprime_matches_trial_division_below_10_4():
    for n in range(-3, 10 ** 4):
        by_trial = n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))
        assert _isprime(n) == by_trial, n


def test_strong_lucas_pseudoprimes_below_10_5():
    # the odd composites passing the strong Lucas test with Selfridge's
    # parameters (Baillie and Wagstaff 1980; OEIS A217255); every prime passes
    composites = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                  40309, 58519, 75077, 97439]
    passing = [n for n in range(43, 10 ** 5, 2) if _strong_lucas_probable_prime(n)]
    primes = [n for n in range(43, 10 ** 5, 2) if _isprime(n)]
    assert sorted(set(passing) - set(primes)) == composites
    assert set(primes) <= set(passing)


def test_prime_factors_of_products_above_psi13():
    # cofactors above PSI_13 go through the Baillie-PSW branch of _isprime
    big = 2 ** 89 - 1                       # a Mersenne prime, ~6.2e26
    assert _isprime(big) and not _isprime(big * 1031)
    assert _prime_factors(big * 1031 * 1033 ** 2 * 12) == [2, 3, 1031, 1033, big]
    assert _prime_factors(1) == [] and _prime_factors(2) == [2]


def test_group_order_factors_split_by_cyclotomic_values():
    # 101^40 - 1 took about a minute as one number in rho; no field is built
    for m in (28, 40):
        rest = 101 ** m - 1
        primes = _group_order_factors(101, m)
        assert all(map(_isprime, primes)), m
        for f in primes:
            while rest % f == 0:
                rest //= f
        assert rest == 1, m


def test_isprime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20170101)
    special = [561, 3215031751, _PSI_13, 2 ** 89 - 1, 2 ** 127 - 1]
    for n in [rng.randrange(10 ** 40) for _ in range(20000)] + special:
        assert _isprime(n) == sympy.isprime(n), n


def test_prime_factors_match_sympy_on_group_orders():
    sympy = pytest.importorskip("sympy")
    for p in sympy.primerange(2, 100):
        m = 1
        while p ** m - 1 < 2 ** 80:
            n = p ** m - 1
            assert _prime_factors(n) == sorted(sympy.factorint(n)), (p, m)
            m += 1
    # either side of the stop at f^2 > n: 1021 is the last trial divisor
    # that is prime, 1031 the first prime past the trial range
    for n in (1, 1021 ** 2, 1031 ** 2, 1021 * 1031, 2 ** 20):
        assert _prime_factors(n) == sorted(sympy.factorint(n)), n


def test_import_leaves_sympy_unloaded():
    code = ("import sys, constagalois, constagalois.cli; "
            "print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
