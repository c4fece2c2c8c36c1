import random

import pytest

from constagalois import (CodeParams, CosetFunction, Isometry, Poly, QuotientElem,
                          cf_poly, derive_params, make_field, poly_gcd, q_cosets)
from constagalois.polyring import format_poly, poly_to_json
from exhaustive import (parse_poly, poly_eval, poly_from_ints, poly_xgcd,
                        reference_isometry_apply, reference_quotient_mul)


def random_poly(field, max_deg, rng):
    return Poly(field, [rng.choice(list(field.elements()))
                        for _ in range(rng.randint(0, max_deg + 1))])


def test_multiplicative_identity():
    field = make_field(2, 2)
    one = Poly(field, [field.one])
    a = poly_from_ints(field, [1, 0, 1, 1])
    assert a * one == a


def test_gf4_square_of_linear():
    # characteristic 2: (X + theta)^2 = X^2 + theta^2
    field = make_field(2, 2)
    theta = field.generator
    lhs = Poly(field, [theta, field.one]) ** 2
    assert lhs == Poly(field, [theta ** 2, field.zero, field.one])


@pytest.mark.parametrize("p,m", [(3, 2), (2, 11)])  # table and packed kernels
def test_power_product_count(monkeypatch, p, m):
    # f ** k for k >= 1 takes floor(log2 k) squarings and popcount(k) - 1
    # products by f, none of them by [1]
    field = make_field(p, m)
    rng = random.Random(p * m)
    calls = []
    poly_mul = field.poly_mul

    def counting(a, b):
        calls.append(1)
        return poly_mul(a, b)

    monkeypatch.setattr(field, "poly_mul", counting)
    f = Poly(field, [field.element([rng.randrange(p) for _ in range(m)])
                     for _ in range(3)] + [field.one])
    assert f ** 0 == Poly(field, [field.one])
    expect = f
    for k in range(1, 10):
        calls.clear()
        assert f ** k == expect
        assert len(calls) == k.bit_length() + bin(k).count("1") - 2
        expect = expect * f
    zero = Poly(field, [])
    assert zero ** 0 == Poly(field, [field.one]) and (zero ** 3).is_zero()


def test_degree_of_products():
    rng = random.Random(7)
    field = make_field(3, 2)
    for _ in range(50):
        a = random_poly(field, 5, rng)
        b = random_poly(field, 5, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree == a.degree + b.degree


def test_mixed_field_polys_rejected():
    a = poly_from_ints(make_field(2, 2), [1, 1])
    b = poly_from_ints(make_field(3, 2), [1, 1])
    with pytest.raises(ValueError, match="mixed fields"):
        a + b


def test_divmod_self():
    field = make_field(5, 1)
    a = poly_from_ints(field, [2, 0, 3])
    q, r = divmod(a, a)
    assert q == Poly(field, [field.one]) and r.is_zero()


def test_divmod_gf4_exact():
    field = make_field(2, 2)
    theta = field.generator
    num = Poly(field, [theta ** 2, field.zero, field.one])   # X^2 + theta^2
    den = Poly(field, [theta, field.one])                    # X + theta
    q, r = divmod(num, den)
    assert r.is_zero()
    assert q * den == num
    assert q == den


def test_division_identity_random():
    rng = random.Random(11)
    field = make_field(3, 2)
    for _ in range(100):
        a = random_poly(field, 6, rng)
        b = random_poly(field, 4, rng)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        assert divmod(a, b)[0] == q
        assert a - b == a + -b


def test_division_by_zero_rejected():
    field = make_field(2, 2)
    a = poly_from_ints(field, [1, 1])
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly(field, []))


def test_gcd_with_zero_is_monic():
    field = make_field(5, 1)
    a = poly_from_ints(field, [2, 4])  # 2 + 4X
    g = poly_gcd(a, Poly(field, []))
    assert g == a.monic() and g.ints[-1] == 1
    with pytest.raises(ValueError):
        poly_gcd(Poly(field, []), Poly(field, []))


def test_gcd_divides_both_and_bezout():
    rng = random.Random(13)
    field = make_field(2, 3)
    for _ in range(60):
        a = random_poly(field, 5, rng)
        b = random_poly(field, 5, rng)
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a, b)
        if not a.is_zero():
            assert (a % g).is_zero()
        if not b.is_zero():
            assert (b % g).is_zero()
        gg, u, v = poly_xgcd(a, b)
        assert gg == g
        assert u * a + v * b == g


def test_gcd_of_check_and_generator_is_meet():
    # gcd(f_phi, f_phibar) = f_(phi meet phibar) on the order-4 repeated-root
    # parameters: phi = (1,2,1,2), phibar = (2,1,2,1), meet = (1,1,1,1)
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    lhs = poly_gcd(cf_poly(params, phi), cf_poly(params, phi.complement()))
    rhs = cf_poly(params, phi.meet(phi.complement()))
    assert phi.meet(phi.complement()).values() == (1, 1, 1, 1)
    assert lhs == rhs


def test_quotient_defining_relation():
    params = derive_params(3, 2, 4, -1)
    field = params.field
    xn1 = QuotientElem(params, 1, Poly.x_power(field, 3))
    x = QuotientElem(params, 1, Poly.x_power(field, 1))
    prod = xn1 * x
    assert prod.rep == Poly(field, [params.lam])


def test_quotient_generator_squares_to_zero():
    # in R_{2,theta^2} over GF(4) the generator X + theta squares into the ideal
    field = make_field(2, 2)
    params = derive_params(2, 2, 2, field.generator ** 2)
    gen = QuotientElem(params, 1, Poly(field, [params.theta, field.one]))
    assert not (gen * gen)


def test_quotient_mul_matches_generic_division():
    # every class s, representatives of degree up to 3n - 1
    rng = random.Random(17)
    for params in (derive_params(3, 2, 4, -1), derive_params(5, 2, 6, "g^3")):
        field, n = params.field, params.n
        for s in range(params.r):
            modulus = params.modulus_poly(s)
            for _ in range(80):
                a = random_poly(field, 3 * n - 1, rng)
                b = random_poly(field, 3 * n - 1, rng)
                qa = QuotientElem(params, s, a)
                qb = QuotientElem(params, s, b)
                assert qa.rep == a % modulus and qb.rep == b % modulus
                assert (qa * qb).rep == (a * b) % modulus
                assert QuotientElem(params, s, a * b) == qa * qb   # reduces degree >= n
                assert (qa - qb).rep == (a - b) % modulus and (-qa).rep == (-a) % modulus
                assert (qa * field.generator).rep == (a * field.generator) % modulus


def test_quotient_ring_reduces_without_division(monkeypatch):
    # the binomial fold is the one reduction of R_{n,lambda^s}: products,
    # long vectors and isometries build no X^n - lambda^s and divide by nothing
    rng = random.Random(21)
    cases = []
    for p, e, n, lam in [(3, 2, 4, "g^1"), (2, 2, 6, "g^1"), (7, 1, 5, 3)]:
        params = derive_params(p, e, n, lam)
        elems = list(params.field.elements())
        for s in range(params.r):
            long_vec = [rng.choice(elems) for _ in range(3 * n)]
            words = [[rng.choice(elems) for _ in range(n)] for _ in range(2)]
            cases.append((params, s, long_vec, words,
                          Poly(params.field, long_vec) % params.modulus_poly(s)))

    def refuse(*args):
        raise AssertionError("R_{n,lambda^s} reduced by long division")

    monkeypatch.setattr(Poly, "__divmod__", refuse)
    monkeypatch.setattr(CodeParams, "modulus_poly", refuse)
    for params, s, long_vec, words, expected in cases:
        assert QuotientElem.from_vector(params, s, long_vec).rep == expected
        a, b = (QuotientElem.from_vector(params, s, w) for w in words)
        assert a * b == reference_quotient_mul(a, b)
        for multiplier in (-1, params.p):
            iso = Isometry(params, multiplier)
            assert iso.apply(a) == reference_isometry_apply(iso, a)


def test_quotient_rejects_a_representative_over_another_field():
    params = derive_params(3, 1, 4, -1)
    with pytest.raises(ValueError, match="mixed fields"):
        QuotientElem(params, 1, poly_from_ints(make_field(5, 1), [4, 3]))


def test_quotient_mul_matches_wraparound_sum_on_every_class():
    rng = random.Random(20)
    for p, e, n, lam in [(3, 2, 4, "g^1"), (5, 2, 6, "g^3"), (2, 2, 3, "g^1"),
                         (7, 1, 5, 3)]:
        params = derive_params(p, e, n, lam)
        elems = list(params.field.elements())
        assert params.r > 2
        for s in range(params.r):
            for _ in range(12):
                a, b = (QuotientElem.from_vector(params, s, [rng.choice(elems)
                                                             for _ in range(n)])
                        for _ in range(2))
                assert a * b == reference_quotient_mul(a, b)


def test_quotient_ring_axioms_exhaustive_r2():
    field = make_field(2, 2)
    params = derive_params(2, 2, 2, field.generator ** 2)
    elems = [QuotientElem.from_vector(params, 1, [a, b])
             for a in field.elements() for b in field.elements()]
    assert len(elems) == 16
    for a in elems:
        for b in elems:
            assert a * b == b * a
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_quotient_ring_mismatch_rejected():
    params = derive_params(3, 2, 4, -1)
    a = QuotientElem(params, 1, Poly.x_power(params.field, 1))
    b = QuotientElem(params, 0, Poly.x_power(params.field, 1))  # lambda^0 ring
    with pytest.raises(ValueError, match="mismatched"):
        a * b


def test_eval_roots_and_constant_term():
    field = make_field(2, 2)
    theta = field.generator
    linear = Poly(field, [-theta, field.one])
    assert not poly_eval(linear, theta)
    a = poly_from_ints(field, [1, 1, 1])
    assert poly_eval(a, field.zero) == field.one


def test_eval_all_roots_of_length26_negacyclic_modulus():
    # X^26 + 1 over GF(25) vanishes at theta^k exactly for odd k mod 52
    params = derive_params(5, 2, 26, -1)
    field = params.field
    modulus = params.modulus_poly(1)
    for k in range(52):
        value = poly_eval(modulus, params.theta_pow(k))
        assert (not value) == (k % 2 == 1)


def test_coset_poly_roots_exact():
    # eval(f_Q, theta^i) = 0 exactly when i lies in Q
    from constagalois import coset_poly
    params = derive_params(5, 2, 26, -1)
    cosets = q_cosets(params, 1)
    for Q in cosets[:4]:
        poly = coset_poly(params, Q)
        for i in range(52):
            value = poly_eval(poly, params.theta_pow(i))
            assert (not value) == (i % 52 in Q.members)


def test_poly_json_round_trip():
    field = make_field(5, 2)
    poly = Poly(field, [field.generator ** 3, field.zero, field.one])
    data = poly_to_json(poly)
    assert parse_poly(data, field) == poly
    assert format_poly(Poly(field, [])) == "0"
