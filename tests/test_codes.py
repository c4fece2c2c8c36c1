import itertools
import random
import tracemalloc

import pytest

from constagalois import (CosetFunction, Poly, QuotientElem, build_code,
                          cf_poly, coset_poly, derive_params, embed,
                          galois_dual, make_field, q_cosets)
from constagalois import codes
from constagalois.cosets import CodeParams
from constagalois.packed import PackedRing
from exhaustive import (brute_min_weight, code_contains, code_from_generator,
                        criterion6_codes, grid_instances, poly_coeffs, poly_eval,
                        poly_from_ints, reference_code_polys, reference_coset_poly,
                        reference_generator_rows)


def gf4_params():
    field = make_field(2, 2)
    return derive_params(2, 2, 2, field.generator ** 2)


def test_coset_poly_singleton_linear():
    params = derive_params(3, 4, 12, "g^20")
    Q = q_cosets(params, 1)[0]
    assert coset_poly(params, Q) == Poly(params.field,
                                         [-params.theta, params.field.one])


def test_coset_poly_square_is_modulus_gf4():
    params = gf4_params()
    Q = q_cosets(params, 1)[0]
    fq = coset_poly(params, Q)
    assert fq == Poly(params.field, [params.theta, params.field.one])
    assert fq * fq == params.modulus_poly(1)


def test_coset_poly_singleton_length26():
    # Q_13 = {13}: theta^13 has order 4, which divides 24, so it sits in GF(25)
    params = derive_params(5, 2, 26, -1)
    Q13 = [Q for Q in q_cosets(params, 1) if Q.members == (13,)][0]
    poly = coset_poly(params, Q13)
    assert poly.degree == 1
    assert not poly_eval(poly, params.theta_pow(13))
    root = -poly_coeffs(poly)[0]
    assert embed(root, params.big_field) == params.theta_pow(13)


def test_coset_polys_irreducible_length26():
    params = derive_params(5, 2, 26, -1)
    for Q in q_cosets(params, 1):
        poly = coset_poly(params, Q)
        assert poly.ints[-1] == 1 and poly.degree == len(Q)
        if poly.degree == 2:  # irreducible iff rootless for quadratics
            assert all(poly_eval(poly, x) for x in params.field.elements())


def test_coset_poly_matches_per_member_product():
    # every coset of every class mod r: criterion 6's grid, the packed
    # splitting fields GF(7^6) and GF(2^12) (e > 1 and d > 1, so a root
    # steps by a Frobenius power e != 1), and a d = 1 instance
    instances = {params for params, _ in criterion6_codes()}
    instances |= {derive_params(7, 2, 19, -1), derive_params(2, 3, 45, 1),
                  derive_params(3, 4, 12, "g^20")}
    assert {params.d for params in instances} >= {1, 3, 4}
    for params in instances:
        for c in range(params.r):
            for Q in params.cosets_on(c):
                assert coset_poly(params, Q) == reference_coset_poly(params, Q), (params, Q)


def test_coset_poly_takes_one_theta_power(monkeypatch):
    # the coset of 1 of (2, 1, 65535, 1) has 16 members; theta^1 is read
    # once, and the other roots are its Frobenius images
    params = derive_params(2, 1, 65535, 1)
    Q = params.coset_of(1)
    assert len(Q) == 16
    calls = []
    theta_pow = CodeParams.theta_pow
    monkeypatch.setattr(CodeParams, "theta_pow",
                        lambda self, k: calls.append(k) or theta_pow(self, k))
    # past the memo, so the count is this call's
    assert coset_poly.__wrapped__(params, Q) == reference_coset_poly(params, Q)
    assert calls == [1]


def test_cf_poly_empty_and_full():
    params = gf4_params()
    zero = CosetFunction.constant(params, 0)
    full = CosetFunction.constant(params, params.p ** params.nu)
    assert cf_poly(params, zero) == Poly(params.field, [params.field.one])
    assert cf_poly(params, full) == params.modulus_poly(1)


def test_cf_poly_length12_matches_big_field_product():
    # f_phi = (X - theta)(X - theta^5)^2 (X - theta^9)(X - theta^13)^2
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    got = cf_poly(params, phi)
    big = params.big_field
    expect = Poly(big, [big.one])
    for i, mult in [(1, 1), (5, 2), (9, 1), (13, 2)]:
        expect = expect * Poly(big, [-params.theta_pow(i), big.one]) ** mult
    lifted = Poly(big, [embed(c, big) for c in poly_coeffs(got)])
    assert lifted == expect
    assert got.degree == 6


def test_cf_poly_multiplies_one_balanced_tree(monkeypatch):
    # 16 singleton cosets, each a linear coset polynomial with no product of
    # its own: the tree pairs them in 8 + 4 + 2 + 1 products, the last
    # 8 x 8, where a left fold's last is 15 x 1
    params = derive_params(17, 1, 16, 1)
    phi = CosetFunction.constant(params, 1)
    degrees = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: degrees.append((a.degree, b.degree)) or mul(a, b))
    assert cf_poly(params, phi) == params.modulus_poly(1)
    assert len(degrees) == 15 and degrees[-1] == (8, 8)


def test_coset_poly_checks_its_coset_on_a_miss_only(monkeypatch):
    params = derive_params(5, 2, 26, -1)
    Q = params.coset_of(1)
    first = coset_poly(params, Q)
    checked = []
    monkeypatch.setattr(codes, "check_coset", lambda params, Q: checked.append(Q))
    assert coset_poly(params, Q) is first and checked == []
    assert coset_poly.__wrapped__(params, Q) == first and checked == [Q]


def assert_polys_match_reference(code):
    """check and generator equal the two left folds, read in either order,
    and so does cf_poly of phi and of phibar."""
    params, phi = code.params, code.phi
    check, generator = reference_code_polys(code)
    fresh = build_code(params, phi)
    assert (code.check, code.generator) == (check, generator), code
    assert (fresh.generator, fresh.check) == (generator, check), code
    assert (cf_poly(params, phi), cf_poly(params, phi.complement())) == (check, generator), code


def test_code_polys_match_both_products_on_criterion6_grid():
    count = 0
    for params, code in criterion6_codes():
        assert_polys_match_reference(code)
        count += 1
    assert count == 1777


def test_code_polys_match_both_products_on_packed_fields(monkeypatch):
    # singleton cosets, 128 of 256 over GF(65537) and 64 of 160 over
    # GF(7^4) with phi = 1: the top products of both trees pass the packed
    # ring's TERM_LIMIT, so its chunked path runs
    shorter = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: shorter.append(min(len(a.ints), len(b.ints))) or mul(a, b))
    rng = random.Random(37)
    for params, ones in ((derive_params(65537, 1, 256, -1), 128),
                         (derive_params(7, 4, 160, 1), 64)):
        n = params.n
        assert len(params.cosets_on(1)) == n and params.q > 1 << 10
        support = set(rng.sample(range(n), ones))
        phi = CosetFunction.from_values(params, [int(i in support) for i in range(n)])
        shorter.clear()
        assert_polys_match_reference(build_code(params, phi))
        assert max(shorter) > PackedRing.TERM_LIMIT, params


def construct_grid_with_repeated_roots():
    """Every (p, e, n, ord lambda) with p <= 7, e <= 2, n <= 40, p | n and
    a splitting field of degree e*d <= 24."""
    for p in (2, 3, 5, 7):
        for e in (1, 2):
            q = p ** e
            g = make_field(p, e).generator
            for n in range(p, 41, p):
                for r in [k for k in range(1, q) if (q - 1) % k == 0]:
                    params = derive_params(p, e, n, g ** ((q - 1) // r))
                    if e * params.d <= 24:
                        yield params


def test_code_polys_match_both_products_with_repeated_roots():
    # nu >= 1: multiplicities up to p^nu, so a coset can lie in both
    # supports; in characteristic 2 the constant p^nu/2 is such a tie.  The
    # class r - 1 takes the quotient of X^n - lambda^(r-1)
    rng = random.Random(31)
    count = 0
    for params in construct_grid_with_repeated_roots():
        cap = params.mult_cap
        for residue in {1 % params.r, params.r - 1}:
            size = len(params.cosets_on(residue))
            values = [[0] * size, [cap] * size,
                      [rng.randint(0, cap) for _ in range(size)],
                      [rng.choice((0, 1, cap)) for _ in range(size)]]
            if params.p == 2:
                values.append([cap // 2] * size)
            for vals in values:
                assert_polys_match_reference(
                    build_code(params, CosetFunction.from_values(params, vals, residue)))
                count += 1
    assert count == 1872


def test_zero_and_full_codes_build_no_coset_poly_or_field():
    field = make_field(7, 2)
    params = CodeParams(field, 35, (field.generator ** 8).v)  # not interned
    one = Poly.wrap(params.field, [1])
    zero = build_code(params, CosetFunction.constant(params, 0))
    full = build_code(params, CosetFunction.constant(params, params.mult_cap))
    fields, polys = make_field.cache_info().misses, coset_poly.cache_info()
    assert zero.generator == params.modulus_poly(1) == full.check
    assert zero.check == one == full.generator
    assert make_field.cache_info().misses == fields
    assert coset_poly.cache_info() == polys
    assert "big_field" not in vars(params)


@pytest.mark.parametrize("values,built", [
    ([3, 0, 0, 0], [1]),            # the check's support is the smaller
    ([3, 3, 3, 0], [13]),           # the generator's is
    ([3, 3, 0, 0], [9, 13]),        # a tie: the generator
    ([1, 2, 1, 2], [1, 5, 9, 13]),  # a tie, both supports full
    ([0, 0, 0, 0], []), ([3, 3, 3, 3], []),
])
def test_only_the_cheaper_side_is_a_product(monkeypatch, values, built):
    # four singleton cosets 1, 5, 9, 13 with multiplicities up to 3
    params = derive_params(3, 4, 12, "g^20")
    reps = []
    monkeypatch.setattr(codes, "coset_poly",
                        lambda params, Q: reps.append(Q.rep) or coset_poly(params, Q))
    code = build_code(params, CosetFunction.from_values(params, values))
    assert code.generator * code.check == params.modulus_poly(1)
    assert reps == built


def test_a_product_that_does_not_divide_is_an_internal_error(monkeypatch):
    params = derive_params(3, 4, 12, "g^20")
    code = build_code(params, CosetFunction.from_values(params, [1, 0, 0, 0]))
    monkeypatch.setattr(codes, "cf_poly",
                        lambda params, phi: poly_from_ints(params.field, [1, 1]))
    with pytest.raises(AssertionError, match="does not divide"):
        code.generator


def test_build_code_zero_and_example():
    params = gf4_params()
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    assert zero_code.dim == 0
    assert zero_code.generator == params.modulus_poly(1)
    phi = CosetFunction.from_values(params, [1])
    code = build_code(params, phi)
    assert code.dim == 1
    assert code.generator == Poly(params.field, [params.theta, params.field.one])


def test_build_code_negacyclic_length4():
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    assert code.dim == 2 and code.params.n == 4


def test_code_from_generator_trivial_and_example():
    params = gf4_params()
    full = code_from_generator(params, Poly(params.field, [params.field.one]))
    assert full.dim == params.n
    gen = Poly(params.field, [params.theta, params.field.one])
    code = code_from_generator(params, gen)
    assert code.phi.values() == (1,)


def test_code_from_generator_round_trip_exhaustive():
    for params in [gf4_params(), derive_params(3, 2, 4, -1)]:
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        for vals in itertools.product(range(cap + 1), repeat=len(cosets)):
            phi = CosetFunction.from_values(params, list(vals))
            code = build_code(params, phi)
            again = code_from_generator(params, code.generator)
            assert again.phi == phi


def test_code_from_generator_rejects_non_divisor():
    params = derive_params(3, 2, 4, -1)
    bad = poly_from_ints(params.field, [1, 1])  # X + 1 does not divide X^4 + 1
    with pytest.raises(ValueError, match="not a constacyclic generator"):
        code_from_generator(params, bad)
    with pytest.raises(ValueError, match="not a constacyclic generator"):
        code_from_generator(params, poly_from_ints(params.field, [1, 2]))


def test_membership():
    params = gf4_params()
    field = params.field
    code = build_code(params, CosetFunction.from_values(params, [1]))
    assert code_contains(code, QuotientElem.from_vector(params, 1, [field.zero, field.zero]))
    assert code_contains(code, QuotientElem.from_vector(params, 1, [params.theta, field.one]))
    # units never lie in a proper code
    assert not code_contains(code, QuotientElem.from_vector(params, 1, [field.one, field.zero]))


def test_membership_ring_mismatch_rejected():
    params = gf4_params()
    code = build_code(params, CosetFunction.from_values(params, [1]))
    other = QuotientElem.from_vector(params, 2, [params.field.one, params.field.zero])
    with pytest.raises(ValueError, match="different ring"):
        code_contains(code, other)


def annihilator(code):
    """The code of everything multiplying this one to zero: phibar's."""
    return build_code(code.params, code.phi.complement())


def test_annihilator():
    params = gf4_params()
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    assert annihilator(zero_code).dim == params.n
    phi = CosetFunction.from_values(params, [1])
    code = build_code(params, phi)
    assert annihilator(annihilator(code)) == code
    params12 = derive_params(3, 4, 12, "g^20")
    code12 = build_code(params12, CosetFunction.from_values(params12, [1, 2, 1, 2]))
    assert annihilator(code12).check.degree == 6
    # annihilator members really annihilate the original generator
    ann = annihilator(code12)
    gen_elem = QuotientElem(params12, 1, code12.generator)
    for row in ann.generator_rows():
        elem = QuotientElem.from_vector(params12, 1, row)
        assert not (elem * gen_elem)


def test_generator_rows_match_shifted_padded_reference():
    # criterion 6's grid holds the zero and the full code of every params
    zero = full = 0
    for params, code in criterion6_codes():
        rows = code.generator_rows()
        assert rows == reference_generator_rows(code)
        assert code.generator_int_rows() == [[x.v for x in row] for row in rows]
        zero += code.dim == 0
        full += code.dim == params.n
    assert min(zero, full) >= 20, (zero, full)


def test_generator_rows_of_the_zero_code_build_no_generator(monkeypatch):
    def unbuilt(params, phi):
        raise AssertionError("generator built")

    params = derive_params(5, 2, 6, -1)
    zero = build_code(params, CosetFunction.constant(params, 0))
    monkeypatch.setattr(codes, "cf_poly", unbuilt)
    assert zero.generator_rows() == [] and zero.generator_int_rows() == []
    assert zero.codewords() == [tuple(params.field.zero for _ in range(params.n))]


def test_enumerate_codewords_gf4():
    params = gf4_params()
    field = params.field
    theta = params.theta
    code = build_code(params, CosetFunction.from_values(params, [1]))
    words = set(code.codewords())
    assert words == {
        (field.zero, field.zero),
        (theta, field.one),
        (theta ** 2, theta),
        (field.one, theta ** 2),
    }
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    assert zero_code.codewords() == [(field.zero, field.zero)]


def test_enumerate_count_and_closure():
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    words = code.codewords()
    assert len(words) == params.q ** code.dim == 81
    word_set = set(words)
    sample = words[::7]
    x = QuotientElem(params, 1, Poly.x_power(params.field, 1))
    for w in sample:
        elem = QuotientElem.from_vector(params, 1, w)
        assert (elem * x).vector() in word_set       # constacyclic shift
        for c in params.field.elements():
            scaled = tuple(c * x for x in w)
            assert scaled in word_set
    for w1 in sample:
        for w2 in sample:
            assert tuple(a + b for a, b in zip(w1, w2)) in word_set


def test_enumeration_cap():
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.constant(params, 1))
    with pytest.raises(ValueError, match="enumeration too large"):
        code.codewords(cap=10)


def test_min_weight():
    params = derive_params(3, 2, 4, -1)
    full = build_code(params, CosetFunction.constant(params, 1))
    assert full.min_weight() == 1
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    assert code.min_weight() == 3
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    assert zero_code.min_weight() is None
    params4 = gf4_params()
    assert build_code(params4, CosetFunction.from_values(params4, [1])).min_weight() == 2


# The exhaustive oracle lists codewords at tens of microseconds each.
ORACLE_WORDS = 343


def _bounded_phi(rng, params, max_words):
    """A random coset function, lowered until its code has <= max_words words."""
    cosets = q_cosets(params, 1)
    vals = [rng.randint(0, params.p ** params.nu) for _ in cosets]
    while params.q ** sum(v * len(Q) for v, Q in zip(vals, cosets)) > max_words:
        vals[rng.choice([i for i, v in enumerate(vals) if v])] -= 1
    return CosetFunction.from_values(params, vals)


def _kernel_grid():
    """(p, e, n, r) over p in {2,3,5,7}, e in {1,2,3}, every lambda order and
    lengths 1-4, p and 2p (so nu > 0), with splitting fields up to p^6."""
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3):
            q = p ** e
            field = make_field(p, e)
            for r in [d for d in range(1, q) if (q - 1) % d == 0]:
                lam = field.generator ** ((q - 1) // r)
                for n in sorted({1, 2, 3, 4, p, 2 * p}):
                    params = derive_params(p, e, n, lam)
                    if params.e * params.d <= 6:
                        yield params


def test_min_weight_matches_exhaustive_oracle_on_grid():
    rng = random.Random(20151224)
    repeated_root = full = other_residue = 0
    for params in _kernel_grid():
        phis = [CosetFunction.constant(params, 0), _bounded_phi(rng, params, ORACLE_WORDS)]
        if params.q ** params.n <= ORACLE_WORDS:
            phis.append(CosetFunction.constant(params, params.p ** params.nu))
            full += 1
        repeated_root += params.nu > 0
        tested = [build_code(params, phi) for phi in phis]
        # a Galois dual lives on another residue class when r > 2
        dual = galois_dual(tested[1], params.e - 1)
        if params.q ** dual.dim <= ORACLE_WORDS:
            tested.append(dual)
            other_residue += dual.residue != 1
        for code in tested:
            assert codes.min_weight(code) == brute_min_weight(code), code
    assert min(repeated_root, full, other_residue) >= 20, (repeated_root, full, other_residue)


# Repeated-root codes whose minimum weight is met only by combining rows
# beyond row_t + c * row_(t+1), c in GF(p): skipped messages show here.
MULTI_ROW_MINIMA = [(3, 2, 6, "g^4", {1: 1, 3: 2}), (5, 1, 10, "g^2", {1: 3, 3: 1}),
                    (7, 1, 14, "g^2", {1: 3, 4: 1})]


def test_min_weight_gray_blocks_split_anywhere(monkeypatch):
    rng = random.Random(7)
    tested = []
    for p, e, n, lam, phi in MULTI_ROW_MINIMA:
        params = derive_params(p, e, n, lam)
        tested.append(build_code(params, CosetFunction(params, phi)))
    for p, e, n, lam in [(2, 2, 6, 1), (3, 1, 9, -1), (2, 3, 7, 1), (5, 1, 5, 1),
                         (3, 3, 2, 1), (7, 2, 4, -1)]:
        params = derive_params(p, e, n, lam)
        tested.append(build_code(params, _bounded_phi(rng, params, 7 ** 4)))
    expected = [brute_min_weight(code) for code in tested]
    # Small blocks push most Gray steps through the outer (carry) path.
    for block in (1, 3, 8, codes._GRAY_BLOCK):
        monkeypatch.setattr(codes, "_GRAY_BLOCK", block)
        for code, d in zip(tested, expected):
            assert codes.min_weight(code) == d, (block, code)


def test_to_json_weight_raises_on_bad_env_cap_but_nulls_overflow(monkeypatch):
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "abc")
    with pytest.raises(ValueError, match="CONSTAGALOIS_ENUM_CAP"):
        code.to_json(with_weight=True)
    assert code.to_json(cap=80, with_weight=True)["min_weight"] is None
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "80")
    assert code.to_json(with_weight=True)["min_weight"] is None
    assert code.to_json(cap=81, with_weight=True)["min_weight"] == 3


def test_negative_cap_is_refused_and_zero_is_a_cap(monkeypatch):
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    with pytest.raises(ValueError, match="negative enumeration cap"):
        codes.min_weight(code, -1)
    with pytest.raises(ValueError, match="negative enumeration cap"):
        code.to_json(cap=-1, with_weight=True)
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "-1")
    with pytest.raises(ValueError, match="negative enumeration cap"):
        codes.min_weight(code)
    with pytest.raises(ValueError, match="enumeration too large"):
        codes.min_weight(code, 0)
    assert code.to_json(cap=0, with_weight=True)["min_weight"] is None


def test_min_weight_memo_respects_smaller_cap():
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    assert code.min_weight(cap=1000) == 3
    with pytest.raises(ValueError, match="enumeration too large"):
        code.min_weight(cap=80)  # 81 words
    assert code.min_weight(cap=81) == 3


def test_min_weight_streams_in_bounded_memory():
    # GF(9), n = 8, k = 6: 531441 codewords, 66430 up to scaling.
    params = derive_params(3, 2, 8, 1)
    code = build_code(params, CosetFunction.from_values(params, [1] * 6 + [0] * 2))
    assert code.dim == 6
    code.generator  # built before measuring: only the enumeration is under test
    tracemalloc.start()
    try:
        d = codes.min_weight(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 3  # zeros theta^6, theta^7 are consecutive: MDS, d = n - k + 1
    assert peak < 1 << 20, peak


def test_factorization_identity_on_grid():
    for params in grid_instances([(2, 2), (3, 1), (5, 1)], 6):
        if params.e * params.d > 8:
            continue
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        modulus = params.modulus_poly(1)
        for vals in itertools.islice(
                itertools.product(range(cap + 1), repeat=len(cosets)), 32):
            phi = CosetFunction.from_values(params, list(vals))
            code = build_code(params, phi)
            assert code.generator * code.check == modulus
            assert code.dim + annihilator(code).dim == params.n
            assert code.generator.ints[-1] == 1 == code.check.ints[-1]
