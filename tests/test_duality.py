import itertools
import math
import random
import signal

import pytest

from constagalois import (CosetFunction, Isometry, Poly, QuotientElem,
                          build_code, cf_poly, derive_params, galois_dual,
                          galois_inner, is_galois_selfdual,
                          is_iso_galois_selfdual, make_field, q_cosets)
from constagalois import codes, oracle
from constagalois.duality import iso_witness_for
from constagalois.existence import iso_selfdual_exists, selfdual_families
from exhaustive import (PE_PAIRS, brute_iso_witness, grid_instances, poly_from_ints,
                        reference_iso_family_multiplier, reference_iso_witness_for,
                        reference_isometry_apply, reference_multipliers)
from test_cosets import _census_grid


def gf4_params():
    field = make_field(2, 2)
    return derive_params(2, 2, 2, field.generator ** 2)


def all_ring_elements(params, s=1):
    field = params.field
    for vec in itertools.product(list(field.elements()), repeat=params.n):
        yield QuotientElem.from_vector(params, s, list(vec))


# -- Galois inner products ----------------------------------------------------

def test_inner_standard_basis():
    field = make_field(3, 2)
    e1 = [field.one, field.zero, field.zero]
    assert galois_inner(e1, e1, 0) == field.one


def test_inner_hermitian_isotropic_vector_gf4():
    field = make_field(2, 2)
    theta = field.generator
    v = [theta, field.one]
    assert not galois_inner(v, v, 1)


def test_inner_linear_in_first_slot():
    rng = random.Random(23)
    field = make_field(3, 2)
    elems = list(field.elements())
    for _ in range(40):
        a = [rng.choice(elems) for _ in range(4)]
        b = [rng.choice(elems) for _ in range(4)]
        c = [rng.choice(elems) for _ in range(4)]
        for h in range(3):
            lhs = galois_inner([x + y for x, y in zip(a, b)], c, h)
            assert lhs == galois_inner(a, c, h) + galois_inner(b, c, h)


def test_inner_h_e_equals_h_0():
    field = make_field(3, 2)
    elems = list(field.elements())
    rng = random.Random(5)
    for _ in range(20):
        a = [rng.choice(elems) for _ in range(3)]
        b = [rng.choice(elems) for _ in range(3)]
        assert galois_inner(a, b, 2) == galois_inner(a, b, 0)


def test_inner_length_mismatch():
    field = make_field(2, 2)
    with pytest.raises(ValueError, match="length"):
        galois_inner([field.one], [field.one, field.zero], 0)


def test_inner_nondegenerate_small():
    field = make_field(2, 2)
    n = 3
    basis = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    for vec in itertools.product(list(field.elements()), repeat=n):
        if not any(vec):
            continue
        for h in range(3):
            assert any(galois_inner(list(vec), b, h) for b in basis)


# -- ring isometries ---------------------------------------------------------

def test_isometry_identity():
    params = derive_params(3, 2, 4, -1)
    iso = Isometry(params, 1)
    for elem in itertools.islice(all_ring_elements(params), 40):
        assert iso.apply(elem) == elem


def test_isometry_negation_monomial_images():
    # n=4, lambda=-1 over GF(9), s=-1: X -> -X^3, X^2 -> -X^2, X^3 -> -X
    params = derive_params(3, 2, 4, -1)
    field = params.field
    iso = Isometry(params, -1)
    assert iso.sprime_inv % 8 == 7
    images = {}
    for i in range(4):
        image = iso.apply(QuotientElem(params, 1, Poly.x_power(field, i)))
        images[i] = image.vector()
    one, minus = field.one, -field.one
    assert images[0] == (one, field.zero, field.zero, field.zero)
    assert images[1] == (field.zero, field.zero, field.zero, minus)
    assert images[2] == (field.zero, field.zero, minus, field.zero)
    assert images[3] == (field.zero, minus, field.zero, field.zero)


def test_isometry_weight_preservation_exhaustive():
    params = gf4_params()
    for s in (1, 2, 5):
        iso = Isometry(params, s)
        for elem in all_ring_elements(params):
            assert iso.apply(elem).weight() == elem.weight()


def test_isometry_ring_homomorphism():
    # multiplicativity on all monomial pairs plus random full pairs,
    # and semilinearity on scalars
    rng = random.Random(31)
    for params, s_values in [(gf4_params(), (2, 5)),
                             (derive_params(3, 2, 4, -1), (-1, 3, -3))]:
        field = params.field
        elems = list(field.elements())
        for s in s_values:
            iso = Isometry(params, s)
            for i in range(params.n):
                xi = QuotientElem(params, 1, Poly.x_power(field, i))
                for j in range(params.n):
                    xj = QuotientElem(params, 1, Poly.x_power(field, j))
                    assert iso.apply(xi * xj) == iso.apply(xi) * iso.apply(xj)
            for _ in range(150):
                a = QuotientElem.from_vector(params, 1,
                                             [rng.choice(elems) for _ in range(params.n)])
                b = QuotientElem.from_vector(params, 1,
                                             [rng.choice(elems) for _ in range(params.n)])
                assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
                assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
            nu = iso.nu
            for c in elems:
                if not c:
                    continue
                a = QuotientElem.from_vector(params, 1,
                                             [rng.choice(elems) for _ in range(params.n)])
                scaled = iso.apply(a * QuotientElem(params, 1, Poly(field, [c])))
                twisted = iso.apply(a) * QuotientElem(
                    params, iso.s, Poly(field, [c.frobenius(nu)]))
                assert scaled == twisted


def test_isometry_compose_and_equality():
    params = derive_params(3, 2, 4, -1)
    s = 5
    iso = Isometry(params, s)
    assert iso.compose(Isometry(params, 1)) == iso
    # s and s * p^e * (1 + nr*k) define the same map (pick k with p coprime)
    nr = params.n * params.r
    k = 1
    while (1 + nr * k) % params.p == 0:
        k += 1
    same = Isometry(params, s * params.p ** params.e * (1 + nr * k))
    assert Isometry(params, s) == same and hash(Isometry(params, s)) == hash(same)
    assert len({iso, same, Isometry(params, 1)}) == 2
    assert Isometry(params, params.p) != Isometry(params, 1)  # Frobenius != id when e > 1
    with pytest.raises(ValueError, match="coprime"):
        Isometry(params, 2)


def test_isometry_composition_is_product():
    params = derive_params(3, 2, 4, -1)
    elems = list(all_ring_elements(params))
    rng = random.Random(41)
    sample = rng.sample(elems, 25)
    for s1 in (-1, 3, 5):
        for s2 in (-3, 7):
            iso1, iso2 = Isometry(params, s1), Isometry(params, s2)
            direct = Isometry(params, s1 * s2)
            assert iso1.compose(iso2) == direct
            for elem in sample:
                assert iso1.apply(iso2.apply(elem)) == direct.apply(elem)


@pytest.mark.parametrize("p, e, n, lam", [(3, 2, 4, "g^1"), (5, 2, 6, "g^3"),
                                        (3, 2, 6, "g^2"), (2, 2, 6, "g^1"),
                                        (5, 2, 10, "g^3")])
def test_isometry_apply_matches_monomial_placement(p, e, n, lam):
    # r > 2 on every case, p | n on the last three; every class t of the
    # source ring, multipliers with p | s and with s < 0
    params = derive_params(p, e, n, lam)
    assert params.r > 2
    rng = random.Random(p * n)
    elems = list(params.field.elements())
    multipliers = [s for s in (1, -1, p, -p, p * p + 2, -(2 * p + 1), 3 * p ** 3)
                   if math.gcd(s, params.period) == 1]
    assert min(multipliers) < 0 and any(s % p == 0 for s in multipliers)
    for s in multipliers:
        iso = Isometry(params, s)
        for t in range(params.r):
            for _ in range(4):
                elem = QuotientElem.from_vector(params, t, [rng.choice(elems)
                                                            for _ in range(n)])
                assert iso.apply(elem) == reference_isometry_apply(iso, elem)


def test_isometry_apply_stays_linear_in_n_when_r_is_large():
    # GF(65537), lambda = 3: r = 65 536.  The fold takes about 1 ms of CPU;
    # placing the image in a dense word of length n*r (6.5 million entries)
    # and reducing that took 0.5 s and 148 MB (2-CPU x86-64 VM, Python 3.11)
    params = derive_params(65537, 1, 100, 3)
    rng = random.Random(3)
    elem = QuotientElem(params, 1, poly_from_ints(params.field,
                                                  [rng.randrange(65537) for _ in range(100)]))
    iso = Isometry(params, 3)

    def over(signum, frame):
        raise TimeoutError("Isometry.apply over GF(65537) ran past 0.05 s of CPU")

    previous = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, 0.05)
    try:
        image = iso.apply(elem)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    assert params.r == 65536 and image == reference_isometry_apply(iso, elem)


def test_isometry_on_code_matches_pointwise_image():
    params = gf4_params()
    phi = CosetFunction.from_values(params, [1])
    code = build_code(params, phi)
    words = code.codewords()
    for s in (1, 2, 5):
        iso = Isometry(params, s)
        image_code = iso.on_code(code)
        assert image_code.phi == phi.act(s)
        images = {iso.apply(QuotientElem.from_vector(params, 1, w)).vector()
                  for w in words}
        assert images == set(image_code.codewords())


def test_isometry_on_code_q_fixes():
    params = derive_params(5, 2, 26, -1)
    phi = CosetFunction.from_values(params, [0, 1] * 7)
    code = build_code(params, phi)
    assert Isometry(params, params.q).on_code(code).phi == phi


def test_isometry_moves_check_polynomial():
    # acting by -3 on the (1,2,1,2) function gives its complement
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    code = build_code(params, phi)
    moved = Isometry(params, -3).on_code(code)
    assert moved.check == build_code(params, phi.complement()).check


# -- Galois duals ---------------------------------------------------------------

def test_dual_h0_is_negated_complement():
    params = derive_params(5, 2, 26, -1)
    phi = CosetFunction.from_values(params, [0, 1] * 7)
    dual = galois_dual(build_code(params, phi), 0)
    assert dual.phi == phi.complement().act(-1)


def test_dual_of_zero_code_is_full_ring():
    params = derive_params(3, 2, 4, -1)
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    for h in range(3):
        dual = galois_dual(zero_code, h)
        assert dual.dim == params.n


def test_dual_dimension_sum_and_double_dual():
    for params in grid_instances([(2, 2), (3, 1), (3, 2), (5, 1)], 8):
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        rng = random.Random(params.n * 1000 + params.r)
        for _ in range(4):
            phi = CosetFunction.from_values(
                params, [rng.randint(0, cap) for _ in cosets])
            code = build_code(params, phi)
            for h in range(params.e + 1):
                dual = galois_dual(code, h)
                assert code.dim + dual.dim == params.n
                back = galois_dual(dual, params.e - h)
                assert back.phi == phi and back.residue == code.residue


def test_dual_polynomials_match_coset_products():
    # the dual's polynomials are read off the code's; cf_poly on the dual's
    # own function is the reference.  e >= 3 is needed to tell the
    # Frobenius power p^(e-h) from p^h
    rng = random.Random(8)
    pairs = repeated = 0
    for params in grid_instances([(2, 3), (3, 3), (2, 4), (3, 2), (5, 2)], 12,
                                 max_cosets=64, max_multiplicity=64):
        if params.e * params.d > 24:
            continue
        cap = params.p ** params.nu
        size = len(q_cosets(params, 1))
        for _ in range(2):
            phi = CosetFunction.from_values(
                params, [rng.randint(0, cap) for _ in range(size)])
            code = build_code(params, phi)
            for h in range(params.e + 1):
                dual = galois_dual(code, h)
                reference = (cf_poly(params, dual.phi.complement()),
                             cf_poly(params, dual.phi))
                assert (dual.generator, dual.check) == reference, (params, phi, h)
                back = galois_dual(galois_dual(code, h), params.e - h)
                assert (back.generator, back.check) == (code.generator, code.check)
                pairs += 1
                repeated += params.nu > 0
    assert pairs > 500 and repeated > 50


def test_dual_is_made_with_both_polynomials(monkeypatch):
    # a dual is a finished code: once made, reading its polynomials builds
    # no coset product, even when its source had read neither of its own.
    # e = 4 makes h and e - h differ for h = 1, 3
    params = derive_params(3, 4, 12, "g^20")
    code = build_code(params, CosetFunction.from_values(params, [1, 2, 1, 2]))
    duals = [galois_dual(code, h) for h in range(params.e + 1)]
    references = [(cf_poly(params, dual.phi.complement()), cf_poly(params, dual.phi))
                  for dual in duals]

    def refuse(*args):
        raise AssertionError("a dual built a coset product")

    monkeypatch.setattr(codes, "cf_poly", refuse)
    monkeypatch.setattr(codes, "coset_poly", refuse)
    for h, (dual, reference) in enumerate(zip(duals, references)):
        assert (dual.generator, dual.check) == reference, h


def test_selfdual_code_equals_own_dual_length4():
    params = derive_params(3, 2, 4, -1)
    phi = CosetFunction.from_values(params, [0, 0, 1, 1])
    code = build_code(params, phi)
    for h in (0, 1):
        assert galois_dual(code, h) == code
        assert is_galois_selfdual(code, h).selfdual


def test_dual_agrees_with_brute_force_sets():
    # full set equality, over every coset function wherever enumeration fits
    for params in grid_instances([(2, 1), (2, 2), (3, 1)], 5, max_cosets=6):
        if params.q ** params.n > 1 << 12:
            continue
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        candidates = list(itertools.product(range(cap + 1), repeat=len(cosets)))
        if len(candidates) > 32:
            rng = random.Random(params.n * 77 + params.r)
            candidates = rng.sample(candidates, 32)
        for vals in candidates:
            code = build_code(params, CosetFunction.from_values(params, list(vals)))
            for h in range(params.e + 1):
                dual = galois_dual(code, h)
                assert oracle.brute_dual(code, h) == set(dual.codewords())


# -- self-duality predicates -------------------------------------------------------

def test_selfdual_certificates_length12():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    code = build_code(params, phi)
    expect = {0: (False, "order"), 1: (True, None), 2: (False, "order"),
              3: (True, None), 4: (False, "order")}
    for h, (verdict, clause) in expect.items():
        cert = is_galois_selfdual(code, h)
        assert (cert.selfdual, cert.failed_clause) == (verdict, clause)
    assert code.dim == 6


def test_selfdual_verdicts_length26():
    params = derive_params(5, 2, 26, -1)
    reps = [Q.rep for Q in q_cosets(params, 1)]
    phi_m1 = CosetFunction(params, {rep: 0 if rep < 26 else 1 for rep in reps})
    lo = {1, 3, 5, 7, 11, 13, 33}
    phi_m5 = CosetFunction(params, {rep: 0 if rep in lo else 1 for rep in reps})
    c1, c5 = build_code(params, phi_m1), build_code(params, phi_m5)
    assert is_galois_selfdual(c1, 0).selfdual and not is_galois_selfdual(c1, 1).selfdual
    assert is_galois_selfdual(c5, 1).selfdual and not is_galois_selfdual(c5, 0).selfdual


def test_selfdual_agrees_with_brute_set_equality():
    params = derive_params(3, 1, 4, -1)  # q^n = 81, fully enumerable
    cosets = q_cosets(params, 1)
    for vals in itertools.product(range(2), repeat=len(cosets)):
        code = build_code(params, CosetFunction.from_values(params, list(vals)))
        for h in range(params.e + 1):
            brute = oracle.brute_dual(code, h) == set(code.codewords())
            assert is_galois_selfdual(code, h).selfdual == brute


def test_iso_selfdual_witnesses():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    code = build_code(params, phi)
    for h in range(5):
        assert is_iso_galois_selfdual(code, h) == 5
    # zero function can never satisfy s*phi = phibar
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    assert is_iso_galois_selfdual(zero_code) is None


def test_iso_selfdual_witness_repeated_root_gf4():
    params = gf4_params()
    code = build_code(params, CosetFunction.from_values(params, [1]))
    assert is_iso_galois_selfdual(code) == 1


def test_iso_witness_realizes_duality_through_isometry():
    # M_(-p^(e-h) s)(C) must equal the p^h-dual when s is the witness
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    code = build_code(params, phi)
    s = is_iso_galois_selfdual(code)
    for h in range(5):
        mover = Isometry(params, -(params.p ** ((params.e - h) % params.e)) * s)
        assert mover.on_code(code) == galois_dual(code, h)


def test_iso_witness_for_matches_brute_smallest_multiplier():
    # random functions (mostly non-witnesses), the existence witnesses and
    # their complements, against the least s whose member-wise action
    # sends phi to phibar
    rng = random.Random(5)
    found = missing = 0
    for params in grid_instances(PE_PAIRS, 14, max_cosets=12):
        cap = params.p ** params.nu
        size = len(q_cosets(params, 1))
        phis = [CosetFunction.from_values(
                    params, [rng.randint(0, cap) for _ in range(size)])
                for _ in range(3)]
        witness = iso_selfdual_exists(params).witness_phi
        if witness is not None:
            phis += [witness, witness.complement()]
        for phi in phis:
            s = iso_witness_for(params, phi)
            assert s == brute_iso_witness(phi), (params, phi)
            found += s is not None
            missing += s is None
    assert found > 50 and missing > 50


def _seeded_phi(params, residue, rng):
    """A phi on the class residue mod r that alternates v and p^nu - v along
    the orbits of a drawn multiplier, so that multiplier is a witness; a
    drawn phi when some orbit is odd and p^nu is odd."""
    cap, cosets = params.mult_cap, params.cosets_on(residue)
    images = params.images(residue, rng.choice(reference_multipliers(params)))
    values = [None] * len(cosets)
    for Q in cosets:
        if values[Q.index] is not None:
            continue
        orbit = [Q]
        while images[orbit[-1].index] is not Q:
            orbit.append(images[orbit[-1].index])
        if len(orbit) % 2 and cap % 2:
            values = [rng.randint(0, cap) for _ in cosets]
            break
        v = rng.randint(0, cap) if len(orbit) % 2 == 0 else cap // 2
        for i, P in enumerate(orbit):
            values[P.index] = cap - v if i % 2 else v
    return CosetFunction.from_values(params, values, residue)


def test_one_multiplier_per_action_finds_the_per_residue_witness():
    # iso_witness_for and selfdual_families test the least s of each
    # q-coset of multipliers; the references walk every residue s = 1 mod r.
    # Every class mod r is seeded when r <= 12, else the classes 0, 1 and
    # one drawn class, which keeps the coset tables built to a bounded size
    rng = random.Random(25)
    found = missing = 0
    for params in _census_grid():
        _, psi, s = selfdual_families(params).iso
        assert s == reference_iso_family_multiplier(params), params
        phis = [] if psi is None else [psi, psi.complement()]
        r = params.r
        classes = range(r) if r <= 12 else sorted({0, 1, rng.randrange(r)})
        phis += [_seeded_phi(params, c, rng) for c in classes]
        for phi in phis:
            witness = iso_witness_for(params, phi)
            assert witness == reference_iso_witness_for(phi), (params, phi)
            found += witness is not None
            missing += witness is None
    assert found > 1000 and missing > 1000


def test_iso_witness_tests_each_action_once(monkeypatch):
    # (3, 1, 6560, -1): n'r = 13120 and d = ord(3) = 16, so the 5 120
    # multipliers s = 1 mod 2 coprime to n'r form 320 actions; phi = 0 has
    # no witness, so every action is tested, each once
    params = derive_params(3, 1, 6560, -1)
    phi = CosetFunction.constant(params, 0)
    period, q = params.period, params.q
    actions = {frozenset(s * pow(q, j, period) % period for j in range(params.d))
               for s in reference_multipliers(params)}
    assert (len(reference_multipliers(params)), len(actions)) == (5120, 320)
    tested = []
    act_is_complement = CosetFunction.act_is_complement
    monkeypatch.setattr(CosetFunction, "act_is_complement",
                        lambda phi, t: tested.append(t) or act_is_complement(phi, t))
    assert iso_witness_for(params, phi) is None
    assert len(tested) == 320
    assert {orbit for orbit in actions for t in tested if t in orbit} == actions
