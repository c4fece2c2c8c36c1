import math
import random

import pytest

from constagalois import (CodeParams, CosetFunction, build_code, cf_poly, derive_params,
                          embed, make_field, mult_order, q_cosets, s_orbits)
from constagalois.codes import coset_poly
from constagalois.duality import iso_witness_for
from constagalois.existence import selfdual_families
from constagalois.oracle import naive_cosets
from constagalois.cosets import _coset_class, _interned_params
from exhaustive import (PE_PAIRS, criterion6_codes, factor_walk_order, grid_instances,
                        reference_act, reference_image_rep, reference_multipliers,
                        reference_s_orbits, reference_theta, reference_theta_dlog)


def test_params_repeated_root_gf4():
    field = make_field(2, 2)
    params = derive_params(2, 2, 2, field.generator ** 2)
    assert (params.r, params.nu, params.nprime, params.period, params.d) == (3, 1, 1, 3, 1)


def test_params_length12_over_gf81():
    params = derive_params(3, 4, 12, "g^20")
    assert (params.r, params.nu, params.nprime, params.period) == (4, 1, 4, 16)
    assert params.lam_prime == params.theta ** params.nprime


def test_params_length26_over_gf25():
    params = derive_params(5, 2, 26, -1)
    assert (params.r, params.nu, params.nprime, params.period) == (2, 0, 26, 52)
    assert params.d == 2


def test_lambda_zero_rejected():
    with pytest.raises(ValueError, match="lambda must be a unit"):
        derive_params(5, 2, 4, 0)


def test_theta_invariants_on_grid():
    for params in grid_instances([(2, 2), (3, 1), (5, 1)], 8):
        if params.e * params.d > 8:
            continue
        assert mult_order(params.theta) == max(params.period, 1) or params.period == 1
        assert params.theta ** params.n == embed(params.lam, params.big_field)
    # lambda' lives in GF(q): no splitting field needed
    for params in _census_grid():
        assert params.lam_prime ** (params.p ** params.nu) == params.lam
        assert mult_order(params.lam_prime) == params.r


def test_theta_dlog_matches_reference_on_construct_grid():
    # every (p, e, n, ord lambda) with p <= 7, e <= 2, n <= 40 whose
    # splitting field has degree e*d <= 24
    count = 0
    for p in (2, 3, 5, 7):
        for e in (1, 2):
            q = p ** e
            g = make_field(p, e).generator
            for n in range(1, 41):
                for r in [k for k in range(1, q) if (q - 1) % k == 0]:
                    params = derive_params(p, e, n, g ** ((q - 1) // r))
                    if e * params.d > 24:
                        continue
                    assert params.theta_dlog == reference_theta_dlog(params), params
                    assert params.theta == reference_theta(params), params
                    count += 1
    assert count == 1270


def test_theta_is_the_generator_power_on_criterion6_grid():
    instances = {params for params, _ in criterion6_codes()}
    assert len(instances) > 1
    for params in instances:
        assert params.theta == reference_theta(params), params


@pytest.mark.parametrize("n", [2, 4, 8])
def test_theta_over_gf65537_by_brute_force(n):
    # q = 65537 > 2^16, so GF(q) has no dlog table; its elements are the
    # residues themselves, so integer pow checks theta
    p = 65537
    field = make_field(p, 1)
    g = field.generator.v
    for a in (0, 32768, 12288, 40960, 24, 65528):
        lam = pow(g, a, p)
        params = derive_params(p, 1, n, field.wrap(lam))
        period = params.period
        assert period == n * params.r and params.d == 1
        m_step = (p - 1) // period
        xi = pow(g, m_step, p)
        j = next(j for j in range(period)
                 if math.gcd(j, period) == 1 and pow(xi, n * j, p) == lam)
        assert params.theta_dlog == j * m_step
        theta = params.theta
        assert theta.v == pow(g, j * m_step, p)
        assert pow(theta.v, n, p) == lam
        assert factor_walk_order(theta) == period


def test_theta_builds_no_dlog_table():
    # GF(2^16) is packed and tables its logs only on demand; theta and the
    # coset polynomials are found without them
    field = make_field(2, 16)
    saved, field._dlog_table = field._dlog_table, None
    try:
        for n, lam in [(3, field.one), (17, field.one),
                       (5, field.generator ** (65535 // 3))]:
            params = CodeParams(field, n, lam.v)    # not interned: theta is fresh
            assert params.big_field is field
            theta = params.theta
            assert theta ** n == lam and mult_order(theta) == params.period
            for Q in q_cosets(params, 1):
                assert coset_poly(params, Q).degree == len(Q)
        assert field._dlog_table is None
    finally:
        field._dlog_table = saved

def test_cosets_length26_table():
    params = derive_params(5, 2, 26, -1)
    members = [Q.members for Q in q_cosets(params, 1)]
    assert members == [
        (1, 25), (3, 23), (5, 21), (7, 19), (9, 17), (11, 15), (13,),
        (27, 51), (29, 49), (31, 47), (33, 45), (35, 43), (37, 41), (39,),
    ]


def test_cosets_all_singletons_when_q_fixes_class():
    params = derive_params(3, 4, 12, "g^20")  # q = 81 = 1 mod 16
    assert [Q.members for Q in q_cosets(params, 1)] == [(1,), (5,), (9,), (13,)]


def test_cosets_rejects_non_coprime_multiplier():
    params = derive_params(5, 2, 26, -1)
    with pytest.raises(ValueError, match="coprime"):
        q_cosets(params, 13)


def test_coset_partition_invariants():
    for params in grid_instances(PE_PAIRS, 12, max_cosets=99):
        cosets = q_cosets(params, 1)
        seen = set()
        for Q in cosets:
            assert Q.rep == min(Q.members)
            assert not (seen & set(Q.members))
            seen |= set(Q.members)
            for k in Q.members:
                assert (k * params.q) % params.period in Q.members
                if params.r:
                    assert k % params.r == 1 % params.r
        assert len(seen) == params.nprime
        assert sum(len(Q) for Q in cosets) == params.nprime


def test_orbits_of_negation_length26():
    params = derive_params(5, 2, 26, -1)
    orbits = s_orbits(params, -1)
    as_sets = {frozenset(Q.rep for Q in orbit) for orbit in orbits}
    assert as_sets == {frozenset(t) for t in
                       [(1, 27), (3, 29), (5, 31), (7, 33), (9, 35), (11, 37), (13, 39)]}


def test_orbits_of_minus5_length26():
    params = derive_params(5, 2, 26, -1)
    orbits = s_orbits(params, -5)
    as_sets = {frozenset(Q.rep for Q in orbit) for orbit in orbits}
    assert as_sets == {frozenset(t) for t in
                       [(1, 31), (3, 37), (5, 27), (7, 9), (11, 29), (33, 35), (13, 39)]}


def test_orbits_trivial_for_s1():
    params = derive_params(5, 2, 26, -1)
    assert all(len(orbit) == 1 for orbit in s_orbits(params, 1))


def test_orbit_action_order_and_closure():
    params = derive_params(5, 2, 26, -1)
    for s in (-1, -5, 3):
        for orbit in s_orbits(params, s):
            length = len(orbit)
            for i, Q in enumerate(orbit):
                image = {(s * k) % params.period for k in Q.members}
                assert image == set(orbit[(i + 1) % length].members)


def test_orbits_reject_class_breaking_multiplier():
    params = derive_params(3, 4, 12, "g^20")  # r = 4, period 16
    with pytest.raises(ValueError, match="does not preserve"):
        s_orbits(params, 3)  # coprime to 16 but 3 != 1 mod 4


def test_complement_involution_and_values():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    # the coset of a unit k is k*Q1, the image of the coset of 1
    values = [phi.assignment[params.images(1, k)[0].rep] for k in (1, 5, 9, 13, 17, -3)]
    assert values == [1, 2, 1, 2, 1, 2]
    assert phi.complement().values() == (2, 1, 2, 1)
    assert phi.complement().complement() == phi


def test_complement_is_bit_flip_in_semisimple_case():
    params = derive_params(5, 2, 26, -1)
    phi = CosetFunction.constant(params, 0)
    assert set(phi.complement().values()) == {1}


def test_act_identity_and_q_invariance():
    params = derive_params(5, 2, 26, -1)
    phi = CosetFunction.from_values(params, [0, 1] * 7)
    assert phi.act(1) == phi
    assert phi.act(params.q) == phi


def test_act_by_minus3_gives_complement():
    # (-3)^-1 = 5 mod 16, so (-3 phi)(k) = phi(5k): shifts (1,2,1,2) to (2,1,2,1)
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    assert phi.act(-3) == phi.complement()


def test_act_rejects_non_coprime():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    with pytest.raises(ValueError, match="coprime"):
        phi.act(4)


def test_act_composition_and_complement_commute():
    params = derive_params(5, 2, 26, -1)
    phi = CosetFunction.from_values(params, [0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0])
    for s1 in (3, -1, 5):
        for s2 in (-5, 7, 9):
            assert phi.act(s2).act(s1) == phi.act(s1 * s2)
        assert phi.complement().act(s1) == phi.act(s1).complement()


def test_meet_and_leq():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.from_values(params, [1, 2, 1, 2])
    assert phi.meet(phi) == phi
    assert phi.meet(phi.complement()).values() == (1, 1, 1, 1)
    zero = CosetFunction.constant(params, 0)
    assert zero.meet(phi) == zero        # zero <= phi
    assert phi.meet(zero) != phi         # not phi <= zero


def test_meet_domain_mismatch_rejected():
    params = derive_params(3, 4, 12, "g^20")
    phi = CosetFunction.constant(params, 0)
    moved = phi.act(3)           # lands on the class 3 + 4Z
    assert moved.residue == 3 != phi.residue
    with pytest.raises(ValueError, match="different domains"):
        phi.meet(moved)


def test_assignment_validation():
    params = derive_params(3, 4, 12, "g^20")
    with pytest.raises(ValueError, match="domain"):
        CosetFunction(params, {1: 0, 5: 1})
    with pytest.raises(ValueError, match="outside"):
        CosetFunction(params, {1: 4, 5: 0, 9: 0, 13: 0})
    with pytest.raises(ValueError, match="one value per coset"):
        CosetFunction.from_values(params, [0, 0, 0])
    for bad in (params.mult_cap + 1, -1):
        with pytest.raises(ValueError, match="outside"):
            CosetFunction.from_values(params, [0, bad, 0, 0])


def _census_grid():
    """Every lambda order for p <= 13, e <= 3, n <= 30."""
    for p in (2, 3, 5, 7, 11, 13):
        for e in (1, 2, 3):
            q = p ** e
            field = make_field(p, e)
            orders = [r for r in range(1, q) if (q - 1) % r == 0]
            for n in range(1, 31):
                for r in orders:
                    yield derive_params(p, e, n, field.generator ** ((q - 1) // r))


def test_coset_table_matches_member_minimum_on_census_grid():
    # params.images, and image, s_orbits and CosetFunction.act through it,
    # read images off the coset table; the reference takes the least image
    # over every member of the coset.  act_is_complement(t) must agree with
    # its definition, act(t) == complement()
    rng = random.Random(3)
    for params in _census_grid():
        period, cap = params.period, params.p ** params.nu
        assert params.mult_cap == cap
        units = reference_multipliers(params)
        # one multiplier per action, ascending: each unit s = 1 mod r lies in
        # the q-coset of exactly one, the least member of that coset in
        # [1, n'r] (n'r itself for the one coset {0} when n'r = 1)
        least, covered = list(params.multipliers()), []
        assert least == sorted(set(least)), params
        for m in least:
            coset = {(m * pow(params.q, j, period) - 1) % period + 1
                     for j in range(params.d)}
            assert min(coset) == m, (params, m)
            covered += coset
        assert sorted(covered) == units, params
        negs = [-(params.p ** h) for h in range(params.e + 1)]
        cosets = q_cosets(params, 1)
        assert [Q.index for Q in cosets] == list(range(len(cosets)))
        phi = CosetFunction.from_values(
            params, [rng.randint(0, cap) for _ in cosets])
        naive, assignment = naive_cosets(params, 1), phi.assignment
        for s in units:
            assert [[Q.rep for Q in orbit] for orbit in s_orbits(params, s)] \
                == reference_s_orbits(params, naive, s), (params, s)
        for s in units + negs:
            if math.gcd(s, period) != 1:
                continue
            images = params.images(1, s)
            assert [P.rep for P in images] == \
                [reference_image_rep(params, Q.members, s) for Q in cosets], (params, s)
            assert all(params.image(Q, s) is P for Q, P in zip(cosets, images))
            image = phi.act(s)
            assert image.assignment == reference_act(params, naive, assignment, s), \
                (params, s)
            assert image.residue == s % params.r
            assert phi.act_is_complement(s) == (image == phi.complement()), (params, s)
        _, psi, witness = selfdual_families(params).iso
        if psi is not None:
            assert psi.act_is_complement(witness), params
            assert witness == iso_witness_for(params, psi), params
        if params.r > 2:                 # -1 moves the class 1 + rZ
            assert not phi.act_is_complement(period - 1)
        if period > 1:
            with pytest.raises(ValueError, match="coprime"):
                phi.act_is_complement(period)
            with pytest.raises(ValueError, match="coprime"):
                params.images(1, period)
            with pytest.raises(ValueError, match="coprime"):
                params.image(cosets[0], period)
        table = _coset_class(params, 1 % params.r)[1]
        for Q in cosets:
            assert Q.rep == Q.members[0]
            assert all(table[k // params.r] is Q for k in Q.members)
        assert params.images(1, 1 + period) == cosets   # s acts mod n'r


def test_phi_and_cosets_of_other_params_are_refused():
    # each pair shares p and e, so nothing but ownership tells a foreign
    # phi or coset apart: cf_poly would zip the four cosets of the cyclic
    # params with phi's two values, and image would index the other table
    cyclic, nega = derive_params(5, 1, 4, 1), derive_params(5, 1, 4, -1)
    phi = CosetFunction.constant(nega, 1)
    for call in (cf_poly, iso_witness_for, build_code):
        with pytest.raises(ValueError, match="^coset function belongs to different params$"):
            call(cyclic, phi)
    for params, Q in [(cyclic, nega.coset_of(1)), (nega, cyclic.coset_of(1)),
                      (cyclic, nega.coset_of(0))]:
        with pytest.raises(ValueError, match="^coset belongs to different params$"):
            coset_poly(params, Q)
    Q5 = derive_params(3, 2, 8, -1).coset_of(5)
    with pytest.raises(ValueError, match="^coset belongs to different params$"):
        derive_params(5, 2, 26, -1).image(Q5, 1)
    assert cf_poly(nega, phi) == nega.modulus_poly(1)
    assert coset_poly(cyclic, cyclic.coset_of(1)).degree == 1


def test_multiplier_action_reads_the_coset_memo_per_class():
    # images maps a whole class from one read of the class's coset table,
    # so the action pays no memo hit per coset
    params = derive_params(5, 2, 26, -1)
    assert len(q_cosets(params, 1)) == 14
    phi = CosetFunction.from_values(params, [0, 1] * 7)
    for action in (lambda: phi.act_is_complement(-1), lambda: phi.act(-5),
                   lambda: s_orbits(params, -5)):
        hits = _coset_class.cache_info().hits
        action()
        assert _coset_class.cache_info().hits - hits <= 2


def test_coset_of_rejects_other_class():
    # the coset of k is the image of a coset of k's class: images reads the
    # table of the class s * residue mod r at s * rep
    params = derive_params(5, 2, 26, -1)   # r = 2, n'r = 52
    assert params.images(1, 27)[0].members == (27, 51)           # 27 * Q1
    assert params.images(0, 27)[1].rep == 2                      # 27 * Q2 = Q2
    with pytest.raises(ValueError, match="coprime"):
        params.images(1, 2)      # 2 * Q1 would leave the units of the class 1


def test_derive_params_interns_every_spelling_of_lambda():
    minus_one = make_field(3, 2).from_int(-1)
    one_spelling = derive_params(3, 2, 4, -1)
    hits = _interned_params.cache_info().hits
    assert one_spelling is derive_params(3, 2, 4, "g^4")
    assert one_spelling is derive_params(3, 2, 4, minus_one)
    assert _interned_params.cache_info().hits == hits + 2
    # the params hold lambda as its int and wrap it on demand
    assert one_spelling.lam_v == minus_one.v and one_spelling.lam == minus_one


def test_coset_poly_and_iso_family_memos_hit_on_repeat():
    params = derive_params(5, 2, 26, -1)
    Q = q_cosets(params, 1)[1]
    first = coset_poly(params, Q)
    hits = coset_poly.cache_info().hits
    assert coset_poly(params, Q) is first
    assert coset_poly.cache_info().hits == hits + 1
    family = selfdual_families(params).iso
    hits = selfdual_families.cache_info().hits
    assert selfdual_families(params).iso is family
    assert selfdual_families.cache_info().hits == hits + 1
    cosets = params.cosets_on(1)
    hits = _coset_class.cache_info().hits
    assert params.cosets_on(1) is cosets
    assert _coset_class.cache_info().hits == hits + 1


def test_params_hold_no_memo_dict():
    # per-class cosets live in the module's memo; theta powers have none
    params = derive_params(5, 2, 26, -1)
    params.cosets_on(1)
    params.theta_pow(1)
    assert not [name for name, value in vars(params).items() if isinstance(value, dict)]
