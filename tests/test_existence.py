import itertools
import math
import random

import pytest

from constagalois import (CosetFunction, build_code, derive_params,
                          duadic_exists, existence, euclidean_selfdual_exists,
                          galois_selfdual_exists, hermitian_selfdual_exists,
                          is_galois_selfdual, is_iso_galois_selfdual,
                          iso_selfdual_exists, make_field, nu, q_cosets,
                          s_orbits)
from constagalois.duality import iso_witness_for
from constagalois.existence import (_NO_FAMILIES, family_possible,
                                    galois_selfdual_verdicts, selfdual_families)
from constagalois.numtheory import p_split
from exhaustive import (PE_PAIRS, brute_galois_selfdual_exists,
                        brute_iso_selfdual_exists, census_instances,
                        code_level_galois_selfdual, code_level_iso_selfdual,
                        even_orbit_multiplier, grid_instances, half_dimension_codes,
                        nu2_power_pm1, orbits_even_by_case, orbits_even_by_valuations,
                        reference_euclidean_selfdual_exists, reference_galois_verdict,
                        reference_hermitian_selfdual_exists,
                        reference_iso_family_multiplier)


def test_nu_basics():
    assert nu(2, 8) == 3
    assert nu(2, 126) == 1
    assert nu(3, 12) == 1
    assert nu(5, -50) == 2
    with pytest.raises(ValueError):
        nu(2, 0)


def test_nu2_power_pm1_examples():
    assert nu2_power_pm1(5, 3) == (2, 1)       # 124 = 4*31, 126 = 2*63
    assert nu2_power_pm1(3, 1) == (1, 2)       # 2, 4
    assert nu2_power_pm1(3, 2) == (3, 1)       # 8, 10
    with pytest.raises(ValueError):
        nu2_power_pm1(4, 1)
    with pytest.raises(ValueError):
        nu2_power_pm1(1, 2)


def test_nu2_power_pm1_matches_direct_valuation():
    for k in itertools.chain(range(3, 100, 2), range(-99, -2, 2)):
        for d in range(1, 13):
            direct = (nu(2, k ** d - 1), nu(2, k ** d + 1))
            assert nu2_power_pm1(k, d) == direct, (k, d)


def test_duadic_examples():
    assert duadic_exists(derive_params(3, 2, 4, -1)).matched_condition == "(iii.1)"
    f4 = make_field(2, 2)
    assert not duadic_exists(derive_params(2, 2, 2, f4.generator ** 2)).exists
    assert duadic_exists(derive_params(5, 2, 26, -1)).matched_condition == "(iii.1)"


def test_duadic_matches_even_orbit_multiplier_search():
    for params in grid_instances(PE_PAIRS, 10):
        assert duadic_exists(params).exists == (even_orbit_multiplier(params) is not None)


def test_iso_exists_examples():
    f4 = make_field(2, 2)
    v = iso_selfdual_exists(derive_params(2, 2, 2, f4.generator ** 2))
    assert v.exists and v.matched_condition == "(i)"
    assert iso_selfdual_exists(derive_params(5, 2, 26, -1)).exists
    v = iso_selfdual_exists(derive_params(3, 1, 5, 1))
    assert not v.exists
    assert not brute_iso_selfdual_exists(derive_params(3, 1, 5, 1))


def test_galois_exists_examples():
    params12 = derive_params(3, 4, 12, "g^20")
    v = galois_selfdual_exists(params12, 1)
    assert v.exists and v.matched_condition == "(iv)"
    assert not galois_selfdual_exists(params12, 0).exists
    assert not galois_selfdual_exists(params12, 2).exists
    f4 = make_field(2, 2)
    v = galois_selfdual_exists(derive_params(2, 2, 2, f4.generator ** 2), 1)
    assert v.exists and v.matched_condition == "(i)"


def test_euclidean_examples():
    assert euclidean_selfdual_exists(derive_params(3, 2, 4, -1)).matched_condition == "(ii)"
    assert not euclidean_selfdual_exists(derive_params(3, 1, 4, 1)).exists
    assert not euclidean_selfdual_exists(derive_params(7, 1, 7, 1)).exists
    assert euclidean_selfdual_exists(derive_params(5, 2, 26, -1)).matched_condition == "(ii)"


def test_hermitian_examples():
    f4 = make_field(2, 2)
    v = hermitian_selfdual_exists(derive_params(2, 2, 2, f4.generator ** 2))
    assert v.exists and v.matched_condition == "(i)"
    v = hermitian_selfdual_exists(derive_params(5, 2, 26, -1))
    assert v.exists and v.matched_condition == "(ii)"
    assert not hermitian_selfdual_exists(derive_params(5, 1, 4, -1)).exists  # e odd


def test_hermitian_gf9_length4():
    # p^(e/2) = 3 = -1 mod 4 branch with the n'r valuation test
    v = hermitian_selfdual_exists(derive_params(3, 2, 4, -1))
    assert v.exists and v.matched_condition == "(iii)"


def test_witnesses_pass_their_predicates():
    for params in grid_instances(PE_PAIRS, 10):
        for h in range(params.e + 1):
            v = galois_selfdual_exists(params, h)
            if v.exists:
                assert is_galois_selfdual(build_code(params, v.witness_phi), h)
            vi = iso_selfdual_exists(params, h)
            if vi.exists:
                assert is_iso_galois_selfdual(build_code(params, vi.witness_phi), h) is not None
        ve = euclidean_selfdual_exists(params)
        if ve.exists:
            assert is_galois_selfdual(build_code(params, ve.witness_phi), 0)
        vh = hermitian_selfdual_exists(params)
        if vh.exists:
            assert is_galois_selfdual(build_code(params, vh.witness_phi), params.e // 2)


def test_iso_verdict_is_h_independent():
    for params in grid_instances(PE_PAIRS, 8):
        verdicts = {iso_selfdual_exists(params, h).exists
                    for h in range(params.e + 1)}
        assert len(verdicts) == 1


def test_memoised_iso_verdict_equal_for_all_h_and_checks_h():
    for params in grid_instances(PE_PAIRS + [(3, 3), (7, 1)], 12):
        first = iso_selfdual_exists(params, 0)
        for h in range(1, params.e + 1):
            again = iso_selfdual_exists(params, h)
            # a verdict that exists is built per call; every absent one is
            # the shared "no such codes"
            assert again == first and (again is first) == (not first)
        label, phi, s = selfdual_families(params).iso
        assert (label, phi) == (first.matched_condition, first.witness_phi)
        assert s == (None if phi is None else iso_witness_for(params, phi))
        for h in (-1, params.e + 1):
            with pytest.raises(ValueError, match="h must lie"):
                iso_selfdual_exists(params, h)


def test_iso_labels_follow_duadic_labels():
    mapping = {"(iii.1)": "(ii)", "(iii.2)": "(iii)", None: None}
    for params in grid_instances(PE_PAIRS + [(3, 3), (7, 1)], 16):
        iso = iso_selfdual_exists(params).matched_condition
        if params.p == 2 and params.nu >= 1:
            assert iso == "(i)"
        else:
            assert iso == mapping[duadic_exists(params).matched_condition]


def test_special_cases_agree_with_general_predicate():
    for params in grid_instances(PE_PAIRS, 10):
        assert (euclidean_selfdual_exists(params).exists
                == galois_selfdual_exists(params, 0).exists)
        if params.e % 2 == 0:
            assert (hermitian_selfdual_exists(params).exists
                    == galois_selfdual_exists(params, params.e // 2).exists)


def test_special_cases_match_their_own_theorems():
    # label, witness and verdict of the Galois relabelling against the
    # Euclidean and Hermitian theorems stated on their own terms
    for params in grid_instances(PE_PAIRS + [(3, 3), (3, 4), (7, 1), (7, 2)], 16):
        assert (euclidean_selfdual_exists(params).to_json()
                == reference_euclidean_selfdual_exists(params).to_json()), params
        assert (hermitian_selfdual_exists(params).to_json()
                == reference_hermitian_selfdual_exists(params).to_json()), params


def test_even_orbit_criteria_agree_with_each_other_and_orbits():
    for params in grid_instances(PE_PAIRS, 10):
        for h in range(params.e + 1):
            by_case = orbits_even_by_case(params, h) is not None
            by_vals = orbits_even_by_valuations(params, h) is not None
            assert by_case == by_vals, (params, h)
            s = -(params.p ** h)
            if math.gcd(s, params.period) == 1 and (s - 1) % params.r == 0:
                direct = all(len(orbit) % 2 == 0 for orbit in s_orbits(params, s))
                assert by_case == direct, (params, h)


def test_existence_matches_exhaustive_search_small():
    # the full grid lives in the acceptance suite; this is a quick slice
    for params in grid_instances([(2, 2), (3, 1), (5, 1)], 9):
        for h in range(params.e + 1):
            assert (galois_selfdual_exists(params, h).exists
                    == brute_galois_selfdual_exists(params, h)), (params, h)
        assert (iso_selfdual_exists(params).exists
                == brute_iso_selfdual_exists(params)), params


def test_per_params_verdicts_match_the_one_h_reference_on_the_census_grid():
    rejected, witnesses = set(), 0
    for params in census_instances():
        hs = range(params.e + 1)
        expected = [reference_galois_verdict(params, h) for h in hs]
        verdicts = galois_selfdual_verdicts(params, hs)
        # equal verdicts: exists, label, and the witness's values on the same params
        assert verdicts == expected, params
        assert [galois_selfdual_exists(params, h) for h in hs] == expected, params
        rejected.update(id(v) for v in verdicts if not v.exists)
        if verdicts[0].exists:  # -1 and -q act alike
            assert verdicts[0].witness_phi is verdicts[-1].witness_phi, params
        # C = C^(perp h), or C^(perp h) = M_s(C) with M_s weight-preserving:
        # either way dim C = n - dim C, as census rows write it
        _, iso_phi, _ = selfdual_families(params).iso
        for phi in [v.witness_phi for v in verdicts if v.exists] + [iso_phi]:
            if phi is not None:
                assert 2 * phi.weight() == params.n, (params, phi)
                witnesses += 1
    assert len(rejected) == 1
    assert witnesses == 3124, witnesses


def test_verdicts_asked_in_any_order_share_one_witness_per_action(monkeypatch):
    # descending and repeated h on cleared records: -p^h and -p^h' act alike
    # when one <q>-orbit mod n'r holds both, so those h share one phi, built
    # on the first ask of the orbit and read off the record after it
    built = []  # the t of every witness build
    witness = existence._witness

    def counting(params, t):
        built.append(t)
        return witness(params, t)

    monkeypatch.setattr(existence, "_witness", counting)
    existence.selfdual_families.cache_clear()
    actions = 0
    for params in census_instances():
        if params.e < 2:
            continue
        hs = [*range(params.e, -1, -1), 0]
        built.clear()
        verdicts = galois_selfdual_verdicts(params, hs)
        assert verdicts == [reference_galois_verdict(params, h) for h in hs], params
        shared = {}  # the <q>-orbit of -p^h -> the ids of its h's witnesses
        for h, verdict in zip(hs, verdicts):
            if verdict.exists:
                t = -(params.p ** h)
                orbit = frozenset(t * params.q ** j % params.period for j in range(params.d))
                shared.setdefault(orbit, set()).add(id(verdict.witness_phi))
        assert all(len(ids) == 1 for ids in shared.values()), params
        assert len([t for t in built if t < 0]) == len(shared), params
        actions += len(shared)
        built.clear()
        assert galois_selfdual_verdicts(params, hs) == verdicts, params
        assert built == [], params
    assert actions == 712, actions


def test_verdicts_match_the_code_level_oracle_for_every_lambda():
    # the oracle lists the codes of dimension n/2 and never sees a q-coset;
    # every lambda in GF(q)*, not one per order, on q^(n/2) <= 4096, n <= 16
    counts = [0] * 6  # (even n, odd n) x (verdicts, Galois, isometric positives)
    for p, e in PE_PAIRS:
        field = make_field(p, e)
        for n in range(1, 17):
            if field.order ** n > 4096 ** 2:
                continue
            for lam in filter(None, field.elements()):
                params = derive_params(p, e, n, lam)
                ref, codes = half_dimension_codes(params)
                for h in range(e + 1):
                    galois = code_level_galois_selfdual(ref, codes, h)
                    iso = code_level_iso_selfdual(params, ref, codes, h)
                    assert galois_selfdual_exists(params, h).exists == galois, (params, h)
                    assert iso_selfdual_exists(params, h).exists == iso, (params, h)
                    for i, x in enumerate((1, galois, iso)):
                        counts[3 * (n % 2) + i] += x
    assert counts == [354, 85, 167, 454, 0, 0], counts


def test_verdict_json_shape():
    params = derive_params(3, 2, 4, -1)
    data = galois_selfdual_exists(params, 0).to_json()
    assert data["exists"] is True
    assert set(data) == {"exists", "matched_condition", "witness_phi"}


def test_every_absent_verdict_is_the_shared_one():
    # "no such codes" is one object, from each of the five predicates,
    # on the census grid and on odd e past it
    odd_e = grid_instances([(2, 5), (3, 5), (5, 5)], 24, math.inf, math.inf)
    absent = 0
    for params in itertools.chain(census_instances(), odd_e):
        verdicts = [*(galois_selfdual_exists(params, h) for h in range(params.e + 1)),
                    iso_selfdual_exists(params), euclidean_selfdual_exists(params),
                    hermitian_selfdual_exists(params), duadic_exists(params)]
        for verdict in verdicts:
            if not verdict:
                assert verdict is existence._ABSENT, (params, verdict)
                absent += 1
    assert absent == 57584, absent


def _ruled_out_instances():
    """Every census-grid instance that family_possible rules out, then a
    seeded sample of those over GF(p^e), p in {17, 19, 23}, e <= 2, n <= 120."""
    census = [params for params in census_instances()
              if not family_possible(params.p, params.nprime, params.nu, params.r)]
    assert len(census) == 5370  # of the grid's 8 040
    yield from census
    wide = []
    for p, e in itertools.product((17, 19, 23), (1, 2)):
        q = p ** e
        orders = [r for r in range(1, q) if (q - 1) % r == 0]
        for n in range(1, 121):
            nu_n, nprime = p_split(p, n)
            wide += [(p, e, n, r) for r in orders
                     if not family_possible(p, nprime, nu_n, r)]
    for p, e, n, r in random.Random("family_possible").sample(wide, 300):
        field = make_field(p, e)
        params = derive_params(p, e, n, field.generator ** ((p ** e - 1) // r))
        assert (params.nprime, params.r) == (n // p ** params.nu, r)
        yield params


def test_family_possible_is_necessary_for_every_label_rule():
    # where it is False, the tests' own spellings of the rules, which never
    # read it, give neither family; the record is the shared empty one
    for params in _ruled_out_instances():
        assert not any(reference_galois_verdict(params, h).exists
                       for h in range(params.e + 1)), params
        assert reference_iso_family_multiplier(params) is None, params
        assert selfdual_families(params) is _NO_FAMILIES, params

