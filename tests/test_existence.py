import itertools
import math

import pytest

from constagalois import (CosetFunction, build_code, derive_params,
                          duadic_exists, euclidean_selfdual_exists,
                          galois_selfdual_exists, hermitian_selfdual_exists,
                          is_galois_selfdual, is_iso_galois_selfdual,
                          iso_selfdual_exists, make_field, nu, q_cosets,
                          s_orbits)
from constagalois.duality import iso_witness_for
from constagalois.existence import iso_selfdual_family
from exhaustive import (PE_PAIRS, brute_galois_selfdual_exists,
                        brute_iso_selfdual_exists, grid_instances,
                        nu2_power_pm1, orbits_even_by_case, orbits_even_by_valuations,
                        reference_euclidean_selfdual_exists,
                        reference_hermitian_selfdual_exists)


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
    from constagalois.existence import _even_orbit_multiplier
    for params in grid_instances(PE_PAIRS, 10):
        assert duadic_exists(params).exists == (_even_orbit_multiplier(params) is not None)


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
            assert again == first and again is not first
        label, phi, s = iso_selfdual_family(params)
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


def test_verdict_json_shape():
    params = derive_params(3, 2, 4, -1)
    data = galois_selfdual_exists(params, 0).to_json()
    assert data["exists"] is True
    assert set(data) == {"exists", "matched_condition", "witness_phi"}
