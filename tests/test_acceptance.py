"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a single PASS/FAIL line (visible with pytest -s)
and fails the run on any mismatch.
"""

import itertools
import random
import time

from constagalois import (CosetFunction, build_code, cf_poly, derive_params,
                          euclidean_selfdual_exists, galois_dual,
                          galois_inner, galois_selfdual_exists,
                          hermitian_selfdual_exists, is_galois_selfdual,
                          is_iso_galois_selfdual, iso_selfdual_exists,
                          make_field, nu, q_cosets, s_orbits)
from constagalois.duality import Isometry
from constagalois.oracle import brute_dual, dual_basis, naive_cosets, spans_equal
from constagalois.polyring import QuotientElem
from exhaustive import (PE_PAIRS, brute_galois_selfdual_exists,
                        brute_iso_selfdual_exists, criterion6_wide_codes, grid_instances,
                        nu2_power_pm1)


def run_criterion(num, label, limit_s, body):
    start = time.monotonic()
    try:
        body()
    except Exception:
        print(f"criterion {num} FAIL: {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num} PASS ({elapsed:.2f}s / limit {limit_s}s): {label}")
    assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.2f}s)"


def test_criterion_1_repeated_root_quaternary_code():
    def body():
        field = make_field(2, 2)
        params = derive_params(2, 2, 2, field.generator ** 2)
        theta = params.theta
        code = build_code(params, CosetFunction.from_values(params, [1]))
        words = set(code.codewords())
        assert words == {
            (field.zero, field.zero), (theta, field.one),
            (theta ** 2, theta), (field.one, theta ** 2)}
        assert not galois_inner([theta, field.one], [theta, field.one], 1)
        assert is_galois_selfdual(code, 1).selfdual
        assert not euclidean_selfdual_exists(params).exists
        assert euclidean_selfdual_exists(derive_params(2, 2, 2, 1)).exists

    run_criterion(1, "repeated-root code over GF(4), length 2", 1.0, body)


def test_criterion_2_length12_over_gf81():
    def body():
        params = derive_params(3, 4, 12, "g^20")
        phi = CosetFunction.from_values(params, [1, 2, 1, 2])
        assert phi.act(-3) == phi.complement()
        code = build_code(params, phi)
        for h, expected in [(0, False), (1, True), (2, False), (3, True), (4, False)]:
            assert is_galois_selfdual(code, h).selfdual == expected, h
        for h in range(5):
            assert is_iso_galois_selfdual(code, h) is not None
        assert code.dim == 6

    run_criterion(2, "order-4 constacyclic code of length 12 over GF(81)", 1.0, body)


def test_criterion_3_selfdual_negacyclic_length4():
    def body():
        params = derive_params(3, 2, 4, -1)
        code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
        assert code.dim == 2
        words = code.codewords()
        assert len(words) == 81
        assert code.min_weight() == 3
        for h in (0, 1):
            assert is_galois_selfdual(code, h).selfdual
            assert brute_dual(code, h) == set(words)

    run_criterion(3, "negacyclic [4,2,3] over GF(9), self-dual both ways", 1.0, body)


def test_criterion_4_length26_negacyclic_over_gf25():
    def body():
        params = derive_params(5, 2, 26, -1)
        assert [Q.members for Q in q_cosets(params, 1)] == [
            (1, 25), (3, 23), (5, 21), (7, 19), (9, 17), (11, 15), (13,),
            (27, 51), (29, 49), (31, 47), (33, 45), (35, 43), (37, 41), (39,)]
        orbits_m1 = {frozenset(Q.rep for Q in orbit)
                     for orbit in s_orbits(params, -1)}
        assert orbits_m1 == {frozenset(t) for t in
                             [(1, 27), (3, 29), (5, 31), (7, 33),
                              (9, 35), (11, 37), (13, 39)]}
        orbits_m5 = {frozenset(Q.rep for Q in orbit)
                     for orbit in s_orbits(params, -5)}
        assert orbits_m5 == {frozenset(t) for t in
                             [(1, 31), (3, 37), (5, 27), (7, 9),
                              (11, 29), (33, 35), (13, 39)]}
        reps = [Q.rep for Q in q_cosets(params, 1)]
        phi_m1 = CosetFunction(params, {j: 0 if j < 26 else 1 for j in reps})
        low = {1, 3, 5, 7, 11, 13, 33}
        phi_m5 = CosetFunction(params, {j: 0 if j in low else 1 for j in reps})
        c_m1, c_m5 = build_code(params, phi_m1), build_code(params, phi_m5)
        assert is_galois_selfdual(c_m1, 0).selfdual
        assert not is_galois_selfdual(c_m1, 1).selfdual
        assert is_galois_selfdual(c_m5, 1).selfdual
        assert not is_galois_selfdual(c_m5, 0).selfdual
        # cross-check through the semilinear Gaussian-elimination dual
        for code, h, expected in [(c_m1, 0, True), (c_m1, 1, False),
                                  (c_m5, 0, False), (c_m5, 1, True)]:
            agrees = spans_equal(params.field, code.generator_rows(),
                                 dual_basis(code, h))
            assert agrees == expected

    run_criterion(4, "coset table, orbits and verdicts for length 26 over GF(25)",
                  5.0, body)


def test_criterion_5_existence_criteria_vs_enumeration():
    def body():
        mismatches = []
        for params in grid_instances(PE_PAIRS, 20):
            for h in range(params.e + 1):
                closed = galois_selfdual_exists(params, h).exists
                if closed != brute_galois_selfdual_exists(params, h):
                    mismatches.append(("galois", params, h))
                closed_iso = iso_selfdual_exists(params, h).exists
                if closed_iso != brute_iso_selfdual_exists(params):
                    mismatches.append(("iso", params, h))
        assert not mismatches, mismatches[:5]

    run_criterion(5, "existence criteria match exhaustive search on the grid",
                  120.0, body)


def test_criterion_6_closed_form_dual_vs_oracle():
    def body():
        mismatches = []
        for params, code in criterion6_wide_codes():
            for h in range(params.e + 1):
                # the dual's polynomials are read off the code's, so
                # cf_poly on psi ties the span check to the closed form
                closed = galois_dual(code, h)
                if ((closed.generator, closed.check)
                        != (cf_poly(params, closed.phi.complement()),
                            cf_poly(params, closed.phi))
                        or not spans_equal(params.field, closed.generator_rows(),
                                           dual_basis(code, h))):
                    mismatches.append((params, code.phi.values(), h))
        assert not mismatches, mismatches[:5]

    run_criterion(6, "closed-form dual equals Gaussian-elimination dual (n <= 20)",
                  60.0, body)


def test_criterion_7_two_adic_valuation_closed_form():
    def body():
        for k in itertools.chain(range(3, 100, 2), range(-99, -2, 2)):
            for d in range(1, 13):
                expected = (nu(2, k ** d - 1), nu(2, k ** d + 1))
                assert nu2_power_pm1(k, d) == expected, (k, d)

    run_criterion(7, "2-adic valuations of k^d -+ 1 match direct computation",
                  1.0, body)


def test_criterion_8_algebraic_property_suite():
    def body():
        from test_properties import sample_instances
        instances = sample_instances()
        assert len(instances) >= 200
        rng = random.Random(987)
        failures = 0
        for params, phi, s1, s2 in instances:
            code = build_code(params, phi)
            if code.check * code.generator != params.modulus_poly(1):
                failures += 1
            for h in range(params.e + 1):
                dual = galois_dual(code, h)
                if code.dim + dual.dim != params.n:
                    failures += 1
                if galois_dual(dual, params.e - h) != code:
                    failures += 1
            iso1, iso2 = Isometry(params, s1), Isometry(params, s2)
            if iso1.compose(iso2) != Isometry(params, s1 * s2):
                failures += 1
            vec = [rng.choice(list(params.field.elements()))
                   for _ in range(params.n)]
            elem = QuotientElem.from_vector(params, 1, vec)
            if iso1.apply(iso2.apply(elem)) != Isometry(params, s1 * s2).apply(elem):
                failures += 1
            if iso1.apply(elem).weight() != elem.weight():
                failures += 1
            if phi.act(s2).act(s1) != phi.act(s1 * s2):
                failures += 1
        assert failures == 0

    run_criterion(8, "algebraic property suite over 200+ random instances",
                  120.0, body)
