import itertools
import random

import pytest

from constagalois import (CosetFunction, build_code, cf_poly, derive_params,
                          galois_dual, make_field, q_cosets)
from constagalois.oracle import (Matrix, brute_dual, brute_equal_codes,
                                 dual_basis, dual_basis_of_rows,
                                 generator_matrix, naive_cosets, span,
                                 spans_equal)
from exhaustive import (PE_PAIRS, criterion6_codes, criterion6_wide_codes, grid_instances,
                        rank_spans_equal, reference_dual_bases, reference_generator_rows)


def test_matrix_rank_and_kernel():
    rng = random.Random(3)
    field = make_field(3, 2)
    elems = list(field.elements())
    for _ in range(25):
        rows = [[rng.choice(elems) for _ in range(5)] for _ in range(3)]
        mat = Matrix(field, rows)
        kernel = mat.kernel_basis()
        assert mat.rank() + len(kernel) == 5
        for vec in kernel:  # element ints
            for row in rows:
                acc = field.zero
                for r, v in zip(row, vec):
                    acc = acc + r * field.wrap(v)
                assert not acc


def test_dual_of_full_space_is_zero():
    params = derive_params(3, 1, 3, 1)
    full = build_code(params, CosetFunction.constant(params, params.p ** params.nu))
    assert full.dim == 3
    zero_word = tuple(params.field.zero for _ in range(3))
    assert brute_dual(full, 0) == {zero_word}


def test_brute_dual_hermitian_gf4():
    field = make_field(2, 2)
    params = derive_params(2, 2, 2, field.generator ** 2)
    code = build_code(params, CosetFunction.from_values(params, [1]))
    words = set(code.codewords())
    assert brute_dual(code, 1) == words
    assert brute_equal_codes(brute_dual(code, 1), code)


def test_brute_dual_cardinality():
    for params in grid_instances([(2, 1), (3, 1)], 4, max_cosets=6):
        if params.q ** params.n > 1 << 10:
            continue
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        for vals in itertools.islice(
                itertools.product(range(cap + 1), repeat=len(cosets)), 8):
            code = build_code(params, CosetFunction.from_values(params, list(vals)))
            for h in range(params.e + 1):
                assert len(brute_dual(code, h)) == params.q ** (params.n - code.dim)


def test_brute_dual_involution_through_h():
    # dualizing twice with h then e-h returns the original span
    for params in [derive_params(3, 2, 4, -1), derive_params(2, 2, 3, 1)]:
        field = params.field
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        rng = random.Random(59)
        for _ in range(4):
            vals = [rng.randint(0, cap) for _ in cosets]
            code = build_code(params, CosetFunction.from_values(params, vals))
            rows = reference_generator_rows(code)
            for h in range(params.e + 1):
                first = dual_basis(code, h)
                second = dual_basis_of_rows(Matrix(field, first), params.n,
                                            (params.e - h) % params.e)
                assert spans_equal(field, second, rows)


def test_rank_method_matches_closed_form_dual():
    for params in grid_instances([(2, 2), (3, 2), (5, 1)], 6):
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        rng = random.Random(params.n + params.r)
        for _ in range(3):
            vals = [rng.randint(0, cap) for _ in cosets]
            code = build_code(params, CosetFunction.from_values(params, vals))
            for h in range(params.e + 1):
                closed = galois_dual(code, h)
                assert closed.generator == cf_poly(params, closed.phi.complement())
                assert spans_equal(params.field, closed.generator_rows(),
                                   dual_basis(code, h))


def test_brute_equal_codes_rejects_mismatch():
    params = derive_params(3, 1, 3, 1)
    zero_code = build_code(params, CosetFunction.constant(params, 0))
    full = build_code(params, CosetFunction.constant(params, params.p ** params.nu))
    assert not brute_equal_codes(set(zero_code.codewords()), full)
    assert brute_equal_codes(set(full.codewords()), full)


def test_span_enumeration_cap():
    field = make_field(5, 2)
    rows = [tuple(field.one for _ in range(4))] * 8
    with pytest.raises(ValueError, match="too large"):
        span(field, rows, cap=100)
    assert span(field, []) == {()}  # the product over zero rows is one empty word


def test_span_reads_its_rows_as_a_matrix():
    field, other = make_field(3, 1), make_field(5, 1)
    with pytest.raises(ValueError, match="ragged matrix"):
        span(field, [(field.one, field.one), (field.one,)])
    with pytest.raises(ValueError, match="mixed fields"):
        span(field, [(field.one, other.from_int(4))])


def test_span_cap_defaults_to_the_enumeration_cap(monkeypatch):
    # without a cap, span refuses what enumerate_codewords would refuse
    field = make_field(3, 1)
    rows = [tuple(field.one for _ in range(5))] * 5
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "100")
    with pytest.raises(ValueError, match="too large"):
        span(field, rows)
    monkeypatch.setenv("CONSTAGALOIS_ENUM_CAP", "243")
    assert len(span(field, rows)) == 3


def test_naive_cosets_match_fast_path():
    for params in grid_instances(PE_PAIRS, 14, max_cosets=99):
        fast = [Q.members for Q in q_cosets(params, 1)]
        assert naive_cosets(params, 1) == fast
        dual_class = (-params.p) % params.period if params.period > 1 else 1
        if dual_class and params.period > 1:
            fast2 = [Q.members for Q in params.cosets_on(dual_class % params.r
                                                         if params.r else 0)]
            assert naive_cosets(params, dual_class) == sorted(fast2)


def test_naive_cosets_singletons_and_orbit_sizes():
    params = derive_params(3, 4, 12, "g^20")  # q = 1 mod n'r
    assert all(len(c) == 1 for c in naive_cosets(params, 1))
    for params in grid_instances([(3, 1), (5, 2)], 10):
        for coset in naive_cosets(params, 1):
            assert params.d % len(coset) == 0


def test_generator_matrix_shape():
    params = derive_params(3, 2, 4, -1)
    code = build_code(params, CosetFunction.from_values(params, [0, 0, 1, 1]))
    mat = generator_matrix(code)
    assert mat.rows == code.dim and mat.cols == params.n
    assert mat.rank() == code.dim


def _random_row_sets(field, rng):
    """Pairs of row sets: equal spans written two ways, unequal spans,
    dependent and zero rows, and one set empty."""
    elems = list(field.elements())
    zero = field.zero
    for _ in range(30):
        cols = rng.randint(1, 6)
        rows_a = [tuple(rng.choice(elems) for _ in range(cols))
                  for _ in range(rng.randint(1, 4))]
        combos = [tuple(sum((c * x for c, x in zip(coef, col)), zero)
                        for col in zip(*rows_a))
                  for coef in ([rng.choice(elems) for _ in rows_a]
                               for _ in range(rng.randint(1, 5)))]
        zeros = [tuple(zero for _ in range(cols))] * rng.randint(0, 2)
        yield rows_a, combos                                  # a subspace, maybe equal
        yield rows_a, rows_a[::-1] + combos + zeros           # equal, dependent rows
        yield rows_a + zeros, [tuple(rng.choice(elems) for _ in range(cols))
                               for _ in range(rng.randint(1, 4))]
        yield zeros or [tuple(zero for _ in range(cols))], combos
        yield rows_a, []
        yield [], combos


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (5, 1), (3, 2), (5, 2)])
def test_spans_equal_matches_three_ranks(p, e):
    field = make_field(p, e)
    rng = random.Random(f"spans {p}^{e}")
    verdicts = set()
    for rows_a, rows_b in _random_row_sets(field, rng):
        want = rank_spans_equal(field, rows_a, rows_b)
        assert spans_equal(field, rows_a, rows_b) == want
        assert spans_equal(field, rows_b, rows_a) == want
        verdicts.add(want)
    assert verdicts == {True, False}
    assert spans_equal(field, [], [])


def test_spans_equal_checks_both_inputs():
    field, other = make_field(3, 2), make_field(3, 1)
    one, zero = field.one, field.zero
    good = [(one, zero, one)]
    bad = {
        "ragged": [(one, zero, one), (one, zero)],
        "mixed": [(one, other.one, zero)],
        "length": [(one, zero)],
    }
    for rows in bad.values():
        for a, b in [(good, rows), (rows, good)]:
            with pytest.raises(ValueError):
                rank_spans_equal(field, a, b)
            with pytest.raises(ValueError):
                spans_equal(field, a, b)


def test_spans_equal_is_two_eliminations(monkeypatch):
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.rows)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    field = make_field(5, 2)
    g = field.generator
    rows_a = [(field.one, g, g * g), (g, g, field.zero)]
    rows_b = rows_a + [tuple(x + y for x, y in zip(*rows_a))]
    assert spans_equal(field, rows_a, rows_b)
    assert calls == [2, 3]


def test_dual_basis_matches_wrapped_reference_on_criterion6_grid():
    for params, code in criterion6_codes():
        for h, want in enumerate(reference_dual_bases(code)):
            basis = dual_basis(code, h)
            assert basis == want
            assert all(x.field is params.field for vec in basis for x in vec)


def test_spans_equal_finds_the_dual_basis_already_reduced(monkeypatch):
    # dual_basis returns the dual's RREF, so eliminating it again makes no
    # field call: spans_equal makes exactly the closed-form side's calls
    calls = []

    def counting(name, kernel):
        def counted(*args):
            calls.append(name)
            return kernel(*args)
        return counted

    patched = set()
    for params, code in itertools.islice(criterion6_codes(), 0, None, 7):
        field = params.field
        if field not in patched:
            patched.add(field)
            for name in ("add_scaled", "inv", "mul"):
                monkeypatch.setattr(field, name, counting(name, getattr(field, name)))
        for h in range(params.e + 1):
            closed = galois_dual(code, h).generator_rows()
            brute = dual_basis(code, h)
            calls.clear()
            if brute:
                red, _ = Matrix(field, brute).rref()
                assert red.ints == [[x.v for x in vec] for vec in brute]
            assert not calls, (params, code.phi.values(), h)
            if closed:
                Matrix(field, closed).rref()
            closed_calls = len(calls)
            calls.clear()
            assert spans_equal(field, closed, brute)
            assert len(calls) == closed_calls
    assert len(patched) == len(PE_PAIRS)


def test_criterion6_wide_grid_extends_the_n12_grid():
    narrow = [(params, code.phi.values()) for params, code in criterion6_codes()]
    wide = [(params, code.phi.values()) for params, code in criterion6_wide_codes()]
    assert wide[:len(narrow)] == narrow
    assert all(params.n > 12 for params, _ in wide[len(narrow):])
    assert len({params for params, _ in wide}) == 370
    assert sum(params.e + 1 for params, _ in wide) == 8650


def test_dual_basis_wraps_each_entry_once(monkeypatch):
    params = derive_params(3, 2, 8, -1)
    code = build_code(params, CosetFunction.from_values(
        params, [1] + [0] * (len(q_cosets(params, 1)) - 1)))
    code.generator  # built before counting
    field = params.field
    wraps = []
    wrap = field.wrap  # a table field's own lookup, bound on the instance

    def counted(v):
        wraps.append(v)
        return wrap(v)

    monkeypatch.setattr(field, "wrap", counted)
    for h in range(params.e + 1):
        wraps.clear()
        basis = dual_basis(code, h)
        assert len(basis) == params.n - code.dim > 0
        assert len(wraps) == len(basis) * params.n


def test_dual_basis_of_the_zero_code_builds_no_generator(monkeypatch):
    # the generator of the zero code is X^n - lambda, a product over every coset
    import constagalois.codes as codes_module

    def unbuilt(params, phi):
        raise AssertionError("generator built")

    params = derive_params(5, 2, 6, -1)
    zero = build_code(params, CosetFunction.constant(params, 0))
    monkeypatch.setattr(codes_module, "cf_poly", unbuilt)
    field, n = params.field, params.n
    identity = [tuple(field.one if j == i else field.zero for j in range(n))
                for i in range(n)]
    for h in range(params.e + 1):
        assert dual_basis(zero, h) == identity
