"""Microbenchmarks for the element-level kernels the workloads lean on.

``FieldElement`` arithmetic is too hot to trace span by span, so these
rows time it directly on the fields the workloads use: GF(9) for
weights and verify, GF(5^24) for construct, a degree-12 product over
GF(25), and the full enumeration of a q = 9, k = 4 code (6561 words).
Inputs are fixed, not seeded, so the rows compare across runs.  Each
row is the median of five repeats, loop overhead included.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from constagalois import codes, cosets, gf, polyring

REPEATS = 5


def _median_per_call(body: Callable[[], int]) -> float:
    """Median over repeats of seconds per call; ``body`` returns its call count."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        calls = body()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _elements(field, count: int, rng: random.Random):
    out = []
    while len(out) < count:
        x = field.element(rng.randrange(field.p) for _ in range(field.m))
        if x:
            out.append(x)
    return out


def run_kernels() -> Dict[str, float]:
    rng = random.Random(0)
    out: Dict[str, float] = {}

    gf9 = gf.make_field(3, 2)
    nonzero = [x for x in gf9.elements() if x]
    pairs = [(a, b) for a in nonzero for b in nonzero] * 40

    def mul9():
        for a, b in pairs:
            a * b
        return len(pairs)

    def add9():
        for a, b in pairs:
            a + b
        return len(pairs)

    inverses = nonzero * 200

    def inv9():
        for a in inverses:
            a.inverse()
        return len(inverses)

    out["gf.kernel.mul_gf9_ns"] = _median_per_call(mul9) * 1e9
    out["gf.kernel.add_gf9_ns"] = _median_per_call(add9) * 1e9
    out["gf.kernel.inverse_gf9_ns"] = _median_per_call(inv9) * 1e9

    big = gf.make_field(5, 24)
    xs = _elements(big, 16, rng)
    big_pairs = [(a, b) for a in xs for b in xs]

    def mul_big():
        for a, b in big_pairs:
            a * b
        return len(big_pairs)

    def frob_big():
        for a in xs:
            a.frobenius(1)
        return len(xs)

    out["gf.kernel.mul_gf5e24_ns"] = _median_per_call(mul_big) * 1e9
    out["gf.kernel.frobenius_gf5e24_ns"] = _median_per_call(frob_big) * 1e9

    gf25 = gf.make_field(5, 2)
    f = polyring.Poly(gf25, _elements(gf25, 13, rng))
    g = polyring.Poly(gf25, _elements(gf25, 13, rng))

    def poly_mul():
        for _ in range(40):
            f * g
        return 40

    out["polyring.kernel.mul_deg12_gf25_us"] = _median_per_call(poly_mul) * 1e6

    # length 8 over GF(9), lambda = -1: four cosets of size 2; two of them
    # in phi give dimension 4, so 9^4 = 6561 codewords
    params = cosets.derive_params(3, 2, 8, -1)
    phi = cosets.CosetFunction.from_values(params, [1, 1, 0, 0])
    code = codes.build_code(params, phi)
    if code.dim != 4:
        raise AssertionError(f"enumeration kernel expects dim 4, got {code.dim}")

    def enumerate_all():
        if len(codes.enumerate_codewords(code, 1 << 16)) != 9 ** 4:
            raise AssertionError("enumeration kernel lost codewords")
        return 1

    out["codes.kernel.enumerate_q9_k4_s"] = _median_per_call(enumerate_all)
    return out
