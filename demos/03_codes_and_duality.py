#!/usr/bin/env python3
"""Building constacyclic codes and computing their Galois duals.

The p^h-inner product <a, b> = sum a_i b_i^(p^h) interpolates between
the Euclidean (h = 0) and Hermitian (h = e/2) cases.  The p^h-dual of
the code with coset function phi is again constacyclic, with function
(-p^(e-h)) * phibar, so dualizing never needs linear algebra; we use the
Gaussian-elimination oracle here only to double-check.
"""

from constagalois import (CosetFunction, build_code, cf_poly, derive_params,
                          format_element, galois_dual, galois_inner,
                          is_galois_selfdual, make_field, poly_gcd)
from constagalois.oracle import brute_dual
from constagalois.polyring import format_poly

# -- a tiny repeated-root code over GF(4) ----------------------------------

field = make_field(2, 2)
params = derive_params(2, 2, 2, field.generator ** 2)
code = build_code(params, CosetFunction.from_values(params, [1]))
print("length-2 code over GF(4) with generator", format_poly(code.generator))
words = code.codewords()
print("codewords:", [[format_element(c) for c in w] for w in words])
v = [params.theta, field.one]
print("Hermitian self-pairing of (theta, 1):",
      format_element(galois_inner(v, v, 1)))
print("Hermitian self-dual:", is_galois_selfdual(code, 1).selfdual)

# -- the [4,2,3] negacyclic code over GF(9) ------------------------------------

params9 = derive_params(3, 2, 4, -1)
code9 = build_code(params9, CosetFunction.from_values(params9, [0, 0, 1, 1]))
print(f"\nnegacyclic [4, {code9.dim}, {code9.min_weight()}] over GF(9)")
print("generator:", format_poly(code9.generator))
for h in (0, 1):
    dual = galois_dual(code9, h)
    same = set(dual.codewords()) == set(code9.codewords())
    brute_same = brute_dual(code9, h) == set(code9.codewords())
    print(f"h={h}: dual phi {dual.phi.values()}, equal to code: {same}, "
          f"oracle agrees: {brute_same}")

# -- duals move the constant: a lambda-code dualizes into a lambda^(-p^(e-h))-code

params12 = derive_params(3, 4, 12, "g^20")
phi = CosetFunction.from_values(params12, [1, 2, 1, 2])
code12 = build_code(params12, phi)
# meets of coset functions are gcds of their polynomials
assert cf_poly(params12, phi.meet(phi.complement())) == poly_gcd(code12.check,
                                                                 code12.generator)
print(f"\nlength-12 code over GF(81), dim {code12.dim}")
for h in range(5):
    dual = galois_dual(code12, h)
    cert = is_galois_selfdual(code12, h)
    print(f"h={h}: dual lives in the lambda^{dual.residue}-ring, "
          f"self-dual: {cert.selfdual}"
          + (f" (failed: {cert.failed_clause})" if not cert.selfdual else ""))
