#!/usr/bin/env python3
"""Ring isometries and the two flavours of self-duality.

M_s maps sum a_i X^i to sum a_i^(p^nu(s)) X^(i s'^-1) and is a
weight-preserving ring isomorphism R_{n,lambda} -> R_{n,lambda^s}.  On
coset functions it acts by phi -> s*phi, which turns self-duality into
pure combinatorics:

  * p^h-self-dual:               (-p^h) * phi = phibar  (and r | p^h + 1)
  * isometrically p^h-self-dual: s * phi = phibar for some s = 1 mod r

The length-26 negacyclic codes over GF(25) separate the two notions.
"""

from constagalois import (CosetFunction, Isometry, build_code, derive_params,
                          galois_dual, is_galois_selfdual,
                          is_iso_galois_selfdual, q_cosets)
from constagalois.polyring import Poly, QuotientElem, format_poly

params = derive_params(3, 2, 4, -1)

# the isometry M_(-1) on R_{4,-1} over GF(9): X^i -> -X^(4-i) for i > 0
iso = Isometry(params, -1)
print("M_(-1) on monomials of R_{4,-1} over GF(9):")
for i in range(4):
    image = iso.apply(QuotientElem(params, 1, Poly.x_power(params.field, i)))
    print(f"  X^{i} -> {format_poly(image.rep)}")

# M_s is additive, multiplicative and weight-preserving; M_3 also twists
# every coefficient by the Frobenius map
g, one, zero = params.field.generator, params.field.one, params.field.zero
a = QuotientElem.from_vector(params, 1, [one, g, zero, g ** 3])
b = QuotientElem.from_vector(params, 1, [g ** 2, zero, one, -one])
for mover in (iso, Isometry(params, 3)):
    assert mover.apply(a + b) == mover.apply(a) + mover.apply(b)
    assert mover.apply(a * b) == mover.apply(a) * mover.apply(b)
    assert mover.apply(a).weight() == a.weight()

# isometries compose like their multipliers
assert Isometry(params, -1).compose(Isometry(params, 3)) == Isometry(params, -3)
print("M_(-1) after M_3 == M_(-3):", True)

# -- the length-26 separation ---------------------------------------------------

params26 = derive_params(5, 2, 26, -1)
reps = [Q.rep for Q in q_cosets(params26, 1)]
phi_m1 = CosetFunction(params26, {j: 0 if j < 26 else 1 for j in reps})
low = {1, 3, 5, 7, 11, 13, 33}
phi_m5 = CosetFunction(params26, {j: 0 if j in low else 1 for j in reps})

for name, phi in [("phi built on the -1 orbits", phi_m1),
                  ("phi built on the -5 orbits", phi_m5)]:
    code = build_code(params26, phi)
    euclid = is_galois_selfdual(code, 0).selfdual
    hermit = is_galois_selfdual(code, 1).selfdual
    witness = is_iso_galois_selfdual(code)
    print(f"\n{name}: dim {code.dim}")
    print(f"  self-dual: {euclid}, Hermitian self-dual: {hermit}, "
          f"iso-dual witness s = {witness}")

# the witness really realizes the duality through an isometry
code = build_code(params26, phi_m1)
s = is_iso_galois_selfdual(code)
mover = Isometry(params26, -(5 ** 2) * s)
assert mover.on_code(code) == galois_dual(code, 0)
print("\nM_(-p^e * s) carries the first code onto its Euclidean dual: True")
