"""Galois inner products, ring isometries, dual codes, self-duality.

The p^h-inner product is <a, b> = sum a_i * b_i^(p^h).  For a multiplier
s coprime to n'r, the isometry M_s sends sum a_i X^i in R_{n,lambda} to
sum a_i^(p^nu(s)) X^(i * s'^-1) in R_{n,lambda^s}, where s = p^nu(s) * s'
and s'^-1 inverts s' mod n*r.  M_s is a weight-preserving semilinear ring
isomorphism, and on coset functions it acts by phi -> s*phi.

The p^h-dual of the code with function phi is the code with function
(-p^(e-h)) * phibar, so self-duality questions reduce to pure coset
arithmetic: C_phi is p^h-self-dual iff r | p^h + 1 and
(-p^h) * phi = phibar, and it is isometrically p^h-self-dual iff
s * phi = phibar for some s = 1 mod r coprime to n'r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .codes import ConstaCode, build_code
from .cosets import CodeParams, CosetFunction, p_split
from .gf import FieldElement
from .polyring import Poly, QuotientElem


def galois_inner(a: Sequence[FieldElement], b: Sequence[FieldElement],
                 h: int) -> FieldElement:
    """<a, b>_h = sum a_i * b_i^(p^h); h = e acts like h = 0."""
    if len(a) != len(b):
        raise ValueError("vectors have different lengths")
    if not a:
        raise ValueError("empty vectors")
    field = a[0].field
    if not 0 <= h <= field.m:
        raise ValueError("h must lie in [0, e]")
    mul, add, frob = field.mul, field.add, field.frob
    t = h % field.m
    acc = 0
    for x, y in zip(a, b):
        if x.field is not field or y.field is not field:
            raise ValueError("mixed fields")
        acc = add(acc, mul(x.v, frob(y.v, t)))
    return field.wrap(acc)


class Isometry:
    """M_s : R_{n,lambda^t} -> R_{n,lambda^(s*t)} for s coprime to n'r.

    Normal form: splitting s = p^nu * s', two multipliers give the same
    map iff their s' agree mod n*r and their nu agree mod e.
    """

    __slots__ = ("params", "s", "nu", "sprime", "sprime_inv")

    def __init__(self, params: CodeParams, s: int):
        if s == 0 or math.gcd(s, params.period) != 1:
            raise ValueError("s must be a nonzero integer coprime to n'r")
        self.params = params
        self.s = s
        self.nu, sprime = p_split(params.p, s)
        nr = params.n * params.r
        self.sprime = sprime % nr
        self.sprime_inv = pow(sprime, -1, nr)

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.params is other.params
                and self.sprime == other.sprime
                and self.nu % self.params.e == other.nu % other.params.e)

    def __hash__(self):
        return hash((id(self.params), self.sprime, self.nu % self.params.e))

    def __repr__(self):
        return f"Isometry(s={self.s})"

    def compose(self, other: "Isometry") -> "Isometry":
        """M_s1 after M_s2 = M_(s1*s2)."""
        if other.params is not self.params:
            raise ValueError("isometries over different params")
        return Isometry(self.params, self.s * other.s)

    def apply(self, elem: QuotientElem) -> QuotientElem:
        """Monomial-wise image, reduced in the target ring."""
        if elem.params is not self.params:
            raise ValueError("element over different params")
        params = self.params
        n = params.n
        field = params.field
        mul, add, frob = field.mul, field.add, field.frob
        target_s = self.s * elem.s
        unit = params.lam_power(target_s)
        nu = self.nu % params.e
        out = [0] * n
        for i, a in enumerate(elem.rep.ints):
            if not a:
                continue
            t, j0 = divmod(i * self.sprime_inv, n)
            coeff = frob(a, nu)
            if t:
                coeff = mul(coeff, field.pow(unit.v, t))
            out[j0] = add(out[j0], coeff)
        return QuotientElem(params, target_s, Poly.wrap(field, out))

    def on_code(self, code: ConstaCode) -> ConstaCode:
        """M_s(C_phi) = C_(s*phi), a lambda^(s*residue)-constacyclic code."""
        if code.params is not self.params:
            raise ValueError("code over different params")
        return build_code(self.params, code.phi.act(self.s))


def galois_dual(code: ConstaCode, h: int) -> ConstaCode:
    """The p^h-dual: the code with function (-p^(e-h)) * phibar."""
    params = code.params
    if not 0 <= h <= params.e:
        raise ValueError("h must lie in [0, e]")
    h_eff = h % params.e
    psi = code.phi.complement().act(-(params.p ** (params.e - h_eff)))
    return build_code(params, psi)


def selfdual_condition(params: CodeParams, phi: CosetFunction,
                       h: int) -> Tuple[bool, Optional[str]]:
    """Coset-level p^h-self-duality test.

    Returns (verdict, failed_clause) where failed_clause is "order" when
    r does not divide residue*(p^h + 1) (so the dual lands in a different
    ring), "coset_function" when the multiplier condition
    (-p^h) * phi = phibar fails, and None on success.
    """
    if not 0 <= h <= params.e:
        raise ValueError("h must lie in [0, e]")
    h_eff = h % params.e
    if (phi.residue * (params.p ** h_eff + 1)) % params.r != 0:
        return False, "order"
    if phi.act(-(params.p ** h_eff)) != phi.complement():
        return False, "coset_function"
    return True, None


@dataclass
class SelfDualCertificate:
    selfdual: bool
    h: int
    failed_clause: Optional[str]
    iso_witness: Optional[int] = None

    def __bool__(self):
        return self.selfdual

    def to_json(self) -> dict:
        return {"selfdual": self.selfdual, "h": self.h,
                "failed_clause": self.failed_clause,
                "iso_witness": self.iso_witness}


def is_galois_selfdual(code: ConstaCode, h: int) -> SelfDualCertificate:
    """Is C equal to its own p^h-dual?  Certificate records the failure."""
    ok, clause = selfdual_condition(code.params, code.phi, h)
    return SelfDualCertificate(ok, h, clause)


def iso_witness_for(params: CodeParams, phi: CosetFunction) -> Optional[int]:
    """Smallest s = 1 mod r, coprime to n'r, with s*phi = phibar; else None.

    One period of s suffices because the action only depends on s mod n'r.
    Candidates are tested by the pairing condition phi(Q) + phi(sQ) = p^nu
    on every coset (sQ read off the coset table); the winner is
    re-verified as s*phi = phibar.
    """
    period, r = params.period, params.r
    cap = params.p ** params.nu
    values = phi.assignment
    cosets = params.cosets_on(phi.residue)
    table = params.coset_table(phi.residue)
    for k in range(params.nprime):
        s = 1 + r * k
        if math.gcd(s, period) != 1:
            continue
        if all(values[Q.rep] + values[table[(s * Q.rep) % period // r].rep] == cap
               for Q in cosets):
            if phi.act(s) != phi.complement():
                raise AssertionError("witness fails s*phi = phibar")
            return s
    return None


def is_iso_galois_selfdual(code: ConstaCode, h: int = 0) -> Optional[int]:
    """Witness s for isometric p^h-self-duality, or None.

    The witness condition s*phi = phibar does not involve h (the h only
    changes which isometry M_(-p^(e-h) s) realizes the duality), so the
    verdict is the same for every h in [0, e].
    """
    if not 0 <= h <= code.params.e:
        raise ValueError("h must lie in [0, e]")
    return iso_witness_for(code.params, code.phi)
