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
from typing import NamedTuple, Optional, Sequence

from .codes import ConstaCode, build_code
from .cosets import CodeParams, CosetFunction, check_phi
from .gf import FieldElement
from .numtheory import p_split
from .polyring import Poly, QuotientElem, fold


def _galois_h(e: int, h: int) -> int:
    """h mod e for a Galois exponent h in [0, e]: h = e acts like h = 0."""
    if not 0 <= h <= e:
        raise ValueError("h must lie in [0, e]")
    return h % e


def galois_inner(a: Sequence[FieldElement], b: Sequence[FieldElement],
                 h: int) -> FieldElement:
    """<a, b>_h = sum a_i * b_i^(p^h); h = e acts like h = 0."""
    if len(a) != len(b):
        raise ValueError("vectors have different lengths")
    if not a:
        raise ValueError("empty vectors")
    field = a[0].field
    t = _galois_h(field.m, h)
    mul, add, frob = field.mul, field.add, field.frob
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
        """The image sum a_i^(p^nu) X^(i*s'^-1), folded into the target ring."""
        if elem.params is not self.params:
            raise ValueError("element over different params")
        params, inv, target_s = self.params, self.sprime_inv, self.s * elem.s
        frob, nu = params.field.frob, self.nu % params.e
        terms = ((i * inv, frob(a, nu)) for i, a in enumerate(elem.rep.ints))
        return QuotientElem(params, target_s, fold(params, target_s, terms))

    def on_code(self, code: ConstaCode) -> ConstaCode:
        """M_s(C_phi) = C_(s*phi), a lambda^(s*residue)-constacyclic code."""
        if code.params is not self.params:
            raise ValueError("code over different params")
        return build_code(self.params, code.phi.act(self.s))


def _reciprocal_frob(poly: Poly, t: int) -> Poly:
    """The monic reciprocal of poly with every coefficient raised to p^t.

    poly must have a nonzero constant term, as every divisor of
    X^n - lambda^s has; reversing its coefficients and dividing by that
    term gives the monic reciprocal, and x -> x^(p^t) is a field
    automorphism, so the result stays monic.
    """
    field = poly.field
    mul, frob = field.mul, field.frob
    inv = field.inv(poly.ints[0])
    return Poly.wrap(field, [frob(mul(c, inv), t) for c in reversed(poly.ints)])


def galois_dual(code: ConstaCode, h: int) -> ConstaCode:
    """The p^h-dual: the code with function (-p^(e-h)) * phibar.

    The dual is made with both its polynomials, read off the code's own
    (which this builds if the code has not yet): its generator is the
    monic reciprocal of the code's check and its check that of the
    code's generator, each with every coefficient raised to p^t,
    t = (e - h) mod e.  (The Euclidean dual is generated by the
    reciprocal of the check polynomial, and <a, b>_h = 0 for all a in C
    iff b^(p^h) lies in that dual.)
    """
    params = code.params
    h_eff = _galois_h(params.e, h)
    psi = code.phi.complement().act(-(params.p ** (params.e - h_eff)))
    dual = build_code(params, psi)
    t = (params.e - h_eff) % params.e
    dual._generator = _reciprocal_frob(code.check, t)
    dual._check = _reciprocal_frob(code.generator, t)
    return dual


class SelfDualCertificate(NamedTuple):
    """An immutable verdict; ``_replace`` gives a copy with fields changed."""

    selfdual: bool
    h: int
    failed_clause: Optional[str]
    iso_witness: Optional[int] = None

    def __bool__(self):
        return self.selfdual

    def to_json(self) -> dict:
        return self._asdict()


def is_galois_selfdual(code: ConstaCode, h: int) -> SelfDualCertificate:
    """Is C equal to its own p^h-dual?  The certificate's failed clause
    is "order" when r does not divide residue*(p^h + 1) (so the dual lands
    in a different ring), "coset_function" when (-p^h) * phi = phibar
    fails (:meth:`CosetFunction.act_is_complement`), and None on success.
    """
    params, phi = code.params, code.phi
    t = params.p ** _galois_h(params.e, h)
    if phi.residue * (t + 1) % params.r != 0:
        return SelfDualCertificate(False, h, "order")
    if not phi.act_is_complement(-t):
        return SelfDualCertificate(False, h, "coset_function")
    return SelfDualCertificate(True, h, None)


def iso_witness_for(params: CodeParams, phi: CosetFunction) -> Optional[int]:
    """Smallest s = 1 mod r, coprime to n'r, with s*phi = phibar; else None.

    Candidates are the least s of each class-preserving action, ascending
    (:meth:`CodeParams.multipliers`), each tested once by
    :meth:`CosetFunction.act_is_complement`.  phi must be a coset function
    of params.
    """
    check_phi(params, phi)
    return next((s for s in params.multipliers() if phi.act_is_complement(s)),
                None)


def is_iso_galois_selfdual(code: ConstaCode, h: int = 0) -> Optional[int]:
    """Witness s for isometric p^h-self-duality, or None.

    The witness condition s*phi = phibar does not involve h (the h only
    changes which isometry M_(-p^(e-h) s) realizes the duality), so the
    verdict is the same for every h in [0, e].
    """
    _galois_h(code.params.e, h)
    return iso_witness_for(code.params, code.phi)
