"""Constacyclic codes built from coset functions.

A coset function phi determines the code with check polynomial
f_phi = prod_Q coset_poly(Q)^phi(Q) and generator polynomial f_phibar;
the two multiply back to X^n - lambda^residue.  Codewords are the
multiples of the generator, and at desk scale we can enumerate all of
them for membership spot checks and exact minimum weights.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Iterator, List, Optional, Sequence, Tuple

from .cosets import CodeParams, CosetFunction, QCoset
from .gf import Field, FieldElement
from .numtheory import p_split
from .polyring import Poly, poly_to_json

DEFAULT_ENUM_CAP = 1 << 20

# coset_poly and _packed_min_weight are functools caches keyed on interned
# params and on cosets and codes of them; like those params they live for
# the process, and ``cache_info()`` reads their hits and misses.


def _enum_cap(cap: Optional[int]) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("CONSTAGALOIS_ENUM_CAP")
    if not env:
        return DEFAULT_ENUM_CAP
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CONSTAGALOIS_ENUM_CAP must be an integer, got {env!r}") from None


@functools.cache
def coset_poly(params: CodeParams, coset: QCoset) -> Poly:
    """prod_{i in coset} (X - theta^i), collapsed into F_q[X].

    The product is computed over the splitting field GF(q^d); because the
    coset is closed under k -> q*k its coefficients are fixed by the
    Galois group over F_q, so sectioning them into F_q must succeed.
    The result is monic and irreducible of degree |coset|.  Memoised on
    (params, coset): a repeated call returns the same Poly.
    """
    big = params.big_field
    neg = big.neg
    # a balanced product tree keeps the operands of each product of
    # similar length
    factors = [Poly.wrap(big, (neg(params.theta_pow(i).v), 1)) for i in coset.members]
    while len(factors) > 1:
        factors = [factors[i] * factors[i + 1] if i + 1 < len(factors) else factors[i]
                   for i in range(0, len(factors), 2)]
    emb = params.field.embedding_into(big)
    try:
        ints = [emb.section_int(c) for c in factors[0].ints]
    except ValueError as exc:
        raise AssertionError("coset not Galois-stable") from exc
    return Poly.wrap(params.field, ints)


def cf_poly(params: CodeParams, phi: CosetFunction) -> Poly:
    """prod_Q coset_poly(Q)^phi(Q) over the cosets of phi's class."""
    result = Poly(params.field, [params.field.one])
    for Q in params.cosets_on(phi.residue):
        mult = phi.assignment[Q.rep]
        if mult:
            result = result * coset_poly(params, Q) ** mult
    return result


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


class ConstaCode:
    """The lambda^residue-constacyclic code attached to a coset function.

    check = f_phi, generator = f_phibar, dim = deg f_phi; the generator
    and check polynomials are materialized lazily since much of the
    classification theory never needs them.  A code built from phi
    computes them as products of coset polynomials (``cf_poly``).  A
    Galois dual holds its source code C and t in ``_dual_of`` (set by
    ``duality.galois_dual``) and reads them off C's own polynomials: its
    generator is the monic reciprocal of C's check, and its check that of
    C's generator, each with every coefficient raised to p^t.
    """

    __slots__ = ("params", "phi", "dim", "_generator", "_check", "_dual_of")

    def __init__(self, params: CodeParams, phi: CosetFunction):
        if phi.params is not params:
            raise ValueError("coset function belongs to different params")
        self.params = params
        self.phi = phi
        self.dim = phi.weight()
        self._generator: Optional[Poly] = None
        self._check: Optional[Poly] = None
        self._dual_of: Optional[Tuple["ConstaCode", int]] = None

    @property
    def residue(self) -> int:
        return self.phi.residue

    @property
    def unit(self) -> FieldElement:
        """The constant lambda^residue the ring is taken modulo."""
        return self.params.lam_power(self.residue)

    @property
    def check(self) -> Poly:
        if self._check is None:
            if self._dual_of is None:
                self._check = cf_poly(self.params, self.phi)
            else:
                source, t = self._dual_of
                self._check = _reciprocal_frob(source.generator, t)
        return self._check

    @property
    def generator(self) -> Poly:
        if self._generator is None:
            if self._dual_of is None:
                self._generator = cf_poly(self.params, self.phi.complement())
            else:
                source, t = self._dual_of
                self._generator = _reciprocal_frob(source.check, t)
        return self._generator

    def __eq__(self, other):
        return (isinstance(other, ConstaCode) and self.params is other.params
                and self.phi == other.phi)

    def __hash__(self):
        return hash((id(self.params), self.phi))

    def __repr__(self):
        return f"ConstaCode(dim={self.dim}, phi={self.phi!r})"

    # -- code operations ------------------------------------------------------

    def codewords(self, cap: Optional[int] = None) -> List[tuple]:
        return enumerate_codewords(self, cap)

    def min_weight(self, cap: Optional[int] = None) -> Optional[int]:
        return min_weight(self, cap)

    def generator_rows(self) -> List[tuple]:
        """The dim shifted copies of the generator spanning the code."""
        n = self.params.n
        return [self.generator.shift(i).vector(n) for i in range(self.dim)]

    def to_json(self, cap: Optional[int] = None, with_weight: bool = False) -> dict:
        record = {
            "params": self.params.to_json(),
            "residue": self.residue,
            "phi": self.phi.to_json(),
            "generator": poly_to_json(self.generator),
            "check": poly_to_json(self.check),
            "dim": self.dim,
        }
        if with_weight:
            cap = _enum_cap(cap)  # a malformed env cap raises; only overflow gives None
            try:
                record["min_weight"] = self.min_weight(cap)
            except ValueError:
                record["min_weight"] = None
        return record


def build_code(params: CodeParams, phi: CosetFunction) -> ConstaCode:
    return ConstaCode(params, phi)


def linear_combinations(field: Field, rows: Sequence[tuple], n: int) -> Iterator[tuple]:
    """Every combination sum c_i * rows[i] (c_i over the field) as a
    length-n tuple, one per coefficient vector; no rows give one zero word."""
    add_scaled, wrap = field.add_scaled, field.wrap
    int_rows = [[x.v for x in row] for row in rows]
    for combo in itertools.product(list(field.ints()), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(combo, int_rows):
            if c:
                word = add_scaled(word, c, row)
        yield tuple(map(wrap, word))


def enumerate_codewords(code: ConstaCode, cap: Optional[int] = None) -> List[tuple]:
    """All q^dim codewords as length-n coefficient tuples."""
    params = code.params
    if params.q ** code.dim > _enum_cap(cap):
        raise ValueError("enumeration too large")
    return list(linear_combinations(params.field, code.generator_rows(), params.n))


def min_weight(code: ConstaCode, cap: Optional[int] = None) -> Optional[int]:
    """Exact minimum Hamming weight by exhaustion; None for the zero code.

    Raises ValueError when q^dim exceeds the cap, as enumerate_codewords
    does.  The cap is checked before the kernel, memoised per code
    (params and coset function), so a smaller cap still refuses a
    memoised code.
    """
    if code.dim == 0:
        return None
    if code.params.q ** code.dim > _enum_cap(cap):
        raise ValueError("enumeration too large")
    return _packed_min_weight(code)


# Messages per block of the Gray-order enumeration in _packed_min_weight;
# the steps within a block are precomputed once per leading row.
_GRAY_BLOCK = 1024


@functools.cache
def _packed_min_weight(code: ConstaCode) -> int:
    """Minimum weight over the messages whose first nonzero entry is 1.

    Weight is invariant under nonzero scalars, so these (q^k-1)/(q-1)
    words meet every line of the code.  A word is one int: GF(p)-digit j
    of coordinate i sits in the b-bit slot i*e + j, b leaving a guard bit
    above any sum of two digits.  The messages with leading row t run
    over the GF(p)-digits of rows t+1..k-1 in modular p-ary Gray order
    (step s raises digit v_p(s) by one), so each word is the previous
    one plus one packed X^j * row_i, reduced mod p in every slot at once.
    """
    params = code.params
    p, e, n, k = params.p, params.e, params.n, code.dim
    b = (2 * p - 1).bit_length() + 1
    top = 1 << (b - 1)
    ones = sum(1 << (b * i) for i in range(n * e))
    guard = ones * top
    wrap = ones * (top - p)  # trips the guard bit of every digit >= p
    # a coordinate's e digits read as one (e*b)-bit number below 2^(e*b-1)
    coord_ones = sum(1 << (b * e * i) for i in range(n))
    coord_guard = coord_ones << (b * e - 1)
    coord_nonzero = coord_ones * ((1 << (b * e - 1)) - 1)

    def pack(vec) -> int:
        return sum(c << (b * (i * e + j)) for i, x in enumerate(vec)
                   for j, c in enumerate(x.coeffs))

    field = params.field
    g = code.generator.vector(n)
    scaled_g = [pack([beta * c for c in g])
                for beta in (field.element([0] * j + [1]) for j in range(e))]
    row_shift = b * e  # row i is X^i * g: its packing moved up i coordinates
    best = n
    for t in range(k):
        steps = [x << (row_shift * i) for i in range(t + 1, k) for x in scaled_g]
        low = len(steps)
        while p ** low > _GRAY_BLOCK:
            low -= 1
        block = [steps[p_split(p, s)[0]] for s in range(1, p ** low)]
        word = scaled_g[0] << (row_shift * t)
        for outer in range(p ** (len(steps) - low)):
            if outer:
                word += steps[low + p_split(p, outer)[0]]
                word -= (((word + wrap) & guard) >> (b - 1)) * p
            w = ((word + coord_nonzero) & coord_guard).bit_count()
            if w < best:
                best = w
            for v in block:
                word += v
                word -= (((word + wrap) & guard) >> (b - 1)) * p
                w = ((word + coord_nonzero) & coord_guard).bit_count()
                if w < best:
                    best = w
    return best
