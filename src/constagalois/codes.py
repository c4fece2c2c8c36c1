"""Constacyclic codes built from coset functions.

A coset function phi determines the code with check polynomial
f_phi = prod_Q coset_poly(Q)^phi(Q) and generator polynomial f_phibar;
they multiply back to X^n - lambda^residue, so a code computes one as a
product and the other by one exact division.  Each product of many
polynomials, of coset polynomials or of a coset's linear factors, is one
balanced tree (``polyring.product``).  The generator's multiples, the
codewords, are listed for membership checks and exact minimum weights.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Iterator, List, Optional, Sequence

from .cosets import CodeParams, CosetFunction, QCoset, check_coset, check_phi
from .gf import Field, FieldElement
from .numtheory import p_split
from .polyring import Poly, _divmod_ints, poly_to_json, product

DEFAULT_ENUM_CAP = 1 << 20

# coset_poly is a functools cache keyed on interned params and cosets of
# them; like those params it lives for the process, and ``cache_info()``
# reads its hits and misses.


def _enum_cap(cap: Optional[int]) -> int:
    """The cap given, else CONSTAGALOIS_ENUM_CAP, else the default; a
    negative cap from either is refused."""
    if cap is None:
        env = os.environ.get("CONSTAGALOIS_ENUM_CAP")
        if not env:
            return DEFAULT_ENUM_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"CONSTAGALOIS_ENUM_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"negative enumeration cap {cap}")
    return cap


@functools.cache
def coset_poly(params: CodeParams, coset: QCoset) -> Poly:
    """prod_{i in coset} (X - theta^i), collapsed into F_q[X].

    The coset is the orbit of its rep under k -> q*k, so its roots are
    theta^rep and its images under the q-power Frobenius x -> x^q, one
    map per further root.  Their linear factors multiply over the
    splitting field GF(q^d) in one ``polyring.product``; the coefficients
    are fixed by the Galois group over F_q, so sectioning them into F_q
    must succeed.  The result is monic and irreducible of degree |coset|.
    Memoised on (params, coset); a miss first checks that the coset is
    one of params'.  A repeated call returns the same Poly.
    """
    check_coset(params, coset)
    big = params.big_field
    neg, frob, e = big.neg, big.frob, params.e
    roots = [params.theta_pow(coset.rep).v]
    for _ in range(len(coset) - 1):
        roots.append(frob(roots[-1], e))
    big_poly = product(big, [Poly.wrap(big, (neg(root), 1)) for root in roots])
    emb = params.field.embedding_into(big)
    try:
        ints = [emb.section_int(c) for c in big_poly.ints]
    except ValueError as exc:
        raise AssertionError("coset not Galois-stable") from exc
    return Poly.wrap(params.field, ints)


def cf_poly(params: CodeParams, phi: CosetFunction) -> Poly:
    """prod_Q coset_poly(Q)^phi(Q) over the cosets of phi's class with
    phi(Q) != 0, in one ``polyring.product``; no factor gives 1."""
    check_phi(params, phi)
    return product(params.field, [coset_poly(params, Q) ** mult for Q, mult in
                                  zip(params.cosets_on(phi.residue), phi.values()) if mult])


class ConstaCode:
    """The lambda^residue-constacyclic code attached to a coset function.

    check = f_phi, generator = f_phibar, dim = deg f_phi; the generator
    and check polynomials are materialized lazily since much of the
    classification theory never needs them.  A code built from phi
    computes one of them as a product of coset polynomials (``cf_poly``):
    the side whose support, the cosets Q with a nonzero value, has the
    smaller total size, the generator on a tie.  The other is the exact
    quotient of X^n - lambda^residue by that product.  A zero or full phi
    makes the product 1, so no coset polynomial is built.  A Galois dual
    comes with both polynomials already set (``duality.galois_dual``).
    """

    __slots__ = ("params", "phi", "dim", "_generator", "_check")

    def __init__(self, params: CodeParams, phi: CosetFunction):
        check_phi(params, phi)
        self.params = params
        self.phi = phi
        self.dim = phi.weight()
        self._generator: Optional[Poly] = None
        self._check: Optional[Poly] = None

    @property
    def residue(self) -> int:
        return self.phi.residue

    @property
    def unit(self) -> FieldElement:
        """The constant lambda^residue the ring is taken modulo."""
        return self.params.lam_power(self.residue)

    def _from_cosets(self) -> None:
        """Set both polynomials: the cheaper side a product, the other a quotient."""
        params, phi, field = self.params, self.phi, self.params.field
        cap = params.mult_cap
        # phi and phibar share the cosets with 0 < phi(Q) < cap: the check's
        # support is the smaller when fewer members have phi = cap than 0
        by_check = sum(len(Q) * ((v == cap) - (v == 0)) for Q, v in
                       zip(params.cosets_on(phi.residue), phi.values())) < 0
        product = cf_poly(params, phi if by_check else phi.complement())
        quot, rem = _divmod_ints(field, params.modulus_ints(phi.residue), product.ints)
        if rem:
            raise AssertionError("coset product does not divide X^n - lambda^s")
        quot = Poly.wrap(field, quot)
        self._check, self._generator = (product, quot) if by_check else (quot, product)

    @property
    def check(self) -> Poly:
        if self._check is None:
            self._from_cosets()
        return self._check

    @property
    def generator(self) -> Poly:
        if self._generator is None:
            self._from_cosets()
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

    def generator_int_rows(self) -> List[List[int]]:
        """The dim shifted copies X^i * g of the generator, as length-n lists
        of element ints; the zero code has none and builds no generator."""
        n, gen = self.params.n, list(self.generator.ints) if self.dim else []
        return [[0] * i + gen + [0] * (n - len(gen) - i) for i in range(self.dim)]

    def generator_rows(self) -> List[tuple]:
        """The dim shifted copies of the generator spanning the code."""
        wrap = self.params.field.wrap
        return [tuple(map(wrap, row)) for row in self.generator_int_rows()]

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


def _check_enum_size(q: int, k: int, cap: Optional[int]) -> None:
    """Refuse an enumeration of q^k words past the cap (see _enum_cap)."""
    if q ** k > _enum_cap(cap):
        raise ValueError("enumeration too large")


def linear_combinations(field: Field, rows: Sequence[Sequence[int]], n: int,
                        cap: Optional[int] = None) -> Iterator[tuple]:
    """Every combination sum c_i * rows[i] (c_i over the field) of rows of
    element ints as a length-n tuple of elements, one per coefficient
    vector; no rows give one zero word.  The cap is checked first."""
    _check_enum_size(field.order, len(rows), cap)
    add_scaled, wrap = field.add_scaled, field.wrap
    for combo in itertools.product(list(field.ints()), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(combo, rows):
            if c:
                word = add_scaled(word, c, row)
        yield tuple(map(wrap, word))


def enumerate_codewords(code: ConstaCode, cap: Optional[int] = None) -> List[tuple]:
    """All q^dim codewords as length-n coefficient tuples."""
    params = code.params
    return list(linear_combinations(params.field, code.generator_int_rows(),
                                    params.n, cap))


def min_weight(code: ConstaCode, cap: Optional[int] = None) -> Optional[int]:
    """Exact minimum Hamming weight by exhaustion; None for the zero code.

    Raises ValueError when q^dim exceeds the cap, as enumerate_codewords
    does; the cap is checked before the kernel runs.
    """
    if code.dim == 0:
        return None
    _check_enum_size(code.params.q, code.dim, cap)
    return _packed_min_weight(code)


# Messages per block of the Gray-order enumeration in _packed_min_weight;
# the steps within a block are precomputed once per leading row.
_GRAY_BLOCK = 1024


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

    field = params.field
    mul, decode = field.mul, field.decode

    def pack(row) -> int:
        return sum(c << (b * (i * e + j)) for i, x in enumerate(row)
                   for j, c in enumerate(decode(x)))

    betas = [field.encode([0] * j + [1]) for j in range(e)]  # X^j: a basis over GF(p)
    packed = [[pack([mul(beta, x) for x in row]) for beta in betas]
              for row in code.generator_int_rows()]  # packed[i][j] = X^j * row_i
    best = n
    for t in range(k):
        steps = [x for row in packed[t + 1:] for x in row]
        low = len(steps)
        while p ** low > _GRAY_BLOCK:
            low -= 1
        block = [steps[p_split(p, s)[0]] for s in range(1, p ** low)]
        word = packed[t][0]
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
