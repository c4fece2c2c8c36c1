"""Exact arithmetic in GF(p) and its extensions GF(p^m).

Construction is canonical and fully deterministic: the modulus of GF(p^m)
is the lexicographically smallest monic irreducible polynomial of degree m
over GF(p) (coefficients compared low-degree-first as integers), and the
canonical generator is the first primitive element in the same
coefficient-vector order.  Repeated calls to ``make_field(p, m)`` return
the identical interned ``Field`` object, so element encodings like "g^k"
mean the same thing across runs and machines.

Every element is an int owned by its field (``FieldElement.v``): its
coefficients packed in W-bit base-p slots (``packed.PackedRing``), so
0, 1 and every constant c of GF(p) are the ints 0, 1 and c.  The field's
kernel runs all arithmetic on those ints, and is chosen by the field's
size:

* q <= 2^10: log/antilog tables keyed by the packed ints.  Products,
  inverses, powers and the Frobenius map add or scale logs; sums are
  xor for p = 2, plain residues for m = 1, and otherwise the packed
  ring's guard-bit sums.  Building the tables costs a few microseconds
  per element (at most about 6 ms here), so larger fields, which often
  serve only some hundreds of products as splitting fields, do without.
* larger q: the packed ring itself.  A product is one big-int
  (Kronecker) product, reduced mod p in every slot at once and brought
  below the modulus by Barrett division; sums use guard bits; the
  Frobenius map is the precomputed GF(p)-linear map x -> x^p.

``FieldElement`` wraps one int for the public API; ``Poly``, the
oracle's matrices and the coset machinery work on the ints directly.
Elements are immutable; all operations are pure and safe for concurrent
use.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, Optional

from .numtheory import _isprime, _prime_factors
from .packed import PackedRing

# Fields up to this size run on log/antilog tables; discrete logs (the
# "g^k" text encoding) are tabled up to _DLOG_MAX.
_TABLE_MAX = 1 << 10
_DLOG_MAX = 1 << 16


def _is_irreducible(f, p):
    """Rabin's irreducibility test for a monic f of degree m over GF(p).

    f is irreducible iff X^(p^m) = X mod f and X^(p^(m/r)) - X is coprime
    to f for every prime r dividing m (Rabin, SIAM J. Comput. 9, 1980).
    For p < 32 a root in GF(p), found by evaluation, rejects most reducible
    candidates before any power is taken.
    """
    m = len(f) - 1
    if m == 1:
        return True
    from .polyring import Poly, poly_gcd  # the one polynomial implementation

    gf_p = make_field(p, 1)
    modulus = Poly.from_ints(gf_p, f)
    if p < 32 and any(not modulus.eval(gf_p.wrap(a)) for a in range(1, p)):
        return False
    ring = PackedRing(p, f)
    x = ring.encode((0, 1))
    frob_powers = [x]  # X^(p^k)
    for _ in range(m):
        frob_powers.append(ring.power(frob_powers[-1], p))
    if frob_powers[m] != x:
        return False
    for r in _prime_factors(m):
        diff = Poly.from_ints(gf_p, ring.decode(ring.sub(frob_powers[m // r], x)))
        if poly_gcd(diff, modulus).degree != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

_new = object.__new__


def _power_tables(q: int, mul, g: int):
    """The powers of g: the list exp[k] = g^k for k < 2(q - 1), doubled so
    that a sum of two logs needs no mod, and the dict log[g^k] = k.  One
    product by g per element."""
    n1 = q - 1
    exp = [0] * (2 * n1)
    log = {}
    acc = 1
    for k in range(n1):
        exp[k] = exp[k + n1] = acc
        log[acc] = k
        acc = mul(acc, g)
    return exp, log


def _power_of_zero(k: int) -> int:
    if k < 0:
        raise ZeroDivisionError("division by zero")
    return 0 if k else 1


class FieldElement:
    """An element of GF(p^m): the int ``v`` in its field's encoding.

    ``coeffs`` reads it back as m residues mod p, ascending degree.
    Elements come from ``Field.wrap``, ``Field.element``,
    ``Field.from_int`` and ``parse_element``.
    """

    __slots__ = ("field", "v")

    @property
    def coeffs(self) -> tuple:
        return self.field.decode(self.v)

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field is other.field
                and self.v == other.v)

    def __hash__(self):
        return hash((id(self.field), self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.field!r}:{format_element(self)}"

    # -- arithmetic ----------------------------------------------------------

    def _other(self, other) -> int:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError("mixed fields")
        return other.v

    def __add__(self, other):
        field = self.field
        return field.wrap(field.add(self.v, self._other(other)))

    def __sub__(self, other):
        field = self.field
        return field.wrap(field.sub(self.v, self._other(other)))

    def __neg__(self):
        field = self.field
        return field.wrap(field.neg(self.v))

    def __mul__(self, other):
        field = self.field
        return field.wrap(field.mul(self.v, self._other(other)))

    def __truediv__(self, other):
        w = self._other(other)
        if not w:
            raise ZeroDivisionError("division by zero")
        field = self.field
        return field.wrap(field.mul(self.v, field.inv(w)))

    def inverse(self):
        if not self.v:
            raise ZeroDivisionError("division by zero")
        field = self.field
        return field.wrap(field.inv(self.v))

    def __pow__(self, exp: int):
        field = self.field
        return field.wrap(field.pow(self.v, exp))

    def frobenius(self, t: int) -> "FieldElement":
        """x -> x^(p^(t mod m)), the t-th power of the Frobenius map."""
        field = self.field
        return field.wrap(field.frob(self.v, t % field.m))


class Field:
    """GF(p^m) with a fixed modulus and its canonical generator.

    Use :func:`make_field`; constructing Field directly skips the
    canonical choice of modulus.  The int-level kernel is bound on the
    instance: ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``pow``,
    ``frob(v, t)`` (0 <= t < m), ``poly_mul`` (coefficient lists) and
    ``add_scaled(xs, c, ys)`` (the list xs + c * ys) take and return
    element ints; ``encode``/``decode``, the packed ring's, convert
    between an int and its coefficient tuple, and ``wrap`` makes the
    FieldElement of an int.  Fields compare by identity: one object per
    field, as ``make_field`` interns them.
    """

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = tuple(modulus)          # length m+1, monic, ascending
        self._dlog_table: Optional[dict] = None
        ring = PackedRing(p, self.modulus)
        self.encode, self.decode = ring.encode, ring.decode
        generator = self._first_primitive(ring)
        if self.order <= _TABLE_MAX:
            self._bind_tables(ring, generator)
        else:
            self._bind_packed(ring)
        self.zero = self.wrap(0)
        self.one = self.wrap(1)
        self.generator = self.wrap(generator)

    # -- kernels -------------------------------------------------------------

    def _first_primitive(self, ring: PackedRing) -> int:
        """The canonical generator: first primitive element in coefficient
        order, as a packed int of ``ring``."""
        n1 = self.order - 1
        cofactors = [n1 // f for f in self.group_factors]
        for x in self.ints():
            if x and all(ring.power(x, k) != 1 for k in cofactors):
                return x
        raise AssertionError("no primitive element: the modulus is reducible")

    def _bind_packed(self, ring: PackedRing) -> None:
        power, n1 = ring.power, self.order - 1
        self.add, self.sub, self.neg, self.mul = ring.add, ring.sub, ring.neg, ring.mul
        self.inv = lambda a: power(a, n1 - 1)
        self.pow = lambda a, k: power(a, k % n1) if a else _power_of_zero(k)
        self.frob, self.poly_mul = ring.frob, ring.poly_mul
        self.add_scaled = ring.add_scaled

    def _bind_tables(self, ring: PackedRing, generator: int) -> None:
        """Log/antilog tables from the powers of the generator, walked in
        ``ring`` and keyed by its ints."""
        p, m, q = self.p, self.m, self.order
        n1 = q - 1
        exp, log = _power_tables(q, ring.mul, generator)
        self._dlog_table = log
        frob_scale = [pow(p, t, n1) for t in range(m)]
        self.pow = lambda a, k: exp[log[a] * k % n1] if a else _power_of_zero(k)
        self.inv = lambda a: exp[n1 - log[a]]
        self.frob = lambda a, t: exp[log[a] * frob_scale[t] % n1] if a else 0

        mul = lambda a, b: exp[log[a] + log[b]] if a and b else 0
        if m == 1:  # residues: plain arithmetic beats two lookups
            add = lambda a, b: (a + b) % p
            sub = lambda a, b: (a - b) % p
            neg = lambda a: -a % p
            mul = lambda a, b: a * b % p
        elif p == 2:
            add = sub = int.__xor__
            neg = int.__pos__
        else:  # the packed ring's guard-bit sums
            add, sub, neg = ring.add, ring.sub, ring.neg

        def poly_mul(a, b):
            if not a or not b:
                return []
            out = [0] * (len(a) + len(b) - 1)
            logs_b = [(j, log[y]) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    lx = log[x]
                    for j, ly in logs_b:
                        out[i + j] = add(out[i + j], exp[lx + ly])
            return out

        def add_scaled(xs, c, ys):
            if not c:
                return list(xs)
            lc = log[c]
            return [add(x, exp[lc + log[y]]) if y else x for x, y in zip(xs, ys)]

        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.poly_mul, self.add_scaled = poly_mul, add_scaled

    # -- construction of elements -------------------------------------------

    def wrap(self, v: int) -> FieldElement:
        """The element whose int is v."""
        x = _new(FieldElement)
        x.field = self
        x.v = v
        return x

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.m - len(coeffs))
        return self.wrap(self.encode(coeffs))

    def from_int(self, value: int) -> FieldElement:
        """The image of the integer under Z -> GF(p) -> GF(p^m)."""
        return self.wrap(value % self.p)

    def ints(self) -> Iterator[int]:
        """The ints of all p^m elements in canonical (lexicographic) order.

        A prime field's ints are its residues, walked lazily: a tuple of
        range(p) would not fit in memory for large p."""
        if self.m == 1:
            return iter(range(self.p))
        return map(self.encode, itertools.product(range(self.p), repeat=self.m))

    def elements(self) -> Iterator[FieldElement]:
        """All p^m elements in canonical (lexicographic) order."""
        return map(self.wrap, self.ints())

    # -- internals -----------------------------------------------------------

    @functools.cached_property
    def group_factors(self) -> list:
        """Prime factors of p^m - 1 (for multiplicative order computations)."""
        return _prime_factors(self.order - 1)

    def dlog(self, x: FieldElement) -> int:
        """Discrete log of x base the canonical generator (q <= 2^16 only)."""
        if not x:
            raise ValueError("zero has no discrete log")
        if self._dlog_table is None:
            if self.order > _DLOG_MAX:
                raise ValueError("dlog table too large for this field")
            self._dlog_table = _power_tables(self.order, self.mul, self.generator.v)[1]
        return self._dlog_table[x.v]

    def embedding_into(self, sup: "Field") -> "Embedding":
        return _interned_embedding(self, sup)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"


@functools.cache
def make_field(p: int, m: int, /) -> Field:
    """The canonical GF(p^m); interned, so repeated calls return one object.

    Memoised for the life of the process on (p, m); ``make_field.cache_info()``
    reads its hits and misses.  The arguments are positional-only, so a
    keyword call cannot open a second cache entry and mint a second field.
    """
    if not _isprime(p):
        raise ValueError("not a prime")
    if m < 1:
        raise ValueError("degree must be positive")

    if m == 1:
        return Field(p, 1, (0, 1))
    # c0 = 0 would make X a factor
    for low in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        if _is_irreducible(low + (1,), p):
            return Field(p, m, low + (1,))
    raise AssertionError("no monic irreducible polynomial of degree m")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def frobenius(x: FieldElement, t: int) -> FieldElement:
    return x.frobenius(t)


def mult_order(x: FieldElement) -> int:
    """Smallest r >= 1 with x^r = 1.

    Once the field's dlog table exists (table fields have it from the
    start; "g^k" formatting builds it up to 2^16), this is
    (q-1) / gcd(dlog x, q-1); otherwise the factored group order is
    walked down, which avoids building a q-entry table for one order.
    """
    if not x:
        raise ValueError("zero has no order")
    field = x.field
    order = field.order - 1
    if field._dlog_table is not None:
        return order // math.gcd(field.dlog(x), order)
    power, v = field.pow, x.v
    for f in field.group_factors:
        while order % f == 0 and power(v, order // f) == 1:
            order //= f
    return order


class Embedding:
    """The canonical field homomorphism GF(p^m) -> GF(p^M), m | M.

    Realized by sending the residue class of X in the subfield to the root
    of the subfield modulus in the big field with the smallest discrete log
    (the first root hit when walking the order-(p^m - 1) subgroup from 1).
    This is a genuine ring homomorphism; matching generators by raw powers
    generally is not.  ``powers`` holds the ints of 1, beta, ..., beta^(m-1).
    """

    def __init__(self, sub: Field, sup: Field):
        if sub.p != sup.p or sup.m % sub.m != 0:
            raise ValueError("incompatible fields: no subfield embedding")
        self.sub = sub
        self.sup = sup
        if sub is sup:
            self.powers = None
            return
        if sub.m == 1:
            self.powers = [1]
            return
        mul, add = sup.mul, sup.add
        w = sup.pow(sup.generator.v, (sup.order - 1) // (sub.order - 1))
        beta = None
        acc = 1
        for _ in range(sub.order - 1):
            # evaluate the subfield modulus at acc (its coefficients are
            # constants of GF(p), whose ints are themselves)
            val = 0
            for c in reversed(sub.modulus):
                val = add(mul(val, acc), c)
            if not val:
                beta = acc
                break
            acc = mul(acc, w)
        if beta is None:
            raise AssertionError("subfield modulus has no root in extension")
        pows = [1]
        for _ in range(sub.m - 1):
            pows.append(mul(pows[-1], beta))
        self.powers = pows

    def map_int(self, v: int) -> int:
        """The image of the subfield element with int v, as an int of sup."""
        if self.sub is self.sup:
            return v
        mul, add = self.sup.mul, self.sup.add
        out = 0
        for c, b in zip(self.sub.decode(v), self.powers):
            if c:
                out = add(out, mul(c, b))
        return out

    @functools.cached_property
    def _section_table(self) -> dict:
        """sup int -> sub int over the whole image; built on first use."""
        return {self.map_int(v): v for v in self.sub.ints()}

    def section_int(self, w: int) -> int:
        """The preimage of the sup element with int w; raises outside the image."""
        if self.sub is self.sup:
            return w
        if self.sub.m == 1:
            # a constant c of GF(p) is the int c, and every other
            # element's int is at least p: no table needed
            if w < self.sub.p:
                return w
            raise ValueError("not in subfield")
        v = self._section_table.get(w)
        if v is None:
            raise ValueError("not in subfield")
        return v

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.sub:
            raise ValueError("element not in the source field")
        return self.sup.wrap(self.map_int(x.v))

    def section(self, y: FieldElement) -> FieldElement:
        """Preimage in the subfield; raises if y is outside the image."""
        if y.field is not self.sup:
            raise ValueError("element not in the target field")
        return self.sub.wrap(self.section_int(y.v))


# One Embedding per (sub, sup) pair for the life of the process.  Fields
# hash by identity, so a field built directly gets its own embeddings;
# the interned fields live as long as this memo anyway.
_interned_embedding = functools.cache(Embedding)


def embed(x: FieldElement, sup: Field) -> FieldElement:
    return x.field.embedding_into(sup)(x)


def section(y: FieldElement, sub: Field) -> FieldElement:
    return sub.embedding_into(y.field).section(y)


# ---------------------------------------------------------------------------
# text encoding: "0", "1", "g^k", or "[c0,c1,...]"
# ---------------------------------------------------------------------------

def format_element(x: FieldElement) -> str:
    if not x.v:
        return "0"
    if x.v == 1:
        return "1"
    try:
        return f"g^{x.field.dlog(x)}"
    except ValueError:
        return "[" + ",".join(str(c) for c in x.coeffs) + "]"


def parse_element(text: str, field: Field) -> FieldElement:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        return field.element(int(c) for c in text[1:-1].split(","))
    if text.startswith("g^"):
        return field.generator ** int(text[2:])
    value = int(text)  # bare integer, e.g. "1" or "-1"
    return field.from_int(value)
