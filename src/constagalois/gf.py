"""Exact arithmetic in GF(p) and its extensions GF(p^m).

Construction is canonical and fully deterministic: the modulus of GF(p^m)
is the lexicographically smallest monic irreducible polynomial of degree m
over GF(p) (coefficients compared low-degree-first as integers), and the
canonical generator is the first primitive element in the same
coefficient-vector order.  Repeated calls to ``make_field(p, m)`` return
the identical interned ``Field`` object, so element encodings like "g^k"
mean the same thing across runs and machines.

``make_field`` walks the candidate moduli lazily, for any p.  For p < 32
a root in GF(p), found by dot products mod p, rejects most of them; the
rest take Rabin's test in their packed rings, each on the one slot
layout of (p, m), and the ring of the first irreducible one becomes the
field's.  The generator search walks the elements as scalar
multiples of directions and decides each direction once
(``Field._first_primitive``).

Every element is an int owned by its field (``FieldElement.v``): its
coefficients packed in W-bit base-p slots (``packed.PackedRing``), so
0, 1 and every constant c of GF(p) are the ints 0, 1 and c.  The field's
kernel runs all arithmetic on those ints, and is chosen by the field's
size:

* q <= 2^10: log/antilog tables keyed by the packed ints.  Products,
  inverses, powers and the Frobenius map add or scale logs; sums are
  xor for p = 2, plain residues for m = 1, and otherwise the packed
  ring's guard-bit sums.  Such a field also holds one ``FieldElement``
  per element, so ``wrap`` is a dict lookup.  Building the tables costs
  a few microseconds per element (at most about 6 ms here), so larger
  fields, which often serve only some hundreds of products as splitting
  fields, do without.
* larger q: the packed ring itself.  A product is one big-int
  (Kronecker) product, reduced mod p in every slot at once and brought
  below the modulus by Barrett division; sums use guard bits; and
  x -> x^(p^t) is t passes of the GF(p)-linear map x -> x^p, whose table
  of images X^(ip) the ring builds once.

``FieldElement`` wraps one int for the public API; ``Poly``, the
oracle's matrices and the coset machinery work on the ints directly.
Elements are immutable; all operations are pure and safe for concurrent
use.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from typing import Iterable, Iterator, Optional

from .numtheory import _group_order_factors, _isprime
from .packed import PackedRing

# Fields up to this size run on log/antilog tables; discrete logs (the
# "g^k" text encoding) are tabled up to _DLOG_MAX.
_TABLE_MAX = 1 << 10
_DLOG_MAX = 1 << 16


def _horner(coeffs, x, add, mul):
    """sum_k coeffs[k] * x^k (ascending coefficients) by Horner's rule, on
    the ring whose sum and product are ``add`` and ``mul``."""
    acc = 0
    for c in reversed(coeffs):
        acc = add(mul(acc, x), c)
    return acc


def _lex(p, k, low=0):
    """The k-tuples over range(p) whose first entry is at least ``low``, in
    the lexicographic order of ``itertools.product``, which would hold
    range(p) as a tuple: this walk holds no range."""
    walk = iter(((),))
    for i in range(k):
        walk = _then(walk, range(low if i == 0 else 0, p))
    return walk


def _then(walk, values):
    return (t + (a,) for t in walk for a in values)


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
    between an int and its coefficient tuple, and ``wrap`` gives the
    FieldElement of an int (a lookup on table fields, which hold one
    element per int).  Fields compare by identity: one object per
    field, as ``make_field`` interns them.
    """

    def __init__(self, p: int, m: int, modulus, ring: Optional[PackedRing] = None):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = tuple(modulus)          # length m+1, monic, ascending
        self._dlog_table: Optional[dict] = None
        ring = ring or PackedRing(p, self.modulus)
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
        order, as a packed int of ``ring``, found by direction (Shoup,
        "Searching for primitive roots in finite fields", Math. Comp. 58,
        1992).

        x is primitive iff x^((q-1)/l) != 1 for every prime l | q - 1.  The
        order puts the nonzero x by the position i0 of their first nonzero
        coefficient, from X^(m-1) down to the constant term, then by that
        coefficient c, then by the rest; so x = c*y, y a direction whose
        coefficient at i0 is 1.  Write v_l for the l-adic valuation.  As
        c^(p-1) = 1, a prime l with v_l(q-1) > v_l(p-1) has p - 1 dividing
        (q-1)/l, and x^((q-1)/l) = y^((q-1)/l) does not depend on c: a
        direction that fails such a prime rules out all its multiples at
        once.  For m > 1 every prime of (q-1)/(p-1) is such an l, so the
        constants are one failed direction, y = 1.  Every other l divides
        p - 1 (and not m, as (q-1)/(p-1) = m mod p - 1), y^((q-1)/l) lies
        in GF(p), and x^((q-1)/l) = (c^m N(y))^((p-1)/l), N the norm, is
        that constant times one integer power of c mod p.

        A direction's powers share their exponents: from z = y^((q-1)/rad),
        rad the product of the primes, the primes split into halves A and
        B, A takes z^(prod B), B takes z^(prod A), and so on down to single
        primes; a failed prime that does not involve c stops the split.
        Within one i0 the row c = 1 tries each direction once, in order;
        past it only the directions that passed every prime free of c are
        tried, each at its multiple c*y.
        """
        p, m, n1 = self.p, self.m, self.order - 1
        power, primes, encode = ring.power, self.group_factors, ring.encode
        # the exponent of c in x^((q-1)/l), mod p - 1; 0 where c drops out
        c_exps = [n1 // l % (p - 1) for l in primes]
        cofactor = n1 // math.prod(primes)

        def leaves(z, primes):
            """z^(prod(primes)/l) for each l in primes, in turn."""
            if len(primes) > 1:
                half = len(primes) // 2
                a, b = primes[:half], primes[half:]
                yield from leaves(power(z, math.prod(b)), a)
                yield from leaves(power(z, math.prod(a)), b)
            elif primes:
                yield z

        def c_tests(y):
            """(exponent of c, y^((q-1)/l)) for the primes that involve c,
            or None if y fails a prime that does not."""
            tests = []
            for k, v in zip(c_exps, leaves(power(y, cofactor), primes)):
                if k:
                    tests.append((k, v))
                elif v == 1:
                    return None
            return tests

        for i0 in reversed(range(m)):
            head = (0,) * i0
            passed = []  # (tail, tests) of the directions that pass every c-free prime
            for tail in _lex(p, m - 1 - i0):
                tests = c_tests(encode(head + (1,) + tail))
                if tests is None:
                    continue
                if all(v != 1 for _, v in tests):  # c = 1
                    return encode(head + (1,) + tail)
                passed.append((tail, tests))
            for c in range(2, p) if passed else ():
                tails = [tuple(c * a % p for a in tail) for tail, tests in passed
                         if all(pow(c, k, p) * v % p != 1 for k, v in tests)]
                if tails:
                    return encode(head + (c,) + min(tails))
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

        # one element per int, made once: wrap is a lookup
        elements = {}
        for v in itertools.chain((0,), exp[:n1]):
            x = elements[v] = _new(FieldElement)
            x.field, x.v = self, v
        self.wrap = elements.__getitem__

    # -- construction of elements -------------------------------------------

    def wrap(self, v: int) -> FieldElement:
        """The element whose int is v.

        A table field (q <= 2^10) binds ``wrap`` on the instance to a
        lookup in the elements it made once, one per int: there
        ``wrap(v) is wrap(v)``, and an int outside the field raises
        KeyError.  A larger field makes a new element per call, here.
        """
        x = _new(FieldElement)
        x.field = self
        x.v = v
        return x

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        """The element of the coefficients (ascending degree), at most m."""
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            plural = "s" if self.m > 1 else ""
            raise ValueError(f"bad field element '[{','.join(map(str, coeffs))}]', "
                             f"{self!r} takes at most {self.m} coefficient{plural}")
        coeffs += [0] * (self.m - len(coeffs))
        return self.wrap(self.encode(coeffs))

    def from_int(self, value: int) -> FieldElement:
        """The image of the integer under Z -> GF(p) -> GF(p^m)."""
        return self.wrap(value % self.p)

    def ints(self) -> Iterator[int]:
        """The ints of all p^m elements in canonical (lexicographic) order,
        walked lazily for any p."""
        return map(self.encode, _lex(self.p, self.m))

    def elements(self) -> Iterator[FieldElement]:
        """All p^m elements in canonical (lexicographic) order."""
        return map(self.wrap, self.ints())

    # -- internals -----------------------------------------------------------

    @functools.cached_property
    def group_factors(self) -> list:
        """Prime factors of p^m - 1 (for multiplicative order computations)."""
        return _group_order_factors(self.p, self.m)

    def dlog(self, x: FieldElement) -> int:
        """Discrete log of x base the canonical generator (q <= 2^16 only)."""
        if not x:
            raise ValueError("zero has no discrete log")
        return self._logs()[x.v]

    def _logs(self) -> dict:
        """The discrete log of every nonzero int, tabled on first use
        (q <= 2^16 only)."""
        if self._dlog_table is None:
            if self.order > _DLOG_MAX:
                raise ValueError("dlog table too large for this field")
            self._dlog_table = _power_tables(self.order, self.mul, self.generator.v)[1]
        return self._dlog_table

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
    if p > sys.maxsize:  # the tested domain; the walks below hold no range(p)
        raise ValueError(f"GF(p^{m}) with m >= 2 needs p <= sys.maxsize = {sys.maxsize}")
    layout = PackedRing.layout(p, m)
    # for p < 32, the powers (a^0, ..., a^m) mod p of each a != 0: f(a) = 0
    # mod p, a root and so a factor X - a, rejects f before any ring is built
    roots = [[pow(a, i, p) for i in range(m + 1)] for a in range(1, p)] if p < 32 else ()
    for low in _lex(p, m, 1):  # c0 = 0 would make X a factor
        f = low + (1,)
        if any(sum(map(operator.mul, f, row)) % p == 0 for row in roots):
            continue
        ring = PackedRing(p, f, layout)
        if ring.is_field():
            return Field(p, m, f, ring)
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

    An embedding holds one thing, the int ``beta`` of the image of X:
    an element of the subfield maps to its coefficient polynomial
    evaluated at beta.  beta is X itself when the two fields are one, 0
    for a prime subfield (whose elements are constants and map to
    themselves), and otherwise the root of the subfield modulus in the
    big field with the smallest discrete log (the first root hit when
    walking the order-(p^m - 1) subgroup from 1).  This is a genuine
    ring homomorphism; matching generators by raw powers generally is
    not.
    """

    def __init__(self, sub: Field, sup: Field):
        if sub.p != sup.p or sup.m % sub.m != 0:
            raise ValueError("incompatible fields: no subfield embedding")
        self.sub = sub
        self.sup = sup
        if sub.m == 1:
            self.beta = 0
            return
        if sub is sup:
            self.beta = sup.encode((0, 1))
            return
        mul, add = sup.mul, sup.add
        w = sup.pow(sup.generator.v, (sup.order - 1) // (sub.order - 1))
        beta = None
        acc = 1
        for _ in range(sub.order - 1):
            # the subfield modulus at acc (its coefficients are constants
            # of GF(p), whose ints are themselves)
            if not _horner(sub.modulus, acc, add, mul):
                beta = acc
                break
            acc = mul(acc, w)
        if beta is None:
            raise AssertionError("subfield modulus has no root in extension")
        self.beta = beta

    def map_int(self, v: int) -> int:
        """The image of the subfield element with int v, as an int of sup."""
        return _horner(self.sub.decode(v), self.beta, self.sup.add, self.sup.mul)

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


# One Embedding per (sub, sup) pair for the life of the process.  Fields
# hash by identity, so a field built directly gets its own embeddings;
# the interned fields live as long as this memo anyway.
_interned_embedding = functools.cache(Embedding)


def embed(x: FieldElement, sup: Field) -> FieldElement:
    """The image of x in sup under the canonical embedding."""
    return sup.wrap(x.field.embedding_into(sup).map_int(x.v))


def section(y: FieldElement, sub: Field) -> FieldElement:
    """The preimage of y in the subfield sub; raises if y is outside it."""
    return sub.wrap(sub.embedding_into(y.field).section_int(y.v))


# ---------------------------------------------------------------------------
# text encoding: "0", "1", "g^k", or "[c0,c1,...]"
# ---------------------------------------------------------------------------

def format_element_int(field: Field, v: int) -> str:
    """The text of the element of ``field`` whose int is v: "g^k" where the
    field's logs are tabled (q <= 2^16), else its coefficients."""
    if not v:
        return "0"
    if v == 1:
        return "1"
    if field.order <= _DLOG_MAX:
        return f"g^{field._logs()[v]}"
    return "[" + ",".join(map(str, field.decode(v))) + "]"


def format_element(x: FieldElement) -> str:
    return format_element_int(x.field, x.v)


def parse_element(text: str, field: Field) -> FieldElement:
    """The element written as an integer (e.g. "1" or "-1", read mod p),
    ``g^K`` or ``[c0,...]`` (coefficients, ascending degree)."""
    body = text.strip()
    try:
        if body.startswith("[") and body.endswith("]"):
            coeffs = [int(c) for c in body[1:-1].split(",")]
        elif body.startswith("g^"):
            return field.generator ** int(body[2:])
        else:
            return field.from_int(int(body))
    except ValueError:
        raise ValueError(f"bad field element {text!r}, expected an integer, "
                         "g^K or [c0,...]") from None
    return field.element(coeffs)  # outside the try: it names a vector too long
