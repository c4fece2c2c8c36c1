"""Exact arithmetic in GF(p) and its extensions GF(p^m).

Construction is canonical and fully deterministic: the modulus of GF(p^m)
is the lexicographically smallest monic irreducible polynomial of degree m
over GF(p) (coefficients compared low-degree-first as integers), and the
canonical generator is the first primitive element in the same
coefficient-vector order.  Repeated calls to ``make_field(p, m)`` return
the identical interned ``Field`` object, so element encodings like "g^k"
mean the same thing across runs and machines.

Elements are immutable coefficient vectors over GF(p); all operations are
pure and safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Optional


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p) on plain int tuples (ascending degree)
# ---------------------------------------------------------------------------

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p) if f[-1] != 1 else 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            c = (c * inv_lead) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _ptrim(a[:df])


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppowmod(base, exp, f, p):
    result = (1,)
    base = _pmod(base, f, p)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        exp >>= 1
    return result


def _is_irreducible(f, p):
    """Deterministic irreducibility test for a monic f over GF(p).

    f is reducible iff it shares a root with X^(p^k) - X for some
    k <= deg(f)/2, which Euclid detects degree by degree.
    """
    m = len(f) - 1
    if m == 1:
        return True
    if f[0] == 0:
        return False  # divisible by X
    h = (0, 1)
    for _ in range(m // 2):
        h = _ppowmod(h, p, f, p)
        diff = _ptrim([(c - d) % p for c, d in itertools.zip_longest(h, (0, 1), fillvalue=0)])
        g = _pgcd(diff, f, p)
        if len(g) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# primality and factoring of integers (the characteristic and p^m - 1)
# ---------------------------------------------------------------------------

# Strong probable-prime tests to the first 13 primes are exact below PSI_13
# (Sorenson and Webster, Math. Comp. 86, 2017); above it _isprime is
# Baillie-PSW (Baillie and Wagstaff, Math. Comp. 35, 1980).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _odd_part(k: int):
    """(d, s) with k = d * 2^s and d odd, for k > 0."""
    s = (k & -k).bit_length() - 1
    return k >> s, s


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41: D is
    the first of 5, -7, 9, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and n > |D|
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    d, s = _odd_part(n + 1)
    U, V, Qk = 1, 1, Q % n  # (U_k, V_k, Q^k) mod n, k running up the bits of d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    for _ in range(s):  # U_d, then V_(d 2^t) for t < s
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _isprime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = _odd_part(n - 1)
    for a in _MR_BASES if n < _PSI_13 else (2,):  # strong probable prime to a?
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return n < _PSI_13 or _strong_lucas_probable_prime(n)


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Brent's rho on x^2 + c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):  # gcd once per 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                if (g := math.gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, ascending."""
    primes = set()
    for f in itertools.chain((2,), range(3, 1 << 10, 2)):
        while n % f == 0:
            primes.add(f)
            n //= f
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _isprime(m):
            primes.add(m)
        else:
            f = _rho_factor(m)
            rest += [f, m // f]
    return sorted(primes)


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of GF(p^m), stored as m residues mod p, ascending degree."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: "Field", coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)
        if len(self.coeffs) != field.m:
            raise ValueError("coefficient vector has wrong length")
        self._hash = None

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.field), self.coeffs))
        return self._hash

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"{self.field!r}:{format_element(self)}"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError("mixed fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field,
                            [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FieldElement(self.field,
                            [(a - b) % p for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, [(-a) % p for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return self.field._mul(self, other)

    def __truediv__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by zero")
        return self.field._mul(self, other.inverse())

    def inverse(self):
        if not self:
            raise ZeroDivisionError("division by zero")
        return self ** (self.field.order - 2)

    def __pow__(self, exp: int):
        field = self.field
        if not self:
            if exp == 0:
                return field.one
            if exp < 0:
                raise ZeroDivisionError("division by zero")
            return field.zero
        exp %= field.order - 1
        result = field.one
        base = self
        while exp:
            if exp & 1:
                result = field._mul(result, base)
            base = field._mul(base, base)
            exp >>= 1
        return result

    def frobenius(self, t: int) -> "FieldElement":
        """x -> x^(p^(t mod m)), the t-th power of the Frobenius map."""
        t %= self.field.m
        return self ** (self.field.p ** t)


class Field:
    """GF(p^m) with a fixed canonical modulus and generator.

    Use :func:`make_field`; constructing Field directly skips canonicity.
    """

    def __init__(self, p: int, m: int, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = tuple(modulus)          # length m+1, monic, ascending
        # X^(m+k) mod modulus for k = 0..m-2, used to fold products back
        self._red = []
        for k in range(m - 1):
            self._red.append(_pmod((0,) * (m + k) + (1,), self.modulus, p))
        self.zero = FieldElement(self, (0,) * m)
        self.one = FieldElement(self, (1,) + (0,) * (m - 1))
        self.generator: Optional[FieldElement] = None  # set by make_field
        self._group_factors: Optional[list] = None
        self._embeddings: dict = {}
        self._dlog_table: Optional[dict] = None

    # -- construction of elements -------------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        coeffs = list(coeffs)
        if len(coeffs) > self.m:
            raise ValueError("too many coefficients")
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, coeffs)

    def from_int(self, value: int) -> FieldElement:
        """The image of the integer under Z -> GF(p) -> GF(p^m)."""
        return self.element([value % self.p])

    def elements(self) -> Iterator[FieldElement]:
        """All p^m elements in canonical (lexicographic) order."""
        for tup in itertools.product(range(self.p), repeat=self.m):
            yield FieldElement(self, tup)

    # -- internals -----------------------------------------------------------

    def _mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        p, m = self.p, self.m
        a, b = x.coeffs, y.coeffs
        if m == 1:
            return FieldElement(self, ((a[0] * b[0]) % p,))
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [c % p for c in conv[:m]]
        for k in range(m - 1):
            c = conv[m + k] % p
            if c:
                for j, rj in enumerate(self._red[k]):
                    out[j] = (out[j] + c * rj) % p
        return FieldElement(self, out)

    def group_factors(self) -> list:
        """Prime factors of p^m - 1 (for multiplicative order computations)."""
        if self._group_factors is None:
            self._group_factors = _prime_factors(self.order - 1)
        return self._group_factors

    def dlog(self, x: FieldElement) -> int:
        """Discrete log of x base the canonical generator (small fields only)."""
        if not x:
            raise ValueError("zero has no discrete log")
        if self._dlog_table is None:
            if self.order > 1 << 16:
                raise ValueError("dlog table too large for this field")
            table = {}
            acc = self.one
            for k in range(self.order - 1):
                table[acc.coeffs] = k
                acc = self._mul(acc, self.generator)
            self._dlog_table = table
        return self._dlog_table[x.coeffs]

    def embedding_into(self, sup: "Field") -> "Embedding":
        key = (sup.p, sup.m)
        emb = self._embeddings.get(key)
        if emb is None:
            emb = Embedding(self, sup)
            self._embeddings[key] = emb
        return emb

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.p, self.modulus))


_FIELD_CACHE: dict = {}


def make_field(p: int, m: int) -> Field:
    """The canonical GF(p^m); interned, so repeated calls return one object."""
    key = (p, m)
    field = _FIELD_CACHE.get(key)
    if field is not None:
        return field
    if not _isprime(p):
        raise ValueError("not a prime")
    if m < 1:
        raise ValueError("degree must be positive")

    if m == 1:
        modulus = (0, 1)
    else:
        modulus = None
        for c0 in range(1, p):
            for rest in itertools.product(range(p), repeat=m - 1):
                cand = (c0,) + rest + (1,)
                if _is_irreducible(cand, p):
                    modulus = cand
                    break
            if modulus:
                break
        assert modulus is not None

    field = Field(p, m, modulus)
    # canonical generator: first primitive element in coefficient order
    for x in field.elements():
        if not x and field.order > 1:
            continue
        if all(x ** ((field.order - 1) // f) != field.one
               for f in field.group_factors()):
            field.generator = x
            break
    assert field.generator is not None
    _FIELD_CACHE[key] = field
    return field


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def frobenius(x: FieldElement, t: int) -> FieldElement:
    return x.frobenius(t)


def mult_order(x: FieldElement) -> int:
    """Smallest r >= 1 with x^r = 1.

    Once the field's dlog table exists ("g^k" formatting builds it), this
    is (q-1) / gcd(dlog x, q-1); otherwise the factored group order is
    walked down, which avoids building a q-entry table for one order.
    """
    if not x:
        raise ValueError("zero has no order")
    field = x.field
    order = field.order - 1
    if field._dlog_table is not None:
        return order // math.gcd(field.dlog(x), order)
    for f in field.group_factors():
        while order % f == 0 and x ** (order // f) == field.one:
            order //= f
    return order


class Embedding:
    """The canonical field homomorphism GF(p^m) -> GF(p^M), m | M.

    Realized by sending the residue class of X in the subfield to the root
    of the subfield modulus in the big field with the smallest discrete log
    (the first root hit when walking the order-(p^m - 1) subgroup from 1).
    This is a genuine ring homomorphism; matching generators by raw powers
    generally is not.
    """

    def __init__(self, sub: Field, sup: Field):
        if sub.p != sup.p or sup.m % sub.m != 0:
            raise ValueError("incompatible fields: no subfield embedding")
        self.sub = sub
        self.sup = sup
        self._section_table: Optional[dict] = None
        if sub is sup:
            self.powers = None
            return
        if sub.m == 1:
            self.powers = [sup.one]
            return
        step = (sup.order - 1) // (sub.order - 1)
        w = sup.generator ** step
        beta = None
        acc = sup.one
        for _ in range(sub.order - 1):
            # evaluate the subfield modulus at acc (coefficients are prime ints)
            val = sup.zero
            for c in reversed(sub.modulus):
                val = val * acc + sup.from_int(c)
            if not val:
                beta = acc
                break
            acc = acc * w
        if beta is None:
            raise AssertionError("subfield modulus has no root in extension")
        pows = [sup.one]
        for _ in range(sub.m - 1):
            pows.append(pows[-1] * beta)
        self.powers = pows

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.sub:
            raise ValueError("element not in the source field")
        if self.sub is self.sup:
            return x
        out = self.sup.zero
        for c, bk in zip(x.coeffs, self.powers):
            if c:
                out = out + self.sup.from_int(c) * bk
        return out

    def section(self, y: FieldElement) -> FieldElement:
        """Preimage in the subfield; raises if y is outside the image."""
        if y.field is not self.sup:
            raise ValueError("element not in the target field")
        if self.sub is self.sup:
            return y
        if self._section_table is None:
            self._section_table = {self(x).coeffs: x for x in self.sub.elements()}
        x = self._section_table.get(y.coeffs)
        if x is None:
            raise ValueError("not in subfield")
        return x


def embed(x: FieldElement, sup: Field) -> FieldElement:
    return x.field.embedding_into(sup)(x)


def section(y: FieldElement, sub: Field) -> FieldElement:
    return sub.embedding_into(y.field).section(y)


# ---------------------------------------------------------------------------
# text encoding: "0", "1", "g^k", or "[c0,c1,...]"
# ---------------------------------------------------------------------------

def format_element(x: FieldElement) -> str:
    if not x:
        return "0"
    if x == x.field.one:
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
