"""Dense univariate polynomials over a finite field, and quotient rings
F_q[X]/(X^n - u) for a unit u.

Coefficients are the field's element ints (see ``gf``), ascending degree
with no trailing zeros; products go through the field kernel's
``poly_mul``, everything else is schoolbook arithmetic on those ints.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from typing import Iterable, Sequence

from .gf import Field, FieldElement, format_element


_new = object.__new__


class Poly:
    """Polynomial with coefficients in a fixed field, ascending by degree.

    ``ints`` holds the coefficients as the field's element ints (no
    trailing zeros); ``coeffs`` wraps them as FieldElements.
    """

    __slots__ = ("field", "ints")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement]):
        ints = []
        for c in coeffs:
            if c.field is not field:
                raise ValueError("mixed fields")
            ints.append(c.v)
        while ints and not ints[-1]:
            ints.pop()
        self.field = field
        self.ints = tuple(ints)

    @classmethod
    def wrap(cls, field: Field, ints) -> "Poly":
        """The polynomial with these element ints as coefficients."""
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        poly = _new(cls)
        poly.field = field
        poly.ints = tuple(ints)
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "Poly":
        """From integers, each taken through Z -> GF(p)."""
        return cls.wrap(field, [v % field.p for v in ints])

    @classmethod
    def x_power(cls, field: Field, k: int) -> "Poly":
        return cls.wrap(field, [0] * k + [1])

    @classmethod
    def constant(cls, field: Field, c: FieldElement) -> "Poly":
        return cls(field, [c])

    # -- basics ----------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.field.wrap, self.ints))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.ints == other.ints)

    def __hash__(self):
        return hash((id(self.field), self.ints))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    # -- ring operations ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            raise ValueError("mixed fields")

    def __add__(self, other):
        self._check(other)
        return Poly.wrap(self.field, starmap(self.field.add,
                                             zip_longest(self.ints, other.ints, fillvalue=0)))

    def __sub__(self, other):
        self._check(other)
        return Poly.wrap(self.field, starmap(self.field.sub,
                                             zip_longest(self.ints, other.ints, fillvalue=0)))

    def __neg__(self):
        return Poly.wrap(self.field, map(self.field.neg, self.ints))

    def __mul__(self, other):
        field = self.field
        if isinstance(other, FieldElement):
            if other.field is not field:
                raise ValueError("mixed fields")
            mul, s = field.mul, other.v
            return Poly.wrap(field, [mul(c, s) for c in self.ints])
        self._check(other)
        return Poly.wrap(field, field.poly_mul(self.ints, other.ints))

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Poly.wrap(self.field, [1])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:  # no squaring past the top bit
                base = base * base
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod_ints(self.field, self.ints, other.ints)
        return Poly.wrap(self.field, quot), Poly.wrap(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        field = self.field
        mul, inv = field.mul, field.inv(self.ints[-1])
        return Poly.wrap(field, [mul(c, inv) for c in self.ints])

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return Poly.wrap(self.field, (0,) * k + self.ints)

    def eval(self, x: FieldElement) -> FieldElement:
        """Horner evaluation; x may live in an extension of the coefficient field."""
        big = x.field
        ints = self.ints
        if big is not self.field:
            ints = list(map(self.field.embedding_into(big).map_int, ints))
        mul, add, v = big.mul, big.add, x.v
        acc = 0
        for c in reversed(ints):
            acc = add(mul(acc, v), c)
        return big.wrap(acc)

    def vector(self, n: int) -> tuple:
        """Coefficients padded with zeros to length n (requires degree < n)."""
        if self.degree >= n:
            raise ValueError("degree too large for vector length")
        return tuple(map(self.field.wrap, self.ints + (0,) * (n - len(self.ints))))


def _divmod_ints(field: Field, num, den):
    """Quotient and remainder lists of num by a nonzero den (element ints)."""
    mul, neg, add_scaled = field.mul, field.neg, field.add_scaled
    rem = list(num)
    db = len(den) - 1
    lead_inv = field.inv(den[-1])
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            c = mul(c, lead_inv)
            quot[i - db] = c
            rem[i - db:i + 1] = add_scaled(rem[i - db:i + 1], neg(c), den)
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via Euclid."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    field = a.field
    x, y = a.ints, b.ints
    while y:
        x, y = y, _divmod_ints(field, x, y)[1]
    return Poly.wrap(field, x).monic()


class QuotientElem:
    """An element of F_q[X]/(X^n - lambda^s).

    `params` supplies the length n and the unit lambda; `s` declares which
    power of lambda the quotient is taken by (reduced mod r).
    """

    __slots__ = ("params", "s", "rep")

    def __init__(self, params, s: int, rep: Poly):
        self.params = params
        self.s = s % params.r
        if rep.degree >= params.n:
            rep = rep % params.modulus_poly(self.s)
        self.rep = rep

    @property
    def unit(self) -> FieldElement:
        return self.params.lam_power(self.s)

    @classmethod
    def from_vector(cls, params, s: int, vec: Sequence[FieldElement]) -> "QuotientElem":
        return cls(params, s, Poly(params.field, list(vec)))

    def vector(self) -> tuple:
        return self.rep.vector(self.params.n)

    def _check(self, other):
        if (not isinstance(other, QuotientElem) or other.params is not self.params
                or other.s != self.s):
            raise ValueError("mismatched quotient rings")

    def __eq__(self, other):
        return (isinstance(other, QuotientElem) and self.params is other.params
                and self.s == other.s and self.rep == other.rep)

    def __hash__(self):
        return hash((id(self.params), self.s, self.rep))

    def __bool__(self):
        return bool(self.rep)

    def __repr__(self):
        return f"QuotientElem(s={self.s}, {format_poly(self.rep)})"

    def __add__(self, other):
        self._check(other)
        return QuotientElem(self.params, self.s, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return QuotientElem(self.params, self.s, self.rep - other.rep)

    def __neg__(self):
        return QuotientElem(self.params, self.s, -self.rep)

    def __mul__(self, other):
        """Product with wraparound: coefficient k of the result is
        sum_{i+j=k} a_i b_j + lambda^s * sum_{i+j=n+k} a_i b_j."""
        if isinstance(other, FieldElement):
            return QuotientElem(self.params, self.s, self.rep * other)
        self._check(other)
        n = self.params.n
        field = self.params.field
        mul, add, unit = field.mul, field.add, self.unit.v
        out = field.poly_mul(self.rep.ints, other.rep.ints)
        for k in range(n, len(out)):
            out[k - n] = add(out[k - n], mul(unit, out[k]))
        return QuotientElem(self.params, self.s, Poly.wrap(field, out[:n]))

    def weight(self) -> int:
        return sum(1 for c in self.rep.ints if c)


# ---------------------------------------------------------------------------
# text encodings
# ---------------------------------------------------------------------------

def format_poly(poly: Poly) -> str:
    """Human form "c0 + c1*X + c2*X^2 + ..." with zero terms omitted."""
    if poly.is_zero():
        return "0"
    terms = []
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        enc = format_element(c)
        if k == 0:
            terms.append(enc)
        elif k == 1:
            terms.append(f"{enc}*X")
        else:
            terms.append(f"{enc}*X^{k}")
    return " + ".join(terms)


def poly_to_json(poly: Poly) -> list:
    """JSON form: array of element strings ascending by degree."""
    return [format_element(c) for c in poly.coeffs]
