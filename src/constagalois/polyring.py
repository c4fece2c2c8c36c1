"""Dense univariate polynomials over a finite field, and quotient rings
F_q[X]/(X^n - u) for a unit u.

Coefficients are the field's element ints (see ``gf``), ascending degree
with no trailing zeros; products go through the field kernel's
``poly_mul``, everything else is schoolbook arithmetic on those ints.
"""

from __future__ import annotations

from itertools import starmap, zip_longest
from typing import Iterable, Sequence

from .gf import Field, FieldElement, format_element_int


_new = object.__new__


class Poly:
    """Polynomial with coefficients in a fixed field, ascending by degree.

    ``ints`` holds the coefficients as the field's element ints (no
    trailing zeros).
    """

    __slots__ = ("field", "ints")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement]):
        coeffs = tuple(coeffs)
        if any(c.field is not field for c in coeffs):
            raise ValueError("mixed fields")
        self.field, self.ints = field, Poly.wrap(field, [c.v for c in coeffs]).ints

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
    def x_power(cls, field: Field, k: int) -> "Poly":
        return cls.wrap(field, [0] * k + [1])

    # -- basics ----------------------------------------------------------------

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
        if not exp:
            return Poly.wrap(self.field, [1])
        result = self
        for bit in bin(exp)[3:]:  # from the top bit of exp down
            result = result * result
            if bit == "1":
                result = result * self
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


def product(field: Field, polys: Sequence[Poly]) -> Poly:
    """The product of the polys as one balanced tree, adjacent factors
    paired level by level (k - 1 products for k factors); none gives 1."""
    while len(polys) > 1:
        polys = [polys[i] * polys[i + 1] if i + 1 < len(polys) else polys[i]
                 for i in range(0, len(polys), 2)]
    return polys[0] if polys else Poly.wrap(field, [1])


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


def fold(params, s: int, terms: Iterable) -> Poly:
    """The sum of c*X^k over sparse (k, c) terms (c an element int), reduced
    mod X^n - lambda^s by X^k = lambda^(s*(k // n)) * X^(k mod n): the one
    reduction of R_{n,lambda^s}, O(len(terms) + n) whatever the k."""
    n, field = params.n, params.field
    mul, add, power = field.mul, field.add, field.pow
    unit = params.lam_power(s).v
    out = [0] * n
    for k, c in terms:
        if c:
            t, j = divmod(k, n)
            out[j] = add(out[j], mul(c, power(unit, t)) if t else c)
    return Poly.wrap(field, out)


class QuotientElem:
    """An element of F_q[X]/(X^n - lambda^s).

    `params` supplies the length n and the unit lambda; `s` declares which
    power of lambda the quotient is taken by (reduced mod r).
    """

    __slots__ = ("params", "s", "rep")

    def __init__(self, params, s: int, rep: Poly):
        if rep.field is not params.field:
            raise ValueError("mixed fields")
        self.params = params
        self.s = s % params.r
        if rep.degree >= params.n:
            rep = fold(params, self.s, enumerate(rep.ints))
        self.rep = rep

    @classmethod
    def from_vector(cls, params, s: int, vec: Sequence[FieldElement]) -> "QuotientElem":
        return cls(params, s, Poly(params.field, list(vec)))

    def vector(self) -> tuple:
        """The n coefficients of the reduced representative."""
        ints = self.rep.ints
        return tuple(map(self.params.field.wrap, ints + (0,) * (self.params.n - len(ints))))

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
        """The product, reduced mod X^n - lambda^s by the constructor."""
        if isinstance(other, FieldElement):
            return QuotientElem(self.params, self.s, self.rep * other)
        self._check(other)
        return QuotientElem(self.params, self.s, self.rep * other.rep)

    def weight(self) -> int:
        return sum(1 for c in self.rep.ints if c)


# ---------------------------------------------------------------------------
# text encodings
# ---------------------------------------------------------------------------

def format_poly(poly: Poly) -> str:
    """Human form "c0 + c1*X + c2*X^2 + ..." with zero terms omitted."""
    if poly.is_zero():
        return "0"
    field, terms = poly.field, []
    for k, c in enumerate(poly.ints):
        if not c:
            continue
        enc = format_element_int(field, c)
        if k == 0:
            terms.append(enc)
        elif k == 1:
            terms.append(f"{enc}*X")
        else:
            terms.append(f"{enc}*X^{k}")
    return " + ".join(terms)


def poly_to_json(poly: Poly) -> list:
    """JSON form: array of element strings ascending by degree."""
    field = poly.field
    return [format_element_int(field, c) for c in poly.ints]
