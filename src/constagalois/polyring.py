"""Dense univariate polynomials over a finite field, and quotient rings
F_q[X]/(X^n - u) for a unit u.

Degrees stay small at desk scale, so everything is schoolbook arithmetic
on immutable coefficient tuples (ascending degree, no trailing zeros).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf import Field, FieldElement, format_element, parse_element


class Poly:
    """Polynomial with coefficients in a fixed field, ascending by degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[FieldElement]):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        for c in coeffs:
            if c.field is not field:
                raise ValueError("mixed fields")
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_ints(cls, field: Field, ints: Iterable[int]) -> "Poly":
        return cls(field, [field.from_int(v) for v in ints])

    @classmethod
    def x_power(cls, field: Field, k: int) -> "Poly":
        return cls(field, [field.zero] * k + [field.one])

    @classmethod
    def constant(cls, field: Field, c: FieldElement) -> "Poly":
        return cls(field, [c])

    # -- basics ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    def coeff(self, k: int) -> FieldElement:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    # -- ring operations ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            raise ValueError("mixed fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Poly(self.field, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = Poly(self.field, [self.field.one])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        db = other.degree
        lead_inv = other.coeffs[-1].inverse()
        quot = [field.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                c = c * lead_inv
                quot[i - db] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - db + j] = rem[i - db + j] - c * b
        return Poly(field, quot), Poly(field, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.coeffs[-1].inverse()

    def shift(self, k: int) -> "Poly":
        """Multiply by X^k."""
        if self.is_zero():
            return self
        return Poly(self.field, [self.field.zero] * k + list(self.coeffs))

    def eval(self, x: FieldElement) -> FieldElement:
        """Horner evaluation; x may live in an extension of the coefficient field."""
        if x.field is self.field:
            coeffs = self.coeffs
        else:
            emb = self.field.embedding_into(x.field)
            coeffs = [emb(c) for c in self.coeffs]
        acc = x.field.zero
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.eval(x)

    def vector(self, n: int) -> tuple:
        """Coefficients padded with zeros to length n (requires degree < n)."""
        if self.degree >= n:
            raise ValueError("degree too large for vector length")
        return self.coeffs + (self.field.zero,) * (n - len(self.coeffs))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor via Euclid."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


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
        a = self.rep.vector(n)
        b = other.rep.vector(n)
        unit = self.unit
        out = [field.zero] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                k = i + j
                if k < n:
                    out[k] = out[k] + ai * bj
                else:
                    out[k - n] = out[k - n] + unit * ai * bj
        return QuotientElem(self.params, self.s, Poly(field, out))

    def x_shift(self) -> "QuotientElem":
        """Multiply by X: the constacyclic shift with lambda^s wraparound."""
        n = self.params.n
        vec = self.rep.vector(n)
        shifted = [self.unit * vec[-1]] + list(vec[:-1])
        return QuotientElem.from_vector(self.params, self.s, shifted)

    def weight(self) -> int:
        return sum(1 for c in self.rep.coeffs if c)


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


def parse_poly(data, field: Field) -> Poly:
    """Inverse of poly_to_json (accepts any element-string encoding)."""
    return Poly(field, [parse_element(s, field) for s in data])
