"""Parameter derivation and the q-coset calculus.

Given (p, e, n, lambda) we derive: r = ord(lambda), the p-part nu and
coprime part n' of n, the period n'r, the extension degree d of the
splitting field, a canonical primitive n'r-th root theta with
theta^n = lambda, and lambda' with lambda'^(p^nu) = lambda.

Residues mod n'r that are congruent to a fixed class mod r split into
orbits of k -> q*k ("q-cosets").  A coset function assigns each coset a
multiplicity in [0, p^nu]; these functions classify the constacyclic
codes of length n, and the whole duality theory acts on them through
complement, the multiplier action s*phi, and pointwise meet.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf import Field, FieldElement, make_field, mult_order, format_element, parse_element
from .numtheory import p_split
from .polyring import Poly


class QCoset:
    """One orbit of k -> q*k on the residues of a fixed class mod r.

    Interned: one object per coset of a params, so cosets compare and
    hash by identity.  ``index`` is its place in its class's cosets in
    rep order."""

    __slots__ = ("residue", "members", "rep", "index")

    def __init__(self, residue: int, members: Iterable[int], index: int):
        self.residue = residue
        self.members = tuple(sorted(members))
        self.rep = self.members[0]
        self.index = index

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"Q{self.rep}{set(self.members)!r}"


class CodeParams:
    """Everything derived from (p, e, n, lambda); see module docstring.

    The splitting field GF(q^d) and theta are built lazily: the coset
    calculus and all existence predicates are pure integer work, and many
    callers never need actual polynomial roots.  ``mult_cap`` is p^nu, the
    largest multiplicity of a coset; :meth:`images` and :meth:`multipliers`
    are the multiplier action on cosets and the multipliers s = 1 mod r
    that preserve the unit class.  Beyond the lazy field and theta, an
    instance holds no memo: per-class data (the q-cosets and theta powers
    of each class mod r), like every result computed from the params
    elsewhere (coset polynomials, minimum weights, the isometric family),
    is memoised by the function that computes it, keyed on the interned
    params that :func:`derive_params` returns.
    """

    def __init__(self, p: int, e: int, n: int, lam: FieldElement):
        self.p = p
        self.e = e
        self.q = p ** e
        self.n = n
        self.lam = lam
        self.field = lam.field
        self.r = mult_order(lam)
        nu, nprime = p_split(p, n)
        self.nu = nu
        self.nprime = nprime
        self.mult_cap = p ** nu            # multiplicities lie in [0, p^nu]
        self.period = nprime * self.r      # the modulus n'r for coset arithmetic
        d = 1
        if self.period > 1:
            acc = self.q % self.period
            while acc != 1:
                acc = (acc * self.q) % self.period
                d += 1
        self.d = d

    @cached_property
    def lam_prime(self) -> FieldElement:
        """The unique p^nu-th root of lambda in GF(q), the inverse
        Frobenius power: (lambda')^(p^nu) is the Frobenius power nu."""
        return self.lam.frobenius((-self.nu) % self.e)

    # -- lazy splitting-field data -------------------------------------------

    @cached_property
    def big_field(self) -> Field:
        return make_field(self.p, self.e * self.d)

    @cached_property
    def theta_dlog(self) -> int:
        """Discrete log of theta base the canonical generator of GF(q^d).

        theta = xi^j for xi = g^((q^d - 1)/n'r) and the least j coprime to
        n'r with xi^(nj) = lambda, found by stepping (xi^n)^j one product
        at a time (j = 0, theta = 1, when n'r = 1)."""
        big = self.big_field
        lam = self.field.embedding_into(big).map_int(self.lam.v)
        m_step = (big.order - 1) // self.period
        mul, step = big.mul, big.pow(big.generator.v, m_step * self.n)
        acc = 1
        for j in range(self.period):
            if acc == lam and math.gcd(j, self.period) == 1:
                return j * m_step
            acc = mul(acc, step)
        raise AssertionError("no primitive n'r-th root theta with theta^n = lambda")

    @cached_property
    def theta(self) -> FieldElement:
        return self.big_field.generator ** self.theta_dlog

    def theta_pow(self, k: int) -> FieldElement:
        """theta^k.  The first call in a class mod r walks the whole class,
        theta^(c + r j) = theta^c (theta^r)^j: one product per power."""
        k %= self.period
        return _theta_class(self, k % self.r)[k // self.r]

    def lam_power(self, s: int) -> FieldElement:
        return self.lam ** (s % self.r)

    def modulus_poly(self, s: int = 1) -> Poly:
        """X^n - lambda^s in F_q[X]."""
        field = self.field
        return (Poly.x_power(field, self.n)
                - Poly.constant(field, self.lam_power(s)))

    # -- coset structure ---------------------------------------------------------

    def cosets_on(self, residue: int) -> List[QCoset]:
        """q-cosets partitioning the class {residue + r*k} mod n'r, by rep."""
        return _coset_class(self, residue % self.r)[0]

    def images(self, residue: int, s: int) -> List[QCoset]:
        """The q-cosets s*Q for the cosets Q of the class residue mod r, in
        rep order, for s coprime to n'r: s*Q is the coset of s * Q.rep, in
        the class s * residue mod r, read off that class's table."""
        period, r = self.period, self.r
        if math.gcd(s, period) != 1:
            raise ValueError("s must be coprime to n'r")
        c, t = residue % r, s * residue % r
        cosets, table = _coset_class(self, c)
        if t != c:
            table = _coset_class(self, t)[1]
        return [table[s * Q.rep % period // r] for Q in cosets]

    def image(self, Q: QCoset, s: int) -> QCoset:
        """The q-coset s*Q for s coprime to n'r."""
        return self.images(Q.residue, s)[Q.index]

    def multipliers(self) -> Iterator[int]:
        """Every s = 1 mod r in [1, n'r] coprime to n'r, ascending: the
        multipliers that preserve the unit class, one per action (the
        action depends only on s mod n'r)."""
        period = self.period
        return (s for s in range(1, period + 1, self.r) if math.gcd(s, period) == 1)

    # -- misc ----------------------------------------------------------------------

    def __repr__(self):
        return (f"CodeParams(p={self.p}, e={self.e}, n={self.n}, "
                f"lam={format_element(self.lam)})")

    def to_json(self) -> dict:
        return {
            "p": self.p, "e": self.e, "q": self.q, "n": self.n,
            "lambda": format_element(self.lam), "r": self.r,
            "nu": self.nu, "nprime": self.nprime, "period": self.period,
            "d": self.d, "lambda_prime": format_element(self.lam_prime),
        }


@cache
def _coset_class(params: CodeParams, c: int) -> Tuple[List[QCoset], List[QCoset]]:
    """(q-cosets by rep, coset table) of the class c mod r, 0 <= c < r.

    Entry k // r of the table is the q-coset containing k, for every
    k = c mod r in [0, n'r); :meth:`CodeParams.images` reads it.
    Memoised on (params, c) for the process, as interned params live."""
    period, r, q = params.period, params.r, params.q
    table: List[Optional[QCoset]] = [None] * params.nprime
    cosets = []
    # members are walked upwards, so each new coset starts at its rep
    for j in range(params.nprime):
        if table[j] is not None:
            continue
        start = c + r * j
        members = [start]
        k = (start * q) % period
        while k != start:
            members.append(k)
            k = (k * q) % period
        Q = QCoset(c, members, len(cosets))
        for k in members:
            table[k // r] = Q
        cosets.append(Q)
    return cosets, table


@cache
def _theta_class(params: CodeParams, c: int) -> List[FieldElement]:
    """theta^(c + r j) for j < n', 0 <= c < r: one product per power.

    Memoised on (params, c) for the process, as interned params live."""
    big = params.big_field
    mul, theta = big.mul, params.theta.v
    acc, step = big.pow(theta, c), big.pow(theta, params.r)
    powers = []
    for _ in range(params.nprime):
        powers.append(big.wrap(acc))
        acc = mul(acc, step)
    return powers


# Interned CodeParams, keyed on (p, e, n, lambda) for the life of the
# process; lambda lives in the interned GF(p^e), so equal keys mean equal
# parameters.  ``_interned_params.cache_info()`` reads hits and misses.
_interned_params = cache(CodeParams)


def derive_params(p: int, e: int, n: int, lam) -> CodeParams:
    """Canonical CodeParams for (p, e, n, lambda); interned per argument set.

    `lam` may be a FieldElement of the canonical GF(p^e), an integer
    (e.g. 1 or -1), or a string like "g^12" or "[1,2]"; every spelling of
    one lambda returns the same object.
    """
    field = make_field(p, e)
    if isinstance(lam, str):
        lam = parse_element(lam, field)
    elif isinstance(lam, int):
        lam = field.from_int(lam)
    elif lam.field is not field:
        raise ValueError("lambda must live in the canonical GF(p^e)")
    if not lam:
        raise ValueError("lambda must be a unit")
    if n < 1:
        raise ValueError("length must be positive")
    return _interned_params(p, e, n, lam)


def q_cosets(params: CodeParams, s: int = 1) -> List[QCoset]:
    """The q-cosets partitioning s + r*Z mod n'r, sorted by rep."""
    if math.gcd(s, params.period) != 1:
        raise ValueError("s must be coprime to n'r")
    return params.cosets_on(s)


def s_orbits(params: CodeParams, s: int) -> List[List[QCoset]]:
    """Orbits of Q -> sQ on the quotient set of the unit class.

    Requires s = 1 mod r (so the multiplier preserves the class) and
    gcd(s, n'r) = 1.  Each orbit is listed in action order from its first
    coset in rep order, so it starts at its smallest rep and the orbits
    come out sorted by that rep.
    """
    images = params.images(1, s)
    if (s - 1) % params.r != 0:
        raise ValueError("mu_s does not preserve the class 1 + r*Z")
    seen = [False] * len(images)
    orbits = []
    for Q in params.cosets_on(1):
        if seen[Q.index]:
            continue
        orbit = [Q]
        nxt = images[Q.index]
        while nxt is not Q:
            orbit.append(nxt)
            nxt = images[nxt.index]
        for P in orbit:
            seen[P.index] = True
        orbits.append(orbit)
    return orbits


class CosetFunction:
    """A map from the q-cosets of one residue class to [0, p^nu].

    Both self-duality criteria ask whether t*phi = phibar for a
    multiplier t (t = -p^h, or some s = 1 mod r);
    :meth:`act_is_complement` answers that without building either side.
    """

    __slots__ = ("params", "residue", "assignment", "_hash")

    def __init__(self, params: CodeParams, assignment: Dict[int, int],
                 residue: int = 1):
        self.params = params
        self.residue = residue % params.r
        cosets = params.cosets_on(self.residue)
        reps = {Q.rep for Q in cosets}
        if set(assignment) != reps:
            raise ValueError("assignment domain must be exactly the coset reps")
        cap = params.mult_cap
        for v in assignment.values():
            if not 0 <= v <= cap:
                raise ValueError(f"multiplicity {v} outside [0, {cap}]")
        # in rep order, so the values line up with params.images(residue, s)
        self.assignment = dict(sorted(assignment.items()))
        self._hash = None

    @classmethod
    def constant(cls, params: CodeParams, value: int, residue: int = 1) -> "CosetFunction":
        return cls(params, {Q.rep: value for Q in params.cosets_on(residue)}, residue)

    @classmethod
    def from_values(cls, params: CodeParams, values: Sequence[int],
                    residue: int = 1) -> "CosetFunction":
        """Values listed against the cosets in rep order."""
        cosets = params.cosets_on(residue)
        if len(values) != len(cosets):
            raise ValueError("one value per coset required")
        return cls(params, {Q.rep: v for Q, v in zip(cosets, values)}, residue)

    def values(self) -> Tuple[int, ...]:
        return tuple(self.assignment[Q.rep] for Q in self.params.cosets_on(self.residue))

    def __eq__(self, other):
        return (isinstance(other, CosetFunction)
                and self.params is other.params
                and self.residue == other.residue
                and self.assignment == other.assignment)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.params), self.residue,
                               tuple(self.assignment.items())))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{k}:{v}" for k, v in self.assignment.items())
        return f"CosetFunction({{{inner}}} on {self.residue}+rZ)"

    # -- the calculus -------------------------------------------------------------

    def complement(self) -> "CosetFunction":
        cap = self.params.mult_cap
        return CosetFunction(self.params,
                             {k: cap - v for k, v in self.assignment.items()},
                             self.residue)

    def act(self, s: int) -> "CosetFunction":
        """The multiplier action: (s*phi)(k) = phi(s^-1 k), moving the
        function to the class s*residue mod r."""
        images = self.params.images(self.residue, s)
        return CosetFunction(self.params,
                             {P.rep: v for P, v in zip(images, self.assignment.values())},
                             s * self.residue)

    def act_is_complement(self, t: int) -> bool:
        """Whether t*phi = phibar, i.e. ``self.act(t) == self.complement()``:
        t must keep the class, and phi(Q) + phi(tQ) = p^nu on every coset."""
        params = self.params
        images = params.images(self.residue, t)
        if (t - 1) * self.residue % params.r != 0:
            return False
        cap, values = params.mult_cap, self.assignment
        return all(v + values[P.rep] == cap for P, v in zip(images, values.values()))

    def meet(self, other: "CosetFunction") -> "CosetFunction":
        if (other.params is not self.params or other.residue != self.residue):
            raise ValueError("coset functions live on different domains")
        return CosetFunction(self.params,
                             {k: min(v, other.assignment[k])
                              for k, v in self.assignment.items()},
                             self.residue)

    def weight(self) -> int:
        """Sum of value * coset size; the dimension of the attached code."""
        return sum(self.assignment[Q.rep] * len(Q)
                   for Q in self.params.cosets_on(self.residue))

    def to_json(self) -> dict:
        return {str(k): v for k, v in self.assignment.items()}
