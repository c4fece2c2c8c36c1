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
    are the multiplier action on cosets and one multiplier s = 1 mod r
    per action on the unit class.  Beyond the lazy field and theta, an
    instance holds no memo: per-class data (the q-cosets of each class
    mod r), like every result computed from the params elsewhere (coset
    polynomials, minimum weights, the isometric family), is memoised by
    the function that computes it, keyed on the interned params that
    :func:`derive_params` returns; theta powers have no memo.  The
    params are built from their intern key (GF(p^e), n, lambda's int):
    lambda is held as its int ``lam_v``; :attr:`lam` wraps it on demand.
    """

    def __init__(self, field: Field, n: int, lam_v: int):
        self.p = p = field.p
        self.e = field.m
        self.q = field.order
        self.n = n
        self.lam_v = lam_v
        self.field = field
        self.r = mult_order(field.wrap(lam_v))
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

    @property
    def lam(self) -> FieldElement:
        return self.field.wrap(self.lam_v)

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
    def _theta(self) -> Tuple[int, int]:
        """(discrete log base the canonical generator of GF(q^d), int) of
        theta.

        theta = xi^j for xi = g^((q^d - 1)/n'r) and the least j coprime to
        n'r with xi^(nj) = lambda, found by stepping (xi^n)^j one product
        at a time (j = 0, theta = 1, when n'r = 1).  xi is the one power
        with an exponent of the size of q^d; xi^n and xi^j, with xi of
        order n'r, are powers below n'r."""
        big, period = self.big_field, self.period
        lam = self.field.embedding_into(big).map_int(self.lam_v)
        m_step = (big.order - 1) // period
        xi = big.pow(big.generator.v, m_step)
        mul, step = big.mul, big.pow(xi, self.n % period)
        acc = 1
        for j in range(period):
            if acc == lam and math.gcd(j, period) == 1:
                return j * m_step, big.pow(xi, j)
            acc = mul(acc, step)
        raise AssertionError("no primitive n'r-th root theta with theta^n = lambda")

    @property
    def theta_dlog(self) -> int:
        """Discrete log of theta base the canonical generator of GF(q^d)."""
        return self._theta[0]

    @property
    def theta(self) -> FieldElement:
        return self.big_field.wrap(self._theta[1])

    def theta_pow(self, k: int) -> FieldElement:
        """theta^(k mod n'r)."""
        big = self.big_field
        return big.wrap(big.pow(self._theta[1], k % self.period))

    def lam_power(self, s: int) -> FieldElement:
        return self.lam ** (s % self.r)

    def modulus_ints(self, s: int = 1) -> list:
        """X^n - lambda^s in F_q[X], as its list of element ints."""
        field = self.field
        unit = field.pow(self.lam_v, s % self.r)
        return [field.neg(unit)] + [0] * (self.n - 1) + [1]

    def modulus_poly(self, s: int = 1) -> Poly:
        """X^n - lambda^s in F_q[X]."""
        return Poly.wrap(self.field, self.modulus_ints(s))

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
        """The q-coset s*Q for s coprime to n'r; Q must be a coset of these
        params."""
        check_coset(self, Q)
        if math.gcd(s, self.period) != 1:
            self.images(Q.residue, s)  # refuses s
        return self.coset_of(s * Q.rep)

    def coset_of(self, k: int) -> QCoset:
        """The q-coset that holds k, read off the table of k's class mod r."""
        return _coset_class(self, k % self.r)[1][k % self.period // self.r]

    def multipliers(self) -> Iterator[int]:
        """The least s in [1, n'r] of each action of the multipliers that
        preserve the unit class, ascending: s and s*q act alike on q-cosets,
        so these are the reps of the unit q-cosets of 1 + rZ (n'r for the
        one coset {0} when n'r = 1)."""
        period = self.period
        return (Q.rep or period for Q in self.cosets_on(1)
                if math.gcd(Q.rep, period) == 1)

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
    k = c mod r in [0, n'r); :meth:`CodeParams.images` and
    :meth:`CodeParams.coset_of` read it.
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


# One CodeParams per (GF(p^e), n, lambda's int) for the life of the
# process: fields are interned and hash by identity, so the lookup hashes
# and compares no FieldElement.  ``cache_info()`` reads hits and misses.
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
    if not lam.v:
        raise ValueError("lambda must be a unit")
    if n < 1:
        raise ValueError("length must be positive")
    return _interned_params(field, n, lam.v)


def check_coset(params: CodeParams, Q: QCoset) -> None:
    """Refuse a q-coset of other params: cosets are interned, so one of
    params is the entry at its index in its class's list."""
    cosets = params.cosets_on(Q.residue)
    if not (Q.index < len(cosets) and cosets[Q.index] is Q):
        raise ValueError("coset belongs to different params")


def check_phi(params: CodeParams, phi: CosetFunction) -> None:
    """Refuse a coset function of other params."""
    if phi.params is not params:
        raise ValueError("coset function belongs to different params")


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
    """A map from the q-cosets of one residue class to [0, p^nu], held as
    one tuple of values against the cosets in rep order.

    Both self-duality criteria ask whether t*phi = phibar for a
    multiplier t (t = -p^h, or some s = 1 mod r);
    :meth:`act_is_complement` answers that without building either side.
    """

    __slots__ = ("params", "residue", "_values")

    def __init__(self, params: CodeParams, assignment: Dict[int, int],
                 residue: int = 1):
        """phi(Q) = assignment[Q.rep]; the keys must be exactly the reps."""
        reps = [Q.rep for Q in params.cosets_on(residue)]
        if set(assignment) != set(reps):
            raise ValueError("assignment domain must be exactly the coset reps")
        self._fill(params, [assignment[k] for k in reps], residue)

    @classmethod
    def constant(cls, params: CodeParams, value: int, residue: int = 1) -> "CosetFunction":
        return cls.from_values(params, [value] * len(params.cosets_on(residue)), residue)

    @classmethod
    def from_values(cls, params: CodeParams, values: Sequence[int],
                    residue: int = 1) -> "CosetFunction":
        """Values listed against the cosets in rep order."""
        if len(values) != len(params.cosets_on(residue)):
            raise ValueError("one value per coset required")
        phi = cls.__new__(cls)
        phi._fill(params, values, residue)
        return phi

    def _fill(self, params: CodeParams, values: Sequence[int], residue: int) -> None:
        cap = params.mult_cap
        for v in values:
            if not 0 <= v <= cap:
                raise ValueError(f"multiplicity {v} outside [0, {cap}]")
        self.params = params
        self.residue = residue % params.r
        self._values = tuple(values)

    def values(self) -> Tuple[int, ...]:
        return self._values

    @property
    def assignment(self) -> Dict[int, int]:
        """{Q.rep: phi(Q)} in rep order."""
        cosets = self.params.cosets_on(self.residue)
        return {Q.rep: v for Q, v in zip(cosets, self._values)}

    def __eq__(self, other):
        return (isinstance(other, CosetFunction)
                and self.params is other.params
                and self.residue == other.residue
                and self._values == other._values)

    def __hash__(self):
        return hash((id(self.params), self.residue, self._values))

    def __repr__(self):
        inner = ", ".join(f"{k}:{v}" for k, v in self.assignment.items())
        return f"CosetFunction({{{inner}}} on {self.residue}+rZ)"

    # -- the calculus -------------------------------------------------------------

    def complement(self) -> "CosetFunction":
        cap = self.params.mult_cap
        return CosetFunction.from_values(self.params, [cap - v for v in self._values],
                                         self.residue)

    def act(self, s: int) -> "CosetFunction":
        """The multiplier action: (s*phi)(k) = phi(s^-1 k), moving the
        function to the class s*residue mod r."""
        images = self.params.images(self.residue, s)
        values = [0] * len(images)
        for P, v in zip(images, self._values):
            values[P.index] = v
        return CosetFunction.from_values(self.params, values, s * self.residue)

    def act_is_complement(self, t: int) -> bool:
        """Whether t*phi = phibar, i.e. ``self.act(t) == self.complement()``:
        t must keep the class, and phi(Q) + phi(tQ) = p^nu on every coset."""
        params = self.params
        images = params.images(self.residue, t)
        if (t - 1) * self.residue % params.r != 0:
            return False
        cap, values = params.mult_cap, self._values
        return all(v + values[P.index] == cap for P, v in zip(images, values))

    def meet(self, other: "CosetFunction") -> "CosetFunction":
        if (other.params is not self.params or other.residue != self.residue):
            raise ValueError("coset functions live on different domains")
        return CosetFunction.from_values(self.params,
                                         list(map(min, self._values, other._values)),
                                         self.residue)

    def weight(self) -> int:
        """Sum of value * coset size; the dimension of the attached code."""
        return sum(v * len(Q) for Q, v in
                   zip(self.params.cosets_on(self.residue), self._values))

    def to_json(self) -> dict:
        return {str(k): v for k, v in self.assignment.items()}
