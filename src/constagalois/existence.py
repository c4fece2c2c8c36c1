"""Existence criteria for (isometrically) Galois self-dual codes.

All verdicts are decided by closed-form arithmetic on (p, e, n', r, h);
when a family is nonempty we also construct an explicit witness coset
function (constant p^nu/2 in characteristic 2, otherwise alternating
d and p^nu - d along even multiplier orbits with d = 0) and validate it
against the duality predicate before returning it.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, NamedTuple, Optional

from .cosets import CodeParams, CosetFunction, s_orbits
from .duality import _galois_h
from .numtheory import p_split


def nu(p: int, k: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    return p_split(p, k)[0]


class ExistenceVerdict(NamedTuple):
    """An immutable verdict; ``_replace`` gives a copy with fields changed."""

    exists: bool
    matched_condition: Optional[str] = None
    witness_phi: Optional[CosetFunction] = None

    def __bool__(self):
        return self.exists

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "matched_condition": self.matched_condition,
            "witness_phi": self.witness_phi.to_json() if self.witness_phi else None,
        }


# ---------------------------------------------------------------------------
# witness constructions
# ---------------------------------------------------------------------------

def _witness(params: CodeParams, t: int) -> Optional[CosetFunction]:
    """phi with t*phi = phibar, checked before it is returned: the constant
    p^nu/2 in characteristic 2 with nu >= 1, else 0 on even and p^nu on odd
    positions of every t-orbit, or None when some t-orbit is odd."""
    cap = params.mult_cap
    if params.p == 2 and params.nu >= 1:
        phi = CosetFunction.constant(params, cap // 2)
    else:
        values = [0] * len(params.cosets_on(1))
        for orbit in s_orbits(params, t):
            if len(orbit) % 2 != 0:
                return None
            for Q in orbit[1::2]:
                values[Q.index] = cap
        phi = CosetFunction.from_values(params, values)
    if not phi.act_is_complement(t):
        raise AssertionError("existence witness fails the duality predicate")
    return phi


# ---------------------------------------------------------------------------
# the existence predicates
# ---------------------------------------------------------------------------

def family_possible(p: int, nprime: int, nu: int, r: int) -> bool:
    """The first clause of every existence rule, on integers alone: p = 2
    needs nu >= 1, and odd p needs n' and r even.  False rules out both
    families; True does not promise one.  For lambda = 1 it is the
    classical one, self-dual cyclic codes need even q and n."""
    if p == 2:
        return nu >= 1
    return nprime % 2 == 0 and r % 2 == 0


# every verdict of "no such codes" is this one
_ABSENT = ExistenceVerdict(False)


def duadic_exists(params: CodeParams) -> ExistenceVerdict:
    """Do duadic lambda'-constacyclic codes of length n' exist?

    Equivalently: is there a multiplier s = 1 mod r, coprime to n'r, all of
    whose orbits on the coset quotient set have even length?  Past
    :func:`family_possible`, n' and r are even for odd q, and r | q - 1
    is odd for even q, where neither case holds.
    """
    if not family_possible(params.p, params.nprime, params.nu, params.r):
        return _ABSENT
    nr = nu(2, params.r)
    if nu(2, params.q - 1) > nr:
        return ExistenceVerdict(True, "(iii.1)")
    if nr == 1 and min(nu(2, params.q + 1), nu(2, params.nprime)) >= 2:
        return ExistenceVerdict(True, "(iii.2)")
    return _ABSENT


# duadic_exists labels -> iso_selfdual_exists labels (odd q)
_ISO_LABELS = {"(iii.1)": "(ii)", "(iii.2)": "(iii)"}


def iso_selfdual_exists(params: CodeParams, h: int = 0) -> ExistenceVerdict:
    """Existence of isometrically p^h-self-dual codes (h-independent).

    In characteristic 2 with nu >= 1 the family is (i); otherwise it exists
    exactly when duadic codes do.  Read off :func:`selfdual_families`.
    """
    _galois_h(params.e, h)
    label, phi, _ = selfdual_families(params).iso
    return ExistenceVerdict(label is not None, label, phi)


class SelfDualFamilies(NamedTuple):
    """Both self-dual families of one instance, one record per params."""

    iso: tuple  # (label, witness phi, witness s) of the isometric family
    labels: Optional[tuple]  # the Galois label of each h in [0, e], or None
    witnesses: dict  # the q-coset of -p^h -> its witness, filled on first ask


# every instance with neither family shares this record; with no label,
# its witnesses stay empty
_NO_FAMILIES = SelfDualFamilies((None, None, None), None, {})


@functools.cache
def selfdual_families(params: CodeParams) -> SelfDualFamilies:
    """The isometric family, the Galois label of every h and the Galois
    witnesses built so far, of params.

    The isometric family is (label, phi, s), or three None.  s is the
    first multiplier with a :func:`_witness`, s = 1 in (i); elsewhere phi
    alternates 0 and p^nu along the orbits of any witness, so s is the
    smallest, as :func:`iso_witness_for` finds it.  A Galois label is None
    where no p^h-self-dual code exists, and the tuple is None when no h
    has one.  The verdict depends on h only through h mod 2, r | p^h + 1
    and the q-coset of -p^h, so the labels of every h are worked out at
    once and each witness is built on the first ask of its coset.
    Memoised on the params for the process, as interned params live.
    """
    p, e, r = params.p, params.e, params.r
    if not family_possible(p, params.nprime, params.nu, r):
        return _NO_FAMILIES
    if p == 2:
        iso_label, by_parity = "(i)", ("(i)", "(i)")  # the label of h even, h odd
    else:
        duadic = duadic_exists(params)
        iso_label = _ISO_LABELS[duadic.matched_condition] if duadic else None
        if p % 4 == 1:
            by_parity = ("(ii)", "(ii)")
        else:
            iv = "(iv)" if nu(2, params.nprime * r) > nu(2, p + 1) else None
            by_parity = ("(iii)" if e % 2 == 0 else iv, iv)
    labels = tuple(by_parity[h % 2] if (p ** h + 1) % r == 0 else None
                   for h in range(e + 1))
    labels = labels if any(labels) else None
    if iso_label is None:
        return SelfDualFamilies(_NO_FAMILIES.iso, labels, {}) if labels else _NO_FAMILIES
    for s in params.multipliers():  # s = 1 first: the constant of (i)
        phi = _witness(params, s)
        if phi is not None:
            return SelfDualFamilies((iso_label, phi, s), labels, {})
    raise AssertionError("even-orbit multiplier promised but not found")


def galois_selfdual_verdicts(params: CodeParams,
                             hs: Iterable[int]) -> List[ExistenceVerdict]:
    """:func:`galois_selfdual_exists` for every h of ``hs``, in order, read
    off :func:`selfdual_families`.

    Multiplication by q fixes every q-coset, so -p^h and -p^h' act alike
    when they lie in one <q>-orbit mod n'r, as h = 0 and h = e always do.
    Once r | p^h + 1, t = -p^h is 1 mod r and coprime to n'r, so its orbit
    is the q-coset that holds t, :meth:`CodeParams.coset_of`.  The
    witness is built and checked once per such coset, and the verdicts of
    its h share that one phi.
    """
    p, e = params.p, params.e
    _, labels, witnesses = selfdual_families(params)
    verdicts = []
    for h in hs:
        _galois_h(e, h)
        label = None if labels is None else labels[h]
        if label is None:
            verdicts.append(_ABSENT)
            continue
        t = -(p ** h)
        orbit = params.coset_of(t)
        phi = witnesses.get(orbit)
        if phi is None:
            phi = _witness(params, t)
            if phi is None:
                raise AssertionError("-p^h has an odd orbit in a family that exists")
            witnesses[orbit] = phi
        verdicts.append(ExistenceVerdict(True, label, phi))
    return verdicts


def galois_selfdual_exists(params: CodeParams, h: int) -> ExistenceVerdict:
    """Existence of p^h-self-dual lambda-constacyclic codes of length n."""
    return galois_selfdual_verdicts(params, (h,))[0]


# galois_selfdual_exists labels -> labels of its h = 0 and h = e/2 cases.
# Those split on q (resp. p^(e/2)) mod 4 rather than on p mod 4, so the
# general (ii) and (iii), both 1 mod 4 there, merge into one label.
_SPECIAL_LABELS = {"(i)": "(i)", "(ii)": "(ii)", "(iii)": "(ii)", "(iv)": "(iii)"}


def _special_case(verdict: ExistenceVerdict) -> ExistenceVerdict:
    label = _SPECIAL_LABELS.get(verdict.matched_condition)
    return ExistenceVerdict(verdict.exists, label, verdict.witness_phi)


def euclidean_selfdual_exists(params: CodeParams) -> ExistenceVerdict:
    """Existence of self-dual codes: the h = 0 specialization."""
    return _special_case(galois_selfdual_exists(params, 0))


def hermitian_selfdual_exists(params: CodeParams) -> ExistenceVerdict:
    """Existence of Hermitian self-dual codes: the h = e/2 specialization."""
    if params.e % 2 != 0:
        return ExistenceVerdict(False)
    return _special_case(galois_selfdual_exists(params, params.e // 2))
