"""Existence criteria for (isometrically) Galois self-dual codes.

All verdicts are decided by closed-form arithmetic on (p, e, n', r, h);
when a family is nonempty we also construct an explicit witness coset
function (constant p^nu/2 in characteristic 2, otherwise alternating
d and p^nu - d along even multiplier orbits with d = 0) and validate it
against the duality predicates before returning it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .cosets import CodeParams, CosetFunction, s_orbits
from .duality import _galois_h, iso_witness_for, selfdual_condition
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

def _even_orbit_multiplier(params: CodeParams) -> Optional[int]:
    """Smallest s = 1 mod r, coprime to n'r, whose coset orbits are all even."""
    for s in params.multipliers():
        if all(len(orbit) % 2 == 0 for orbit in s_orbits(params, s)):
            return s
    return None


def _alternating_function(params: CodeParams, s: int) -> CosetFunction:
    """phi taking 0 on even positions and p^nu on odd positions of every
    s-orbit; requires all orbits even."""
    cap = params.mult_cap
    assignment = {}
    for orbit in s_orbits(params, s):
        if len(orbit) % 2 != 0:
            raise AssertionError("alternating construction needs even orbits")
        for i, Q in enumerate(orbit):
            assignment[Q.rep] = 0 if i % 2 == 0 else cap
    return CosetFunction(params, assignment, 1)


# ---------------------------------------------------------------------------
# the existence predicates
# ---------------------------------------------------------------------------

def duadic_exists(params: CodeParams) -> ExistenceVerdict:
    """Do duadic lambda'-constacyclic codes of length n' exist?

    Equivalently: is there a multiplier s = 1 mod r, coprime to n'r, all of
    whose orbits on the coset quotient set have even length?
    """
    if params.q % 2 == 0:
        return ExistenceVerdict(False)
    nr = nu(2, params.r)
    if params.nprime % 2 == 0 and nu(2, params.q - 1) > nr >= 1:
        return ExistenceVerdict(True, "(iii.1)")
    if nr == 1 and min(nu(2, params.q + 1), nu(2, params.nprime)) >= 2:
        return ExistenceVerdict(True, "(iii.2)")
    return ExistenceVerdict(False)


# duadic_exists labels -> iso_selfdual_exists labels (odd q)
_ISO_LABELS = {"(iii.1)": "(ii)", "(iii.2)": "(iii)"}


def iso_selfdual_exists(params: CodeParams, h: int = 0) -> ExistenceVerdict:
    """Existence of isometrically p^h-self-dual codes (h-independent).

    In characteristic 2 with nu >= 1 the family is (i); otherwise it exists
    exactly when duadic codes do.  The verdict is computed once per params.
    """
    _galois_h(params.e, h)
    label, phi, _ = iso_selfdual_family(params)
    return ExistenceVerdict(label is not None, label, phi)


@functools.cache
def iso_selfdual_family(params: CodeParams):
    """(label, witness phi, witness s) of the isometrically self-dual
    family, or (None, None, None).

    The witness s is the smallest multiplier with s*phi = phibar, as
    :func:`iso_witness_for` finds it.  Memoised on the params for the
    process, as interned params live: a repeated call returns the same
    tuple.
    """
    p = params.p
    if p == 2 and params.nu >= 1:
        phi = CosetFunction.constant(params, params.mult_cap // 2)
        label = "(i)"
    else:
        duadic = duadic_exists(params)
        if not duadic:
            return None, None, None
        label = _ISO_LABELS[duadic.matched_condition]
        s = _even_orbit_multiplier(params)
        if s is None:
            raise AssertionError("even-orbit multiplier promised but not found")
        phi = _alternating_function(params, s)
    witness = iso_witness_for(params, phi)
    if witness is None:
        raise AssertionError("existence witness fails the duality predicate")
    return label, phi, witness


def galois_selfdual_exists(params: CodeParams, h: int) -> ExistenceVerdict:
    """Existence of p^h-self-dual lambda-constacyclic codes of length n."""
    _galois_h(params.e, h)
    p = params.p
    if (p ** h + 1) % params.r != 0:
        return ExistenceVerdict(False)
    if p == 2 and params.nu >= 1:
        label = "(i)"
        phi = CosetFunction.constant(params, params.mult_cap // 2)
    else:
        even = params.nprime % 2 == 0 and params.r % 2 == 0
        if even and p % 4 == 1:
            label = "(ii)"
        elif even and p % 4 == 3 and params.e % 2 == 0 and h % 2 == 0:
            label = "(iii)"
        elif (even and p % 4 == 3 and (params.e % 2 == 1 or h % 2 == 1)
              and nu(2, params.nprime * params.r) > nu(2, p + 1)):
            label = "(iv)"
        else:
            return ExistenceVerdict(False)
        phi = _alternating_function(params, -(p ** h))
    ok, _ = selfdual_condition(params, phi, h)
    if not ok:
        raise AssertionError("existence witness fails the duality predicate")
    return ExistenceVerdict(True, label, phi)


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
