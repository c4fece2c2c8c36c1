"""Seeded op streams for the four workloads, built with integer arithmetic.

Nothing here imports the library: ops are plain tuples, and the library
only ever sees the inputs they describe.  A stream is a sequence of
*units*.  Every unit of a workload holds the same inputs, apart from the
coset functions the seed draws, and the seed orders the ops within a
pass.  So runs with different seeds do the same work, and the same ops
find the library's interned fields and parameters cold.  Op costs here
span three orders of magnitude, and freely drawn windows and instances
made the medians follow the seed.

* census:    one op is a ``search`` sweep over a window of lengths for
             one (p, e).  A unit is three passes over the 18 (p, e)
             pairs, each tiling [1, 60] with 30-wide windows, at offsets
             0, 10 and 20.
* weights:   one op is a ``search --with-weights --cap 4096`` sweep for
             one (p, e), one length and one lambda order.  A unit is one
             pass over the 8 (p, e) pairs, the lengths [1, 24] and every
             order.  A few dozen of these ops enumerate codewords and take
             20 ms to 1.2 s; with whole windows of lengths as ops the 90th
             percentile fell between two such ops and moved by 30 %
             from run to run.
* construct: one op builds one (p, e, n, r) instance with a seeded coset
             function, its code and all its Galois duals.  The instances
             of each (p, e) pair, in (n, r) order, are dealt into five
             interleaved slices; unit k holds slice k mod 5 of every pair.
* verify:    one op cross-checks one (code, h) against the oracle.  A unit
             is one pass over the acceptance grid with fresh seeded coset
             functions.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Tuple

WORKLOADS = ("census", "weights", "construct", "verify")
DEFAULT_SEED = 1

CENSUS_PE = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3)]
CENSUS_N_MAX = 60
CENSUS_WIDTH = 30
CENSUS_OFFSETS = (0, 10, 20)

WEIGHTS_PE = [(p, e) for p in (2, 3, 5, 7) for e in (1, 2)]
WEIGHTS_N_MAX = 24
WEIGHTS_CAP = 4096

CONSTRUCT_PE = WEIGHTS_PE
CONSTRUCT_N_MAX = 40
CONSTRUCT_MAX_DEGREE = 24      # e * d, the splitting field's degree over GF(p)
CONSTRUCT_SLICES = 5

VERIFY_PE = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]
VERIFY_N_MAX = 12
VERIFY_MAX_COSETS = 6
VERIFY_MAX_MULTIPLICITY = 9

# A fixed prefix of each stream: the traced run covers it, so its counts
# repeat exactly for a seed, and the default seed's outputs over it are
# pinned by digest.  About 2-8 s of ops per workload.
PREFIX_OPS = {"census": 36, "weights": 408, "construct": 64, "verify": 631}

# Seconds one unit takes at the reference commit on a 2-CPU Xeon VM
# (later units of a run reuse interned fields and parameters).  A timed
# run does round(--seconds / UNIT_SECONDS) units, at least one, so every
# run with the same --seconds does the same work on any commit.
UNIT_SECONDS = {"census": 7.0, "weights": 12.0, "construct": 6.0, "verify": 1.7}

Op = Tuple[str, tuple]


# ---------------------------------------------------------------------------
# integer coset arithmetic (the op generator's own, independent of the library)
# ---------------------------------------------------------------------------

def divisors(k: int) -> List[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def split_length(p: int, n: int) -> Tuple[int, int]:
    """(nu, n') with n = p^nu * n' and p not dividing n'."""
    nu = 0
    while n % p == 0:
        n //= p
        nu += 1
    return nu, n


def order_mod(q: int, m: int) -> int:
    """Multiplicative order of q modulo m (1 for m = 1)."""
    if m == 1:
        return 1
    d, acc = 1, q % m
    while acc != 1:
        acc = acc * q % m
        d += 1
    return d


def coset_reps(q: int, r: int, nprime: int) -> List[int]:
    """The rep (least member) of every q-coset on 1 + rZ modulo n'r, sorted."""
    period = nprime * r
    seen = set()
    reps = []
    for start in sorted({(1 + r * k) % period for k in range(nprime)}):
        if start in seen:
            continue
        reps.append(start)
        k = start
        while k not in seen:
            seen.add(k)
            k = k * q % period
    return reps


def lambda_text(q: int, r: int) -> str:
    """The order-r unit g^((q-1)/r) in the library's text encoding."""
    return "1" if r == 1 else f"g^{(q - 1) // r}"


def _random_phi(rng: random.Random, p: int, nu: int,
                reps: List[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple((rep, rng.randint(0, p ** nu)) for rep in reps)


# ---------------------------------------------------------------------------
# the streams
# ---------------------------------------------------------------------------

def tiling(n_max: int, width: int, offset: int) -> List[Tuple[int, int]]:
    """[1, n_max] cut into ``width``-wide windows, the first one ``offset``
    long when ``offset`` is nonzero."""
    cuts = sorted({0, n_max, *range(offset or width, n_max, width)})
    return [(a + 1, b) for a, b in zip(cuts, cuts[1:])]


def _census_units(rng: random.Random) -> Iterator[List[Op]]:
    while True:
        unit = []
        for offset in CENSUS_OFFSETS:
            tiles = [("census", (p, e, lo, hi)) for p, e in CENSUS_PE
                     for lo, hi in tiling(CENSUS_N_MAX, CENSUS_WIDTH, offset)]
            rng.shuffle(tiles)
            unit.extend(tiles)
        yield unit


def _weights_units(rng: random.Random) -> Iterator[List[Op]]:
    while True:
        unit = [("weights", (p, e, n, r)) for p, e in WEIGHTS_PE
                for n in range(1, WEIGHTS_N_MAX + 1) for r in divisors(p ** e - 1)]
        rng.shuffle(unit)
        yield unit


def construct_instances(p: int, e: int) -> List[Tuple[int, int]]:
    """Every (n, r) with n <= 40 whose splitting field has degree <= 24."""
    q = p ** e
    out = []
    for n in range(1, CONSTRUCT_N_MAX + 1):
        _, nprime = split_length(p, n)
        for r in divisors(q - 1):
            if e * order_mod(q, nprime * r) <= CONSTRUCT_MAX_DEGREE:
                out.append((n, r))
    return out


def _construct_units(rng: random.Random) -> Iterator[List[Op]]:
    population = {pe: construct_instances(*pe) for pe in CONSTRUCT_PE}
    for k in itertools.cycle(range(CONSTRUCT_SLICES)):
        unit = []
        for (p, e), instances in population.items():
            q = p ** e
            for n, r in instances[k::CONSTRUCT_SLICES]:
                nu, nprime = split_length(p, n)
                phi = _random_phi(rng, p, nu, coset_reps(q, r, nprime))
                unit.append(("construct", (p, e, n, lambda_text(q, r), phi)))
        rng.shuffle(unit)
        yield unit


def verify_grid() -> List[Tuple[int, int, int, int]]:
    """Acceptance criterion 6's grid: (p, e, n, r) with at most 6 cosets and
    p^nu <= 9, one lambda per order."""
    out = []
    for p, e in VERIFY_PE:
        q = p ** e
        for n in range(1, VERIFY_N_MAX + 1):
            nu, nprime = split_length(p, n)
            for r in divisors(q - 1):
                if len(coset_reps(q, r, nprime)) > VERIFY_MAX_COSETS:
                    continue
                if p ** nu > VERIFY_MAX_MULTIPLICITY:
                    continue
                out.append((p, e, n, r))
    return out


def _verify_units(rng: random.Random) -> Iterator[List[Op]]:
    grid = verify_grid()
    while True:
        unit = []
        for p, e, n, r in grid:
            q = p ** e
            nu, nprime = split_length(p, n)
            phi = _random_phi(rng, p, nu, coset_reps(q, r, nprime))
            unit.extend(("verify", (p, e, n, lambda_text(q, r), phi, h))
                        for h in range(e + 1))
        rng.shuffle(unit)
        yield unit


_STREAMS = {"census": _census_units, "weights": _weights_units,
            "construct": _construct_units, "verify": _verify_units}


def units(workload: str, seed: int) -> Iterator[List[Op]]:
    """The workload's endless stream of units for this seed."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def first_ops(workload: str, seed: int, count: int) -> List[Op]:
    """The first ``count`` ops of the stream, ignoring unit boundaries."""
    out: List[Op] = []
    for unit in units(workload, seed):
        out.extend(unit)
        if len(out) >= count:
            return out[:count]
    return out
