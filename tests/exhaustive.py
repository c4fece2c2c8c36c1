"""Independent exhaustive helpers shared by the test modules.

Everything here recomputes results from first principles (trial division,
orbit closure, full enumeration of coset functions) or states a closed
form a second way (the even-orbit valuation criteria, the Euclidean and
Hermitian theorems on their own terms, extended Euclid), so the library's
closed forms are checked against code that shares nothing with them
beyond field arithmetic.  ``ReferenceField`` redoes that arithmetic too,
on coefficient tuples, for the checks of the int kernels.  The cross-checks
that only tests call live here too, not in the library: membership by both
of its characterizations, a code recovered from its generator, the 2-adic
closed form of acceptance criterion 7, the parser of the JSON
polynomial form, the oracle's span equality by three ranks and its
dual basis on wrapped elements, the generator rows as shifted and
padded polynomials, the quotient-ring product by its explicit
wraparound sum, the isometry M_s placed monomial by monomial, the
Galois verdict decided one h at a time with a witness of its own, a
polynomial from integers and its value at a point by Horner's rule, a
subfield element's embedded image as a sum over the powers of beta, the
multipliers walked one residue at a time, a coset polynomial as the
product over its members, a product of coset polynomials as a left
fold, a code's check and generator both as such folds, theta as a power
of the generator, the canonical generator by one power per prime of
q - 1, Rabin's irreducibility test by m powers by p, the CLI's dict
records and search rows written through csv.writer, json.dumps and a
k=v join, and the
existence verdicts decided on the codes of dimension n/2 themselves,
listed as divisors of X^n - lambda with no q-coset in sight.
"""

import csv
import io
import itertools
import json
import math
import random

from constagalois import (CosetFunction, ExistenceVerdict, Poly, QuotientElem,
                          build_code, coset_poly, derive_params, embed,
                          galois_selfdual_exists, make_field, nu, parse_element,
                          poly_gcd, q_cosets, section)
from constagalois.cli import build_parser
from constagalois.codes import _enum_cap, enumerate_codewords, min_weight
from constagalois.duality import Isometry, _galois_h
from constagalois.existence import _witness, selfdual_families
from constagalois.gf import format_element
from constagalois.numtheory import _prime_factors
from constagalois.packed import PackedRing
from constagalois.oracle import Matrix, naive_cosets


def brute_monic_irreducibles(p, m):
    """All monic irreducible degree-m polynomials over GF(p), as coefficient
    tuples (ascending, length m+1), found by trial division."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    monics = {
        1: [(c, 1) for c in range(p)],
    }
    for deg in range(2, m + 1):
        monics[deg] = [tup + (1,) for tup in itertools.product(range(p), repeat=deg)]
    products = set()
    for deg_a in range(1, m):
        deg_b = m - deg_a
        if deg_b < deg_a:
            break
        for a in monics[deg_a]:
            for b in monics[deg_b]:
                products.add(poly_mul(a, b))
    return [f for f in monics[m] if f not in products]


def reference_is_irreducible(f, p):
    """Rabin's test for a monic f of degree m >= 1 over GF(p) with each
    X^(p^k) the power by p of the one before (m powers), and no root
    shortcut: X^(p^m) = X mod f and X^(p^(m/r)) - X coprime to f for
    every prime r | m."""
    m = len(f) - 1
    ring = PackedRing(p, f)
    x = ring.encode((0, 1)) if m > 1 else -f[0] % p  # X mod f
    frob_powers = [x]
    for _ in range(m):
        frob_powers.append(ring.power(frob_powers[-1], p))
    if frob_powers[m] != x:
        return False
    gf_p = make_field(p, 1)
    modulus = poly_from_ints(gf_p, f)
    for r in _prime_factors(m):
        diff = poly_from_ints(gf_p, ring.decode(ring.sub(frob_powers[m // r], x)))
        if poly_gcd(diff, modulus).degree != 0:
            return False
    return True


def gauss_irreducible_count(p, m):
    """The number of monic irreducibles of degree m over GF(p), by Gauss's
    formula (1/m) sum_{d | m} mu(d) p^(m/d)."""
    def mobius(d):
        primes = _prime_factors(d)
        return 0 if math.prod(primes) != d else (-1) ** len(primes)
    return sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


def reference_first_primitive(field):
    """The int of the first element in coefficient order with
    x^((q-1)/l) != 1 for every prime l | q - 1: one power per prime, in
    the packed ring of the field's modulus."""
    power = PackedRing(field.p, field.modulus).power
    n1 = field.order - 1
    cofactors = [n1 // f for f in _prime_factors(n1)]
    for x in field.ints():
        if x and all(power(x, k) != 1 for k in cofactors):
            return x
    raise AssertionError("no primitive element")


def coset_index_permutation(cosets, s, period):
    """Index permutation of the coset list induced by k -> s*k."""
    rep_index = {c[0]: i for i, c in enumerate(cosets)}
    if period <= 1:
        return [0] * len(cosets)
    return [rep_index[min((s * k) % period for k in c)] for c in cosets]


def brute_galois_selfdual_exists(params, h):
    """Does any coset function phi satisfy the p^h-self-duality conditions?

    Enumerates every function on the naive coset table and applies the
    order clause and the multiplier condition with raw integers only.
    """
    cosets = naive_cosets(params, 1)
    cap = params.p ** params.nu
    h_eff = h % params.e
    if (params.p ** h_eff + 1) % params.r != 0:
        return False
    s = (-(params.p ** h_eff)) % params.period if params.period > 1 else 0
    perm = coset_index_permutation(cosets, s, params.period)
    for vals in itertools.product(range(cap + 1), repeat=len(cosets)):
        if all(vals[perm[i]] == cap - vals[i] for i in range(len(cosets))):
            return True
    return False


def brute_iso_selfdual_exists(params):
    """Does any phi pair with some multiplier s = 1 mod r, gcd(s, n'r) = 1?"""
    cosets = naive_cosets(params, 1)
    cap = params.p ** params.nu
    perms = [coset_index_permutation(cosets, s, params.period)
             for s in reference_multipliers(params)]
    for vals in itertools.product(range(cap + 1), repeat=len(cosets)):
        for perm in perms:
            if all(vals[perm[i]] == cap - vals[i] for i in range(len(cosets))):
                return True
    return False


def reference_image_rep(params, members, s):
    """Rep of the coset s*Q: the least image of any member, mod n'r."""
    return min((s * k) % params.period for k in members)


def reference_s_orbits(params, cosets, s):
    """Orbits of Q -> sQ on the unit class, as lists of reps, by following
    every member's image; cosets is ``naive_cosets(params, 1)``.  Each
    orbit starts at its least rep."""
    reps = [c[0] for c in cosets]
    image = {c[0]: reference_image_rep(params, c, s) for c in cosets}
    orbits, done = [], set()
    for rep in reps:
        if rep in done:
            continue
        orbit = [rep]
        while image[orbit[-1]] != rep:
            orbit.append(image[orbit[-1]])
        done.update(orbit)
        orbits.append(orbit)  # reps ascend, so rep is the orbit's least
    return orbits


def reference_act(params, cosets, assignment, s):
    """(s*phi).assignment from phi.assignment, with each coset's image
    found from its members; cosets is ``naive_cosets(params, 1)``."""
    return {reference_image_rep(params, c, s): assignment[c[0]] for c in cosets}


def reference_multipliers(params):
    """Every s = 1 mod r in [1, n'r] coprime to n'r, ascending: one per
    residue mod n'r, so each action on q-cosets comes d times or more."""
    period = params.period
    return [s for s in range(1, period + 1, params.r) if math.gcd(s, period) == 1]


def reference_iso_witness_for(phi):
    """The least s of :func:`reference_multipliers` with s*phi = phibar
    (by ``act_is_complement``), walking every residue; else None."""
    return next((s for s in reference_multipliers(phi.params)
                 if phi.act_is_complement(s)), None)


def reference_iso_family_multiplier(params):
    """The least s of :func:`reference_multipliers` with a self-dual
    witness (``existence._witness``), walking every residue; else None."""
    return next((s for s in reference_multipliers(params)
                 if _witness(params, s) is not None), None)


def brute_iso_witness(phi):
    """Smallest s = 1 mod r, coprime to n'r, whose reference action sends
    phi to its complement; None when there is none."""
    params, assignment = phi.params, phi.assignment
    cap, cosets = params.p ** params.nu, naive_cosets(params, 1)
    comp = {k: cap - v for k, v in assignment.items()}
    return next((s for s in reference_multipliers(params)
                 if reference_act(params, cosets, assignment, s) == comp), None)


def even_orbit_multiplier(params):
    """Smallest s = 1 mod r, coprime to n'r, whose reference orbits on the
    unit class are all even; None when there is none."""
    cosets = naive_cosets(params, 1)
    return next((s for s in reference_multipliers(params)
                 if all(len(orbit) % 2 == 0
                        for orbit in reference_s_orbits(params, cosets, s))),
                None)


def factor_walk_order(x):
    """Multiplicative order of x by walking q-1 down its prime factors
    (trial division); integer powers in prime fields."""
    field = x.field
    order = field.order - 1
    primes, rest, f = [], order, 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)

    def is_one(k):
        if field.m == 1:
            return pow(x.coeffs[0], k, field.p) == 1
        return x ** k == field.one

    for f in primes:
        while order % f == 0 and is_one(order // f):
            order //= f
    return order


def reference_theta_dlog(params):
    """The log of theta by discrete logs: the log u of the embedded
    generator of GF(q), found by walking the order-(q-1) subgroup of
    GF(q^d), gives log lambda = (q^d-1)/(q-1) * (u * dlog lambda mod q-1);
    theta is g^(j(q^d-1)/n'r) for the least j in [1, n'r) coprime to n'r
    with j n (q^d-1)/n'r = log lambda mod q^d-1 (and 1 when n'r = 1).
    Needs dlog in GF(q), so q <= 2^16."""
    if params.period == 1:
        return 0
    field, big = params.field, params.big_field
    big_order = big.order - 1
    step = big_order // (params.q - 1)
    w = big.generator ** step
    img_gen = embed(field.generator, big)
    acc = big.one
    for u in range(params.q - 1):
        if acc == img_gen:
            break
        acc = acc * w
    else:
        raise AssertionError("embedded generator not in the order-(q-1) subgroup")
    lam_dlog = step * (u * field.dlog(params.lam) % (params.q - 1))
    m_step = big_order // params.period
    for j in range(1, params.period):
        if (math.gcd(j, params.period) == 1
                and (j * m_step * params.n - lam_dlog) % big_order == 0):
            return j * m_step
    raise AssertionError("no primitive n'r-th root theta with theta^n = lambda")


def reference_theta(params):
    """theta as the canonical generator of GF(q^d) to the power theta_dlog."""
    return params.big_field.generator ** params.theta_dlog


def reference_coset_poly(params, coset):
    """prod_{i in coset} (X - theta^i), one factor per member with theta^i
    = params.theta ** i, multiplied out in GF(q^d) and sectioned into
    GF(q) coefficient by coefficient."""
    big = params.big_field
    product = Poly(big, [big.one])
    for i in coset.members:
        product = product * Poly(big, [-(params.theta ** i), big.one])
    return Poly(params.field, [section(c, params.field) for c in poly_coeffs(product)])


def reference_cf_poly(params, phi):
    """prod_Q coset_poly(Q)^phi(Q) as a left fold over the cosets of phi's
    class, the accumulator taking one power per coset with phi(Q) != 0;
    no factor gives 1."""
    result = None
    for Q, mult in zip(params.cosets_on(phi.residue), phi.values()):
        if mult:
            factor = coset_poly(params, Q) ** mult
            result = factor if result is None else result * factor
    return Poly.wrap(params.field, [1]) if result is None else result


def reference_code_polys(code):
    """(check, generator) of a code built from phi, both as left folds of
    coset polynomials: reference_cf_poly of phi and of phibar."""
    return (reference_cf_poly(code.params, code.phi),
            reference_cf_poly(code.params, code.phi.complement()))


def brute_min_weight(code):
    """Minimum Hamming weight over every listed codeword; None for the zero code."""
    weights = [sum(1 for c in word if c) for word in enumerate_codewords(code)]
    return min((w for w in weights if w), default=None)


def _nu2_or_neg_inf(k):
    # nu_2(0) is taken as -infinity, so |nu_2(0)| dominates every comparison
    return -math.inf if k == 0 else nu(2, k)


def orbits_even_by_valuations(params, h):
    """Are all (-p^h)-orbits on the coset quotient set of even length?

    Decided through the four valuation inequalities (labels c1..c4); the
    closed-form case split in :func:`orbits_even_by_case` must agree.
    """
    p, e = params.p, params.e
    if params.nprime % 2 != 0 or params.r % 2 != 0:
        return None
    a = nu(2, p ** e - 1)
    b = nu(2, p ** h + 1)                     # = nu_2(-p^h - 1)
    c = abs(_nu2_or_neg_inf(1 - p ** h))      # = |nu_2(-p^h + 1)|
    d2 = nu(2, p ** e + 1)
    nr2 = nu(2, params.nprime * params.r)
    if a > b and nr2 > b:
        return "c1"
    if a == 1 and b > 1 and d2 + 1 > b and nr2 > b:
        return "c2"
    if a == 1 and b == 1 and c > d2 and nr2 > d2:
        return "c3"
    if a == 1 and b == 1 and c < d2 and c < nr2:
        return "c4"
    return None


def orbits_even_by_case(params, h):
    """Same question as orbits_even_by_valuations, by the p mod 4 case split."""
    p, e = params.p, params.e
    if params.nprime % 2 != 0 or params.r % 2 != 0:
        return None
    if p % 4 == 1:
        return "(i)"
    if e % 2 == 0 and h % 2 == 0:
        return "(ii)"
    if nu(2, params.nprime * params.r) > nu(2, p + 1):
        return "(iii)"
    return None


def reference_galois_verdict(params, h):
    """galois_selfdual_exists decided for one h on its own: the gate
    r | p^h + 1, the label, and a witness built afresh for -p^h."""
    _galois_h(params.e, h)
    p = params.p
    if (p ** h + 1) % params.r != 0:
        return ExistenceVerdict(False)
    if p == 2 and params.nu >= 1:
        label = "(i)"
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
    phi = _witness(params, -(p ** h))
    if phi is None:
        raise AssertionError("-p^h has an odd orbit in a family that exists")
    return ExistenceVerdict(True, label, phi)


SEARCH_COLUMNS = ["p", "e", "n", "lambda", "r", "nprime", "nu", "h",
                  "phi", "dim", "d_min", "selfdual", "iso_witness"]


def _text_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return value


def reference_lines(records, fmt, columns=None):
    """Dict records as the CLI writes them, by the standard library, each
    line ended by a newline: csv by csv.writer under a header of
    ``columns`` (the first record's keys by default), a row's cells its
    values there, json as json.dumps of each record, text as a k=v join of
    each record's items.  None is an empty cell outside json, a bool
    true or false, a dict or list its JSON.

    csv.writer quotes a cell holding a lone carriage return only from
    Python 3.13, and writes a row of one empty cell as a quoted empty
    cell; no CLI record holds either."""
    if fmt == "csv":
        columns = list(records[0]) if columns is None else columns
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_text_cell(r.get(c)) for c in columns] for r in records)
        return buf.getvalue()
    if fmt == "json":
        lines = [json.dumps(r) for r in records]
    else:
        lines = ["  ".join(f"{k}={_text_cell(v)}" for k, v in r.items()) for r in records]
    return "".join(line + "\n" for line in lines)


def reference_search_output(argv):
    """search's stdout for ``argv`` built row by row: each row a dict of
    SEARCH_COLUMNS cells, written by :func:`reference_lines` (csv under its
    header, also with no rows).  lambda = g^((q-1)/r)
    for every r | q - 1 found by trial division (only the wanted r with
    --orders), and the Galois verdict one h at a time."""
    args = build_parser().parse_args(argv)
    cap = _enum_cap(args.cap)
    rows = []
    for p in sorted(args.p_list):
        for e in sorted(args.e_list):
            q = p ** e
            field = make_field(p, e)
            orders = sorted(args.orders) if args.orders else range(1, q)
            lams = sorted((format_element(field.generator ** ((q - 1) // r)), r)
                          for r in orders if (q - 1) % r == 0)
            hs = sorted(args.h_list) if args.h_list else range(e + 1)
            for n in range(args.n_min, args.n_max + 1):
                for lam_text, r in lams:
                    params = derive_params(p, e, n, lam_text)
                    if args.max_cosets is not None and len(q_cosets(params, 1)) > args.max_cosets:
                        continue
                    if (args.max_multiplicity is not None
                            and p ** params.nu > args.max_multiplicity):
                        continue
                    _, iso_phi, iso_witness = selfdual_families(params).iso
                    for h in hs:
                        verdict = reference_galois_verdict(params, h)
                        phi = iso_phi if verdict.witness_phi is None else verdict.witness_phi
                        phi_cell, dim, d_min = "", None, None
                        if phi is not None:
                            phi_cell = ",".join(f"{k}:{v}" for k, v in phi.to_json().items())
                            dim = phi.weight()
                            if args.with_weights:
                                try:
                                    d_min = min_weight(build_code(params, phi), cap)
                                except ValueError:
                                    pass
                        rows.append(dict(zip(SEARCH_COLUMNS, (
                            p, e, n, lam_text, r, params.nprime, params.nu, h,
                            phi_cell, dim, d_min, verdict.exists, iso_witness))))
    return reference_lines(rows, args.format, SEARCH_COLUMNS)


def reference_euclidean_selfdual_exists(params):
    """The Euclidean (h = 0) theorem stated on its own terms (q mod 4 and
    lambda = +-1); the witness is the Galois one at h = 0."""
    one = params.field.one
    label = None
    if params.p == 2 and params.lam == one and params.nu >= 1:
        label = "(i)"
    elif params.q % 4 == 1 and params.lam == -one and params.nprime % 2 == 0:
        label = "(ii)"
    elif (params.q % 4 == 3 and params.lam == -one
          and nu(2, params.nprime) + 1 > nu(2, params.q + 1)):
        label = "(iii)"
    if label is None:
        return ExistenceVerdict(False)
    witness = galois_selfdual_exists(params, 0).witness_phi
    return ExistenceVerdict(True, label, witness)


def reference_hermitian_selfdual_exists(params):
    """The Hermitian (h = e/2) theorem stated on its own terms (p^(e/2)
    mod 4); the witness is the Galois one at h = e/2."""
    if params.e % 2 != 0:
        return ExistenceVerdict(False)
    p = params.p
    ph = p ** (params.e // 2)
    if (ph + 1) % params.r != 0:
        return ExistenceVerdict(False)
    label = None
    if p == 2 and params.nu >= 1:
        label = "(i)"
    elif ph % 4 == 1 and params.nprime % 2 == 0 and params.r % 2 == 0:
        label = "(ii)"
    elif (ph % 4 == 3 and params.nprime % 2 == 0 and params.r % 2 == 0
          and nu(2, params.nprime * params.r) > nu(2, ph + 1)):
        label = "(iii)"
    if label is None:
        return ExistenceVerdict(False)
    witness = galois_selfdual_exists(params, params.e // 2).witness_phi
    return ExistenceVerdict(True, label, witness)


def poly_xgcd(a, b):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    u0, u1 = Poly(field, [field.one]), Poly(field, [])
    v0, v1 = Poly(field, []), Poly(field, [field.one])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        raise ValueError("gcd of two zero polynomials")
    lead_inv = r0.field.wrap(r0.ints[-1]).inverse()
    return r0 * lead_inv, u0 * lead_inv, v0 * lead_inv


def poly_coeffs(poly):
    """poly's coefficients as FieldElements, ascending by degree."""
    return tuple(map(poly.field.wrap, poly.ints))


def poly_from_ints(field, ints):
    """The polynomial with these integers as coefficients, each taken
    through Z -> GF(p)."""
    return Poly.wrap(field, [v % field.p for v in ints])


def reference_map_int(emb):
    """The embedding's map on ints as a sum: a subfield int's coefficients
    times the powers 1, beta, ..., beta^(m-1) of the image of X, listed
    once, zero coefficients skipped; the identity when the two fields
    are one."""
    sub, sup = emb.sub, emb.sup
    if sub is sup:
        return lambda v: v
    mul, add = sup.mul, sup.add
    powers = [1]
    for _ in range(sub.m - 1):
        powers.append(mul(powers[-1], emb.beta))

    def map_int(v):
        out = 0
        for c, b in zip(sub.decode(v), powers):
            if c:
                out = add(out, mul(c, b))
        return out
    return map_int


def poly_eval(poly, x):
    """poly at x by Horner's rule; x may live in an extension of the
    coefficient field, which the canonical embedding maps into."""
    big = x.field
    ints = poly.ints
    if big is not poly.field:
        ints = list(map(poly.field.embedding_into(big).map_int, ints))
    acc = 0
    for c in reversed(ints):
        acc = big.add(big.mul(acc, x.v), c)
    return big.wrap(acc)


def parse_poly(data, field):
    """Inverse of ``polyring.poly_to_json`` (accepts any element-string encoding)."""
    return Poly(field, [parse_element(s, field) for s in data])


def code_from_generator(params, g):
    """Recover the code generated by a monic divisor of X^n - lambda.

    The complement multiplicities are read off by repeated exact division
    of g by each coset polynomial; no general factorization is needed.
    """
    if g.ints[-1:] != (1,):
        raise ValueError("not a constacyclic generator")
    if not (params.modulus_poly(1) % g).is_zero():
        raise ValueError("not a constacyclic generator")
    rem = g
    comp = {}
    cap = params.mult_cap
    for Q in params.cosets_on(1):
        fq = coset_poly(params, Q)
        mult = 0
        while mult < cap:
            quo, r = divmod(rem, fq)
            if not r.is_zero():
                break
            rem = quo
            mult += 1
        comp[Q.rep] = mult
    if rem.degree != 0:
        raise ValueError("not a constacyclic generator")
    phibar = CosetFunction(params, comp, 1)
    return build_code(params, phibar.complement())


def code_contains(code, elem):
    """Membership, checked through both characterizations.

    c is in the code iff the generator divides c, iff c * check = 0
    in the quotient ring; the two routes must agree.
    """
    if elem.params is not code.params or elem.s != code.residue:
        raise ValueError("element lives in a different ring")
    by_division = (elem.rep % code.generator).is_zero()
    check_elem = QuotientElem(code.params, code.residue, code.check)
    by_annihilation = not (elem * check_elem)
    assert by_division == by_annihilation, "membership routes disagree"
    return by_division


def reference_generator_rows(code):
    """The dim shifted copies of the generator as element tuples: the
    generator times X^i as a polynomial, its coefficients padded with zeros
    to length n.  The zero code has none."""
    field, n = code.params.field, code.params.n
    rows = []
    for i in range(code.dim):
        coeffs = poly_coeffs(code.generator * Poly.x_power(field, i))
        assert len(coeffs) <= n, "degree too large for vector length"
        rows.append(coeffs + (field.zero,) * (n - len(coeffs)))
    return rows


def reference_quotient_mul(a, b):
    """a * b in F_q[X]/(X^n - lambda^s) by the explicit wraparound sum on
    elements: coefficient k is sum_{i+j=k} a_i b_j
    + lambda^s * sum_{i+j=n+k} a_i b_j."""
    params, n = a.params, a.params.n
    unit = params.lam_power(a.s)
    out = [params.field.zero] * n
    for i, x in enumerate(a.vector()):
        for j, y in enumerate(b.vector()):
            if i + j < n:
                out[i + j] += x * y
            else:
                out[i + j - n] += unit * x * y
    return QuotientElem.from_vector(params, a.s, out)


def reference_isometry_apply(iso, elem):
    """M_s(elem) monomial by monomial on elements, for elem in R_{n,lambda^t}:
    with s = p^nu * s' and i * s'^-1 = k*n + j (s'^-1 mod n*r), a*X^i goes to
    a^(p^nu) * (lambda^(s*t))^k * X^j in R_{n,lambda^(s*t)}."""
    params, n = iso.params, iso.params.n
    sprime, nu = iso.s, 0
    while sprime % params.p == 0:
        sprime, nu = sprime // params.p, nu + 1
    inverse = pow(sprime, -1, n * params.r)
    unit = params.lam_power(iso.s * elem.s)
    out = [params.field.zero] * n
    for i, a in enumerate(elem.vector()):
        k, j = divmod(i * inverse, n)
        out[j] += a.frobenius(nu) * unit ** k
    return QuotientElem.from_vector(params, iso.s * elem.s, out)


def half_dimension_codes(params):
    """(ReferenceField, codes): every code of dimension n/2 in R_{n,lambda},
    found without q-cosets, as its n/2 rows X^i*g of coefficient tuples.

    X^n - lambda is factored by trial division (``ReferenceField.poly_divmod``)
    by the monic polynomials of degree d = 1, 2, ... while 2d is at most the
    degree left: each divisor found at degree d has no factor of lower
    degree left, so it is irreducible, and what is left at the end is 1 or
    irreducible.  By unique factorization, the monic divisors g of degree
    n/2 are the products of the sub-multisets of factors of that degree, one
    code each.  Odd n gives none: no code has dimension n/2.
    """
    ref, n = ReferenceField(params.field), params.n
    if n % 2:
        return ref, []
    rem = [ref.neg(params.lam.coeffs)] + [ref.zero] * (n - 1) + [ref.one]
    scalars = list(itertools.product(range(params.p), repeat=params.e))
    counts = {}  # irreducible factor -> multiplicity
    d = 1
    while 2 * d < len(rem):
        for low in itertools.product(scalars, repeat=d):
            g = (*low, ref.one)
            quot, r = ref.poly_divmod(rem, g)
            while not r:
                counts[g] = counts.get(g, 0) + 1
                rem = quot
                quot, r = ref.poly_divmod(rem, g)
        d += 1
    if len(rem) > 1:
        counts[tuple(rem)] = 1
    k, codes = n // 2, []
    for powers in itertools.product(*(range(c + 1) for c in counts.values())):
        if sum(j * (len(f) - 1) for f, j in zip(counts, powers)) == k:
            g = [ref.one]
            for f, j in zip(counts, powers):
                g = ref.poly_mul(g, ref.poly_pow(list(f), j))
            codes.append([[ref.zero] * i + g + [ref.zero] * (k - 1 - i) for i in range(k)])
    return ref, codes


def reference_pairing(ref, a, b, h):
    """sum_j a_j * b_j^(p^h) on coefficient tuples."""
    acc = ref.zero
    for x, y in zip(a, b):
        acc = ref.add(acc, ref.mul(x, ref.frobenius(y, h)))
    return acc


def code_level_galois_selfdual(ref, codes, h):
    """Is some code of ``half_dimension_codes`` p^h-self-dual?  Its rows
    pair to zero, so C lies in C^(perp h), which has dimension n - n/2."""
    return any(not any(any(reference_pairing(ref, a, b, h)) for a in rows for b in rows)
               for rows in codes)


def code_level_iso_selfdual(params, ref, codes, h):
    """Is C^(perp h) = M_t(C) for some code of ``half_dimension_codes`` and
    some isometry M_t into the ring of C^(perp h), lambda^(-p^(e-h))?  The
    isometries are t = p^k * s', k < e, s' in [1, n*r] prime to p*n*r;
    M_t is placed by ``reference_isometry_apply``, and the two spans are
    compared by their ``ReferenceField.rref``."""
    field, n, p, e, r = params.field, params.n, params.p, params.e, params.r
    isometries = [Isometry(params, p ** k * s) for k in range(e)
                  for s in range(1, n * r + 1) if math.gcd(s, p * n * r) == 1
                  and (p ** k * s + p ** (e - h)) % r == 0]
    for rows in codes:
        # x is in C^(perp h) iff sum_j c_j^(p^(e-h)) x_j = 0 for every row c
        twisted = [[ref.frobenius(x, e - h) for x in row] for row in rows]
        dual = ref.rref(reference_kernel(ref, twisted, n))[0]
        elems = [QuotientElem.from_vector(params, 1, [field.element(x) for x in row])
                 for row in rows]
        for iso in isometries:
            images = [[x.coeffs for x in reference_isometry_apply(iso, elem).vector()]
                      for elem in elems]
            if ref.rref(images)[0] == dual:
                return True
    return False


def nu2_power_pm1(k, d):
    """(nu_2(k^d - 1), nu_2(k^d + 1)) for odd |k| >= 3, without powering.

    Writing k = +-1 + 2^v * u with u odd and v >= 2, the 2-adic valuations
    of k^d -+ 1 follow a closed form split on k mod 4 and the parity of d.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if abs(k) < 3:
        raise ValueError("|k| must be at least 3")
    if d < 1:
        raise ValueError("d must be positive")
    if k % 4 == 1:
        v = nu(2, k - 1)
        return v + nu(2, d), 1
    v = nu(2, k + 1)
    if d % 2 == 1:
        return 1, v
    return v + nu(2, d), 1


def grid_instances(pe_pairs, n_max, max_cosets=6, max_multiplicity=9):
    """Canonical grid: one lambda per multiplicative order, filtered.

    The existence verdicts and coset structure depend on lambda only
    through its order r, so one representative per order covers every
    lambda orbit.
    """
    for p, e in pe_pairs:
        q = p ** e
        field = make_field(p, e)
        for n in range(1, n_max + 1):
            for r in [d for d in range(1, q) if (q - 1) % d == 0]:
                lam = field.generator ** ((q - 1) // r)
                params = derive_params(p, e, n, lam)
                if len(q_cosets(params, 1)) > max_cosets:
                    continue
                if p ** params.nu > max_multiplicity:
                    continue
                yield params


PE_PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]

# the full census grid: p <= 13, e <= 3, n <= 60 and every lambda order
CENSUS_PE_PAIRS = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3)]


def census_instances():
    """Every instance of the full census grid, one lambda per order, unfiltered."""
    return grid_instances(CENSUS_PE_PAIRS, 60, math.inf, math.inf)


def criterion6_codes():
    """(params, code) over acceptance criterion 6's grid (n <= 12): every
    coset function when there are at most 32, else the zero and full
    functions and six drawn ones."""
    return _sampled_codes(grid_instances(PE_PAIRS, 12), random.Random(1234))


def criterion6_wide_codes(n_max=20):
    """criterion6_codes(), then the instances with 12 < n <= n_max of the
    same grid, sampled by the same rule from a draw of their own."""
    yield from criterion6_codes()
    wider = (params for params in grid_instances(PE_PAIRS, n_max) if params.n > 12)
    yield from _sampled_codes(wider, random.Random(f"criterion 6 up to n = {n_max}"))


def _sampled_codes(instances, rng):
    """(params, code) for each instance by criterion 6's sampling rule,
    drawing from rng."""
    for params in instances:
        cosets = q_cosets(params, 1)
        cap = params.p ** params.nu
        if (cap + 1) ** len(cosets) <= 32:
            candidates = list(itertools.product(range(cap + 1), repeat=len(cosets)))
        else:
            candidates = [tuple([0] * len(cosets)), tuple([cap] * len(cosets))]
            candidates += [tuple(rng.randint(0, cap) for _ in cosets) for _ in range(6)]
        for vals in candidates:
            yield params, build_code(params, CosetFunction.from_values(params, list(vals)))


def rank_spans_equal(field, rows_a, rows_b):
    """Row-space equality by three ranks: each span's and the stacked
    matrix's (the oracle's first method)."""
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return False
    ra = Matrix(field, rows_a).rank()
    rb = Matrix(field, rows_b).rank()
    rab = Matrix(field, list(rows_a) + list(rows_b)).rank()
    return ra == rb == rab


def reference_dual_bases(code):
    """The oracle's dual basis for every h = 0, ..., e, on coefficient
    tuples and wrapped elements: ``ReferenceField.rref`` of
    generator_rows(), one kernel vector per free column, the kernel brought
    to its RREF by ``ReferenceField.rref`` (once, shared by every h), and
    each entry made an element and untwisted by ``FieldElement.frobenius``.
    The RREF is unique and untwisting keeps every 0 and 1, so each basis
    is the oracle's entry for entry."""
    field, n = code.params.field, code.params.n
    ref = ReferenceField(field)
    rows = [[x.coeffs for x in row] for row in code.generator_rows()]
    kernel = [[field.element(c) for c in vec]
              for vec in ref.rref(reference_kernel(ref, rows, n))[0]]
    return [[tuple(x.frobenius((field.m - h) % field.m) for x in vec) for vec in kernel]
            for h in range(field.m + 1)]


def reference_kernel(ref, rows, n):
    """A basis of {x : sum_j c_j * x_j = 0 for every row c} on coefficient
    tuples, one vector per free column of ``ref.rref(rows)``."""
    red, pivots = ref.rref(rows)
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [ref.zero] * n
        vec[free] = ref.one
        for row, c in zip(red, pivots):
            vec[c] = ref.neg(row[free])
        kernel.append(vec)
    return kernel


# ---------------------------------------------------------------------------
# reference arithmetic on coefficient tuples, independent of the int kernels
# ---------------------------------------------------------------------------

class ReferenceField:
    """GF(p^m) on coefficient tuples (ascending, length m), with the
    modulus of a library field.  Products are the coefficient convolution
    folded back by the rows X^(m+k) mod the modulus: the library's multiply
    before elements became ints, kept here as the reference."""

    def __init__(self, field):
        self.p, self.m, self.order = field.p, field.m, field.order
        p, m = self.p, self.m
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        # red[k] = X^(m+k) mod modulus, k = 0..m-2, by repeated shifts
        row = [(-c) % p for c in field.modulus[:m]]
        self.red = []
        for _ in range(m - 1):
            self.red.append(tuple(row))
            top = row[-1]
            row = [0] + row[:-1]
            row = [(r + top * c) % p for r, c in zip(row, self.red[0])]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        out = [c % p for c in conv[:m]]
        for k in range(m - 1):
            c = conv[m + k] % p
            if c:
                for j, rj in enumerate(self.red[k]):
                    out[j] = (out[j] + c * rj) % p
        return tuple(out)

    def pow(self, a, k):
        if not any(a):
            if k < 0:
                raise ZeroDivisionError("division by zero")
            return self.zero if k else self.one
        k %= self.order - 1
        out = self.one
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def inverse(self, a):
        return self.pow(a, self.order - 2)

    def frobenius(self, a, t):
        for _ in range(t % self.m):
            a = self.pow(a, self.p)
        return a

    # -- polynomials: lists of coefficient tuples, no trailing zeros ---------

    def _trim(self, poly):
        poly = list(poly)
        while poly and not any(poly[-1]):
            poly.pop()
        return poly

    def poly_mul(self, a, b):
        if not a or not b:
            return []
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return self._trim(out)

    def poly_divmod(self, a, b):
        rem = list(a)
        db = len(b) - 1
        lead_inv = self.inverse(b[-1])
        quot = [self.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = self.mul(rem[i], lead_inv)
            quot[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] = self.sub(rem[i - db + j], self.mul(c, y))
        return self._trim(quot), self._trim(rem[:db])

    def poly_pow(self, a, k):
        out = [self.one]
        for _ in range(k):
            out = self.poly_mul(out, a)
        return out

    def poly_gcd(self, a, b):
        a, b = self._trim(a), self._trim(b)
        while b:
            a, b = b, self.poly_divmod(a, b)[1]
        inv = self.inverse(a[-1])
        return [self.mul(c, inv) for c in a]

    # -- matrices: the Gaussian elimination the oracle ran on FieldElements --

    def rref(self, rows):
        mat = [list(row) for row in rows]
        pivots = []
        r = 0
        for c in range(len(mat[0]) if mat else 0):
            pivot = next((i for i in range(r, len(mat)) if any(mat[i][c])), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            inv = self.inverse(mat[r][c])
            mat[r] = [self.mul(x, inv) for x in mat[r]]
            for i in range(len(mat)):
                if i != r and any(mat[i][c]):
                    factor = mat[i][c]
                    mat[i] = [self.sub(x, self.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
            if r == len(mat):
                break
        return mat, pivots
