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
closed form of acceptance criterion 7, and the parser of the JSON
polynomial form.
"""

import itertools
import math

from constagalois import (CosetFunction, ExistenceVerdict, Poly, QuotientElem,
                          build_code, coset_poly, derive_params,
                          galois_selfdual_exists, make_field, nu, parse_element,
                          q_cosets)
from constagalois.codes import enumerate_codewords
from constagalois.oracle import naive_cosets


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
    perms = []
    for k in range(params.nprime):
        s = 1 + params.r * k
        if math.gcd(s, params.period) != 1:
            continue
        perms.append(coset_index_permutation(cosets, s, params.period))
    for vals in itertools.product(range(cap + 1), repeat=len(cosets)):
        for perm in perms:
            if all(vals[perm[i]] == cap - vals[i] for i in range(len(cosets))):
                return True
    return False


def reference_image_rep(params, members, s):
    """Rep of the coset s*Q: the least image of any member, mod n'r."""
    return min((s * k) % params.period for k in members)


def reference_s_orbits(params, s):
    """Orbits of Q -> sQ on the unit class, as lists of reps, by following
    every member's image; each orbit starts at its least rep."""
    cosets = naive_cosets(params, 1)
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


def reference_act(phi, s):
    """(s*phi).assignment, with each coset's image found from its members."""
    params = phi.params
    return {reference_image_rep(params, c, s): phi.assignment[c[0]]
            for c in naive_cosets(params, 1)}


def brute_iso_witness(phi):
    """Smallest s = 1 mod r, coprime to n'r, whose reference action sends
    phi to its complement; None when there is none."""
    params = phi.params
    cap = params.p ** params.nu
    comp = {k: cap - v for k, v in phi.assignment.items()}
    for k in range(params.nprime):
        s = 1 + params.r * k
        if math.gcd(s, params.period) == 1 and reference_act(phi, s) == comp:
            return s
    return None


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
    img_gen = field.embedding_into(big)(field.generator)
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
    lead_inv = r0.coeffs[-1].inverse()
    return r0 * lead_inv, u0 * lead_inv, v0 * lead_inv


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
