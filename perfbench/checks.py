"""Per-op output checks, run after the timed phase.

Each check re-derives what it can without the closed forms it is
checking: coset tables come from ``oracle.naive_cosets``, minimum weights
from ``oracle.span``, and field arithmetic on the printed ``g^k``
encodings from discrete-log tables built here from the canonical modulus
and generator.  ``check_op`` raises ``CheckFailed`` on a wrong answer.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Tuple

from constagalois import codes, cosets, gf, oracle

from workloads import WEIGHTS_CAP, Op, divisors, lambda_text


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# GF(q) by discrete logs: 0 is zero, k + 1 is g^k
# ---------------------------------------------------------------------------

class LogField:
    """GF(p^e) on the library's canonical modulus and generator, with
    products as log sums and sums from a full addition table."""

    def __init__(self, p: int, e: int, modulus, generator):
        self.p, self.e, self.q = p, e, p ** e
        zero = (0,) * e
        vec = (1,) + (0,) * (e - 1)
        vecs = [zero]
        for _ in range(self.q - 1):
            vecs.append(vec)
            vec = self._vec_mul(vec, generator, modulus)
        index = {v: i for i, v in enumerate(vecs)}
        require(len(index) == self.q, f"generator of GF({p}^{e}) is not primitive")
        self._index = index
        self.add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs]
                    for a in vecs]
        self.neg = [index[tuple(-x % p for x in a)] for a in vecs]

    def _vec_mul(self, a, b, modulus):
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):       # modulus is monic of degree e
            c = conv[k] % p
            if c:
                for j in range(e + 1):
                    conv[k - e + j] -= c * modulus[j]
        return tuple(c % p for c in conv[:e])

    def parse(self, text: str) -> int:
        if text == "0":
            return 0
        if text == "1":
            return 1
        if text.startswith("g^"):
            return int(text[2:]) % (self.q - 1) + 1
        require(text.startswith("[") and text.endswith("]"), f"bad element {text!r}")
        return self._index[tuple(int(c) % self.p for c in text[1:-1].split(","))]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return (a + b - 2) % (self.q - 1) + 1

    def power(self, a: int, k: int) -> int:
        if not a:
            return 0 if k else 1
        return (a - 1) * k % (self.q - 1) + 1

    def poly_mul(self, f: List[int], g: List[int]) -> List[int]:
        out = [0] * (len(f) + len(g) - 1)
        add, mul = self.add, self.mul
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = add[out[i + j]][mul(a, b)]
        return out


_LOG_FIELDS: Dict[Tuple[int, int], LogField] = {}


def log_field(p: int, e: int) -> LogField:
    field = _LOG_FIELDS.get((p, e))
    if field is None:
        canonical = gf.make_field(p, e)
        field = LogField(p, e, canonical.modulus, canonical.generator.coeffs)
        _LOG_FIELDS[(p, e)] = field
    return field


# ---------------------------------------------------------------------------
# census and weights: one CSV row per (n, lambda, h)
# ---------------------------------------------------------------------------

class _Grid:
    """The attributes ``oracle.naive_cosets`` reads, from plain integers."""

    def __init__(self, q: int, r: int, nprime: int):
        self.q, self.r, self.nprime, self.period = q, r, nprime, nprime * r


_COSETS: Dict[Tuple[int, int, int], List[tuple]] = {}
_MIN_WEIGHTS: Dict[tuple, int] = {}


def _naive_cosets(q: int, r: int, nprime: int) -> List[tuple]:
    key = (q, r, nprime)
    table = _COSETS.get(key)
    if table is None:
        table = _COSETS[key] = oracle.naive_cosets(_Grid(q, r, nprime), 1)
    return table


def _pairs_up(phi: Dict[int, int], table: List[tuple], s: int, period: int,
              cap: int) -> bool:
    """phi(Q) + phi(sQ) = p^nu on every coset Q."""
    rep_of = {k: Q[0] for Q in table for k in Q}
    return all(phi[Q[0]] + phi[rep_of[s * Q[0] % period]] == cap for Q in table)


def _orbits_admit_witness(table: List[tuple], s: int, period: int,
                          cap: int) -> bool:
    """Some phi with s*phi = phibar exists iff every orbit of Q -> sQ has
    even length, or p^nu is even (then phi = p^nu / 2 works)."""
    if cap % 2 == 0:
        return True
    rep_of = {k: Q[0] for Q in table for k in Q}
    seen = set()
    for Q in table:
        length, rep = 0, Q[0]
        while rep not in seen:
            seen.add(rep)
            length += 1
            rep = rep_of[s * rep % period]
        if length % 2:
            return False
    return True


def _oracle_min_weight(p, e, n, lam, phi_text) -> int:
    key = (p, e, n, lam, phi_text)
    best = _MIN_WEIGHTS.get(key)
    if best is None:
        params = cosets.derive_params(p, e, n, lam)
        phi = dict(map(int, item.split(":")) for item in phi_text.split(","))
        code = codes.build_code(params, cosets.CosetFunction(params, phi))
        words = oracle.span(params.field, code.generator_rows(), WEIGHTS_CAP)
        best = _MIN_WEIGHTS[key] = min(sum(1 for c in w if c) for w in words if any(w))
    return best


def _check_row(row: Dict[str, str], p: int, e: int, weights: bool) -> None:
    q = p ** e
    n, r, h = int(row["n"]), int(row["r"]), int(row["h"])
    nu, nprime = int(row["nu"]), int(row["nprime"])
    where = f"p={p} e={e} n={n} r={r} h={h}"
    require(int(row["p"]) == p and int(row["e"]) == e, f"{where}: wrong field")
    require(n == p ** nu * nprime and nprime % p != 0, f"{where}: wrong n = p^nu n'")
    require(row["lambda"] == lambda_text(q, r), f"{where}: lambda is not of order r")
    cap = p ** nu
    period = nprime * r
    table = _naive_cosets(q, r, nprime)
    phi = {}
    if row["phi"]:
        phi = dict(map(int, item.split(":")) for item in row["phi"].split(","))
        require(sorted(phi) == [Q[0] for Q in table], f"{where}: phi domain != coset reps")
        require(all(0 <= v <= cap for v in phi.values()), f"{where}: phi out of range")
        require(int(row["dim"]) == sum(phi[Q[0]] * len(Q) for Q in table),
                f"{where}: dim != weight of phi")
    else:
        require(row["dim"] == "", f"{where}: dim without phi")
    require(row["selfdual"] in ("true", "false"), f"{where}: bad selfdual field")
    if row["selfdual"] == "true":
        h_eff = h % e
        require(bool(phi), f"{where}: self-dual without a witness")
        require((p ** h_eff + 1) % r == 0, f"{where}: r does not divide p^h + 1")
        require(_pairs_up(phi, table, -(p ** h_eff), period, cap),
                f"{where}: witness phi is not p^h-self-dual")
        require(2 * int(row["dim"]) == n, f"{where}: self-dual dim != n/2")
    elif phi:
        # phi is the isometric witness, so it must pair up under s
        require(row["iso_witness"] != "", f"{where}: phi without any witness")
        require(_pairs_up(phi, table, int(row["iso_witness"]), period, cap),
                f"{where}: s*phi != phibar for the printed s")
    if row["iso_witness"]:
        s = int(row["iso_witness"])
        require((s - 1) % r == 0 and math.gcd(s, period) == 1,
                f"{where}: iso witness {s} is not a unit = 1 mod r")
        require(_orbits_admit_witness(table, s, period, cap),
                f"{where}: no phi satisfies s*phi = phibar for s={s}")
    if not weights:
        require(row["d_min"] == "", f"{where}: census printed a weight")
        return
    dim = int(row["dim"]) if row["dim"] else 0
    if not phi or dim == 0 or q ** dim > WEIGHTS_CAP:
        require(row["d_min"] == "", f"{where}: weight printed beyond the cap")
        return
    d_min = int(row["d_min"]) if row["d_min"] else None
    require(d_min is not None, f"{where}: weight missing under the cap")
    require(1 <= d_min <= n - dim + 1, f"{where}: d_min={d_min} breaks the Singleton bound")
    expected = _oracle_min_weight(p, e, n, row["lambda"], row["phi"])
    require(d_min == expected, f"{where}: d_min={d_min}, oracle span says {expected}")


def check_search(p: int, e: int, lengths, orders, text: str, weights: bool) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    seen = sorted((int(r["n"]), int(r["r"]), int(r["h"])) for r in rows)
    wanted = [(n, r, h) for n in lengths for r in orders for h in range(e + 1)]
    require(seen == wanted, f"p={p} e={e}: rows do not cover n x r x h")
    for row in rows:
        _check_row(row, p, e, weights)


# ---------------------------------------------------------------------------
# construct and verify
# ---------------------------------------------------------------------------

def _code_rows_orthogonal(F: LogField, g: List[int], dim: int, b: List[int],
                          dim_b: int, h: int) -> bool:
    """<X^i g, X^j b>_h = 0 for all i < dim, j < dim_b.

    The rows are unreduced shifts, so the product of row i with row j is
    the correlation of g with b^(p^h) at offset i - j; computing every
    offset covers every pair of rows.
    """
    twisted = [F.power(c, F.p ** h) for c in b]
    for k in range(-(dim_b - 1), dim):
        acc = 0
        for u, c in enumerate(g):
            v = u + k
            if 0 <= v < len(twisted):
                acc = F.add[acc][F.mul(c, twisted[v])]
        if acc:
            return False
    return True


def check_construct(args, text: str) -> None:
    p, e, n, lam, phi = args
    F = log_field(p, e)
    record = json.loads(text)
    code = record["code"]
    require(code["phi"] == {str(k): v for k, v in phi}, "code has another phi")
    lam_idx = F.parse(lam)
    g = [F.parse(c) for c in code["generator"]]
    dim = code["dim"]
    require(len(code["check"]) == dim + 1, "deg check != dim")
    _check_factors(F, code, lam_idx, n, "code")
    require(len(record["duals"]) == e + 1, "one dual per h expected")
    for h, dual in enumerate(record["duals"]):
        _check_factors(F, dual, lam_idx, n, f"h={h} dual")
        require(dim + dual["dim"] == n, f"h={h}: dim C + dim C^perp != n")
        require(_code_rows_orthogonal(F, g, dim, [F.parse(c) for c in dual["generator"]],
                                      dual["dim"], h),
                f"h={h}: dual row not orthogonal to a code row")


def _check_factors(F: LogField, rec: dict, lam_idx: int, n: int, what: str) -> None:
    """check * generator = X^n - lambda^residue."""
    gen = [F.parse(c) for c in rec["generator"]]
    chk = [F.parse(c) for c in rec["check"]]
    unit = F.power(lam_idx, rec["residue"])
    require(F.poly_mul(chk, gen) == [F.neg[unit]] + [0] * (n - 1) + [1],
            f"{what}: check * generator != X^n - lambda^s")


def check_verify(args, text: str) -> None:
    p, e, n, lam, phi, h = args
    record = json.loads(text)
    require(record["spans_equal"] is True, f"p={p} e={e} n={n} h={h}: spans differ")
    require(record["closed_rows"] == record["oracle_rows"] == n - record["dim"],
            f"p={p} e={e} n={n} h={h}: dual dimension != n - dim")


def check_op(op: Op, text: str) -> None:
    kind, args = op
    if kind == "census":
        p, e, lo, hi = args
        check_search(p, e, range(lo, hi + 1), divisors(p ** e - 1), text, weights=False)
    elif kind == "weights":
        p, e, n, r = args
        check_search(p, e, [n], [r], text, weights=True)
    elif kind == "construct":
        check_construct(args, text)
    else:
        check_verify(args, text)
