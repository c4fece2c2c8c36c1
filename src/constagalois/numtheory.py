"""Valuations, primality and factoring of integers: the characteristic
p and the group order p^m - 1 of every field ``gf`` builds, and the
p-parts of lengths and multipliers, with the standard library only."""

from __future__ import annotations

import itertools
import math
from typing import Tuple

# Strong probable-prime tests to the first 13 primes are exact below PSI_13
# (Sorenson and Webster, Math. Comp. 86, 2017); above it _isprime is
# Baillie-PSW (Baillie and Wagstaff, Math. Comp. 35, 1980).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def p_split(p: int, k: int) -> Tuple[int, int]:
    """(v, k / p^v) for the p-adic valuation v of a nonzero integer k."""
    if k == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v, k


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 41: D is
    the first of 5, -7, 9, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and n > |D|
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    s, d = p_split(2, n + 1)
    U, V, Qk = 1, 1, Q % n  # (U_k, V_k, Q^k) mod n, k running up the bits of d
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    for _ in range(s):  # U_d, then V_(d 2^t) for t < s
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _isprime(n: int) -> bool:
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s, d = p_split(2, n - 1)
    for a in _MR_BASES if n < _PSI_13 else (2,):  # strong probable prime to a?
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return n < _PSI_13 or _strong_lucas_probable_prime(n)


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Brent's rho on x^2 + c."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):  # gcd once per 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                if (g := math.gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, ascending."""
    primes = set()
    for f in itertools.chain((2,), range(3, 1 << 10, 2)):
        if f * f > n:  # what is left of n is 1 or a prime
            break
        while n % f == 0:
            primes.add(f)
            n //= f
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _isprime(m):
            primes.add(m)
        else:
            f = _rho_factor(m)
            rest += [f, m // f]
    return sorted(primes)


def _group_order_factors(p: int, m: int) -> list:
    """The distinct prime factors of p^m - 1, ascending.

    p^m - 1 is the product of the cyclotomic values Phi_d(p) over d | m,
    so each value is factored apart: rho then meets factors the size of
    Phi_d(p), not of p^m - 1.  Phi_d(p) is p^d - 1 divided by the values
    of the proper divisors of d, in integers."""
    values, primes = {}, set()
    for d in (d for d in range(1, m + 1) if m % d == 0):
        value = p ** d - 1
        for k, smaller in values.items():
            if d % k == 0:
                value //= smaller
        values[d] = value
        primes.update(_prime_factors(value))
    return sorted(primes)
