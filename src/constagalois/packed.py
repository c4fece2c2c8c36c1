"""GF(p)[X]/(f) on packed ints: the kernel of the larger fields.

A residue mod a monic f of degree m over GF(p) is one int holding its m
coefficients in W-bit slots.  Products are one big-int (Kronecker)
product, reduced mod p in every slot at once and brought below f by
Barrett division; sums use guard bits.  Its packed int is the element
encoding of every ``gf`` field: fields with q > 2^10 run their
arithmetic on this ring, and the smaller fields key their log tables by
its ints.
"""

from __future__ import annotations


class PackedRing:
    """Arithmetic in GF(p)[X]/(f) for a monic f of degree m, on packed ints.

    Coefficient i of a residue sits in bits [W*i, W*i + W); W (the
    attribute ``W``) is the least width with ACC * m * (p - 1)^2 <
    2^(W - 1).  The slot invariant: every slot that ``reduce`` reduces mod
    p is below 2^(W - 1).  A product of two residues puts at most m
    products (p - 1)^2 in a slot, and ``poly_mul`` sums at most TERM_LIMIT
    = ACC - 1 of them per coefficient.  ``reduce`` leaves the m low slots
    of its input unreduced until the end, when they also hold the Barrett
    correction's m - 1 products, so a low slot holds at most
    ((ACC - 1) * m + m - 1) * (p - 1)^2 < ACC * m * (p - 1)^2.  The
    guard-bit sums need residues below p and the top bit of every slot
    clear.  f need not be irreducible: ``gf._is_irreducible`` runs its
    candidates through here.  For m = 1 the packed int is the residue
    itself.
    """

    ACC = 32
    TERM_LIMIT = ACC - 1

    def __init__(self, p: int, f):
        m = len(f) - 1
        W = (self.ACC * m * (p - 1) ** 2).bit_length() + 1
        mask = (1 << W) - 1
        slots = [W * i for i in range(m)]
        ones = sum(1 << slot for slot in slots)

        # every slot mod p at once: floor(x / p) is (x * M) >> shift exactly
        # for x < 2^(W-1); even and odd slots are multiplied apart so each
        # product has 2W bits of room
        shift = W - 1 + p.bit_length()
        M = -(-(1 << shift) // p)
        even = sum(mask << (2 * W * j) for j in range(m))
        qmask = sum(((1 << (2 * W - shift)) - 1) << (2 * W * j) for j in range(m))

        def pack(vals):
            return sum((c % p) << slot for c, slot in zip(vals, slots))

        # Barrett division by f: mu = X^(2m-2) div f over GF(p)
        rem = [0] * (2 * m - 2) + [1]
        mu = [0] * (m - 1)
        for i in range(2 * m - 2, m - 1, -1):
            c = rem[i] % p
            if c:
                mu[i - m] = c
                for j in range(m + 1):
                    rem[i - m + j] -= c * f[j]
        MU, NEG_F = pack(mu), pack([-c for c in f[:m]])
        low_bits, q_shift = W * m, W * (m - 2)
        low = (1 << low_bits) - 1

        def reduce(u):
            """The residue of an unreduced product or sum of products.

            Each step reduces mod p only the slots it reads: the m - 1 high
            slots before the Barrett quotient, the quotient after its shift,
            and the m low slots once, at the end.  An m-slot sum has no high
            slots, so there it is one pass mod p."""
            hi = u >> low_bits
            if hi:  # never so for m = 1
                hi -= p * (((((hi & even) * M) >> shift) & qmask)
                           | (((((hi >> W) & even) * M) >> shift) & qmask) << W)
                quot = (hi * MU) >> q_shift               # u div f
                quot -= p * (((((quot & even) * M) >> shift) & qmask)
                             | (((((quot >> W) & even) * M) >> shift) & qmask) << W)
                u = (u & low) + ((quot * NEG_F) & low)
            return u - p * (((((u & even) * M) >> shift) & qmask)
                            | (((((u >> W) & even) * M) >> shift) & qmask) << W)

        P = p * ones
        wrap = ((1 << (W - 1)) - p) * ones
        guard = wrap + P

        def add(a, b):
            t = a + b
            return t - (((t + wrap) & guard) >> (W - 1)) * p

        def sub(a, b):
            t = a + P - b
            return t - (((t + wrap) & guard) >> (W - 1)) * p

        def neg(a):
            t = P - a
            return t - (((t + wrap) & guard) >> (W - 1)) * p

        def mul(a, b):
            return reduce(a * b)

        def power(a, k):
            """a^k for k >= 0: square-and-multiply from the top bit of k
            down, so no product is by 1."""
            if not k:
                return 1
            out = a
            for bit in bin(k)[3:]:
                out = reduce(out * out)
                if bit == "1":
                    out = reduce(out * a)
            return out

        # the images X^(ip) of X^i, i < m, under the GF(p)-linear x -> x^p
        rows = [1]
        if m > 1:
            rows.append(power(1 << W, p))
            for _ in range(m - 2):
                rows.append(reduce(rows[-1] * rows[1]))

        def frob(a, t):
            """a^(p^t) for 0 <= t < m: t passes of x -> x^p, each the sum
            of a's coefficients times the rows."""
            for _ in range(t):
                acc = 0
                for row in rows:
                    if not a:
                        break
                    c = a & mask
                    if c:
                        acc += c * row
                    a >>= W
                a = reduce(acc)
            return a

        chunk = W * (2 * m - 1)
        chunk_mask = (1 << chunk) - 1
        acc_max = self.TERM_LIMIT

        def poly_mul(a, b):
            """Product of two coefficient lists: one Kronecker product of the
            packed polynomials, then one reduction per coefficient."""
            if not a or not b:
                return []
            if len(a) < len(b):
                a, b = b, a
            if len(b) > acc_max:  # more terms per coefficient than W allows
                out = [0] * (len(a) + len(b) - 1)
                for lo in range(0, len(b), acc_max):
                    for k, c in enumerate(poly_mul(a, b[lo:lo + acc_max]), lo):
                        out[k] = add(out[k], c)
                return out
            A = B = 0
            for c in reversed(a):
                A = A << chunk | c
            for c in reversed(b):
                B = B << chunk | c
            prod = A * B
            out = []
            for _ in range(len(a) + len(b) - 1):
                out.append(reduce(prod & chunk_mask))
                prod >>= chunk
            return out

        def add_scaled(xs, c, ys):
            """xs[i] + c * ys[i] for every i."""
            return [reduce(x + c * y) if y else x for x, y in zip(xs, ys)]

        self.add, self.sub, self.neg, self.mul, self.power = add, sub, neg, mul, power
        self.frob, self.poly_mul, self.add_scaled = frob, poly_mul, add_scaled
        self.encode, self.W = pack, W
        self.decode = lambda v: tuple([(v >> slot) & mask for slot in slots])
