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

from .numtheory import _prime_factors


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
    clear.  f need not be irreducible: ``is_field`` decides it, and
    ``gf.make_field`` builds each candidate with ``PackedRing(p, f,
    layout)`` on the one ``PackedRing.layout(p, m)``: W, the slots and the
    mod-p constants depend on p and m only.  The Barrett quotient
    mu = X^(2m-2) div f is long division on one packed remainder whose
    slots are reduced only when read: each of its m - 1 steps adds at most
    (p - 1)^2 to a slot, and (m - 1) * (p - 1)^2 + 1 is far below
    2^(W - 1).  For m = 1 the packed int is the residue itself.
    """

    ACC = 32
    TERM_LIMIT = ACC - 1

    @classmethod
    def layout(cls, p: int, m: int) -> tuple:
        """W, the slot offsets and the mod-p constants of every ring of
        degree m over GF(p), as ``PackedRing(p, f, layout)`` takes them."""
        W = (cls.ACC * m * (p - 1) ** 2).bit_length() + 1
        mask = (1 << W) - 1
        slots = [W * i for i in range(m)]
        # every slot mod p at once: floor(x / p) is (x * M) >> shift exactly
        # for x < 2^(W-1); even and odd slots are multiplied apart so each
        # product has 2W bits of room
        shift = W - 1 + p.bit_length()
        M = -(-(1 << shift) // p)
        even = sum(mask << (2 * W * j) for j in range(m))
        qmask = sum(((1 << (2 * W - shift)) - 1) << (2 * W * j) for j in range(m))
        ones = sum(1 << slot for slot in slots)
        wrap = ((1 << (W - 1)) - p) * ones
        return W, mask, slots, shift, M, even, qmask, p * ones, wrap

    def __init__(self, p: int, f, layout=None):
        m = len(f) - 1
        self.p, self.m = p, m
        W, mask, slots, shift, M, even, qmask, P, wrap = layout or self.layout(p, m)

        def pack(vals):
            return sum((c % p) << slot for c, slot in zip(vals, slots))

        # Barrett division by f: mu = X^(2m-2) div f over GF(p), quotient
        # slot i from the top
        NEG_F, MU, rem = pack([-c for c in f[:m]]), 0, 1 << W * (2 * m - 2)
        for i in range(m - 2, -1, -1):
            c = (rem >> W * (i + m) & mask) % p
            if c:
                MU |= c << W * i
                rem += c * NEG_F << W * i
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
            for i in range(2, m):  # below X^m, X^(ip) is its own residue
                rows.append(1 << W * i * p if i * p < m else reduce(rows[-1] * rows[1]))

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

    def is_field(self) -> bool:
        """Whether f is irreducible, so that the ring is GF(p^m): Rabin's test.

        f is irreducible iff X^(p^m) = X mod f and X^(p^(m/r)) - X is
        coprime to f for every prime r dividing m (Rabin, SIAM J. Comput. 9,
        1980).  Each X^(p^k), k = 1, ..., m, is the Frobenius step x -> x^p
        from the one before.  Coprimality is decided in the ring: once
        X^(p^m) = X mod f, f divides X^(p^m) - X, so it is squarefree with
        factors of degrees d | m and the ring is a product of fields
        GF(p^d); a residue u is then coprime to f iff it is a unit, iff
        u^(p^m - 1) = N^(p - 1) is 1, N the product of the m images
        u^(p^i).  For u = X^(p^s) - X those are X^(p^(s+i)) - X^(p^i), read
        off the Frobenius steps, so N takes m products and no power of X.
        """
        p, m = self.p, self.m
        if m == 1:
            return True
        x, mul, sub = self.encode((0, 1)), self.mul, self.sub
        frob_powers = [x]  # X^(p^k)
        for _ in range(m):
            frob_powers.append(self.frob(frob_powers[-1], 1))
        if frob_powers[m] != x:
            return False
        for r in _prime_factors(m):
            norm = 1
            for i in range(m):
                norm = mul(norm, sub(frob_powers[(i + m // r) % m], frob_powers[i]))
            if self.power(norm, p - 1) != 1:
                return False
        return True
