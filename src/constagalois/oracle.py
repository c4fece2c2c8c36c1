"""Brute-force ground truth used to validate the closed-form machinery.

Nothing here goes through the coset calculus: duals are computed by
Gaussian elimination on generator matrices, code equality by comparing
codeword sets or row spans, and coset tables by literal orbit closure.
Exponential cost is fine; these run at desk scale only.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

from .codes import ConstaCode, enumerate_codewords, linear_combinations
from .cosets import CodeParams
from .gf import Field, FieldElement


class Matrix:
    """A dense matrix over a finite field; just enough linear algebra.

    Entries are kept as the field's element ints (``ints``).
    """

    def __init__(self, field: Field, entries: Sequence[Sequence[FieldElement]]):
        self.field = field
        self.ints = [[x.v for x in row] for row in entries]
        self.rows = len(self.ints)
        self.cols = len(self.ints[0]) if self.ints else 0
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            if any(x.field is not field for x in row):
                raise ValueError("mixed fields")

    @classmethod
    def wrap(cls, field: Field, ints: List[List[int]]) -> "Matrix":
        """The matrix with these rows of element ints."""
        mat = cls(field, [])
        mat.ints, mat.rows = ints, len(ints)
        mat.cols = len(ints[0]) if ints else 0
        return mat

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and the pivot column list."""
        field = self.field
        mul, neg, inv, add_scaled = field.mul, field.neg, field.inv, field.add_scaled
        mat = [row[:] for row in self.ints]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, len(mat)):
                if mat[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            scale = inv(mat[r][c])
            row_r = mat[r] = [mul(x, scale) for x in mat[r]]
            for i in range(len(mat)):
                factor = mat[i][c]
                if i != r and factor:
                    mat[i] = add_scaled(mat[i], neg(factor), row_r)
            pivots.append(c)
            r += 1
            if r == len(mat):
                break
        return Matrix.wrap(field, mat), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[tuple]:
        """A basis of the right kernel {v : M v = 0}."""
        red, pivots = self.rref()
        neg, wrap = self.field.neg, self.field.wrap
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [0] * self.cols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = neg(red.ints[r][fc])
            basis.append(tuple(map(wrap, vec)))
        return basis


def span(field: Field, rows: Sequence[tuple], cap: int = 1 << 16) -> Set[tuple]:
    """All linear combinations of the given rows."""
    if field.order ** len(rows) > cap:
        raise ValueError("enumeration too large")
    return set(linear_combinations(field, rows, len(rows[0]) if rows else 0))


def generator_matrix(code: ConstaCode) -> Matrix:
    return Matrix(code.params.field, code.generator_rows())


def dual_basis_of_rows(field: Field, rows: Sequence[tuple], n: int,
                       h: int) -> List[tuple]:
    """Basis of the p^h-dual of the span of the given length-n rows.

    Solve G b = 0 for the twisted vector b (b_i = a_i^(p^h)), then untwist
    each basis vector through the inverse Frobenius.  The untwisted basis
    spans the dual because untwisting is a semilinear bijection.
    """
    if rows:
        kernel = Matrix(field, rows).kernel_basis()
    else:
        kernel = [tuple(field.one if j == i else field.zero for j in range(n))
                  for i in range(n)]
    back = (field.m - h) % field.m
    frob, wrap = field.frob, field.wrap
    return [tuple(wrap(frob(b.v, back)) for b in vec) for vec in kernel]


def dual_basis(code: ConstaCode, h: int) -> List[tuple]:
    """Basis of the p^h-dual of a constacyclic code, by the rank method."""
    return dual_basis_of_rows(code.params.field, code.generator_rows(),
                              code.params.n, h)


def brute_dual(code: ConstaCode, h: int, cap: int = 1 << 16) -> Set[tuple]:
    """Every vector pairing to zero with the whole code under <.,.>_h."""
    basis = dual_basis(code, h)
    return span(code.params.field, basis, cap) if basis else {
        tuple(code.params.field.zero for _ in range(code.params.n))}


def brute_equal_codes(words: Set[tuple], code: ConstaCode,
                      cap: int = 1 << 16) -> bool:
    return words == set(enumerate_codewords(code, cap))


def spans_equal(field: Field, rows_a: Sequence[tuple],
                rows_b: Sequence[tuple]) -> bool:
    """Row-space equality by three rank computations."""
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return False
    ra = Matrix(field, rows_a).rank()
    rb = Matrix(field, rows_b).rank()
    rab = Matrix(field, list(rows_a) + list(rows_b)).rank()
    return ra == rb == rab


def naive_cosets(params: CodeParams, s: int = 1) -> List[tuple]:
    """The q-coset partition of s + r*Z mod n'r by literal orbit closure."""
    if math.gcd(s, params.period) != 1:
        raise ValueError("s must be coprime to n'r")
    period = params.period
    ambient = sorted({(s + params.r * k) % period for k in range(params.nprime)})
    cosets = []
    done = set()
    for a in ambient:
        if a in done:
            continue
        orbit = set()
        k = a
        while k not in orbit:
            orbit.add(k)
            done.add(k)
            k = (k * params.q) % period
        cosets.append(tuple(sorted(orbit)))
    cosets.sort()
    return cosets
