"""Brute-force ground truth used to validate the closed-form machinery.

Nothing here goes through the coset calculus: duals are computed by
Gaussian elimination on generator matrices, code equality by comparing
codeword sets or row spans, and coset tables by literal orbit closure.
Exponential cost is fine; these run at desk scale only.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

from .codes import ConstaCode, enumerate_codewords, linear_combinations
from .cosets import CodeParams
from .gf import Field, FieldElement

_new = object.__new__


class Matrix:
    """A dense matrix over a finite field; just enough linear algebra.

    Entries are kept as the field's element ints (``ints``).
    """

    def __init__(self, field: Field, entries: Sequence[Sequence[FieldElement]]):
        cols = len(entries[0]) if entries else 0
        ints = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            ints.append([x.v for x in row if x.field is field])
            if len(ints[-1]) != cols:
                raise ValueError("mixed fields")
        self.field, self.ints, self.rows, self.cols = field, ints, len(ints), cols

    @classmethod
    def wrap(cls, field: Field, ints: List[List[int]]) -> "Matrix":
        """The matrix with these rows of element ints."""
        mat = _new(cls)
        mat.field, mat.ints, mat.rows = field, ints, len(ints)
        mat.cols = len(ints[0]) if ints else 0
        return mat

    def rref(self) -> Tuple["Matrix", List[int]]:
        """Reduced row echelon form and the pivot column list.

        A pivot that is already 1 (the int 1 is the field's one in every
        encoding) is not rescaled, and a column already reduced costs only
        its scan: a matrix in RREF comes back with no field operation."""
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
            row_r = mat[r]
            if row_r[c] != 1:
                scale = inv(row_r[c])
                row_r = mat[r] = [mul(x, scale) for x in row_r]
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
        """A basis of the right kernel {v : M v = 0}, as element-int tuples,
        in reduced row echelon form.

        Elimination runs from the right, on the column-reversed rows: each
        vector is 1 on its own free column, 0 on the other free columns and
        0 left of its free column, so the vectors, in free-column order,
        are the kernel's unique RREF."""
        cols, last = self.cols, self.cols - 1
        red, pivots = Matrix.wrap(self.field, [row[::-1] for row in self.ints]).rref()
        neg = self.field.neg
        pivot_set = set(pivots)
        basis = []
        for fc in range(last, -1, -1):  # reversed index: original column last - fc
            if fc in pivot_set:
                continue
            vec = [0] * cols
            vec[last - fc] = 1
            for row, pc in zip(red.ints, pivots):
                vec[last - pc] = neg(row[fc])
            basis.append(tuple(vec))
        return basis


def span(field: Field, rows: Sequence[tuple], cap: Optional[int] = None) -> Set[tuple]:
    """All linear combinations of the given rows (cap as for codewords),
    read as a ``Matrix``: ragged rows or mixed fields raise ValueError."""
    mat = Matrix(field, rows)
    return set(linear_combinations(field, mat.ints, mat.cols, cap))


def generator_matrix(code: ConstaCode) -> Matrix:
    return Matrix.wrap(code.params.field, code.generator_int_rows())


def dual_basis_of_rows(mat: Matrix, n: int, h: int) -> List[tuple]:
    """Basis of the p^h-dual of the span of the matrix's length-n rows, in
    reduced row echelon form.

    Solve G b = 0 for the twisted vector b (b_i = a_i^(p^h)), then untwist
    each basis vector through the inverse Frobenius.  The untwisted basis
    spans the dual because untwisting is a semilinear bijection, and it
    keeps every 0 and 1, so the kernel's RREF stays the dual's RREF; for
    h = 0 mod e there is nothing to untwist.  The work stays on element
    ints; each output entry is wrapped once.
    """
    if mat.rows:
        kernel = mat.kernel_basis()
    else:
        kernel = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    field = mat.field
    back = (field.m - h) % field.m
    wrap = field.wrap
    if not back:
        return [tuple(map(wrap, vec)) for vec in kernel]
    frob = field.frob
    return [tuple(wrap(frob(b, back)) for b in vec) for vec in kernel]


def dual_basis(code: ConstaCode, h: int) -> List[tuple]:
    """Basis of the p^h-dual of a constacyclic code, by the rank method on
    the code's ``generator_int_rows()``: the dual's unique reduced row
    echelon form, so ``spans_equal`` finds every column of it reduced."""
    rows = code.generator_int_rows()
    return dual_basis_of_rows(Matrix.wrap(code.params.field, rows), code.params.n, h)


def brute_dual(code: ConstaCode, h: int, cap: Optional[int] = None) -> Set[tuple]:
    """Every vector pairing to zero with the whole code under <.,.>_h."""
    basis = dual_basis(code, h)
    return span(code.params.field, basis, cap) if basis else {
        tuple(code.params.field.zero for _ in range(code.params.n))}


def brute_equal_codes(words: Set[tuple], code: ConstaCode,
                      cap: Optional[int] = None) -> bool:
    return words == set(enumerate_codewords(code, cap))


def spans_equal(field: Field, rows_a: Sequence[tuple],
                rows_b: Sequence[tuple]) -> bool:
    """Row-space equality: a row space has exactly one reduced row echelon
    form, so two spans are equal iff their pivots and nonzero RREF rows are.
    A side already in RREF, as ``dual_basis`` returns it, costs no field
    operation."""
    if not rows_a and not rows_b:
        return True
    if not rows_a or not rows_b:
        return False
    mat_a, mat_b = Matrix(field, rows_a), Matrix(field, rows_b)
    if mat_a.cols != mat_b.cols:
        raise ValueError("ragged matrix")
    red_a, pivots_a = mat_a.rref()
    red_b, pivots_b = mat_b.rref()
    rank = len(pivots_a)
    return pivots_a == pivots_b and red_a.ints[:rank] == red_b.ints[:rank]


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
