"""Exact dense rational matrices over ``fractions.Fraction``.

All elimination work is delegated to the one pair of fraction-free Bareiss
kernels in ``_bareiss`` (``det_int`` and ``jordan_int``): rational systems
are cleared to integers row by row (row scaling changes neither solutions
nor singularity), solved fraction-free, and only the final entries become
Fractions. This keeps the hot loops on plain ints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from buckysob._bareiss import det_int, jordan_int
from buckysob.polynomials import IntPolynomial, VerificationFailed


class SingularMatrixError(VerificationFailed):
    """Elimination found no nonzero pivot in some column."""


class PivotCounter:
    """Accumulates pivot-update operation counts across kernel calls."""

    def __init__(self):
        self.ops = 0

    def add(self, n):
        self.ops += n


def rat_str(x: Fraction) -> str:
    """Canonical "p/q" form (q omitted when 1)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_rat(s: str) -> Fraction:
    return Fraction(s.strip())


class RationalMatrix:
    """Immutable-by-convention dense matrix of Fractions."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def constant(cls, rows, cols, value):
        return cls([[value] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.data == other.data

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        if not self.is_square():
            return False
        d = self.data
        return all(d[i][j] == d[j][i] for i in range(self.rows) for j in range(i))

    def is_integer(self):
        return all(x.denominator == 1 for row in self.data for x in row)

    def transpose(self):
        return RationalMatrix([[self.data[i][j] for i in range(self.rows)]
                               for j in range(self.cols)])

    def __add__(self, other):
        self._check_same_shape(other)
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            bt = other.transpose().data
            return RationalMatrix([[sum(a * b for a, b in zip(row, col))
                                    for col in bt] for row in self.data])
        s = Fraction(other)
        return RationalMatrix([[s * x for x in row] for row in self.data])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self * -1

    def scaled_add(self, s: Fraction):
        """self + s*I."""
        if not self.is_square():
            raise ValueError("square matrix required")
        s = Fraction(s)
        return RationalMatrix([[x + s if i == j else x
                                for j, x in enumerate(row)]
                               for i, row in enumerate(self.data)])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.data]

    def column(self, j):
        return [row[j] for row in self.data]

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def trace(self):
        return sum(self.diagonal(), Fraction(0))

    def permuted(self, perm):
        """P m P^t for the permutation sending old index i to perm[i]."""
        n = self.rows
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[perm[i]][perm[j]] = self.data[i][j]
        return RationalMatrix(out)

    def to_json(self):
        return [[rat_str(x) for x in row] for row in self.data]

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _int_rows(m: RationalMatrix, extra: RationalMatrix | None = None):
    """Clear denominators row by row; returns (int rows, row scale factors).

    When `extra` is given the rows are the augmented [m | extra] rows.
    """
    out, scales = [], []
    for i in range(m.rows):
        row = list(m.data[i]) + (list(extra.data[i]) if extra is not None else [])
        s = math.lcm(*(x.denominator for x in row))
        out.append([int(x * s) for x in row])
        scales.append(s)
    return out, scales


def determinant(m: RationalMatrix, counter: PivotCounter | None = None) -> Fraction:
    if not m.is_square():
        raise ValueError("square matrix required")
    if m.rows == 0:
        return Fraction(1)
    rows, scales = _int_rows(m)
    d, ops = det_int(rows)
    if counter is not None:
        counter.add(ops)
    return Fraction(d, math.prod(scales))


def bareiss_solve(m: RationalMatrix, rhs: RationalMatrix,
                  counter: PivotCounter | None = None) -> RationalMatrix:
    """Exact X with m @ X == rhs, fraction-free Gauss-Jordan."""
    if not m.is_square():
        raise ValueError("square matrix required")
    if rhs.rows != m.rows:
        raise ValueError("rhs row count mismatch")
    rows, _ = _int_rows(m, rhs)
    try:
        det, num, ops = jordan_int(rows, m.rows, rhs.cols)
    except ZeroDivisionError as exc:
        raise SingularMatrixError(str(exc)) from None
    if counter is not None:
        counter.add(ops)
    return RationalMatrix([[Fraction(x, det) for x in row] for row in num])


def inverse(m: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    return bareiss_solve(m, RationalMatrix.identity(m.rows), counter)


def charpoly_coeffs(m: RationalMatrix,
                    counter: PivotCounter | None = None) -> list[Fraction]:
    """Coefficients (ascending) of det(xI - m) by multipoint interpolation.

    det(xI - m) is evaluated exactly at x = 0..n and recovered through
    Newton divided differences; degree n and monicity come for free.
    """
    if not m.is_square():
        raise ValueError("square matrix required")
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    integral = m.is_integer()
    values = []
    for x in range(n + 1):
        if integral:
            rows = [[(x if i == j else 0) - int(m.data[i][j]) for j in range(n)]
                    for i in range(n)]
            d, ops = det_int(rows)
            values.append(Fraction(d))
        else:
            shifted = (-m).scaled_add(x)
            d = determinant(shifted, counter)
            ops = 0
            values.append(d)
        if counter is not None and ops:
            counter.add(ops)
    # Newton form on nodes 0..n, then expansion to the monomial basis.
    coef = list(values)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / level
    poly = [Fraction(0)] * (n + 1)
    poly[0] = coef[n]
    for node in range(n - 1, -1, -1):
        # poly <- poly*(x - node) + coef[node]
        for k in range(n, 0, -1):
            poly[k] = poly[k - 1] - node * poly[k]
        poly[0] = coef[node] - node * poly[0]
    return poly


def charpoly(m: RationalMatrix, counter: PivotCounter | None = None) -> IntPolynomial:
    coeffs = charpoly_coeffs(m, counter)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("characteristic polynomial is not integral")
    return IntPolynomial([int(c) for c in coeffs])


def charpoly_cofactor(m: RationalMatrix) -> list[Fraction]:
    """Brute-force oracle: det(xI - m) by cofactor expansion over
    polynomial-valued entries. Exponential; for cross-checks on tiny
    matrices only."""
    n = m.rows

    def pmul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def padd(p, q):
        out = [Fraction(0)] * max(len(p), len(q))
        for i, a in enumerate(p):
            out[i] += a
        for i, b in enumerate(q):
            out[i] += b
        return out

    entries = [[[Fraction(-m.data[i][j])] + ([Fraction(1)] if i == j else [])
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        i = rows[0]
        if len(rows) == 1:
            return entries[i][cols[0]]
        acc = [Fraction(0)]
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(entries[i][j], minor)
            if k % 2:
                term = [-c for c in term]
            acc = padd(acc, term)
        return acc

    p = det(list(range(n)), list(range(n)))
    return p + [Fraction(0)] * (n + 1 - len(p))
