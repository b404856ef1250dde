"""Exact dense rational matrices as integer rows over one denominator.

A ``RationalMatrix`` stores its entries as integer rows ``num`` and one
positive denominator ``den`` (the integer-matrix-plus-denominator form of
FLINT's ``fmpq_mat``), reduced so that gcd(den, every entry) == 1. Equality
is then a literal comparison, and sums, products, transposes and
permutations are integer arithmetic; products skip zero entries, so the
4-nonzeros-per-row Laplacian is cheap. A vector is an n x 1 matrix, so a
matrix-vector product is ``m * u`` and column j is
``m.submatrix(range(m.rows), [j])``. Single entries are read as reduced
``Fraction``s through ``m[i, j]``.

All elimination work in the package is delegated to the multimodular
kernels in ``_modular``, which work modulo word-size primes and rebuild
exact integers by Chinese remaindering under a Hadamard-type bound. (The
moment route to C(a) in ``green`` eliminates nothing.) For ``det_int`` and
``jordan_int`` systems
are cleared to integers row by row (row scaling changes neither solutions
nor singularity), and a solve's result is the kernel's integer rows
adj(M) R over its determinant det(M).
``charpoly_int`` takes the rows ``num`` as they are, since the
characteristic polynomial is a similarity invariant and row scaling is not
a similarity; the denominator is divided out of the coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from buckysob._modular import charpoly_int, det_int, jordan_int
from buckysob.polynomials import IntPolynomial, VerificationFailed


class SingularMatrixError(VerificationFailed):
    """Elimination found no nonzero pivot in some column."""


class PivotCounter:
    """Accumulates the kernels' operation counts across calls.

    A kernel's count is the number of multiply-mod updates of its loops
    (elimination for determinants and solves; Hessenberg reduction and the
    charpoly recurrence for characteristic polynomials), taken from the
    loop bounds and summed over the primes it used, so it scales with both
    the matrix shape and the bit size of the entries.
    """

    def __init__(self):
        self.ops = 0

    def add(self, n):
        self.ops += n


def rat_str(x: Fraction) -> str:
    """Canonical "p/q" form (q omitted when 1)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_rat(s: str) -> Fraction:
    """The rational written as "p/q" or "p"; raises ValueError on malformed
    text and on a zero denominator."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s.strip()!r}") from None


class RationalMatrix:
    """Immutable-by-convention dense rational matrix.

    Entry (i, j) is ``num[i][j] / den``: ``num`` holds the integer rows and
    ``den`` is one positive denominator shared by every entry. The pair is
    kept canonical, gcd(den, every entry of num) == 1, so two matrices are
    equal exactly when their shapes, denominators and integer rows are.
    """

    __slots__ = ("num", "den", "rows", "cols", "_nonzeros")

    def __init__(self, data):
        entries = [[Fraction(x) for x in row] for row in data]
        den = math.lcm(*(x.denominator for row in entries for x in row))
        # den is the lcm of reduced denominators, so the pair is canonical.
        self._set([[x.numerator * (den // x.denominator) for x in row]
                   for row in entries], den)

    def _set(self, num, den):
        self.num = num
        self.den = den
        self.rows = len(num)
        self.cols = len(num[0]) if num else 0
        self._nonzeros = None
        for row in num:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def from_ints(cls, num, den=1):
        """The matrix num / den for integer rows ``num`` and a nonzero
        integer ``den``, brought to canonical form."""
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if den < 0:
            num, den = [[-x for x in row] for row in num], -den
        g = math.gcd(den, *(x for row in num for x in row))
        m = object.__new__(cls)
        m._set([[x // g for x in row] for row in num], den // g)
        return m

    @classmethod
    def identity(cls, n):
        return cls.from_ints([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_ints([[0] * cols for _ in range(rows)])

    @classmethod
    def constant(cls, rows, cols, value):
        value = Fraction(value)
        return cls.from_ints([[value.numerator] * cols for _ in range(rows)],
                             value.denominator)

    @classmethod
    def block(cls, grid):
        """The block matrix whose block rows are the lists in ``grid``."""
        den = math.lcm(*(m.den for brow in grid for m in brow))
        num = []
        for brow in grid:
            if any(m.rows != brow[0].rows for m in brow):
                raise ValueError("blocks in one block row differ in height")
            for i in range(brow[0].rows):
                row = []
                for m in brow:
                    scale = den // m.den
                    row.extend(scale * x for x in m.num[i])
                num.append(row)
        return cls.from_ints(num, den)

    def nonzeros(self):
        """Per row, the (column, numerator) pairs of the nonzero entries;
        built once per matrix."""
        if self._nonzeros is None:
            self._nonzeros = [[(j, x) for j, x in enumerate(row) if x]
                              for row in self.num]
        return self._nonzeros

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.den == other.den
                and self.num == other.num)

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_square(self):
        return self.rows == self.cols

    def is_symmetric(self):
        if not self.is_square():
            return False
        a = self.num
        return all(a[i][j] == a[j][i] for i in range(self.rows) for j in range(i))

    def transpose(self):
        return RationalMatrix.from_ints([list(col) for col in zip(*self.num)],
                                        self.den)

    def _combine(self, other, sign):
        self._check_same_shape(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return RationalMatrix.from_ints([[s * a + t * b for a, b in zip(r1, r2)]
                                         for r1, r2 in zip(self.num, other.num)],
                                        den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            right = other.nonzeros()
            out = []
            for row in self.nonzeros():
                acc = [0] * other.cols
                for j, a in row:
                    for k, b in right[j]:
                        acc[k] += a * b
                out.append(acc)
            return RationalMatrix.from_ints(out, self.den * other.den)
        s = Fraction(other)
        return RationalMatrix.from_ints([[s.numerator * x for x in row]
                                         for row in self.num],
                                        self.den * s.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self * -1

    def scaled_add(self, s: Fraction):
        """self + s*I."""
        if not self.is_square():
            raise ValueError("square matrix required")
        s = Fraction(s)
        den = math.lcm(self.den, s.denominator)
        scale, shift = den // self.den, s.numerator * (den // s.denominator)
        return RationalMatrix.from_ints([[scale * x + shift if i == j else scale * x
                                          for j, x in enumerate(row)]
                                         for i, row in enumerate(self.num)], den)

    def submatrix(self, rows, cols):
        return RationalMatrix.from_ints([[self.num[i][j] for j in cols]
                                         for i in rows], self.den)

    def diagonal(self):
        return [Fraction(self.num[i][i], self.den)
                for i in range(min(self.rows, self.cols))]

    def trace(self):
        return Fraction(sum(self.num[i][i] for i in range(min(self.rows, self.cols))),
                        self.den)

    def permuted(self, perm):
        """P m P^t for the permutation sending old index i to perm[i]."""
        n = self.rows
        out = [[0] * n for _ in range(n)]
        for i, row in enumerate(self.num):
            out_row = out[perm[i]]
            for j, x in enumerate(row):
                out_row[perm[j]] = x
        return RationalMatrix.from_ints(out, self.den)

    def to_json(self):
        return [[rat_str(Fraction(x, self.den)) for x in row] for row in self.num]

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _cleared_rows(m: RationalMatrix, rhs: RationalMatrix | None = None):
    """Integer rows of [m | rhs], each scaled by the lcm of its own reduced
    denominators; returns (int rows, row scale factors).

    Row scaling changes neither solutions nor singularity, and scaling each
    row by its own lcm instead of the common denominator keeps the
    determinant as small as the entries allow.
    """
    if rhs is None:
        den, rows = m.den, m.num
    else:
        den = math.lcm(m.den, rhs.den)
        s, t = den // m.den, den // rhs.den
        rows = [[s * x for x in r1] + [t * y for y in r2]
                for r1, r2 in zip(m.num, rhs.num)]
    out, scales = [], []
    for row in rows:
        g = math.gcd(den, *row)
        out.append([x // g for x in row] if g > 1 else row)
        scales.append(den // g)
    return out, scales


def determinant(m: RationalMatrix, counter: PivotCounter | None = None) -> Fraction:
    if not m.is_square():
        raise ValueError("square matrix required")
    if m.rows == 0:
        return Fraction(1)
    rows, scales = _cleared_rows(m)
    d, ops = det_int(rows)
    if counter is not None:
        counter.add(ops)
    return Fraction(d, math.prod(scales))


def bareiss_solve(m: RationalMatrix, rhs: RationalMatrix,
                  counter: PivotCounter | None = None) -> RationalMatrix:
    """Exact X with m @ X == rhs by the multimodular Gauss-Jordan kernel;
    its (det, num) becomes the result num / det directly."""
    if not m.is_square():
        raise ValueError("square matrix required")
    if rhs.rows != m.rows:
        raise ValueError("rhs row count mismatch")
    rows, _ = _cleared_rows(m, rhs)
    try:
        det, num, ops = jordan_int(rows, m.rows, rhs.cols)
    except ZeroDivisionError as exc:
        raise SingularMatrixError(str(exc)) from None
    if counter is not None:
        counter.add(ops)
    return RationalMatrix.from_ints(num, det)


def inverse(m: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    return bareiss_solve(m, RationalMatrix.identity(m.rows), counter)


def charpoly_coeffs(m: RationalMatrix,
                    counter: PivotCounter | None = None) -> list[Fraction]:
    """Coefficients (ascending) of det(xI - m).

    The kernel reduces the integer rows N = m.num to Hessenberg form modulo
    word-size primes and rebuilds det(xI - N) exactly by Chinese
    remaindering; for m = N/d the coefficient of x^k is that of N over
    d^(n-k).
    """
    if not m.is_square():
        raise ValueError("square matrix required")
    coeffs, ops = charpoly_int(m.num)
    if counter is not None:
        counter.add(ops)
    n = m.rows
    return [Fraction(c, m.den ** (n - k)) for k, c in enumerate(coeffs)]


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

    entries = [[[-m[i, j]] + ([Fraction(1)] if i == j else [])
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
