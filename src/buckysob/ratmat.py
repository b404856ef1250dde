"""Exact dense rational matrices as integer rows over one denominator.

A ``RationalMatrix`` stores its entries as integer rows ``num`` and one
positive denominator ``den`` (the integer-matrix-plus-denominator form of
FLINT's ``fmpq_mat``), reduced so that gcd(den, every entry) == 1. Equality
is then a literal comparison, and sums, products, transposes and
permutations are integer arithmetic; products skip zero entries, so the
4-nonzeros-per-row Laplacian is cheap. A vector is an n x 1 matrix, so a
matrix-vector product is ``m * u`` and column j is
``m.submatrix(range(m.rows), [j])``. Single entries are read as reduced
``Fraction``s through ``m[i, j]`` and ``diagonal()``, which reduce each
distinct numerator once and keep the reduced value with the matrix, and
``to_json()`` formats each distinct numerator once per call: a Green matrix
of the buckyball has 3,600 entries but 24 distinct values, one per walk
class.

All elimination work in the package is delegated to the multimodular
kernels in ``_modular``, which work modulo word-size primes and rebuild
exact integers by Chinese remaindering under a Hadamard-type bound. (The
moment route to C(a) in ``green`` eliminates nothing.) Every kernel takes
the matrix's own integer rows N = ``num`` and the denominator d = ``den``
is divided out afterwards: ``jordan_int`` inverts N and nothing more,
exact by the bound alone, so for m = N/d its (det(N), adj(N)) gives
m^-1 = d adj(N) / det(N), with det(N) read off adj(N) in the kernel,
which also raises ``SingularMatrixError`` for a singular N. A solve m X = R
is that exact inverse times R, one sparse-aware product. The coefficient of
x^k in det(xI - m) is that of det(xI - N) over d^(n-k). The block route's
G(a) halves call ``jordan_int`` through this module too, with a smaller
bound of their own that their exact residual proves (``blocks``).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# det_int is imported only because perfbench/tracing.py wraps
# buckysob.ratmat.det_int; blocks calls jordan_int as ratmat.jordan_int, so
# that the wrapper of this name sees its half solves too. The kernel raises
# SingularMatrixError; it is re-exported here, where its callers catch it.
from buckysob._modular import (SingularMatrixError, charpoly_int, det_int,
                               jordan_int)
from buckysob.polynomials import IntPolynomial


# The text parse_rat accepts: ASCII digits only, so no decimal point,
# exponent, underscore or other script's digit gets through Fraction.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class PivotCounter:
    """Accumulates the inversion kernel's operation counts across calls.

    A count is the number of multiply-mod updates of the in-place inversion
    of the n x n matrix, n^3 per prime, summed over the primes it used, so
    it scales with the matrix shape and the bit size of the entries
    (inverse(A + I) on the buckyball: 4 primes, 4 * 60^3); a solve is an
    inverse, and counts as one. Every inversion runs its primes to its
    bound, so a count depends on the input and the bound alone: the
    Hadamard bound, except for the block route's G(a) halves, which give
    ``jordan_int`` a bound on their reduced inverse's numerator
    (``blocks._half_green``).
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
    """The rational written as "p/q" or "p", with an optional sign on p and
    whitespace around it; raises ValueError on any other text (decimals,
    exponents and underscores too) and on a zero denominator."""
    text = s.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational p/q or p: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class RationalMatrix:
    """Immutable-by-convention dense rational matrix.

    Entry (i, j) is ``num[i][j] / den``: ``num`` holds the integer rows and
    ``den`` is one positive denominator shared by every entry. The pair is
    kept canonical, gcd(den, every entry of num) == 1, so two matrices are
    equal exactly when their shapes, denominators and integer rows are.

    ``m[i, j]`` and ``diagonal()`` read through ``_entry``, which reduces
    each distinct numerator to a ``Fraction`` once, on its first read, and
    keeps it in a dict keyed by value for as long as the matrix lives: up
    to one ``Fraction`` per distinct entry read (24 for a full read of a
    buckyball Green matrix, up to rows * cols for a general one). A matrix
    that is never read entry by entry builds no dict, and ``to_json``
    leaves none behind. ``from_ints`` likewise divides each distinct
    numerator once, and the kernel's read rebuilds each distinct residue
    column once: equal integers reduce alike, so the work follows the
    values, not the entries.
    """

    __slots__ = ("num", "den", "rows", "cols", "_nonzeros", "_entries")

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
        self._entries = None
        for row in num:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def from_ints(cls, num, den=1):
        """The matrix num / den for integer rows ``num`` and a nonzero
        integer ``den``, brought to canonical form.

        The gcd is taken over the set of distinct numerators, and each is
        divided once: equal numerators have equal quotients, and the
        matrices of the package have few distinct values (24 of 3,600 in
        G* and in every G(a) of the buckyball). The rows are fresh
        lists either way, so no matrix shares a row with its caller.
        """
        if den == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        distinct = set(itertools.chain.from_iterable(num))
        g = math.gcd(den, *distinct)
        if den < 0:
            g = -g  # so that den // g > 0
        m = object.__new__(cls)
        if g == 1:
            m._set([list(row) for row in num], den)
        else:
            reduced = {x: x // g for x in distinct}
            m._set([[reduced[x] for x in row] for row in num], den // g)
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

    def _entry(self, x):
        """The reduced ``Fraction`` x / den for a numerator x of this
        matrix, built on the first read of its value."""
        entries = self._entries
        if entries is None:
            entries = self._entries = {}
        value = entries.get(x)
        if value is None:
            value = entries[x] = Fraction(x, self.den)
        return value

    def __getitem__(self, ij):
        i, j = ij
        return self._entry(self.num[i][j])

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
        return [self._entry(self.num[i][i]) for i in range(min(self.rows, self.cols))]

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
        # Each distinct numerator is formatted once, in a dict local to the
        # call, so formatting leaves no state on the matrix.
        text = {x: rat_str(Fraction(x, self.den))
                for x in set(itertools.chain.from_iterable(self.num))}
        return [[text[x] for x in row] for row in self.num]

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def bareiss_solve(m: RationalMatrix, rhs: RationalMatrix,
                  counter: PivotCounter | None = None) -> RationalMatrix:
    """Exact X with m @ X == rhs: the exact inverse of m times rhs."""
    if rhs.rows != m.rows:
        raise ValueError("rhs row count mismatch")
    return inverse(m, counter) * rhs


def inverse(m: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    """Exact m^-1 from the multimodular kernel.

    The kernel inverts the integer rows N = m.num and returns (det(N),
    adj(N)), or raises SingularMatrixError; for m = N/d, m^-1 = d N^-1 =
    d adj(N) / det(N). adj(N) is scaled by d once per distinct entry, and
    not at all when d = 1.
    """
    if not m.is_square():
        raise ValueError("square matrix required")
    det, adj, ops = jordan_int(m.num)
    if counter is not None:
        counter.add(ops)
    if m.den != 1:
        scaled = {x: m.den * x for x in set(itertools.chain.from_iterable(adj))}
        adj = [[scaled[x] for x in row] for row in adj]
    return RationalMatrix.from_ints(adj, det)


def charpoly_coeffs(m: RationalMatrix) -> list[Fraction]:
    """Coefficients (ascending) of det(xI - m).

    The kernel reduces the integer rows N = m.num to Hessenberg form modulo
    word-size primes and rebuilds det(xI - N) exactly by Chinese
    remaindering; for m = N/d the coefficient of x^k is that of N over
    d^(n-k).
    """
    if not m.is_square():
        raise ValueError("square matrix required")
    coeffs, _ = charpoly_int(m.num)
    n = m.rows
    return [Fraction(c, m.den ** (n - k)) for k, c in enumerate(coeffs)]


def charpoly(m: RationalMatrix) -> IntPolynomial:
    coeffs = charpoly_coeffs(m)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("characteristic polynomial is not integral")
    return IntPolynomial([int(c) for c in coeffs])
