"""Discrete Sobolev inequalities as executable, exact statements.

Energies, random inequality trials, and the equality chain on
Green-matrix columns, on batches of integer rows: a batch is a stream of
blocks of a few rows x, each over its own denominator. The random draws
yield blocks, the trials consume them, and the witnesses take a kernel's
columns a block at a time. ``_row_sums`` reduces each row with numpy, on
int64 when a bound from the block's largest entry proves that no sum
reaches 2^63 and on Python ints (dtype=object) otherwise, so every
comparison, sharpness included, is exact. Each edge sum must equal the
quadratic form x . (A x), or ``FormMismatch`` is raised; ``Fraction``s
are built only for the values returned. ``a == 0`` selects the mean-zero
inequality, with the pseudo-Green matrix G*, and ``a > 0`` the damped one,
with G(a) = (A + aI)^-1; a negative ``a`` raises ``ValueError``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from buckysob.polynomials import VerificationFailed
from buckysob.ratmat import RationalMatrix

# Rows to a block: a block's arrays stay at a few KB.
_CHUNK = 8


class FormMismatch(VerificationFailed):
    """Edge-sum and quadratic-form energies disagree (internal bug)."""


class MaxNotAtDiagonal(VerificationFailed):
    """An off-diagonal kernel entry beats the diagonal in absolute value."""


def laplacian_edges(A: RationalMatrix) -> list[tuple[int, int]]:
    """Pairs i < j with A[i, j] != 0, read off the matrix's sparse rows."""
    return [(i, j) for i, row in enumerate(A.nonzeros()) for j, _ in row if j > i]


def _numerators(u: RationalMatrix, A: RationalMatrix) -> list[int]:
    """The integer numerators of u; ValueError unless u is n x 1 for the
    n x n Laplacian A."""
    if (u.rows, u.cols) != (A.rows, 1):
        raise ValueError(f"vector is {u.rows}x{u.cols}, not {A.rows}x1")
    return [x for x, in u.num]


def _damping(a) -> Fraction:
    """The damping parameter a as a Fraction; a < 0 raises ValueError."""
    a = Fraction(a)
    if a < 0:
        raise ValueError(f"damping parameter must be nonnegative, got {a}")
    return a


def _require_mean_zero(total, a):
    if a == 0 and total != 0:
        raise ValueError("the mean-zero inequality (a = 0) requires a "
                         "mean-zero vector")


def _int_block(rows, n: int, bound: int) -> np.ndarray:
    """The k x n integer ``rows`` as an int64 array when T^2 ``bound`` <
    2^63, for T the largest |entry| (at least 1), and as an object array of
    Python ints otherwise."""
    try:
        y = np.asarray(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), n)
    t = max(int(y.max(initial=1)), -int(y.min(initial=0)))
    return y if t * t * bound < 2 ** 63 else y.astype(object)


def _row_sums(blocks, A: RationalMatrix, edges):
    """Per row x of each (rows, tags) block, in order: (max x_j^2, sum x_j,
    sum over ``edges`` of (x_i - x_j)^2, sum x_j^2, x . (A x), tag) as
    Python ints, for k x n integer rows, n x n A and k tags.

    For T the largest |entry| of a block and R the largest absolute row sum
    of A's numerators (at least 1), an edge sum is at most 4 T^2 |edges|,
    and a sum of squares or x . (A x) at most n R T^2; every partial sum is
    bounded alike, so ``_int_block`` with the larger bound picks the dtype.
    """
    r = max([sum(abs(c) for _, c in row) for row in A.nonzeros()] + [1])
    bound = max(4 * len(edges), A.rows * r)
    ei, ej = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    ai, aj, c = np.array([(i, j, v) for i, row in enumerate(A.nonzeros())
                          for j, v in row], dtype=object).reshape(-1, 3).T
    ai, aj = ai.astype(np.intp), aj.astype(np.intp)
    c64 = c.astype(np.int64) if r < 2 ** 63 else c  # int64 blocks need r < 2^63
    for rows, tags in blocks:
        y = _int_block(rows, A.rows, bound)
        d = y.take(ei, axis=1) - y.take(ej, axis=1)
        form = y.take(ai, axis=1) * y.take(aj, axis=1)
        form *= c64 if y.dtype == np.int64 else c
        square = y * y
        sums = (square.max(axis=1, initial=0), y.sum(axis=1), (d * d).sum(axis=1),
                square.sum(axis=1), form.sum(axis=1))
        yield from zip(*(s.tolist() for s in sums), tags)


def _energy(by_edges: int, by_form: int, squares: int, den: int,
            A: RationalMatrix, a: Fraction) -> tuple[int, int]:
    """E(u) + a * sum u_j^2 for u = x / den as an unreduced pair (numerator,
    denominator) of integers, from x's edge sum, quadratic form
    x . (A.num x) and sum of squares. The edge sum must equal the form over
    A.den, or ``FormMismatch`` is raised."""
    if by_edges * A.den != by_form:
        raise FormMismatch(f"edge sum {Fraction(by_edges, den * den)} vs "
                           f"quadratic form {Fraction(by_form, A.den * den * den)}")
    return (a.denominator * by_edges + a.numerator * squares,
            a.denominator * den * den)


def energy(u: RationalMatrix, A: RationalMatrix, a=0) -> Fraction:
    """E(u) + a * sum u_j^2 == u^t (A + aI) u, where the edge sum E(u) of
    (u_i - u_j)^2 is checked against u^t A u."""
    x, a = _numerators(u, A), _damping(a)
    (_, _, by_edges, squares, by_form, den), = _row_sums([([x], [u.den])], A,
                                                         laplacian_edges(A))
    return Fraction(*_energy(by_edges, by_form, squares, den, A, a))


def trial_batch(blocks, c, A: RationalMatrix, a=0):
    """``sobolev_trial`` on every vector of a batch: for each (rows, dens)
    block, of k x n integer rows and k denominators, yields (lhs, rhs,
    holds) for each vector rows[r] / dens[r] in order. For a == 0 every
    vector must be mean-zero (ValueError), and every edge sum must equal its
    quadratic form (FormMismatch)."""
    a, c = _damping(a), Fraction(c)
    for top2, total, by_edges, squares, by_form, den in _row_sums(
            blocks, A, laplacian_edges(A)):
        _require_mean_zero(total, a)
        e_num, e_den = _energy(by_edges, by_form, squares, den, A, a)
        rhs_num, rhs_den = c.numerator * e_num, c.denominator * e_den
        yield (Fraction(top2, den * den), Fraction(rhs_num, rhs_den),
               top2 * rhs_den <= rhs_num * den * den)


def sobolev_trial(u: RationalMatrix, c: Fraction, A: RationalMatrix, a=0):
    """(max |u_j|)^2 vs c * (E(u) + a * sum u_j^2); returns (lhs, rhs, holds).
    The one-vector ``trial_batch``."""
    return next(trial_batch([([_numerators(u, A)], [u.den])], c, A, a))


@dataclass(frozen=True)
class EqualityWitness:
    j0: int
    constant: Fraction  # diagonal entry = sharp constant
    max_abs: Fraction
    lhs: Fraction  # (max |column|)^2, checked equal to constant * energy


def equality_witnesses(kernel: RationalMatrix, A: RationalMatrix,
                       a=0) -> list[EqualityWitness]:
    """Verify the equality chain on every column j0 of the kernel: the
    diagonal attains the column max and the column's energy E equals the
    diagonal value d; these two give the third equality, max^2 = d E.

    The columns are checked in order, a block at a time, on their integer
    numerators over the kernel's shared denominator; the first column that
    fails raises. ``Fraction``s are built only for the witnesses returned,
    one per column in order. The kernel must be n x n for the n x n
    Laplacian A, or ValueError is raised.
    """
    if (kernel.rows, kernel.cols) != (A.rows, A.rows):
        raise ValueError(f"kernel is {kernel.rows}x{kernel.cols}, "
                         f"not {A.rows}x{A.rows}")
    den, a = kernel.den, _damping(a)
    columns = ((list(zip(*(row[j:j + _CHUNK] for row in kernel.num))),
                range(j, min(j + _CHUNK, A.rows))) for j in range(0, A.rows, _CHUNK))
    witnesses, fractions = [], {}
    for top2, _, by_edges, squares, by_form, j0 in _row_sums(columns, A,
                                                             laplacian_edges(A)):
        d = kernel.num[j0][j0]
        if top2 != d * d:
            raise MaxNotAtDiagonal(
                f"column {j0}: max {Fraction(math.isqrt(top2), den)} off the diagonal")
        e_num, e_den = _energy(by_edges, by_form, squares, den, A, a)
        if e_num * den != d * e_den:  # E = e_num / e_den against d / den
            raise MaxNotAtDiagonal(f"column {j0}: energy {Fraction(e_num, e_den)}"
                                   f" != diagonal {Fraction(d, den)}")
        if d not in fractions:  # one set of Fractions per distinct diagonal
            constant = Fraction(d, den)
            fractions[d] = constant, abs(constant), constant * constant
        witnesses.append(EqualityWitness(j0, *fractions[d]))
    return witnesses


# perfbench/tracing.py times the witnesses under this name.
equality_witness = equality_witnesses


def _draw(k: int, n: int, rng: random.Random, mean_zero: bool) -> np.ndarray:
    """k x n entries p/q as a k x n int64 array of numerators over 2520, the
    lcm of 1..10, with ``mean_zero`` mean-subtracted over 2520 n.

    The k n values v, uniform on [0, 2010) and taken row by row, give
    p = v // 10 - 100 and q = v % 10 + 1. They come by rejection from rng's
    16-bit words: each round reads ``rng.getrandbits(16 m).to_bytes(2 m,
    "little")`` as m little-endian words, for the m values still missing,
    and keeps w % 2010 for each word w < 2^16 - 2^16 % 2010 = 32 * 2010,
    so that every v has the same number of words mapping to it.
    """
    v = np.empty(0, dtype=np.int64)
    while len(v) < k * n:
        m = k * n - len(v)
        w = np.frombuffer(rng.getrandbits(16 * m).to_bytes(2 * m, "little"), dtype="<u2")
        v = np.concatenate([v, w[w < 32 * 2010] % 2010])
    p, r = np.divmod(v.reshape(k, n), 10)
    x = (p - 100) * (2520 // (r + 1))
    return n * x - x.sum(axis=1, keepdims=True) if mean_zero else x


def draw_batch(k: int, n: int, rng: random.Random, mean_zero=False):
    """k random vectors of n entries p/q, p uniform on [-100, 100] and q on
    [1, 10], as a batch: yields (rows, dens) blocks of up to ``_CHUNK``
    vectors, each drawn from rng when it is reached. Block vector r is
    rows[r] / dens[r], for an int64 array of numerators and a list of
    denominators.

    With ``mean_zero`` each vector is exactly mean-subtracted on integers:
    x_i / den - sum(x) / (n den) is (n x_i - sum(x)) / (n den). A vector
    that is then all zero is drawn again, in order, before the next block,
    until it is not; that is every draw for n < 2, so that raises
    ``ValueError`` at the first block.
    """
    if mean_zero and n < 2:
        raise ValueError(f"a nonzero mean-zero vector needs n >= 2, got {n}")
    for start in range(0, k, _CHUNK):
        x = _draw(min(_CHUNK, k - start), n, rng, mean_zero)
        for r in np.flatnonzero(~x.any(axis=1)) if mean_zero else ():
            while not x[r].any():
                x[r] = _draw(1, n, rng, mean_zero)[0]
        yield x, [2520 * n if mean_zero else 2520] * len(x)


def _vector(batch) -> RationalMatrix:
    """The one vector of a one-vector batch, as an n x 1 matrix."""
    (rows, (den,)), = batch
    return RationalMatrix.from_ints([[v] for v in rows[0].tolist()], den)


def random_vector(n: int, rng: random.Random) -> RationalMatrix:
    """The one-vector ``draw_batch``, as an n x 1 matrix."""
    return _vector(draw_batch(1, n, rng))


def random_mean_zero(n: int, rng: random.Random) -> RationalMatrix:
    """The one-vector mean-zero ``draw_batch``, as an n x 1 matrix; n < 2
    raises ``ValueError``."""
    return _vector(draw_batch(1, n, rng, mean_zero=True))
