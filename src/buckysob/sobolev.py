"""Discrete Sobolev inequalities as executable, exact statements.

Energies, random inequality trials, and the equality chain on
Green-matrix columns. A vector is an n x 1 ``RationalMatrix``, integer
numerators over one denominator, so energies and maxima are integer sums
and every comparison (including sharpness) is exact. ``energy`` and
``equality_witnesses`` share one integer energy, whose edge sum must
equal the quadratic form x . (A x); the witnesses walk the kernel's
integer columns over its one denominator and build ``Fraction``s only
for what they return, and random draws are mean-subtracted on integers.
The damping parameter ``a`` selects the inequality: ``a == 0`` is the
mean-zero one, with the pseudo-Green matrix G*, and ``a > 0`` the damped
one, with G(a) = (A + aI)^-1; a negative ``a`` raises ``ValueError``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from buckysob.polynomials import VerificationFailed
from buckysob.ratmat import RationalMatrix


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


def _edge_sum(x, edges) -> int:
    """Sum over the edges of (x_i - x_j)^2, for integers x."""
    return sum((x[i] - x[j]) ** 2 for i, j in edges)


def _damping(a) -> Fraction:
    """The damping parameter a as a Fraction; a < 0 raises ValueError."""
    a = Fraction(a)
    if a < 0:
        raise ValueError(f"damping parameter must be nonnegative, got {a}")
    return a


def _require_mean_zero(x, a):
    if a == 0 and sum(x) != 0:
        raise ValueError("the mean-zero inequality (a = 0) requires a "
                         "mean-zero vector")


def _energy(x, den, A: RationalMatrix, a: Fraction, edges) -> tuple[int, int]:
    """E(u) + a * sum u_j^2 for u = x / den, as an unreduced pair (numerator,
    denominator) of integers. The edge sum E(u) of (u_i - u_j)^2 over
    ``edges`` must equal the quadratic form u^t A u, an integer sum over A's
    sparse rows."""
    by_edges = _edge_sum(x, edges)
    by_form = sum(xi * sum(c * x[j] for j, c in row)
                  for xi, row in zip(x, A.nonzeros()) if xi)
    if by_edges * A.den != by_form:
        raise FormMismatch(f"edge sum {Fraction(by_edges, den * den)} vs "
                           f"quadratic form {Fraction(by_form, A.den * den * den)}")
    squares = sum(v * v for v in x) if a else 0
    return (a.denominator * by_edges + a.numerator * squares,
            a.denominator * den * den)


def energy(u: RationalMatrix, A: RationalMatrix, a=0) -> Fraction:
    """E(u) + a * sum u_j^2 == u^t (A + aI) u, where the edge sum E(u) of
    (u_i - u_j)^2 is checked against u^t A u."""
    return Fraction(*_energy(_numerators(u, A), u.den, A, _damping(a),
                             laplacian_edges(A)))


def sobolev_trial(u: RationalMatrix, c: Fraction, A: RationalMatrix, a=0):
    """(max |u_j|)^2 vs c * (E(u) + a * sum u_j^2); returns (lhs, rhs, holds)."""
    a = _damping(a)
    x = _numerators(u, A)
    _require_mean_zero(x, a)
    den2 = u.den ** 2
    lhs = Fraction(max(map(abs, x)) ** 2, den2)
    e = _edge_sum(x, laplacian_edges(A)) + a * sum(v * v for v in x)
    rhs = Fraction(c) * e / den2
    return lhs, rhs, lhs <= rhs


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

    Each column is checked on its integer numerators over the kernel's
    shared denominator; ``Fraction``s are built only for the witnesses
    returned, one per column in order. The kernel must be n x n for the
    n x n Laplacian A, or ValueError is raised.
    """
    if (kernel.rows, kernel.cols) != (A.rows, A.rows):
        raise ValueError(f"kernel is {kernel.rows}x{kernel.cols}, "
                         f"not {A.rows}x{A.rows}")
    den = kernel.den
    a = _damping(a)
    edges = laplacian_edges(A)
    witnesses = []
    for j0, x in enumerate(zip(*kernel.num)):
        top, d = max(map(abs, x)), x[j0]
        if top != abs(d):
            raise MaxNotAtDiagonal(
                f"column {j0}: max {Fraction(top, den)} off the diagonal")
        e_num, e_den = _energy(x, den, A, a, edges)
        if e_num * den != d * e_den:  # E / e_den == d / den
            raise MaxNotAtDiagonal(f"column {j0}: energy {Fraction(e_num, e_den)}"
                                   f" != diagonal {Fraction(d, den)}")
        max_abs = Fraction(top, den)
        witnesses.append(EqualityWitness(j0=j0, constant=Fraction(d, den),
                                         max_abs=max_abs, lhs=max_abs ** 2))
    return witnesses


# perfbench/tracing.py times the witnesses under this name.
equality_witness = equality_witnesses


def _draw(n: int, rng: random.Random) -> tuple[list[int], int]:
    """Integer numerators over one denominator of n entries p/q, p in
    [-100, 100] and q in [1, 10], drawn p then q for each entry in turn."""
    draws = [(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(n)]
    den = math.lcm(*(q for _, q in draws))
    return [p * (den // q) for p, q in draws], den


def random_vector(n: int, rng: random.Random) -> RationalMatrix:
    """n x 1 matrix of entries p/q, p in [-100, 100] and q in [1, 10], drawn
    p then q for each entry in turn."""
    x, den = _draw(n, rng)
    return RationalMatrix.from_ints([[v] for v in x], den)


def random_mean_zero(n: int, rng: random.Random) -> RationalMatrix:
    """A ``random_vector`` draw, exactly mean-subtracted on integers:
    x_i / den - sum(x) / (n den) is (n x_i - sum(x)) / (n den). Retries the
    rare all-zero result, which is the only result for n < 2, so that raises
    ``ValueError``."""
    if n < 2:
        raise ValueError(f"a nonzero mean-zero vector needs n >= 2, got {n}")
    while True:
        x, den = _draw(n, rng)
        total = sum(x)
        x = [n * v - total for v in x]
        if any(x):
            return RationalMatrix.from_ints([[v] for v in x], n * den)
