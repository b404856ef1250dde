"""Discrete Sobolev inequalities as executable, exact statements.

Energies, the reproducing relations of the (pseudo-)Green kernels, random
inequality trials, and the equality chain on Green-matrix columns. A vector
is an n x 1 ``RationalMatrix``, integer numerators over one denominator, so
energies and maxima are integer sums and every comparison (including
sharpness) is exact. The damping parameter ``a`` selects the inequality:
``a == 0`` is the mean-zero one, with the pseudo-Green matrix G*, and
``a > 0`` the damped one, with G(a) = (A + aI)^-1.
"""

from __future__ import annotations

import math
import operator
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


def _numerators(u: RationalMatrix) -> list[int]:
    """The integer numerators of the n x 1 matrix u."""
    return [x for x, in u.num]


def _edge_sum(x, A: RationalMatrix) -> int:
    """Sum over the edges of A of (x_i - x_j)^2, for integers x."""
    return sum((x[i] - x[j]) ** 2 for i, j in laplacian_edges(A))


def _require_mean_zero(x, a):
    if a == 0 and sum(x) != 0:
        raise ValueError("the mean-zero inequality (a = 0) requires a "
                         "mean-zero vector")


def energy(u: RationalMatrix, A: RationalMatrix, a=0) -> Fraction:
    """E(u) + a * sum u_j^2 == u^t (A + aI) u, where the edge sum E(u) of
    (u_i - u_j)^2 is checked against u^t A u."""
    x = _numerators(u)
    w = A * u
    by_edges = Fraction(_edge_sum(x, A), u.den ** 2)
    by_form = Fraction(sum(map(operator.mul, x, _numerators(w))), u.den * w.den)
    if by_edges != by_form:
        raise FormMismatch(f"edge sum {by_edges} vs quadratic form {by_form}")
    return by_edges + Fraction(a) * Fraction(sum(v * v for v in x), u.den ** 2)


def reproducing_check(u: RationalMatrix, kernel: RationalMatrix,
                      A: RationalMatrix, a=0):
    """Does (u, K delta_j) in the A- (a == 0) or (A+aI)-inner product recover
    u(j) for every j? Returns (ok, offending_j)."""
    _require_mean_zero(_numerators(u), a)
    recovered = kernel * (A.scaled_add(a) * u)  # kernel is symmetric
    if recovered == u:
        return True, None
    return False, next(j for j in range(u.rows) if recovered[j, 0] != u[j, 0])


def sobolev_trial(u: RationalMatrix, c: Fraction, A: RationalMatrix, a=0):
    """(max |u_j|)^2 vs c * (E(u) + a * sum u_j^2); returns (lhs, rhs, holds)."""
    x = _numerators(u)
    _require_mean_zero(x, a)
    den2 = u.den ** 2
    lhs = Fraction(max(map(abs, x)) ** 2, den2)
    e = _edge_sum(x, A) + Fraction(a) * sum(v * v for v in x)
    rhs = Fraction(c) * e / den2
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class EqualityWitness:
    j0: int
    constant: Fraction  # diagonal entry = sharp constant
    max_abs: Fraction
    energy: Fraction
    lhs: Fraction  # (max |column|)^2
    rhs: Fraction  # constant * energy


def equality_witness(kernel: RationalMatrix, j0: int, A: RationalMatrix,
                     a=0) -> EqualityWitness:
    """Verify the equality chain on column j0 of the kernel: the diagonal
    attains the column max, the column's energy equals the diagonal value,
    and both sides of the inequality coincide at the square of it."""
    col = kernel.submatrix(range(kernel.rows), [j0])
    x = _numerators(col)
    top = max(map(abs, x))
    max_abs = Fraction(top, col.den)
    if top != abs(x[j0]):
        raise MaxNotAtDiagonal(f"column {j0}: max {max_abs} off the diagonal")
    c = col[j0, 0]
    e = energy(col, A, a)
    if e != c:
        raise MaxNotAtDiagonal(f"column {j0}: energy {e} != diagonal {c}")
    lhs = max_abs ** 2
    rhs = c * e
    if lhs != rhs:
        raise MaxNotAtDiagonal(f"column {j0}: equality fails")
    return EqualityWitness(j0=j0, constant=c, max_abs=max_abs, energy=e,
                           lhs=lhs, rhs=rhs)


def random_vector(n: int, rng: random.Random) -> RationalMatrix:
    """n x 1 matrix of entries p/q, p in [-100, 100] and q in [1, 10], drawn
    p then q for each entry in turn."""
    draws = [(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(n)]
    den = math.lcm(*(q for _, q in draws))
    return RationalMatrix.from_ints([[p * (den // q)] for p, q in draws], den)


def random_mean_zero(n: int, rng: random.Random) -> RationalMatrix:
    """A ``random_vector``, exactly mean-subtracted; retries the rare
    all-zero draw."""
    while True:
        u = random_vector(n, rng)
        mean = Fraction(sum(_numerators(u)), n * u.den)
        u = u - RationalMatrix.constant(n, 1, mean)
        if any(_numerators(u)):
            return u
