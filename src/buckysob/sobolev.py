"""Discrete Sobolev inequalities as executable, exact statements.

Energies, the reproducing relations of the (pseudo-)Green kernels, random
inequality trials, and the equality chain on Green-matrix columns. All
vectors are rational, so every comparison (including sharpness) is exact.
"""

from __future__ import annotations

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


def is_mean_zero(u) -> bool:
    return sum(u, Fraction(0)) == 0


def edge_energy(u, edges) -> Fraction:
    return sum(((u[i] - u[j]) ** 2 for i, j in edges), Fraction(0))


def quadratic_energy(u, M: RationalMatrix) -> Fraction:
    return sum((ui * wi for ui, wi in zip(u, M.matvec(u))), Fraction(0))


def energy(u, A: RationalMatrix) -> Fraction:
    """Sum over edges of (u_i - u_j)^2, checked against u^t A u."""
    by_edges = edge_energy(u, laplacian_edges(A))
    by_form = quadratic_energy(u, A)
    if by_edges != by_form:
        raise FormMismatch(f"edge sum {by_edges} vs quadratic form {by_form}")
    return by_form


def energy_a(u, A: RationalMatrix, a) -> Fraction:
    """Damped energy E(u) + a * sum u_j^2 == u^t (A + aI) u."""
    a = Fraction(a)
    return energy(u, A) + a * sum((x * x for x in u), Fraction(0))


def reproducing_check(u, kernel: RationalMatrix, mode: str,
                      A: RationalMatrix, a=None):
    """Does (u, K delta_j) in the A- or (A+aI)-inner product recover u(j)
    for every j? Returns (ok, offending_j)."""
    if mode == "meanzero":
        if not is_mean_zero(u):
            raise ValueError("meanzero mode requires a mean-zero vector")
        w = A.matvec(u)
    elif mode == "damped":
        a = Fraction(a)
        w = A.scaled_add(a).matvec(u)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    recovered = kernel.matvec(w)  # kernel is symmetric
    for j, (lhs, rhs) in enumerate(zip(recovered, u)):
        if lhs != rhs:
            return False, j
    return True, None


def sobolev_trial(u, c: Fraction, mode: str, A: RationalMatrix, a=None):
    """(max |u_j|)^2 vs c * energy; returns (lhs, rhs, holds)."""
    lhs = max(abs(x) for x in u) ** 2
    e = edge_energy(u, laplacian_edges(A))
    if mode == "meanzero":
        if not is_mean_zero(u):
            raise ValueError("meanzero mode requires a mean-zero vector")
        rhs = e
    elif mode == "damped":
        a = Fraction(a)
        rhs = e + a * sum((x * x for x in u), Fraction(0))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return lhs, Fraction(c) * rhs, lhs <= Fraction(c) * rhs


@dataclass(frozen=True)
class EqualityWitness:
    j0: int
    constant: Fraction  # diagonal entry = sharp constant
    max_abs: Fraction
    energy: Fraction
    lhs: Fraction  # (max |column|)^2
    rhs: Fraction  # constant * energy


def equality_witness(kernel: RationalMatrix, j0: int, mode: str,
                     A: RationalMatrix, a=None) -> EqualityWitness:
    """Verify the equality chain on column j0 of the kernel: the diagonal
    attains the column max, the column's energy equals the diagonal value,
    and both sides of the inequality coincide at the square of it."""
    col = kernel.column(j0)
    c = kernel[j0, j0]
    max_abs = max(abs(x) for x in col)
    if max_abs != abs(c):
        raise MaxNotAtDiagonal(f"column {j0}: max {max_abs} off the diagonal")
    if mode == "meanzero":
        e = energy(col, A)
    elif mode == "damped":
        e = energy_a(col, A, a)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if e != c:
        raise MaxNotAtDiagonal(f"column {j0}: energy {e} != diagonal {c}")
    lhs = max_abs ** 2
    rhs = c * e
    if lhs != rhs:
        raise MaxNotAtDiagonal(f"column {j0}: equality fails")
    return EqualityWitness(j0=j0, constant=c, max_abs=max_abs, energy=e,
                           lhs=lhs, rhs=rhs)


def random_mean_zero(n: int, rng: random.Random) -> list[Fraction]:
    """Random rational vector, exactly mean-subtracted; retries the rare
    all-zero draw."""
    while True:
        u = [Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(n)]
        mean = sum(u, Fraction(0)) / n
        u = [x - mean for x in u]
        if any(u):
            return u


def trial_record(u, lhs, rhs, holds) -> dict:
    from buckysob.ratmat import rat_str

    return {
        "lhs": rat_str(lhs),
        "rhs": rat_str(rhs),
        "holds": holds,
        "u": [rat_str(x) for x in u],
    }
