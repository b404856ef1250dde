"""Half-size block reduction through a fixed-point-free involutive
automorphism (``graph.find_antipodal_involution``, a half-turn of the
buckyball, not the antipodal map).

Relabeling the buckyball so the involution maps i <-> i+30 puts the
Laplacian in the form [[A0, A1], [A1, A0]]; conjugation by J = [[I, I],
[I, -I]] block-diagonalizes it into A+ = A0 + A1 and A- = A0 - A1, and the
(pseudo-)Green matrices reassemble from two half-size solves. The block
route is cross-checked entrywise against the direct one, and the pivot-op
counters record that the two half solves really are cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from buckysob.graph import Involution
from buckysob.green import positive
from buckysob.polynomials import IntPolynomial, VerificationFailed
from buckysob.ratmat import (PivotCounter, RationalMatrix, charpoly,
                             determinant, inverse)


class BlockMismatch(VerificationFailed):
    """Relabeled matrix is not of the form [[A0, A1], [A1, A0]]."""


class SpectrumSplitMismatch(VerificationFailed):
    """Half charpolys do not multiply back to the full one."""


@dataclass(frozen=True)
class BlockSplit:
    a0: RationalMatrix
    a1: RationalMatrix
    j_matrix: RationalMatrix
    a_plus: RationalMatrix
    a_minus: RationalMatrix
    perm: tuple[int, ...]  # original label -> block label


def block_split(A: RationalMatrix, sigma: Involution) -> BlockSplit:
    """Relabel so sigma(i) = i + 30 and split the Laplacian into blocks.

    Orbit representatives are the smaller index of each pair, taken
    ascending; this fixes the block form deterministically.
    """
    n = A.rows
    half = n // 2
    perm_map = sigma.perm
    if len(perm_map) != n or any(perm_map[perm_map[i]] != i or perm_map[i] == i
                                 for i in range(n)):
        raise ValueError("sigma is not a fixed-point-free involution")
    reps = sorted(i for i in range(n) if i < perm_map[i])
    if len(reps) != half:
        raise ValueError("orbit count mismatch")
    perm = [0] * n
    for k, r in enumerate(reps):
        perm[r] = k
        perm[perm_map[r]] = k + half
    relabeled = A.permuted(perm)
    lo, hi = range(half), range(half, n)
    a0 = relabeled.submatrix(lo, lo)
    a1 = relabeled.submatrix(lo, hi)
    if (relabeled.submatrix(hi, hi) != a0 or relabeled.submatrix(hi, lo) != a1
            or not a0.is_symmetric() or not a1.is_symmetric()):
        raise BlockMismatch("relabeled matrix is not [[A0, A1], [A1, A0]]")
    ident = RationalMatrix.identity(half)
    j_matrix = RationalMatrix.block([[ident, ident], [ident, -1 * ident]])
    return BlockSplit(a0=a0, a1=a1, j_matrix=j_matrix,
                      a_plus=a0 + a1, a_minus=a0 - a1, perm=tuple(perm))


def half_spectra_check(split: BlockSplit, p: IntPolynomial,
                       counter: PivotCounter | None = None) -> bool:
    """charpoly(A+) * charpoly(A-) == p; A+ annihilates constants;
    A- is nonsingular."""
    p_plus = charpoly(split.a_plus, counter)
    p_minus = charpoly(split.a_minus, counter)
    if p_plus * p_minus != p:
        raise SpectrumSplitMismatch("half charpolys do not multiply to the full one")
    if any(map(sum, split.a_plus.num)):  # the row sums are A+ 1
        raise SpectrumSplitMismatch("A+ does not annihilate the constant vector")
    if determinant(split.a_minus, counter) == 0:
        raise SpectrumSplitMismatch("A- is singular")
    return True


def assemble_green_via_blocks(split: BlockSplit, a=None,
                              counter: PivotCounter | None = None) -> RationalMatrix:
    """G* (a is None) or G(a) from two half-size solves, in the original
    labeling."""
    half = split.a_plus.rows
    if a is None:
        e_half = RationalMatrix.constant(half, half, Fraction(1, half))
        g_plus = inverse(split.a_plus + e_half, counter) - e_half
        g_minus = inverse(split.a_minus, counter)
    else:
        a = positive(a)
        g_plus = inverse(split.a_plus.scaled_add(a), counter)
        g_minus = inverse(split.a_minus.scaled_add(a), counter)
    g0 = Fraction(1, 2) * (g_plus + g_minus)
    g1 = Fraction(1, 2) * (g_plus - g_minus)
    assembled = RationalMatrix.block([[g0, g1], [g1, g0]])
    inv_perm = [0] * len(split.perm)
    for i, p in enumerate(split.perm):
        inv_perm[p] = i
    return assembled.permuted(inv_perm)
