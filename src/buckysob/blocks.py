"""Half-size block reduction through a fixed-point-free involutive
automorphism (``graph.find_antipodal_involution``, a half-turn of the
buckyball, not the antipodal map).

Relabeling the buckyball so the involution maps i <-> i+30 puts the
Laplacian in the form [[A0, A1], [A1, A0]]; conjugation by J = [[I, I],
[I, -I]] block-diagonalizes it into A+ = A0 + A1 and A- = A0 - A1, and the
(pseudo-)Green matrices reassemble from two half-size solves. The block
route is cross-checked entrywise against the direct one, and the pivot-op
counters record that the two half solves really are cheaper.

G* inverts each half under the Hadamard bound (``ratmat.inverse``). G(a)
solves each half for the reduced numerator X of its inverse instead, with
the half's minimal polynomial as the denominator: the halves have 15 and
14 distinct eigenvalues among 30, so their adjugates carry a factor
prod (lambda + b)^(mult - 1) that X does not. Each half is symmetric and
diagonally dominant, so positive semidefinite, and X is bounded a priori
from that alone (``_half_green``): for a 48-bit a the solves take 23 and
21 primes against 48 each, and for a = 1 one prime each. Every half solve
is returned only after its exact residual has passed.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from buckysob import green, ratmat
from buckysob._modular import dominant_symmetric
from buckysob.polynomials import IntPolynomial, VerificationFailed
from buckysob.ratmat import (PivotCounter, RationalMatrix, SingularMatrixError,
                             inverse)


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


def block_split(A: RationalMatrix, sigma: tuple[int, ...]) -> BlockSplit:
    """Relabel so sigma[i] = i + 30 and split the Laplacian into blocks.

    Orbit representatives are the smaller index of each pair, taken
    ascending; this fixes the block form deterministically.
    """
    n = A.rows
    half = n // 2
    if len(sigma) != n or any(sigma[sigma[i]] != i or sigma[i] == i
                              for i in range(n)):
        raise ValueError("sigma is not a fixed-point-free involution")
    reps = sorted(i for i in range(n) if i < sigma[i])
    if len(reps) != half:
        raise ValueError("orbit count mismatch")
    perm = [0] * n
    for k, r in enumerate(reps):
        perm[r] = k
        perm[sigma[r]] = k + half
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


def half_spectra_check(split: BlockSplit, p: IntPolynomial) -> bool:
    """charpoly(A+) * charpoly(A-) == p; A+ annihilates constants;
    A- is nonsingular, as charpoly(A-)(0) = det(-A-) != 0. The half
    charpolys are cached by value, and G(a) by blocks reuses them for the
    halves' annihilators."""
    p_plus, p_minus = (green.charpoly_by_value(tuple(map(tuple, h.num)), h.den)
                       for h in (split.a_plus, split.a_minus))
    if p_plus * p_minus != p:
        raise SpectrumSplitMismatch("half charpolys do not multiply to the full one")
    if any(map(sum, split.a_plus.num)):  # the row sums are A+ 1
        raise SpectrumSplitMismatch("A+ does not annihilate the constant vector")
    if p_minus.coeffs[0] == 0:
        raise SpectrumSplitMismatch("A- is singular")
    return True


def _half_green(half: RationalMatrix, a: Fraction,
                counter: PivotCounter | None) -> RationalMatrix:
    """(half + aI)^-1 from one kernel solve for its reduced numerator.

    For half = N/den and b = a den = p/q, M = qN + pI is an integer matrix
    and (half + aI)^-1 = q den M^-1. With m the half's annihilator
    (``green._annihilator``: the minimal polynomial of a symmetric half,
    computed on first use and cached by value), of degree d, the kernel
    solves for
    X = -r M^-1, r = q^d m(-b), which ``green._quotient_weights`` writes as
    X = sum_t w_t N^t. A bound on X sizes the primes of ``ratmat.jordan_int``
    (called through the module, as every solve is). When N is
    ``dominant_symmetric``, as the buckyball's halves are, N is positive
    semidefinite, so M is at least pI and M^-1 is positive definite with
    eigenvalues at most 1/p: every |(M^-1)_ij| <= 1/p, and every entry of
    the integer X is at most |r| // p. Otherwise, as |(N^t)_ij| <=
    |N|_inf^t, with |N|_inf the largest absolute row sum, every entry of X
    is at most sum_t |w_t| |N|_inf^t.
    X is returned only after the exact residual (qN + pI) X = -r I has
    passed on N's nonzeros; then (half + aI)^-1 = -q den X / r, in which r
    cancels. So a wrong m or bound can make the solve slower or raise
    RouteMismatch, but cannot give a wrong result. r = 0 makes -b an
    eigenvalue of N and raises SingularMatrixError.
    """
    b = a * half.den
    p, q = b.numerator, b.denominator
    rows = tuple(map(tuple, half.num))
    weights, r = green._quotient_weights(green._annihilator(rows), p, q)
    if r == 0:
        raise SingularMatrixError(f"half + {a}I is singular: -{a} is an eigenvalue")
    if dominant_symmetric(rows):
        bound = abs(r) // p
    else:
        norm = max(sum(map(abs, row)) for row in rows)
        bound = sum(abs(w) * norm ** t for t, w in enumerate(weights))
    shifted = [[q * x + p if i == j else q * x for j, x in enumerate(row)]
               for i, row in enumerate(rows)]
    _, x, ops = ratmat.jordan_int(shifted, -r, bound)
    if counter is not None:
        counter.add(ops)
    if not green._residual_holds(half.nonzeros(), x, p, q, r):
        raise green.RouteMismatch(f"(half + {a}I) X != -r I: the half's annihilator "
                                  "or its bound is wrong")
    scale = -q * half.den
    scaled = {v: scale * v for v in set(itertools.chain.from_iterable(x))}
    return RationalMatrix.from_ints([[scaled[v] for v in row] for row in x], r)


def assemble_green_via_blocks(split: BlockSplit, a=None,
                              counter: PivotCounter | None = None) -> RationalMatrix:
    """G* (a is None) or G(a) from two half-size solves, in the original
    labeling.

    G* is (A+ + E)^-1 - E, with E = J/30, and A-^-1, each from
    ``ratmat.inverse``. G(a) is (A+ + aI)^-1 and (A- + aI)^-1, each from
    ``_half_green``: one kernel solve whose primes are sized by the half's
    minimal polynomial, proved by its exact residual, which raises
    RouteMismatch instead of returning a wrong half.

    With g+ = X/d+ and g- = Y/d-, the blocks g0, g1 = (g+ +- g-)/2 are
    (s X +- t Y)/(2L) for L = lcm(d+, d-), s = L/d+ and t = L/d-. The
    integer rows of [[g0, g1], [g1, g0]] are written straight into the
    original labeling, entry (i, j) from block entry (perm[i], perm[j]),
    and canonicalized once.
    """
    half = split.a_plus.rows
    if a is None:
        e_half = RationalMatrix.constant(half, half, Fraction(1, half))
        g_plus = inverse(split.a_plus + e_half, counter) - e_half
        g_minus = inverse(split.a_minus, counter)
    else:
        a = green.positive(a)
        g_plus = _half_green(split.a_plus, a, counter)
        g_minus = _half_green(split.a_minus, a, counter)
    lcm = math.lcm(g_plus.den, g_minus.den)
    s, t = lcm // g_plus.den, lcm // g_minus.den
    g0, g1 = [], []
    for x, y in zip(g_plus.num, g_minus.num):
        sx, ty = [s * u for u in x], [t * v for v in y]
        g0.append(list(map(operator.add, sx, ty)))
        g1.append(list(map(operator.sub, sx, ty)))
    assembled = ([r0 + r1 for r0, r1 in zip(g0, g1)]
                 + [r1 + r0 for r0, r1 in zip(g0, g1)])
    perm = split.perm
    return RationalMatrix.from_ints([[assembled[i][j] for j in perm] for i in perm],
                                    2 * lcm)
