"""Brute-force and exact oracles that only the tests use."""

import math
from fractions import Fraction

from buckysob._modular import prime_table
from buckysob.polynomials import DegreeInsufficient, IntPolynomial, RationalFunction
from buckysob.ratmat import RationalMatrix
from buckysob.sobolev import _numerators, _require_mean_zero


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


def primes_to_bound(bound, det=1):
    """How many kernel primes ``_modular._multimodular`` takes for
    ``bound`` when the primes dividing det are skipped: the fewest whose
    usable ones' product passes 2 bound + (bound >> 18)."""
    target, modulus, k = 2 * bound + (bound >> 18), 1, 0
    while modulus <= target:
        k += 1
        q = prime_table(k)[-1]
        modulus *= q if det % q else 1
    return k


def canonical_fraction(num, den):
    """Reference for ``RationalMatrix.from_ints``: (rows, den) of num / den
    from one reduced ``Fraction`` per entry, over the lcm of their
    denominators."""
    entries = [[Fraction(x, den) for x in row] for row in num]
    lcm = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (lcm // x.denominator) for x in row]
            for row in entries], lcm


def monotonicity_scan(ca: RationalFunction, points) -> bool:
    """Exact evaluations at ascending positive points strictly decrease."""
    pts = [Fraction(x) for x in points]
    if any(x <= 0 for x in pts) or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("points must be positive and strictly ascending")
    values = [ca(x) for x in pts]
    return all(b < a for a, b in zip(values, values[1:]))


def reproducing_check(u: RationalMatrix, kernel: RationalMatrix,
                      A: RationalMatrix, a=0):
    """Does (u, K delta_j) in the A- (a == 0) or (A+aI)-inner product recover
    u(j) for every j? Returns (ok, offending_j)."""
    _require_mean_zero(_numerators(u, A), a)
    recovered = kernel * (A.scaled_add(a) * u)  # kernel is symmetric
    if recovered == u:
        return True, None
    return False, next(j for j in range(u.rows) if recovered[j, 0] != u[j, 0])


def fit_rational_function_fraction(series) -> RationalFunction:
    """Reference for ``polynomials.fit_rational_function``: Berlekamp-Massey
    over Q, with a monic connection polynomial and the discrepancy divided
    by the last one at every update (Massey, IEEE TIT 1969). Same result,
    same DegreeInsufficient."""
    s = [Fraction(x) for x in series]
    conn, prev = [Fraction(1)], [Fraction(1)]  # ascending connection polys
    length, shift, last = 0, 1, Fraction(1)
    for k, x in enumerate(s):
        d = x + sum(c * s[k - i] for i, c in enumerate(conn[1:length + 1], 1))
        if d == 0:
            shift += 1
            continue
        f = d / last
        new = conn + [Fraction(0)] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            new[i + shift] -= f * c
        if 2 * length <= k:
            length, prev, last, shift = k + 1 - length, conn, d, 1
        else:
            shift += 1
        conn = new
    if 2 * length > len(s):
        raise DegreeInsufficient(
            f"{len(s)} terms cannot fix a recurrence of order {length}")
    conn += [Fraction(0)] * (length + 1 - len(conn))
    den = conn[length::-1]
    num = [sum(den[i] * s[i - j - 1] for i in range(j + 1, length + 1))
           for j in range(length)]
    # integerize with one common scale (scaling num and den separately
    # would change the value)
    scale = math.lcm(*(c.denominator for c in num + den))
    return RationalFunction(IntPolynomial([int(c * scale) for c in num]),
                            IntPolynomial([int(c * scale) for c in den]))
