"""Green matrix, pseudo-Green matrix, and the sharp constants.

The Green matrix G(a) = (A + aI)^-1 is a polynomial in A with no
elimination: G(a) = -q_a(A)/m(-a), where m(A) = 0 and q_a is the quotient
of m by x + a. Entry (i, j) of a polynomial in A depends only on the walk
counts (A^k)_ij, k < deg m, which on the buckyball take 24 distinct
profiles: q_a(A) is one dot product per such walk class, filled in from a
cached class table, and G(a) is returned only after the exact residual
(A + aI) G(a) = I. Direct and block elimination, which ``verify-all``
uses for its G(a), are the routes that check it. The pseudo-Green matrix
is computed from one exact solve of the sparse grounded system
A + e_0 e_0^T (e_0 the first unit vector), projected onto the mean-zero
vectors; ``verify_pseudo_green`` then
proves A G* = G* A = I - E0 and G* 1 = 0 exactly, from which the
Moore-Penrose axioms and G* E0 = E0 G* = 0 follow. C0 and C(a) each come
by independent routes that must agree exactly:

  C0:   any diagonal entry of G*        vs  -(1/60) q'(0)/q(0), P = x q(x)
  C(a): Berlekamp-Massey on the closed-walk moments (A^k)_00, k < 120,
        with no elimination
        vs  -(1/60) P'(-a)/P(-a)
        vs  the known closed-form coefficient lists.

That every diagonal entry of G(a) and of G* is the same is proved once by
``walk_regular`` from the fit's own denominator m(-a): with m(A) = 0,
constant diagonals of A^k for k < deg m = 15 make the diagonal of every
polynomial in A constant. It reads both facts from the same class table.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from fractions import Fraction

from buckysob import closedform
from buckysob.polynomials import (IntPolynomial, RationalFunction,
                                  VerificationFailed, fit_rational_function,
                                  squarefree_part)
from buckysob.ratmat import (PivotCounter, RationalMatrix, SingularMatrixError,
                             charpoly, inverse, rat_str)


class NonPositiveParameter(ValueError):
    pass


class KernelMismatch(VerificationFailed):
    """The matrix does not annihilate the constant vector."""


class DiagonalMismatch(VerificationFailed):
    """Diagonal entries expected to be constant are not."""


class RouteMismatch(VerificationFailed):
    """Independent computation routes disagree."""


class PoleRemains(VerificationFailed):
    """Subtracting the singular part did not remove the pole at 0."""


def projection_e0(n: int) -> RationalMatrix:
    """Orthogonal projection onto the constant vector: every entry 1/n."""
    return RationalMatrix.constant(n, n, Fraction(1, n))


def positive(a) -> Fraction:
    """The damping parameter a as a Fraction; a <= 0 raises
    NonPositiveParameter."""
    a = Fraction(a)
    if a <= 0:
        raise NonPositiveParameter(f"damping parameter must be positive, got {a}")
    return a


@functools.lru_cache(maxsize=16)
def charpoly_by_value(rows: tuple[tuple[int, ...], ...], den: int) -> IntPolynomial:
    """det(xI - N/den) for the square integer matrix N with these rows.
    Cached by value, so that equal matrices built separately, such as the
    block halves that ``blocks.half_spectra_check`` checks and the block
    route then solves, share one characteristic polynomial. den is
    required, so that every call spells the same cache key."""
    return charpoly(RationalMatrix.from_ints(rows, den))


@functools.lru_cache(maxsize=16)
def _annihilator(rows: tuple[tuple[int, ...], ...]) -> IntPolynomial:
    """A polynomial m with m(N) = 0 for the square integer matrix N with
    these rows: the squarefree part of det(xI - N) when N is symmetric, so
    diagonalizable, which makes m its minimal polynomial; otherwise the
    characteristic polynomial itself (Cayley-Hamilton). Either way the
    roots of m are exactly the eigenvalues of N. Cached by value, so equal
    matrices built separately share one m.
    """
    p = charpoly_by_value(rows, 1)
    return squarefree_part(p) if rows == tuple(zip(*rows)) else p


def _sparse_times(rows, x):
    """The integer product S X, S given per row by its (column, value)
    nonzeros and X by its integer rows."""
    zero = [0] * len(x[0])
    out = []
    for row in rows:
        acc = zero
        for j, c in row:
            acc = ([u - v for u, v in zip(acc, x[j])] if c == -1
                   else [u + c * v for u, v in zip(acc, x[j])])
        out.append(acc if row else zero[:])
    return out


@functools.lru_cache(maxsize=16)
def _walk_classes(rows: tuple[tuple[int, ...], ...], count: int):
    """The walk classes of the square integer matrix N with these rows:
    entries (i, j) and (k, l) share a class exactly when (N^t)_ij =
    (N^t)_kl for every t < count. Returns (index, profiles): index[i][j]
    is the class of (i, j), and profiles[c][t] is (N^t)_ij for every entry
    of class c. Every polynomial in N of degree below count is constant on
    a class (Godsil & McKay, LAA 1980); on the buckyball the 3,600 entries
    fall into 24 classes for count = 15 or 16.

    Built by partition refinement: each power N^t, formed from the last by
    one sparse product, splits the classes by its entries and is then
    dropped, so one power is alive at a time and none is kept. Cached by
    value, so equal matrices built separately share one table.
    """
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    n = len(rows)
    index = [[0] * n for _ in range(n)]
    profiles = [()]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(count):
        if t:
            power = _sparse_times(nonzeros, power)
        ids = {}
        index = [[ids.setdefault(key, len(ids)) for key in zip(irow, prow)]
                 for irow, prow in zip(index, power)]
        profiles = [profiles[c] + (v,) for c, v in ids]
    return tuple(map(tuple, index)), tuple(profiles)


def _polynomial_classes(rows, weights):
    """sum_t weights[t] N^t for the square integer matrix N with these
    rows, as (index, values): entry (i, j) is values[index[i][j]], one dot
    product per walk class."""
    index, profiles = _walk_classes(rows, len(weights))
    return index, [sum(map(operator.mul, weights, profile)) for profile in profiles]


def _quotient_weights(m: IntPolynomial, p: int, q: int):
    """(w, r) for b = p/q and the quotient q_b of m = sum c_k x^k, of
    degree d, by x + b: m(x) = (x + b) q_b(x) + m(-b).

    Synthetic division on integers gives B_j = q^j q_(d-1-j): B_0 = c_d,
    B_j = c_(d-j) q^j - p B_(j-1), and r = q^d m(-b) = c_0 q^d - p B_(d-1).
    Then w[t] = q^t B_(d-1-t) for t < d, so that
    q^(d-1) q_b(N) = sum_t w[t] N^t for any square N.
    """
    coef = []
    for j, c in enumerate(reversed(m.coeffs)):
        coef.append(c * q ** j - p * (coef[-1] if coef else 0))
    r = coef.pop()
    return [q ** t * bj for t, bj in enumerate(reversed(coef))], r


def _residual_holds(nonzeros, x, p: int, q: int, r: int) -> bool:
    """Whether (qN + pI) X == -r I exactly, for N given per row by its
    (column, value) nonzeros and X by its integer rows."""
    residual = ([q * u + p * v for u, v in zip(nrow, xrow)]
                for nrow, xrow in zip(_sparse_times(nonzeros, x), x))
    return all(row[i] == -r and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(residual))


def green_matrix(A: RationalMatrix, a) -> RationalMatrix:
    """(A + aI)^-1, exact, as a polynomial in A with no elimination.

    For A = N/den and b = a den = P/Q, (A + aI)^-1 = den (N + bI)^-1. For
    m = sum c_k x^k of degree d with m(N) = 0 (``_annihilator``),
    m(x) = (x + b) q(x) + m(-b) gives (N + bI) q(N) = -m(-b) I, so
    G = -den q(N)/m(-b): every function of A is a polynomial in A of
    degree below deg m (Higham, *Functions of Matrices*, SIAM 2008,
    sec. 1.2). Synthetic division on integers (``_quotient_weights``)
    gives r = m(-b) Q^d and X = Q^(d-1) q(N) = sum_t Q^t B_(d-1-t) N^t,
    one dot product per walk class of N (``_walk_classes``, 24 on the
    buckyball), and G = -Q den X / r.

    A zero r makes -b a root of m, so an eigenvalue of N, and raises
    SingularMatrixError. G is returned only after the exact residual
    (QN + PI) X = -r I has passed, which proves X whatever m and the class
    table were; with the right table it holds exactly when m(N) = 0.
    Otherwise RouteMismatch is raised.
    """
    b = positive(a) * A.den
    if not A.is_square():
        raise ValueError("square matrix required")
    p, q = b.numerator, b.denominator
    rows = tuple(map(tuple, A.num))
    weights, r = _quotient_weights(_annihilator(rows), p, q)
    if r == 0:
        raise SingularMatrixError(f"A + {a}I is singular: -{a} is an eigenvalue of A")
    index, values = _polynomial_classes(rows, weights)
    x = [[values[c] for c in row] for row in index]
    if not _residual_holds(A.nonzeros(), x, p, q, r):
        raise RouteMismatch(f"(A + {a}I) G(a) != I: the annihilator does not vanish "
                            "at A, or the walk classes are wrong")
    s = -q * A.den
    scaled = [s * v for v in values]
    return RationalMatrix.from_ints([[scaled[c] for c in row] for row in index], r)


def pseudo_green(A: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    """Moore-Penrose inverse G* of a symmetric Laplacian, from the inverse
    X of the grounded system A + e_0 e_0^T.

    A + e_0 e_0^T is nonsingular for a connected graph: its determinant is
    the spanning-tree count. With A 1 = 0 it maps 1 to e_0, so X e_0 = 1
    and, X being symmetric, e_0^T X = 1^T. Then A X = I - e_0 1^T, and
    A X A = A - e_0 (A 1)^T = A: X is a symmetric g-inverse of A, so
    G* = P X P for P = I - E0 (Ben-Israel & Greville, *Generalized
    Inverses*, 2nd ed., 2003, ch. 2). For X = N/d, r_i = sum_j N_ij and
    s = sum_i r_i, entry (i, j) of P X P is
    (n^2 N_ij - n (r_i + r_j) + s) / (n^2 d). Any weight c > 0 on
    e_0 e_0^T gives the same G*, since then X e_0 = 1/c; adding den to
    A's integer entry (0, 0) makes c = 1.

    Both steps need A symmetric; a non-symmetric A raises ValueError. The
    grounded system keeps A's sparsity, unlike A + J with J all ones: on
    the buckyball its Hadamard bound is 121 bits, against 191 for A + J,
    so the kernel runs 4 primes instead of 7.
    """
    n = A.rows
    if any(map(sum, A.num)):  # the row sums are A 1
        raise KernelMismatch("constant vector is not in the kernel")
    if not A.is_symmetric():
        raise ValueError("the pseudo-Green matrix needs a symmetric A")
    grounded = [row[:] for row in A.num]
    grounded[0][0] += A.den
    x = inverse(RationalMatrix.from_ints(grounded, A.den), counter)
    r = list(map(sum, x.num))
    s = sum(r)
    return RationalMatrix.from_ints(
        [[n * n * v - n * (ri + rj) + s for v, rj in zip(row, r)]
         for row, ri in zip(x.num, r)], n * n * x.den)


def constant_diagonal(m: RationalMatrix) -> Fraction:
    diag = m.diagonal()
    if any(x != diag[0] for x in diag):
        raise DiagonalMismatch("diagonal entries are not all equal")
    return diag[0]


def c0_via_diagonal(g_star: RationalMatrix) -> Fraction:
    return constant_diagonal(g_star)


def c0_via_trace(p: IntPolynomial) -> Fraction:
    """-(1/60) q'(0)/q(0) where p = x q(x): the sum of reciprocals of the
    nonzero eigenvalues, divided by 60."""
    if p.coeffs[0] != 0:
        raise KernelMismatch("polynomial has no root at 0")
    q = IntPolynomial(p.coeffs[1:])
    n = p.degree
    return Fraction(-q.derivative()(0), n * q(0))


def closed_walk_moments(A: RationalMatrix, j: int, count: int) -> list[Fraction]:
    """The closed-walk moments m_k(j) = (A^k)_jj for k < count.

    For symmetric A, with v = A^t e_j, m_2t = v.v and m_2t+1 = v.(A v),
    computed by sparse integer matvecs on the numerators; m_k is then
    divided by den^k.
    """
    if not A.is_symmetric():
        raise ValueError("closed-walk moments need a symmetric matrix")
    if not 0 <= j < A.rows:
        raise ValueError(f"vertex {j} is not in 0..{A.rows - 1}")
    rows = A.nonzeros()
    v = [int(i == j) for i in range(A.rows)]
    out = []
    while len(out) < count:
        w = [sum(a * v[c] for c, a in row) for row in rows]
        out += [sum(x * x for x in v), sum(x * y for x, y in zip(v, w))]
        v = w
    return [Fraction(m, A.den ** k) for k, m in enumerate(out[:count])]


def walk_regular(A: RationalMatrix, m: IntPolynomial) -> None:
    """Raise DiagonalMismatch unless diag(A^k) is constant for k < deg m
    and m(A) = 0, which makes the diagonal of every polynomial in A, such
    as (A + aI)^-1 and G*, constant (Godsil & McKay, LAA 1980).

    For symmetric A and m vertex 0's minimal polynomial, as ``ca_via_fit``
    passes it, m(A) != 0 itself disproves walk-regularity: some
    eigenprojection E_theta, a polynomial in A, then has (E_theta)_00 = 0
    but trace mult(theta) > 0. A must be symmetric ([[0, 1], [0, 0]] has
    m = x, m(A) != 0 and constant diagonals) and m nonzero.

    Both facts are read from the walk classes of A's integer rows N
    through N^d, d = deg m (``_walk_classes``), with no matrix product:
    diag(A^k) is constant when every diagonal entry has the same (N^k)_ii,
    and m(A) = 0 exactly when sum_k c_k den^(d-k) (N^k)_ij is 0 on every
    class.
    """
    if not A.is_symmetric() or m.is_zero():
        raise ValueError("walk-regularity needs a symmetric A and a nonzero m")
    d = m.degree
    index, profiles = _walk_classes(tuple(map(tuple, A.num)), d + 1)
    diagonal = [profiles[index[i][i]] for i in range(A.rows)]
    for k in range(d):
        if any(profile[k] != diagonal[0][k] for profile in diagonal):
            raise DiagonalMismatch(f"closed-walk moment m_{k} differs between vertices")
    weights = [c * A.den ** (d - k) for k, c in enumerate(m.coeffs)]
    if any(sum(map(operator.mul, weights, profile)) for profile in profiles):
        raise DiagonalMismatch("m(A) != 0: vertex 0 does not see every eigenvalue")


def ca_via_fit(A: RationalMatrix) -> RationalFunction:
    """C(a) = e_0^T (A + aI)^-1 e_0 from vertex 0's closed-walk moments.

    At infinity (A + aI)^-1 = sum_k (-1)^k A^k a^-(k+1), so C(a) is the
    rational function whose expansion has the coefficients
    s_k = (-1)^k m_k(0). By Cayley-Hamilton they satisfy a recurrence of
    order at most n, so Berlekamp-Massey on 2n of them
    (``fit_rational_function``) determines C(a) with no degree assumed;
    its denominator is m(-a) for the moments' minimal polynomial m
    (Wiedemann, IEEE TIT 1986), with which ``walk_regular`` proves every
    vertex's diagonal entry of G(a) to be this one, for every a > 0.
    """
    moments = closed_walk_moments(A, 0, 2 * A.rows)
    ca = fit_rational_function([(-1) ** k * m for k, m in enumerate(moments)])
    walk_regular(A, ca.den.compose_neg())
    return ca


def ca_via_charpoly(p: IntPolynomial) -> RationalFunction:
    """-(1/n) P'(-a)/P(-a), reduced to lowest terms."""
    n = p.degree
    num = -p.derivative().compose_neg()
    den = n * p.compose_neg()
    return RationalFunction(num, den)


def c_of_a(A: RationalMatrix, p: IntPolynomial) -> RationalFunction:
    """The sharp constant function by three routes, which must coincide."""
    routes = {
        "fit": ca_via_fit(A),
        "charpoly": ca_via_charpoly(p),
        "closed_form": closedform.ca_closed_form(),
    }
    names = sorted(routes)
    bad = [f"{x} vs {y}" for i, x in enumerate(names) for y in names[i + 1:]
           if routes[x] != routes[y]]
    if bad:
        raise RouteMismatch("; ".join(bad))
    return routes["fit"]


def singular_part(n: int) -> RationalFunction:
    """1/(n a)."""
    return RationalFunction(IntPolynomial([1]), IntPolynomial([0, n]))


def limit_identity_check(ca: RationalFunction, c0: Fraction, n: int) -> bool:
    """C(a) - 1/(n a) must be regular at 0 with value c0."""
    regular = ca - singular_part(n)
    if regular.has_pole_at(0):
        raise PoleRemains("pole at 0 survives the subtraction")
    return regular(0) == c0


def verify_pseudo_green(A: RationalMatrix, g_star: RationalMatrix) -> None:
    """Raise RouteMismatch unless g_star is the Moore-Penrose inverse G* of
    the Laplacian A, with A G* = G* A = I - E0.

    Three facts are checked: A is symmetric with A 1 = 0; A G* = G* A =
    I - E0 for E0 = J/n; and every row of G* sums to 0, G* 1 = 0. The four
    Moore-Penrose axioms follow:
    A G* A = A (I - E0) = A - (A 1) 1^T / n = A;
    G* A G* = G* (I - E0) = G* - (G* 1) 1^T / n = G*;
    and A G* and G* A both equal I - E0, which is symmetric. So does
    everything the axioms imply: E0 G* = (I - G* A) G* = 0, i.e. zero
    column sums, and G* symmetric, as the Moore-Penrose inverse of a
    symmetric matrix is.
    """
    n = A.rows
    e0 = projection_e0(n)
    if {x for row in e0.num for x in row} != {1} or e0.den != n:
        raise RouteMismatch("E0 is not the orthogonal projection J/n")
    if not A.is_symmetric() or any(map(sum, A.num)):
        raise RouteMismatch("A is not symmetric with A 1 = 0")
    ident_minus_e0 = RationalMatrix.identity(n) - e0
    if A * g_star != ident_minus_e0:
        raise RouteMismatch("A G* != I - E0")
    if g_star * A != ident_minus_e0:
        raise RouteMismatch("G* A != I - E0")
    if any(map(sum, g_star.num)):
        raise RouteMismatch("G* 1 != 0, so G* E0 != 0")


def constants_report(A: RationalMatrix, p: IntPolynomial) -> dict:
    """Cross-verify everything the constants rest on and report C0 and C(a)."""
    g_star = pseudo_green(A)
    verify_pseudo_green(A, g_star)
    c0 = c0_via_diagonal(g_star)
    c0_trace = c0_via_trace(p)
    if c0 != c0_trace:
        raise RouteMismatch(f"C0 diagonal {c0} vs trace {c0_trace}")
    ca = c_of_a(A, p)
    if not limit_identity_check(ca, c0, A.rows):
        raise RouteMismatch("limit of C(a) - 1/(na) at 0 is not C0")
    return {
        "schema_version": 1,
        "c0": rat_str(c0),
        "c0_decimal": float(c0),
        "N": ca.num.to_json(),
        "D": ca.den.to_json(),
        "D_factors": [str(f) for f in closedform.CA_DEN_FACTORS],
        "checks": {},
    }


def sample_ca_csv(ca: RationalFunction, a_values, n: int) -> str:
    """CSV of C(a) and C(a) - 1/(na) at the given points, exact and float."""
    regular = ca - singular_part(n)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["a", "C(a)", "C(a)_float", "C(a)-1/(na)", "C(a)-1/(na)_float"])
    for a in a_values:
        a = Fraction(a)
        va, vr = ca(a), regular(a)
        w.writerow([rat_str(a), rat_str(va), f"{float(va):.15g}",
                    rat_str(vr), f"{float(vr):.15g}"])
    return buf.getvalue()
