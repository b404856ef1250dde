"""Green matrix, pseudo-Green matrix, and the sharp constants.

The pseudo-Green matrix is computed as (A + J)^-1 - E0/60, one exact solve
of an integral system (J is the all-ones matrix, J = 60 E0); the
Moore-Penrose axioms and A G* = G* A = I - E0, G* E0 = 0 are then verified
as theorems. C0 and C(a) each come by independent routes that
must agree exactly:

  C0:   any diagonal entry of G*        vs  -(1/60) q'(0)/q(0), P = x q(x)
  C(a): Berlekamp-Massey on the closed-walk moments (A^k)_00, k < 120,
        with no elimination
        vs  -(1/60) P'(-a)/P(-a)
        vs  the known closed-form coefficient lists.

That every diagonal entry of G(a) and of G* is the same is proved once by
``walk_regular``: both are polynomials in A (Cayley-Hamilton), so equal
closed-walk moments (A^k)_jj for k < n make their diagonals constant for
every a > 0.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from buckysob import closedform
from buckysob.polynomials import (IntPolynomial, RationalFunction,
                                  VerificationFailed, fit_rational_function)
from buckysob.ratmat import PivotCounter, RationalMatrix, inverse, rat_str


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


def green_matrix(A: RationalMatrix, a, counter: PivotCounter | None = None) -> RationalMatrix:
    """(A + aI)^-1, exact."""
    return inverse(A.scaled_add(positive(a)), counter)


def pseudo_green(A: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    """Moore-Penrose inverse of a Laplacian: (A + J)^-1 - E0/n.

    J = n E0 is the all-ones matrix. With A 1 = 0 and A symmetric,
    (A + J)(G* + E0/n) = (I - E0) + E0 = I. Unlike A + E0, the system
    A + J is integral for an integral A, so no n^n row scale enters the
    determinant of the solve.
    """
    n = A.rows
    if any(map(sum, A.num)):  # the row sums are A 1
        raise KernelMismatch("constant vector is not in the kernel")
    j = RationalMatrix.constant(n, n, 1)
    return inverse(A + j, counter) - Fraction(1, n) * projection_e0(n)


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
    rows = A.nonzeros()
    v = [int(i == j) for i in range(A.rows)]
    out = []
    while len(out) < count:
        w = [sum(a * v[c] for c, a in row) for row in rows]
        out += [sum(x * x for x in v), sum(x * y for x, y in zip(v, w))]
        v = w
    return [Fraction(m, A.den ** k) for k, m in enumerate(out[:count])]


def walk_regular(A: RationalMatrix) -> None:
    """Raise DiagonalMismatch unless every vertex has the closed-walk
    moments m_k(j) = (A^k)_jj of vertex 0 for every k <= n - 1.

    By Cayley-Hamilton, every power of A, (A + aI)^-1 for every a > 0 and
    the pseudo-inverse G* are polynomials in A of degree below n (Godsil &
    McKay, LAA 1980). Equal moments up to k = n - 1 therefore prove that
    all their diagonal entries are equal.
    """
    n = A.rows
    first = closed_walk_moments(A, 0, n)
    for j in range(1, n):
        for k, (x, y) in enumerate(zip(first, closed_walk_moments(A, j, n))):
            if x != y:
                raise DiagonalMismatch(
                    f"closed-walk moment m_{k} of vertex {j} differs from vertex 0's")


def ca_via_fit(A: RationalMatrix) -> RationalFunction:
    """C(a) = e_0^T (A + aI)^-1 e_0 from vertex 0's closed-walk moments.

    At infinity (A + aI)^-1 = sum_k (-1)^k A^k a^-(k+1), so C(a) is the
    rational function whose expansion has the coefficients
    s_k = (-1)^k m_k(0). By Cayley-Hamilton they satisfy a recurrence of
    order at most n, so Berlekamp-Massey on 2n of them
    (``fit_rational_function``) determines C(a) with no degree assumed
    (Wiedemann, IEEE TIT 1986). ``walk_regular`` first proves that every
    vertex's diagonal entry of G(a) is this one, for every a > 0.
    """
    walk_regular(A)
    moments = closed_walk_moments(A, 0, 2 * A.rows)
    return fit_rational_function([(-1) ** k * m for k, m in enumerate(moments)])


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


def limit_identity_check(ca: RationalFunction, c0: Fraction, n: int = 60) -> bool:
    """C(a) - 1/(n a) must be regular at 0 with value c0."""
    regular = ca - singular_part(n)
    if regular.has_pole_at(0):
        raise PoleRemains("pole at 0 survives the subtraction")
    return regular(0) == c0


def monotonicity_scan(ca: RationalFunction, points) -> bool:
    """Exact evaluations at ascending positive points strictly decrease."""
    pts = [Fraction(x) for x in points]
    if any(x <= 0 for x in pts) or any(b <= a for a, b in zip(pts, pts[1:])):
        raise ValueError("points must be positive and strictly ascending")
    values = [ca(x) for x in pts]
    return all(b < a for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class GreenBundle:
    g_star: RationalMatrix
    c0: Fraction
    c_of_a: RationalFunction


def build_green_bundle(A: RationalMatrix, p: IntPolynomial) -> GreenBundle:
    """Assemble and cross-verify everything the constants rest on."""
    n = A.rows
    e0 = projection_e0(n)
    g_star = pseudo_green(A)
    ident = RationalMatrix.identity(n)
    zero = RationalMatrix.zeros(n, n)
    if e0 * e0 != e0 or e0.transpose() != e0:
        raise RouteMismatch("E0 is not an orthogonal projection")
    if A * g_star != ident - e0 or g_star * A != ident - e0:
        raise RouteMismatch("A G* != I - E0")
    if g_star * e0 != zero or e0 * g_star != zero:
        raise RouteMismatch("G* E0 != 0")
    if not g_star.is_symmetric():
        raise RouteMismatch("G* is not symmetric")
    c0_diag = c0_via_diagonal(g_star)
    c0_trace = c0_via_trace(p)
    if c0_diag != c0_trace:
        raise RouteMismatch(f"C0 diagonal {c0_diag} vs trace {c0_trace}")
    ca = c_of_a(A, p)
    if not limit_identity_check(ca, c0_diag, n):
        raise RouteMismatch("limit of C(a) - 1/(na) at 0 is not C0")
    return GreenBundle(g_star=g_star, c0=c0_diag, c_of_a=ca)


def constants_report(bundle: GreenBundle) -> dict:
    ca = bundle.c_of_a
    return {
        "schema_version": 1,
        "c0": rat_str(bundle.c0),
        "c0_decimal": float(bundle.c0),
        "N": ca.num.to_json(),
        "D": ca.den.to_json(),
        "D_factors": [str(f) for f in closedform.CA_DEN_FACTORS],
        "checks": {},
    }


def sample_ca_csv(ca: RationalFunction, a_values, n: int = 60) -> str:
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
