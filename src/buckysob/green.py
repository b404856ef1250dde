"""Green matrix, pseudo-Green matrix, and the sharp constants.

The pseudo-Green matrix is computed as (A + J)^-1 - E0/60, one exact solve
of an integral system (J is the all-ones matrix, J = 60 E0); the
Moore-Penrose axioms and A G* = G* A = I - E0, G* E0 = 0 are then verified
as theorems. C0 and C(a) each come by independent routes that
must agree exactly:

  C0:   any diagonal entry of G*        vs  -(1/60) q'(0)/q(0), P = x q(x)
  C(a): rational-function fit through exact diagonal entries, one vertex
        per sample, each from a one-column solve
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
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from buckysob import closedform
from buckysob.polynomials import (IntPolynomial, RationalFunction,
                                  VerificationFailed, fit_rational_function)
from buckysob.ratmat import (PivotCounter, RationalMatrix, bareiss_solve,
                             inverse, rat_str)

CA_NUM_DEGREE = 14
CA_DEN_DEGREE = 15
CA_SAMPLE_COUNT = 33


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


def _positive(a) -> Fraction:
    a = Fraction(a)
    if a <= 0:
        raise NonPositiveParameter(f"damping parameter must be positive, got {a}")
    return a


def green_matrix(A: RationalMatrix, a, counter: PivotCounter | None = None) -> RationalMatrix:
    """(A + aI)^-1, exact."""
    return inverse(A.scaled_add(_positive(a)), counter)


def pseudo_green(A: RationalMatrix, counter: PivotCounter | None = None) -> RationalMatrix:
    """Moore-Penrose inverse of a Laplacian: (A + J)^-1 - E0/n.

    J = n E0 is the all-ones matrix. With A 1 = 0 and A symmetric,
    (A + J)(G* + E0/n) = (I - E0) + E0 = I. Unlike A + E0, the system
    A + J is integral for an integral A, so no n^n row scale enters the
    determinant of the solve.
    """
    n = A.rows
    if any(x != 0 for x in A.matvec([1] * n)):
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
        raise ValueError("polynomial has no root at 0")
    q = IntPolynomial(p.coeffs[1:])
    n = p.degree
    return Fraction(-q.derivative()(0), n * q(0))


def walk_regular(A: RationalMatrix) -> None:
    """Raise DiagonalMismatch unless every vertex has the closed-walk
    moments m_k(j) = (A^k)_jj of vertex 0 for every k <= n - 1.

    By Cayley-Hamilton, every power of A, (A + aI)^-1 for every a > 0 and
    the pseudo-inverse G* are polynomials in A of degree below n (Godsil &
    McKay, LAA 1980). Equal moments up to k = n - 1 therefore prove that
    all their diagonal entries are equal. For symmetric A, with
    v = A^t e_j, the moments are m_2t = v.v and m_2t+1 = v.(A v), computed
    by sparse integer matvecs on the numerators (the common denominator
    scales every vertex alike).
    """
    if not A.is_symmetric():
        raise ValueError("closed-walk moments need a symmetric matrix")
    n, rows = A.rows, A.nonzeros()

    def moments(j):
        v = [0] * n
        v[j] = 1
        out = []
        while len(out) < n:
            w = [sum(a * v[c] for c, a in row) for row in rows]
            out += [sum(x * x for x in v), sum(x * y for x, y in zip(v, w))]
            v = w
        return out[:n]

    first = moments(0)
    for j in range(1, n):
        for k, (x, y) in enumerate(zip(first, moments(j))):
            if x != y:
                raise DiagonalMismatch(
                    f"closed-walk moment m_{k} of vertex {j} differs from vertex 0's")


def _diag_sample(args):
    """(a, G(a)_jj) from the one-column solve (A + aI) x = e_j."""
    num, den, a, j = args
    a = _positive(a)
    A = RationalMatrix.from_ints(num, den)
    e_j = RationalMatrix.from_ints([[int(i == j)] for i in range(A.rows)])
    return a, bareiss_solve(A.scaled_add(a), e_j)[j, 0]


def ca_via_fit(A: RationalMatrix, sample_points=None, parallel: int = 1) -> RationalFunction:
    """Fit N(a)/D(a) with degrees (14, 15) through exact diagonal samples:
    the first 30 samples determine the fit and the last 3 are held out.

    Sample k is the entry G(a_k)_jj at vertex j = k mod n, read off the
    one-column solve (A + a_k I) x = e_j, so the fit can pass only if the
    diagonals of those vertices agree. Before sampling, ``walk_regular``
    proves that every diagonal entry of G(a) is the same for every a > 0.

    Sample points default to a = 1..33: every pole of C(a) sits at a
    nonpositive value, so positive integers are always safe. With
    ``parallel`` > 1 the samples are spread over at most
    min(parallel, sample count, CPU count) worker processes, each sent the
    integer rows of A; when that is one worker they run in-process.
    """
    walk_regular(A)
    if sample_points is None:
        sample_points = [Fraction(k) for k in range(1, CA_SAMPLE_COUNT + 1)]
    args = [(A.num, A.den, a, k % A.rows) for k, a in enumerate(sample_points)]
    workers = min(parallel, len(args), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(_diag_sample, args))
    else:
        samples = [_diag_sample(x) for x in args]
    return fit_rational_function(samples, CA_NUM_DEGREE, CA_DEN_DEGREE)


def ca_via_charpoly(p: IntPolynomial) -> RationalFunction:
    """-(1/n) P'(-a)/P(-a), reduced to lowest terms."""
    n = p.degree
    num = -p.derivative().compose_neg()
    den = n * p.compose_neg()
    return RationalFunction(num, den)


def c_of_a(A: RationalMatrix, p: IntPolynomial, parallel: int = 1) -> RationalFunction:
    """The sharp constant function by three routes, which must coincide."""
    routes = {
        "fit": ca_via_fit(A, parallel=parallel),
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


def build_green_bundle(A: RationalMatrix, p: IntPolynomial,
                       parallel: int = 1) -> GreenBundle:
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
    ca = c_of_a(A, p, parallel=parallel)
    if not limit_identity_check(ca, c0_diag, n):
        raise RouteMismatch("limit of C(a) - 1/(na) at 0 is not C0")
    return GreenBundle(g_star=g_star, c0=c0_diag, c_of_a=ca)


def constants_report(bundle: GreenBundle, checks: dict | None = None) -> dict:
    ca = bundle.c_of_a
    return {
        "schema_version": 1,
        "c0": rat_str(bundle.c0),
        "c0_decimal": float(bundle.c0),
        "N": ca.num.to_json(),
        "D": ca.den.to_json(),
        "D_factors": [str(f) for f in closedform.CA_DEN_FACTORS],
        "checks": checks or {},
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
