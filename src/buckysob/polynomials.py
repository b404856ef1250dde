"""Exact univariate polynomials with integer coefficients and their
quotients, plus rational-function recovery from exact samples.

Coefficients are stored ascending. RationalFunction keeps a canonical
form: integer coefficients, numerator/denominator coprime as polynomials,
jointly content-free, positive leading denominator coefficient. That makes
equality with any published coefficient list a literal comparison.

A rational function is recovered from exact samples by one square linear
solve through the multimodular kernel (``ratmat.bareiss_solve``), with the
remaining samples held out as a check.
"""

from __future__ import annotations

import math
from fractions import Fraction


class VerificationFailed(Exception):
    """An exact check found two routes or a result and its oracle disagreeing.

    Not a ValueError: a failed verification is a wrong answer, not bad
    input, and the CLI reports it with exit code 1 instead of 2. Raised
    directly when a fitted rational function mismatches a held-out sample.
    """


class DegreeInsufficient(VerificationFailed):
    """The fit's linear system is singular at these degrees."""


def _trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return c


class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError("non-integer coefficient")
                c = c.numerator
            cs.append(int(c))
        self.coeffs = tuple(_trim(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPolynomial([(a[i] if i < len(a) else 0) +
                              (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        out = IntPolynomial([1])
        for _ in range(e):
            out = out * self
        return out

    def derivative(self):
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def compose_neg(self):
        """p(-x)."""
        return IntPolynomial([c if k % 2 == 0 else -c
                              for k, c in enumerate(self.coeffs)])

    def content(self):
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self):
        c = self.content()
        if c == 0:
            return self
        sign = -1 if self.leading < 0 else 1
        return IntPolynomial([x // (sign * c) for x in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(f"{c}*{xs}" if c != 1 else xs)
        return " + ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def to_json(self):
        return [str(c) for c in self.coeffs]


def _frac_divmod(p, q):
    """Division with remainder over Fractions; p, q ascending lists."""
    p = [Fraction(c) for c in p]
    q = _trim([Fraction(c) for c in q])
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    rem = list(p)
    while len(_trim(rem)) >= len(q):
        rem = _trim(rem)
        k = len(rem) - len(q)
        f = rem[-1] / q[-1]
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = rem[:-1]
    return quo, _trim(rem)


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient (Euclid over Q)."""
    a = [Fraction(c) for c in p.coeffs]
    b = [Fraction(c) for c in q.coeffs]
    while _trim(b):
        _, r = _frac_divmod(a, b)
        a, b = b, r
    a = _trim(a)
    if not a:
        return IntPolynomial([])
    scale = math.lcm(*(c.denominator for c in a))
    return IntPolynomial([c * scale for c in a]).primitive()


def exact_div(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    quo, rem = _frac_divmod(list(p.coeffs), list(q.coeffs))
    if rem:
        raise ValueError("inexact polynomial division")
    return IntPolynomial(quo)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    return exact_div(p, poly_gcd(p, p.derivative())).primitive()


class RationalFunction:
    """Quotient of integer polynomials in canonical lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num_f = [Fraction(c) for c in (num.coeffs if isinstance(num, IntPolynomial) else num)]
        den_f = [Fraction(c) for c in (den.coeffs if isinstance(den, IntPolynomial) else den)]
        if not _trim(den_f):
            raise ZeroDivisionError("zero denominator")
        n, d = self._normalize(num_f, den_f)
        self.num = n
        self.den = d

    @staticmethod
    def _normalize(num_f, den_f):
        # integerize with one common scale (scaling num and den separately
        # would change the value)
        scale = math.lcm(*(c.denominator for c in num_f + den_f))
        n = IntPolynomial([c * scale for c in num_f])
        d = IntPolynomial([c * scale for c in den_f])
        if n.is_zero():
            return n, IntPolynomial([1])
        g = poly_gcd(n, d)
        if g.degree > 0:
            n = exact_div(n, g)
            d = exact_div(d, g)
        c = math.gcd(n.content(), d.content())
        if d.leading < 0:
            c = -c
        n = IntPolynomial([x // c for x in n.coeffs])
        d = IntPolynomial([x // c for x in d.coeffs])
        return n, d

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __repr__(self):
        return f"RationalFunction(({self.num}) / ({self.den}))"

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return Fraction(self.num(x), 1) / d

    def has_pole_at(self, x) -> bool:
        return self.den(x) == 0

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other):
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)


def fit_rational_function(samples, num_deg, den_deg) -> RationalFunction:
    """Recover the rational function N/D with deg N <= num_deg and
    deg D == den_deg through exact samples.

    The leading coefficient of D is fixed at 1, so the equations
    N(a) - v D(a) = 0 at the first num_deg + den_deg + 1 samples form a
    square linear system in the other coefficients, solved by the exact
    kernel; every later sample is held out and must match the fit. Raises
    DegreeInsufficient when the system is singular (no fit of exactly
    these degrees is unique), VerificationFailed when a held-out sample
    mismatches.
    """
    # Imported here because ratmat imports this module.
    from buckysob.ratmat import (RationalMatrix, SingularMatrixError,
                                 bareiss_solve)

    need = num_deg + den_deg + 2
    if len(samples) < need:
        raise ValueError(f"need at least {need} samples, got {len(samples)}")
    pts = [(Fraction(a), Fraction(v)) for a, v in samples]
    if len({a for a, _ in pts}) != len(pts):
        raise ValueError("sample points must be distinct")
    fit_pts, held_out = pts[:need - 1], pts[need - 1:]
    rows = [[a ** k for k in range(num_deg + 1)]
            + [-v * a ** j for j in range(den_deg)] for a, v in fit_pts]
    rhs = [[v * a ** den_deg] for a, v in fit_pts]
    try:
        coeffs = bareiss_solve(RationalMatrix(rows), RationalMatrix(rhs)).column(0)
    except SingularMatrixError:
        raise DegreeInsufficient(
            f"no unique rational function of degrees ({num_deg},{den_deg}) "
            "fits") from None
    rf = RationalFunction(coeffs[:num_deg + 1], coeffs[num_deg + 1:] + [1])
    for a, v in held_out:
        if rf(a) != v:
            raise VerificationFailed(f"held-out sample at a={a} mismatches")
    return rf
