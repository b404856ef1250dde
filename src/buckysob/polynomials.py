"""Exact univariate polynomials with integer coefficients and their
quotients, plus rational-function recovery from an exact power series.

Coefficients are stored ascending. RationalFunction keeps a canonical
form: integer coefficients, numerator/denominator coprime as polynomials,
jointly content-free, positive leading denominator coefficient. That makes
equality with any published coefficient list a literal comparison.

The gcd and the division run on integers only. ``poly_gcd`` is the
primitive pseudo-remainder sequence. ``exact_div`` is integer long
division that raises ``InexactDivision`` on a remainder or a quotient
that is not integral: every divisor it is given was computed by the
package, so a failed division is a wrong answer, not bad input.

A rational function is recovered from the coefficients of its expansion at
infinity by Berlekamp-Massey on integers, content removed each step, with
no degree given and no elimination.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class VerificationFailed(Exception):
    """An exact check found two routes or a result and its oracle disagreeing.

    Not a ValueError: a failed verification is a wrong answer, not bad
    input, and the CLI reports it with exit code 1 instead of 2.
    """


class DegreeInsufficient(VerificationFailed):
    """A series too short to fix its minimal recurrence."""


class InexactDivision(VerificationFailed):
    """A polynomial division that should be exact left a remainder or a
    quotient that is not integral."""


def _trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return c


class IntPolynomial:
    """Integer-coefficient polynomial, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_trim(map(operator.index, coeffs)))

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
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        return math.prod([self] * e, start=IntPolynomial([1]))

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


def _quotient(p, q):
    """The quotient of p by q, ascending coefficient lists, as a list, if
    q divides p in Z[x]; None otherwise. Integer long division, which stops
    at the first quotient coefficient that is not an integer."""
    dq = len(q) - 1
    lead = q[-1]
    rem = list(p)
    quo = [0] * max(len(p) - dq, 0)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + dq], lead)
        if r:
            return None
        if c:
            quo[k] = c
            for i in range(dq):
                rem[k + i] -= c * q[i]
    return None if any(rem[:dq]) else quo


def _pseudo_remainder(p, q):
    """lc(q)^(deg p - deg q + 1) p mod q, fraction-free; deg p >= deg q."""
    dq = len(q) - 1
    lead = q[-1]
    rem = list(p)
    for k in range(len(p) - 1 - dq, -1, -1):
        c = rem[k + dq]
        rem = [lead * x for x in rem[:k + dq]]
        if c:
            for i in range(dq):
                rem[k + i] -= c * q[i]
    return rem


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient, on integers.

    A primitive pseudo-remainder sequence: each pseudo-remainder has its
    content removed before the next step (Collins, JACM 14, 1967; Geddes,
    Czapor & Labahn, *Algorithms for Computer Algebra*, 1992, ch. 7).
    gcd(p, 0) is the primitive part of p, gcd(0, 0) the zero polynomial.
    """
    a, b = p.primitive(), q.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, IntPolynomial(_pseudo_remainder(a.coeffs, b.coeffs)).primitive()
    return a


def exact_div(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q; InexactDivision unless q divides p with an integer quotient."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quo = _quotient(p.coeffs, q.coeffs)
    if quo is None:
        raise InexactDivision("inexact polynomial division")
    return IntPolynomial(quo)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    return exact_div(p, poly_gcd(p, p.derivative())).primitive()


class RationalFunction:
    """Quotient of integer polynomials in canonical lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not (isinstance(num, IntPolynomial) and isinstance(den, IntPolynomial)):
            raise TypeError("RationalFunction takes two IntPolynomials")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(n, d):
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


def fit_rational_function(series) -> RationalFunction:
    """The rational function N/D, deg N < deg D, whose expansion at
    infinity is sum_k series[k] a^-(k+1), by Berlekamp-Massey on integers,
    content removed each step.

    D is the minimal polynomial of the sequence: up to a constant, the
    reversal of the shortest connection polynomial, whose degree L is the
    linear complexity (Massey, IEEE TIT 1969). N is the polynomial part of
    D times the series, so N/D is in lowest terms. The result is unique,
    hence determined by the series, only when 2 L <= len(series); otherwise
    DegreeInsufficient is raised. No degree is assumed: a sequence known to
    satisfy a recurrence of order at most L (for a matrix of size L, by
    Cayley-Hamilton) needs 2 L terms.

    The series is scaled once to integers by the lcm of its denominators.
    Each update last C - d x^shift B cancels d with no division, and then
    loses its content; as C is no longer monic, d sums every C_i s_(k-i).
    """
    s = [Fraction(x) for x in series]
    scale = math.lcm(*(x.denominator for x in s))
    s = [x.numerator * (scale // x.denominator) for x in s]
    conn, prev = [1], [1]  # ascending connection polys, content-free
    length, shift, last = 0, 1, 1
    for k in range(len(s)):
        d = sum(c * s[k - i] for i, c in enumerate(conn[:length + 1]))
        if d == 0:
            shift += 1
            continue
        new = [last * c for c in conn] + [0] * (len(prev) + shift - len(conn))
        for i, c in enumerate(prev):
            new[i + shift] -= d * c
        g = math.gcd(*new)
        new = [c // g for c in new]
        if 2 * length <= k:
            length, prev, last, shift = k + 1 - length, conn, d, 1
        else:
            shift += 1
        conn = new
    if 2 * length > len(s):
        raise DegreeInsufficient(
            f"{len(s)} terms cannot fix a recurrence of order {length}")
    conn += [0] * (length + 1 - len(conn))
    den = conn[length::-1]
    num = [sum(den[i] * s[i - j - 1] for i in range(j + 1, length + 1))
           for j in range(length)]
    return RationalFunction(IntPolynomial(num), scale * IntPolynomial(den))
