"""Polynomial arithmetic, rational functions, and Berlekamp-Massey fitting."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buckysob import _modular, closedform, green, ratmat
from buckysob.polynomials import (DegreeInsufficient, InexactDivision,
                                  IntPolynomial, RationalFunction, exact_div,
                                  fit_rational_function, poly_gcd,
                                  squarefree_part)
from oracles import fit_rational_function_fraction


def test_derivative():
    assert IntPolynomial([0, 0, 1]).derivative() == IntPolynomial([0, 2])
    assert IntPolynomial([5]).derivative() == IntPolynomial([])


def test_eval_at_roots_of_known_factors(p_char):
    assert p_char(0) == 0
    assert p_char(2) == 0
    assert p_char(5) == 0
    assert p_char(1) != 0


def test_mul_and_pow():
    x = IntPolynomial([0, 1])
    assert (x - IntPolynomial([2])) ** 2 == IntPolynomial([4, -4, 1])
    assert (x + IntPolynomial([1])) ** 0 == IntPolynomial([1])
    with pytest.raises(ValueError):
        (x + IntPolynomial([1])) ** -1


def test_compose_neg():
    p = IntPolynomial([1, 2, 3])
    assert p.compose_neg() == IntPolynomial([1, -2, 3])
    assert p.compose_neg()(Fraction(5)) == p(Fraction(-5))


def test_poly_gcd_and_squarefree():
    x = IntPolynomial([0, 1])
    p = (x - IntPolynomial([1])) ** 3 * (x - IntPolynomial([2]))
    g = poly_gcd(p, p.derivative())
    assert g == (x - IntPolynomial([1])) ** 2
    assert squarefree_part(p) == (x - IntPolynomial([1])) * (x - IntPolynomial([2]))


def test_exact_div_rejects_inexact():
    with pytest.raises(InexactDivision):
        exact_div(IntPolynomial([1, 1]), IntPolynomial([0, 1]))
    # exact over Q, but the quotient is not integral
    with pytest.raises(InexactDivision):
        exact_div(IntPolynomial([1, 1]), IntPolynomial([2]))
    with pytest.raises(InexactDivision):
        exact_div(IntPolynomial([1, 3]), IntPolynomial([1, 2]))
    with pytest.raises(ZeroDivisionError):
        exact_div(IntPolynomial([1]), IntPolynomial([]))


def _euclid_rem(p, q):
    """The remainder of p by q over Fractions; ascending lists, q trimmed."""
    rem = [Fraction(c) for c in p]
    while True:
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(q):
            return rem
        k = len(rem) - len(q)
        f = rem[-1] / q[-1]
        for i, c in enumerate(q):
            rem[k + i] -= f * c


def euclid_gcd(p, q):
    """The oracle: Euclid over Q, scaled to a primitive integer polynomial
    with positive leading coefficient."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, _euclid_rem(a, b)
    if not a:
        return IntPolynomial([])
    scale = math.lcm(*(Fraction(c).denominator for c in a))
    return IntPolynomial([int(c * scale) for c in a]).primitive()


# Small factors with contents, negative leading coefficients, constants
# and zero among them.
polys = st.builds(
    lambda cs, content: IntPolynomial([content * c for c in cs]),
    st.lists(st.integers(-9, 9), max_size=6), st.integers(-6, 6).filter(bool))
nonzero_polys = polys.filter(lambda f: not f.is_zero())


@settings(max_examples=300, deadline=None)
@given(polys, polys, polys)
def test_poly_gcd_matches_fraction_euclid(f, g, h):
    p, q = f * h, g * h
    expected = euclid_gcd(p, q)
    assert poly_gcd(p, q) == expected
    assert poly_gcd(q, p) == expected


@pytest.mark.parametrize("p, q, g", [
    ([], [], []),
    ([0, -6, -4], [], [0, 3, 2]),
    ([], [5], [1]),
    ([-4], [6], [1]),
    ([2, -2], [-4, 4], [-1, 1]),
    ([6, 0, -6], [-3, -3], [1, 1]),
])
def test_poly_gcd_edge_cases(p, q, g):
    assert poly_gcd(IntPolynomial(p), IntPolynomial(q)) == IntPolynomial(g)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys, polys)
def test_exact_div_inverts_multiplication(f, h, r):
    assert exact_div(f * h, h) == f
    with pytest.raises(InexactDivision):  # the quotient f + 1/2 is not integral
        exact_div(2 * f * h + h, 2 * h)
    if r.degree < h.degree and not r.is_zero():
        with pytest.raises(InexactDivision):
            exact_div(f * h + r, h)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero_polys, nonzero_polys)
def test_rational_function_cancels_any_common_factor(f, g, h):
    assert RationalFunction(f * h, g * h) == RationalFunction(f, g)


def test_poly_gcd_on_charpoly_cases(p_char):
    """The gcd, squarefree part and C(a) of the buckyball's charpoly, each
    against a value read off the listed factors, not off poly_gcd."""
    p = closedform.charpoly_product()
    x = IntPolynomial([0, 1])
    one = IntPolynomial([1])
    repeated, radical = one, one
    for f, e in closedform.CHARPOLY_FACTORS:
        repeated, radical = repeated * f ** (e - 1), radical * f
    assert (repeated.degree, radical.degree) == (45, 15)
    assert poly_gcd(p, p.derivative()) == repeated
    assert squarefree_part(p) == radical
    assert poly_gcd(p_char, p_char.compose_neg()) == x
    assert poly_gcd(-6 * (x - one) ** 3, 4 * (x * x - one)) == x - one
    assert green.ca_via_charpoly(p) == closedform.ca_closed_form()


def test_rational_function_normalization():
    # 2x/4 reduces to x/2; denominator leading coefficient stays positive
    rf = RationalFunction(IntPolynomial([0, 2]), IntPolynomial([4]))
    assert rf.num == IntPolynomial([0, 1])
    assert rf.den == IntPolynomial([2])
    rf = RationalFunction(IntPolynomial([1]), IntPolynomial([-2]))
    assert rf.den == IntPolynomial([2])
    assert rf.num == IntPolynomial([-1])
    # integer polynomials only: no lists, no Fraction or float coefficients
    with pytest.raises(TypeError):
        RationalFunction([1], [1, 1])
    for c in (Fraction(1), Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            IntPolynomial([0, c])


def test_rational_function_cancels_common_factor():
    x = IntPolynomial([0, 1])
    one = IntPolynomial([1])
    rf = RationalFunction((x - one) * (x + one), (x - one) * IntPolynomial([2]))
    assert rf == RationalFunction(x + one, IntPolynomial([2]))


def test_rational_function_arithmetic():
    x = IntPolynomial([0, 1])
    f = RationalFunction(IntPolynomial([1]), x)  # 1/x
    g = RationalFunction(IntPolynomial([1]), IntPolynomial([1, 1]))  # 1/(x+1)
    h = f - g
    assert h(Fraction(2)) == Fraction(1, 2) - Fraction(1, 3)
    assert h.has_pole_at(0)
    assert not (f - f).has_pole_at(0)


def expansion(f, count):
    """The first count coefficients s_k of f = N/D, deg N < deg D, at
    infinity, f = sum_k s_k a^-(k+1), by long division: the coefficient of
    a^(L-1-t) in N = D * f gives s_t."""
    n, d = f.num.coeffs, f.den.coeffs
    L = len(d) - 1
    s = []
    for t in range(count):
        j = L - 1 - t
        acc = Fraction(n[j] if 0 <= j < len(n) else 0)
        acc -= sum(d[i] * s[t - L + i] for i in range(max(0, L - t), L))
        s.append(acc / d[L])
    return s


def test_fit_reciprocal():
    one_over_x = RationalFunction(IntPolynomial([1]), IntPolynomial([0, 1]))
    assert fit_rational_function([1, 0]) == one_over_x
    assert fit_rational_function([1, 0, 0, 0, 0]) == one_over_x


def test_fit_moebius():
    # 3/(2x + 1) = (3/2) sum_k (-1/2)^k x^-(k+1)
    f = RationalFunction(IntPolynomial([3]), IntPolynomial([1, 2]))
    assert expansion(f, 3) == [Fraction(3, 2), Fraction(-3, 4), Fraction(3, 8)]
    assert fit_rational_function(expansion(f, 2)) == f


def test_fit_refit_is_stable():
    f = RationalFunction(IntPolynomial([3, 1]), IntPolynomial([1, 2, 5]))
    fitted = fit_rational_function(expansion(f, 8))
    assert fitted == f
    refit = fit_rational_function(expansion(fitted, 8))
    assert refit.num.coeffs == fitted.num.coeffs
    assert refit.den.coeffs == fitted.den.coeffs


def test_fit_degree_insufficient():
    # C(a) has L = 15: 30 terms fix it, 29 do not.
    ca = closedform.ca_closed_form()
    terms = expansion(ca, 30)
    assert fit_rational_function(terms) == ca
    with pytest.raises(DegreeInsufficient):
        fit_rational_function(terms[:29])


small_ints = st.integers(-5, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fit_recovers_random_rational_function(data):
    """N/D with deg N < deg D <= 6 from 2 deg D terms or more; 2 deg D - 1
    terms raise."""
    q = data.draw(st.integers(1, 6))
    p = data.draw(st.integers(0, q - 1))
    nonzero = small_ints.filter(bool)
    num = IntPolynomial(data.draw(st.lists(small_ints, min_size=p, max_size=p))
                        + [data.draw(nonzero)])
    den = IntPolynomial(data.draw(st.lists(small_ints, min_size=q, max_size=q))
                        + [data.draw(nonzero)])
    assume(poly_gcd(num, den).degree == 0)
    f = RationalFunction(num, den)
    terms = expansion(f, 2 * q + data.draw(st.integers(0, 2)))
    assert fit_rational_function(terms) == f
    with pytest.raises(DegreeInsufficient):
        fit_rational_function(terms[:2 * q - 1])


def test_fit_is_one_kernel_solve(monkeypatch):
    """The C(a) fit from the route's 120 terms is Berlekamp-Massey on
    integers: it runs with every multimodular kernel replaced by a failure."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    for name in ("charpoly_int", "det_int", "jordan_int"):
        monkeypatch.setattr(ratmat, name, no_kernel)
        monkeypatch.setattr(_modular, name, no_kernel)
    ca = closedform.ca_closed_form()
    assert fit_rational_function(expansion(ca, 120)) == ca


def _fit_or_insufficient(fit, series):
    try:
        return fit(series)
    except DegreeInsufficient:
        return DegreeInsufficient


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# A run of zeros or one term, integral or not.
blocks = st.one_of(st.integers(1, 6).map(lambda k: [0] * k),
                   fractions.map(lambda x: [x]),
                   st.integers(-9, 9).map(lambda x: [x]))
random_series = st.lists(blocks, max_size=24).map(
    lambda bs: [x for b in bs for x in b][:24])


@st.composite
def recurrent_series(draw):
    """Terms of a random recurrence of order at most 4, which a series of
    8 terms or more determines."""
    order = draw(st.integers(0, 4))
    coeffs = draw(st.lists(fractions, min_size=order, max_size=order))
    s = draw(st.lists(fractions, min_size=order, max_size=order))
    for _ in range(draw(st.integers(0, 24)) - order):
        s.append(sum(c * s[-1 - i] for i, c in enumerate(coeffs)))
    return s[:24]


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_series, recurrent_series()))
def test_fit_matches_fraction_berlekamp_massey(series):
    """The integer fit returns the Fraction oracle's N/D, and raises
    DegreeInsufficient exactly when the oracle does."""
    assert (_fit_or_insufficient(fit_rational_function, series)
            == _fit_or_insufficient(fit_rational_function_fraction, series))


def test_fit_rejects_too_few_samples():
    # One term of 1/x cannot tell it from 1/(x - c).
    with pytest.raises(DegreeInsufficient):
        fit_rational_function([1])


def test_fit_of_zero_series_is_zero():
    zero = RationalFunction(IntPolynomial([]), IntPolynomial([1]))
    assert fit_rational_function([0, 0, 0]) == zero


def test_known_ca_evaluates_at_one():
    ca = closedform.ca_closed_form()
    assert ca(Fraction(1)) == Fraction(28136010, 87119712)


def test_known_charpoly_product_is_monic_degree_60():
    p = closedform.charpoly_product()
    assert p.degree == 60
    assert p.leading == 1
    assert p.coeffs[0] == 0


def test_json_coefficients():
    assert IntPolynomial([1, -2]).to_json() == ["1", "-2"]
