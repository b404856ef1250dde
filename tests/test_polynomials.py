"""Polynomial arithmetic, rational functions, and exact fitting."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buckysob import closedform, ratmat
from buckysob.polynomials import (DegreeInsufficient, IntPolynomial,
                                  RationalFunction, VerificationFailed,
                                  exact_div, fit_rational_function, poly_gcd,
                                  squarefree_part)


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
    with pytest.raises(ValueError):
        exact_div(IntPolynomial([1, 1]), IntPolynomial([0, 1]))


def test_rational_function_normalization():
    # 2x/4 reduces to x/2; denominator leading coefficient stays positive
    rf = RationalFunction(IntPolynomial([0, 2]), IntPolynomial([4]))
    assert rf.num == IntPolynomial([0, 1])
    assert rf.den == IntPolynomial([2])
    rf = RationalFunction(IntPolynomial([1]), IntPolynomial([-2]))
    assert rf.den == IntPolynomial([2])
    assert rf.num == IntPolynomial([-1])


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


def test_fit_reciprocal():
    samples = [(Fraction(k), Fraction(1, k)) for k in range(1, 5)]
    rf = fit_rational_function(samples, 0, 1)
    assert rf == RationalFunction(IntPolynomial([1]), IntPolynomial([0, 1]))


def test_fit_moebius():
    f = RationalFunction(IntPolynomial([1, 1]), IntPolynomial([2, 1]))
    samples = [(Fraction(k), f(Fraction(k))) for k in range(1, 7)]
    assert fit_rational_function(samples, 1, 1) == f


def test_fit_refit_is_stable():
    f = RationalFunction(IntPolynomial([3, 0, 1]), IntPolynomial([1, 2, 5]))
    samples = [(Fraction(k), f(Fraction(k))) for k in range(1, 9)]
    fitted = fit_rational_function(samples, 2, 2)
    assert fitted == f
    refit = fit_rational_function([(a, fitted(a)) for a, _ in samples], 2, 2)
    assert refit.num.coeffs == fitted.num.coeffs
    assert refit.den.coeffs == fitted.den.coeffs


def test_fit_degree_insufficient():
    # x^2 is not a ratio of constants
    samples = [(Fraction(k), Fraction(k * k)) for k in range(1, 6)]
    with pytest.raises((DegreeInsufficient, VerificationFailed)):
        fit_rational_function(samples, 0, 0)


small_ints = st.integers(-5, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fit_recovers_random_rational_function(data):
    p, q = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    num = IntPolynomial(data.draw(st.lists(small_ints, min_size=p + 1,
                                           max_size=p + 1)))
    den = IntPolynomial(data.draw(st.lists(small_ints, min_size=q, max_size=q))
                        + [data.draw(small_ints.filter(bool))])
    assume(poly_gcd(num, den).degree == 0)
    count = p + q + 2 + data.draw(st.integers(0, 2))
    points = [a for a in range(1, count + q + 1) if den(a)][:count]
    f = RationalFunction(num, den)
    samples = [(Fraction(a), f(Fraction(a))) for a in points]
    assert fit_rational_function(samples, p, q) == f


@pytest.mark.parametrize("f, num_deg, den_deg", [
    # 1/x with room for a second pole.
    (RationalFunction(IntPolynomial([1]), IntPolynomial([0, 1])), 0, 2),
    # (x+1)/(x+2) with room for a common factor.
    (RationalFunction(IntPolynomial([1, 1]), IntPolynomial([2, 1])), 2, 2),
])
def test_fit_rejects_overspecified_denominator_degree(f, num_deg, den_deg):
    samples = [(Fraction(k), f(Fraction(k))) for k in range(1, 9)]
    with pytest.raises(DegreeInsufficient):
        fit_rational_function(samples, num_deg, den_deg)


@pytest.mark.parametrize("held_out", [3, 4, 5])
def test_fit_checks_every_held_out_sample(held_out):
    # Degrees (1, 1) fit the first three samples and hold out the rest.
    f = RationalFunction(IntPolynomial([1, 1]), IntPolynomial([2, 1]))
    samples = [(Fraction(k), f(Fraction(k))) for k in range(1, 7)]
    a, v = samples[held_out]
    samples[held_out] = (a, v + Fraction(1, 10 ** 6))
    with pytest.raises(VerificationFailed) as exc:
        fit_rational_function(samples, 1, 1)
    assert not isinstance(exc.value, DegreeInsufficient)


def test_fit_is_one_kernel_solve(monkeypatch):
    """The C(a) fit is one 30 x 30 solve; the last 3 of 33 samples are
    held out."""
    sizes = []
    jordan_int = ratmat.jordan_int

    def counted(aug, n, m):
        sizes.append((n, m))
        return jordan_int(aug, n, m)

    monkeypatch.setattr(ratmat, "jordan_int", counted)
    ca = closedform.ca_closed_form()
    samples = [(Fraction(k), ca(Fraction(k))) for k in range(1, 34)]
    assert fit_rational_function(samples, 14, 15) == ca
    assert sizes == [(30, 1)]


def test_fit_rejects_too_few_samples():
    with pytest.raises(ValueError):
        fit_rational_function([(Fraction(1), Fraction(1))], 1, 1)


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
