"""Half-size block reduction via a fixed-point-free involutive automorphism
(a half-turn of the buckyball, not the antipodal map)."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from buckysob import _modular, blocks, closedform, green, ratmat
from buckysob.polynomials import IntPolynomial, exact_div
from buckysob.ratmat import PivotCounter, RationalMatrix, charpoly, inverse
from oracles import primes_to_bound

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.fixture(scope="module")
def split(lap, sigma):
    return blocks.block_split(lap, sigma)


def test_split_block_structure(split):
    assert split.a0.rows == split.a1.rows == 30
    assert split.a0.is_symmetric() and split.a1.is_symmetric()
    assert all(split.a0[i, i] == 3 for i in range(30))
    assert split.a_plus == split.a0 + split.a1
    assert split.a_minus == split.a0 - split.a1


def test_split_row_sums(split):
    ones = RationalMatrix.constant(30, 1, 1)
    assert split.a_plus * ones == RationalMatrix.zeros(30, 1)


def test_j_conjugation(lap, split):
    j = split.j_matrix
    j_inv = Fraction(1, 2) * j
    assert j_inv * j == RationalMatrix.identity(60)
    relabeled = lap.permuted(list(split.perm))
    conj = j_inv * relabeled * j
    zero = RationalMatrix.zeros(30, 30)
    assert conj == RationalMatrix.block([[split.a_plus, zero], [zero, split.a_minus]])


def test_split_rejects_non_involution(lap):
    with pytest.raises(ValueError):
        blocks.block_split(lap, tuple(range(60)))


def test_half_spectra(split, p_char):
    assert blocks.half_spectra_check(split, p_char)


def test_half_charpolys_have_degree_30(split):
    p_plus = charpoly(split.a_plus)
    p_minus = charpoly(split.a_minus)
    assert p_plus.degree == 30 and p_minus.degree == 30
    assert p_plus.coeffs[0] == 0  # A+ is singular


def test_half_spectra_rejects_wrong_polynomial(split):
    with pytest.raises(blocks.SpectrumSplitMismatch):
        blocks.half_spectra_check(split, IntPolynomial([0, 1]))


def test_half_spectra_rejects_singular_a_minus(split, monkeypatch):
    # A- replaced by the singular A+, with p = charpoly(A+)^2 so that the
    # product and the row sums still pass: the verdict comes from the
    # charpoly's constant term, with no determinant solve.
    def no_det(rows):
        raise AssertionError("det_int called")

    monkeypatch.setattr(ratmat, "det_int", no_det)
    monkeypatch.setattr(_modular, "det_int", no_det)
    p_plus = charpoly(split.a_plus)
    singular = dataclasses.replace(split, a_minus=split.a_plus)
    with pytest.raises(blocks.SpectrumSplitMismatch, match="A- is singular"):
        blocks.half_spectra_check(singular, p_plus * p_plus)


def test_a_minus_positive_determinant(split):
    # det(A-) is the constant term of det(xI - A-), as A- is 30 x 30.
    assert charpoly(split.a_minus).coeffs[0] > 0


def test_pseudo_green_via_blocks(lap, split, g_star):
    assert blocks.assemble_green_via_blocks(split) == g_star


def test_green_via_blocks(lap, split, g_one):
    assert blocks.assemble_green_via_blocks(split, 1) == g_one
    a = Fraction(1, 3)
    assert blocks.assemble_green_via_blocks(split, a) == green.green_matrix(lap, a)


def _wide_a():
    """a = p/q with p and q of 48 bits, as the benchmark's widest G(a)
    draws it."""
    rng = random.Random(48)
    return Fraction(rng.getrandbits(48) | 1 << 47, rng.getrandbits(48) | 1 << 47)


def test_green_via_blocks_wide_a(lap, split, chunks, monkeypatch):
    # Each 30 x 30 half is solved for its reduced numerator, under a bound
    # from its minimal polynomial: at most half the primes of the Hadamard
    # bound (23 and 22 against 49), every one usable, in one batch each,
    # and both solves go through ratmat.jordan_int.
    a = _wide_a()
    calls = []

    def recording(rows, *args, _jordan_int=ratmat.jordan_int):
        calls.append(args)
        return _jordan_int(rows, *args)

    monkeypatch.setattr(ratmat, "jordan_int", recording)
    via_blocks = blocks.assemble_green_via_blocks(split, a)
    assert len(calls) == 2 and all(len(args) == 2 for args in calls)
    assert len(chunks) == 2
    for (primes, live), half in zip(chunks, (split.a_plus, split.a_minus)):
        assert all(live)
        assert 2 * len(primes) <= primes_to_bound(
            _modular.hadamard_bound(half.scaled_add(a).num))
    assert via_blocks == green.green_matrix(lap, a)
    assert via_blocks.diagonal() == [closedform.ca_closed_form()(a)] * 60


def _drop_a_factor(setattr):
    """Each half's annihilator loses its factor x - 2 (2 is an eigenvalue of
    both halves), so it no longer vanishes on the half."""
    real = green._annihilator

    def dropped(rows):
        return exact_div(real(rows), IntPolynomial([-2, 1]))

    setattr(green, "_annihilator", dropped)


def _cut_bound(setattr):
    """The half solves' bounds lose half their bits."""
    real = ratmat.jordan_int

    def cut(rows, denominator=None, bound=None):
        if bound is not None:
            bound >>= bound.bit_length() // 2
        return real(rows, denominator, bound)

    setattr(ratmat, "jordan_int", cut)


def _multiply_annihilator(setattr):
    """Each half's annihilator times x + 3: still an annihilator, with a
    larger bound."""
    real = green._annihilator
    setattr(green, "_annihilator", lambda rows: real(rows) * IntPolynomial([3, 1]))


PLANTED_FAULTS = {"drop_a_factor": _drop_a_factor, "cut_bound": _cut_bound}


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
def test_half_solve_rejects_planted_fault(split, monkeypatch, fault):
    # A wrong annihilator or a bound too small gives a wrong X, which the
    # exact residual rejects: the route raises and returns nothing.
    PLANTED_FAULTS[fault](monkeypatch.setattr)
    with pytest.raises(green.RouteMismatch, match="annihilator or its bound"):
        blocks.assemble_green_via_blocks(split, _wide_a())


def test_half_solve_with_a_multiple_annihilator(lap, split, chunks, monkeypatch):
    # m (x + 3) annihilates each half too: the same G(a), from more primes.
    a = _wide_a()
    expected = green.green_matrix(lap, a)
    assert blocks.assemble_green_via_blocks(split, a) == expected
    before = [len(primes) for primes, _ in chunks]
    chunks.clear()
    _multiply_annihilator(monkeypatch.setattr)
    assert blocks.assemble_green_via_blocks(split, a) == expected
    after = [len(primes) for primes, _ in chunks]
    assert all(x > y for x, y in zip(after, before)) and len(after) == 2


@pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS) + ["multiply_annihilator"])
def test_half_solve_faults_under_optimize(fault):
    """The half solve's residual raises explicitly, so the planted faults
    are caught with asserts stripped by ``python -O``, and the harmless one
    still gives the direct route's G(a)."""
    script = f"""
import sys
from buckysob import blocks, graph, green
import test_blocks
g = graph.buckyball()
A = graph.laplacian(g)
split = blocks.block_split(A, graph.find_antipodal_involution(g))
a = test_blocks._wide_a()
expected = green.green_matrix(A, a)
faults = dict(test_blocks.PLANTED_FAULTS,
              multiply_annihilator=test_blocks._multiply_annihilator)
faults[{fault!r}](setattr)
try:
    got = blocks.assemble_green_via_blocks(split, a)
except green.RouteMismatch:
    sys.exit(3)
sys.exit(4 if got == expected else 5)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    expected_code = 4 if fault == "multiply_annihilator" else 3
    assert proc.returncode == expected_code, proc.stdout + proc.stderr


@st.composite
def small_halves(draw):
    """A square rational matrix of order 1 to 4, often non-symmetric, over a
    denominator of 1 to 3, and a > 0 with small numerator and
    denominator."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    half = RationalMatrix.from_ints(rows, draw(st.integers(1, 3)))
    return half, Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(small_halves())
@example((RationalMatrix([[-2, 0], [0, 1]]), Fraction(2)))
@example((RationalMatrix.from_ints([[-3, 1], [0, -3]], 2), Fraction(3, 2)))
@example((RationalMatrix([[0, 0], [0, 0]]), Fraction(1, 5)))
def test_half_green_matches_inverse(case):
    # Any square half, with or without repeated or defective eigenvalues:
    # the reduced-numerator solve gives the Hadamard-bound inverse, and
    # -a an eigenvalue of the half raises SingularMatrixError.
    half, a = case
    try:
        expected = inverse(half.scaled_add(a))
    except ratmat.SingularMatrixError:
        with pytest.raises(ratmat.SingularMatrixError):
            blocks._half_green(half, a, None)
        return
    counter = PivotCounter()
    assert blocks._half_green(half, a, counter) == expected
    assert counter.ops > 0


def test_half_green_singular_despite_a_wrong_annihilator(monkeypatch):
    # m = 1 gives r = 1 != 0 for a singular half + aI: the kernel's
    # Hadamard bound finds it singular, and the solve says so.
    monkeypatch.setattr(green, "_annihilator", lambda rows: IntPolynomial([1]))
    with pytest.raises(ratmat.SingularMatrixError):
        blocks._half_green(RationalMatrix([[-2, 0], [0, 1]]), Fraction(2), None)


def test_green_via_blocks_rejects_nonpositive(split):
    for a in (0, -1):
        with pytest.raises(green.NonPositiveParameter):
            blocks.assemble_green_via_blocks(split, a)


@settings(max_examples=4, deadline=None)
@given(st.builds(Fraction, st.integers(1, 2 ** 8), st.integers(1, 2 ** 8)))
def test_green_via_blocks_random_a(lap, split, a):
    via_blocks = blocks.assemble_green_via_blocks(split, a)
    assert via_blocks == green.green_matrix(lap, a)
    assert via_blocks.diagonal() == [closedform.ca_closed_form()(a)] * 60


def test_reassembly_identities(split):
    half = 30
    e_half = RationalMatrix.constant(half, half, Fraction(1, half))
    g_plus = inverse(split.a_plus + e_half) - e_half
    g_minus = inverse(split.a_minus)
    g0 = Fraction(1, 2) * (g_plus + g_minus)
    g1 = Fraction(1, 2) * (g_plus - g_minus)
    assert g0 - g1 == g_minus
    assert g0 + g1 == g_plus


def test_block_route_is_cheaper(lap, split):
    full, halves = PivotCounter(), PivotCounter()
    direct = green.pseudo_green(lap, full)
    via = blocks.assemble_green_via_blocks(split, None, halves)
    assert via == direct
    assert halves.ops < full.ops


def test_block_rejects_mismatched_matrix(sigma):
    # a matrix that sigma does not commute with cannot split
    bad = RationalMatrix([[i * 60 + j for j in range(60)] for i in range(60)])
    sym = Fraction(1, 2) * (bad + bad.transpose())
    with pytest.raises(blocks.BlockMismatch):
        blocks.block_split(sym, sigma)
