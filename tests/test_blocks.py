"""Half-size block reduction via a fixed-point-free involutive automorphism
(a half-turn of the buckyball, not the antipodal map)."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckysob import _modular, blocks, closedform, green, ratmat
from buckysob.polynomials import IntPolynomial
from buckysob.ratmat import PivotCounter, RationalMatrix, charpoly


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


def test_green_via_blocks_wide_a(lap, split, chunks):
    # a = p/q with p and q of 48 bits, as the benchmark's widest G(a) draws
    # it: each 30 x 30 half needs more than 40 primes, and inverts them as
    # one batch.
    rng = random.Random(48)
    a = Fraction(rng.getrandbits(48) | 1 << 47, rng.getrandbits(48) | 1 << 47)
    via_blocks = blocks.assemble_green_via_blocks(split, a)
    assert len(chunks) == 2
    assert all(len(primes) > 40 and all(live) for primes, live in chunks)
    assert via_blocks == green.green_matrix(lap, a)
    assert via_blocks.diagonal() == [closedform.ca_closed_form()(a)] * 60


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
    from buckysob.ratmat import inverse
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
