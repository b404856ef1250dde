"""Top-level acceptance gate. Nine criteria, one pass/fail line each.

Every criterion is exact unless a tolerance is stated inline. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from buckysob import blocks, closedform, graph, green, sobolev, spectral
from buckysob.ratmat import PivotCounter, RationalMatrix, charpoly


@contextmanager
def criterion(label):
    start = time.monotonic()
    try:
        yield
    except BaseException as exc:
        print(f"FAIL {label}: {exc}", file=sys.stderr)
        raise
    print(f"PASS {label} ({time.monotonic() - start:.1f}s)")


def test_criterion_1_charpoly_exact(p_char):
    with criterion("1 characteristic polynomial equals factored product"):
        product = closedform.charpoly_product()
        assert p_char.coeffs == product.coeffs
        assert p_char.degree == 60 and p_char.coeffs[-1] == 1


def test_criterion_2_c0_three_routes(p_char, g_star):
    with criterion("2 C0 identical along three routes"):
        c_diag = green.c0_via_diagonal(g_star)
        c_trace = green.c0_via_trace(p_char)
        assert c_diag == c_trace == closedform.C0 == Fraction(239741, 376200)
        assert round(float(c_diag), 5) == 0.63727


def test_criterion_3_ca_three_routes(lap, p_char):
    with criterion("3 C(a) identical along three routes"):
        combined = green.c_of_a(lap, p_char)
        assert combined == closedform.ca_closed_form()
        assert combined.num.degree == 14 and combined.den.degree == 15


def test_criterion_4_eigenvalue_table(lap, p_char):
    with criterion("4 spectral table multiplicities and values"):
        table = spectral.build_spectral_table(p_char)
        assert tuple(table.multiplicities()) == (
            1, 3, 5, 3, 4, 9, 5, 3, 3, 5, 3, 5, 4, 4, 3)
        num = spectral.numeric_eigenvalues(lap)
        cv = spectral.cross_validate(num, table)
        assert cv.cluster_count == 15
        assert cv.max_deviation <= 1e-8
        trace = sum(m * x for m, x in zip(table.multiplicities(),
                                          table.numeric_roots()))
        assert abs(trace - 180.0) <= 1e-8


def test_criterion_5_moore_penrose_and_diagonals(lap, g_star):
    with criterion("5 Moore-Penrose axioms and constant diagonals"):
        ident = RationalMatrix.identity(60)
        e0 = green.projection_e0(60)
        zero = RationalMatrix.zeros(60, 60)
        ag = lap * g_star
        assert ag * lap == lap
        assert g_star * ag == g_star
        assert ag.transpose() == ag
        assert (g_star * lap).transpose() == g_star * lap
        assert ag == ident - e0 and g_star * lap == ident - e0
        assert g_star * e0 == zero and e0 * g_star == zero
        green.constant_diagonal(g_star)
        for a in (Fraction(1, 10), Fraction(1), Fraction(10)):
            green.constant_diagonal(green.green_matrix(lap, a))


def test_criterion_6_limit_identity(ca):
    with criterion("6 C(a) - 1/(60a) regular at 0 with value C0"):
        assert green.limit_identity_check(ca, closedform.C0)


def test_criterion_7_block_reduction(bucky, lap, p_char, g_star):
    with criterion("7 involution block reduction"):
        sigma = graph.find_antipodal_involution(bucky)
        split = blocks.block_split(lap, sigma)
        relabeled = lap.permuted(list(split.perm))
        conj = (Fraction(1, 2) * split.j_matrix) * relabeled * split.j_matrix
        zeros = RationalMatrix.zeros(30, 30)
        assert conj == RationalMatrix.block([[split.a_plus, zeros], [zeros, split.a_minus]])
        assert charpoly(split.a_plus) * charpoly(split.a_minus) == p_char
        counter = PivotCounter()
        assert blocks.assemble_green_via_blocks(split, None, counter) == g_star
        assert blocks.assemble_green_via_blocks(split, 1, counter) == \
            green.green_matrix(lap, 1)


def test_criterion_8_sobolev_inequalities(lap, g_star, g_one):
    with criterion("8 sharp Sobolev inequalities, 1000 seeded trials"):
        rng = random.Random(0)
        for _ in range(1000):
            u = sobolev.random_mean_zero(60, rng)
            lhs, rhs, holds = sobolev.sobolev_trial(u, closedform.C0, lap)
            assert holds, f"{lhs} > {rhs}"
        c1 = green.constant_diagonal(g_one)
        for _ in range(100):
            u = sobolev.random_vector(60, rng)
            assert sobolev.sobolev_trial(u, c1, lap, 1)[2]
        for j0 in range(60):
            w = sobolev.equality_witness(g_star, j0, lap)
            assert w.lhs == w.rhs == closedform.C0 ** 2
            w = sobolev.equality_witness(g_one, j0, lap, 1)
            assert w.lhs == w.rhs == c1 ** 2
        below = closedform.C0 - Fraction(1, 10 ** 6)
        assert not sobolev.sobolev_trial(
            g_star.submatrix(range(60), [0]), below, lap)[2]


def test_criterion_9_combinatorics_and_relabeling(bucky, census):
    with criterion("9 graph combinatorics and relabeling invariance"):
        assert bucky.n == 60 and len(bucky.edges) == 90
        assert bucky.degrees() == [3] * 60
        assert bucky.is_connected()
        assert graph.girth(bucky) == 5
        assert census.pentagon_count == 12 and census.hexagon_count == 20
        assert bucky.n - len(bucky.edges) + census.face_count == 2
        rng = random.Random(0)
        perm = list(range(60))
        rng.shuffle(perm)
        g2 = graph.relabel(bucky, perm)
        a2 = graph.laplacian(g2)
        p2 = charpoly(a2)
        assert p2 == closedform.charpoly_product()
        assert green.c0_via_diagonal(green.pseudo_green(a2)) == closedform.C0
        assert green.ca_via_charpoly(p2) == closedform.ca_closed_form()
