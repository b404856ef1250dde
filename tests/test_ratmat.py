"""Exact linear algebra: kernels, determinants, solves, characteristic
polynomials against the brute-force cofactor oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buckysob._bareiss import det_int, jordan_int
from buckysob.ratmat import (PivotCounter, RationalMatrix, SingularMatrixError,
                             bareiss_solve, charpoly, charpoly_coeffs,
                             charpoly_cofactor, determinant, inverse,
                             parse_rat, rat_str)


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _cofactor_det(
        [r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(n))


def test_kernel_det_against_cofactor():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d, _ = det_int(rows)
        assert d == _cofactor_det(rows)


def test_kernel_jordan_solves_exactly():
    rng = random.Random(43)
    done = 0
    while done < 100:
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        d = _cofactor_det(mat)
        aug = [mat[i] + rhs[i] for i in range(n)]
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                jordan_int(aug, n, m)
            continue
        det, num, _ = jordan_int(aug, n, m)
        assert det == d
        for j in range(m):
            for i in range(n):
                s = sum(Fraction(mat[i][k] * num[k][j], det) for k in range(n))
                assert s == rhs[i][j]
        done += 1


def test_determinant_trivial_cases():
    assert determinant(RationalMatrix.identity(3)) == 1
    assert determinant(RationalMatrix([[2, 1], [1, 1]])) == 1


def test_determinant_rational_entries():
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)


def test_laplacian_determinant_is_zero(lap):
    assert determinant(lap) == 0


def test_det_of_shifted_laplacian_matches_charpoly(lap, p_char):
    # det(A + I) = (-1)^60 P(-1)
    assert determinant(lap.scaled_add(1)) == p_char(-1)


def test_solve_identity_roundtrip():
    rhs = RationalMatrix([[1, 2], [3, 4], [5, 6]])
    assert bareiss_solve(RationalMatrix.identity(3), rhs) == rhs


def test_solve_2x2_adjugate():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert inverse(m) == RationalMatrix([[1, -1], [-1, 2]])


def test_solve_random_roundtrip():
    rng = random.Random(45)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        m = RationalMatrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(n)] for _ in range(n)])
        if determinant(m) == 0:
            continue
        assert m * inverse(m) == RationalMatrix.identity(n)
        done += 1


def test_solve_singular_raises():
    m = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        bareiss_solve(m, RationalMatrix.identity(2))


def test_solve_counts_pivot_ops():
    c = PivotCounter()
    inverse(RationalMatrix.identity(4), c)
    assert c.ops > 0


def test_charpoly_1x1_zero():
    from buckysob.polynomials import IntPolynomial
    assert charpoly(RationalMatrix([[0]])) == IntPolynomial([0, 1])


def test_charpoly_k4_laplacian():
    from buckysob.polynomials import IntPolynomial
    k4 = RationalMatrix([[3 if i == j else -1 for j in range(4)] for i in range(4)])
    x = IntPolynomial([0, 1])
    x4 = IntPolynomial([-4, 1])
    assert charpoly(k4) == x * x4 ** 3
    assert charpoly_cofactor(k4) == charpoly_coeffs(k4)


def test_charpoly_interpolation_matches_cofactor():
    rng = random.Random(46)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)]
                            for _ in range(n)])
        assert charpoly_coeffs(m) == charpoly_cofactor(m)


def test_charpoly_similarity_invariance():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = RationalMatrix([[rng.randint(-3, 3) for _ in range(n)]
                            for _ in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        assert charpoly_coeffs(m.permuted(perm)) == charpoly_coeffs(m)


def test_rational_serialization_roundtrip():
    for s in ["0", "1", "-3", "239741/376200", "-7/4"]:
        assert rat_str(parse_rat(s)) == s
    assert rat_str(Fraction(2, 4)) == "1/2"


def test_matrix_json():
    m = RationalMatrix([[Fraction(1, 2), 3]])
    assert m.to_json() == [["1/2", "3"]]


small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


def fraction_rows(rows, cols):
    return st.lists(st.lists(small_fractions, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def entries(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_operations_match_fraction_reference(data):
    n, k, w = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b = data.draw(fraction_rows(n, k)), data.draw(fraction_rows(n, k))
    c, sq = data.draw(fraction_rows(k, w)), data.draw(fraction_rows(n, n))
    s = data.draw(small_fractions)
    v = data.draw(st.lists(small_fractions, min_size=k, max_size=k))
    perm = data.draw(st.permutations(range(n)))
    A, B, C, S = (RationalMatrix(x) for x in (a, b, c, sq))

    assert entries(A + B) == [[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]
    assert entries(A - B) == [[x - y for x, y in zip(r, q)] for r, q in zip(a, b)]
    assert entries(A * C) == [[sum((r[t] * c[t][j] for t in range(k)), Fraction(0))
                               for j in range(w)] for r in a]
    assert entries(A * s) == entries(s * A) == [[s * x for x in r] for r in a]
    assert entries(-A) == [[-x for x in r] for r in a]
    assert entries(A.transpose()) == [[a[i][j] for i in range(n)] for j in range(k)]
    permuted = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            permuted[perm[i]][perm[j]] = sq[i][j]
    assert entries(S.permuted(perm)) == permuted
    assert entries(S.scaled_add(s)) == [[x + s if i == j else x
                                         for j, x in enumerate(r)]
                                        for i, r in enumerate(sq)]
    assert A.matvec(v) == [sum((x * y for x, y in zip(r, v)), Fraction(0))
                           for r in a]
    assert (A == B) == (a == b)
    assert A == RationalMatrix(a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form(data):
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a = data.draw(fraction_rows(n, k))
    m = RationalMatrix(a)
    assert m.den > 0
    assert math.gcd(m.den, *(x for row in m.num for x in row)) == 1
    assert entries(m) == a
    # The same matrix built other ways is equal, with the same pair.
    scale = data.draw(st.integers(1, 50)) * data.draw(st.sampled_from((1, -1)))
    rebuilt = RationalMatrix.from_ints([[scale * x for x in row] for row in m.num],
                                       scale * m.den)
    for other in (rebuilt, (m + m) * Fraction(1, 2), m.transpose().transpose(),
                  m - RationalMatrix.zeros(n, k), RationalMatrix(entries(m))):
        assert other == m
        assert (other.den, other.num) == (m.den, m.num)


def test_zero_matrix_has_denominator_one():
    m = RationalMatrix([[Fraction(1, 3), Fraction(-2, 9)]])
    assert (m - m).den == 1
    assert (m * 0) == RationalMatrix.zeros(1, 2)
    with pytest.raises(ZeroDivisionError):
        RationalMatrix.from_ints([[1]], 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_round_trips(data):
    n, w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    m = RationalMatrix(data.draw(fraction_rows(n, n)))
    rhs = RationalMatrix(data.draw(fraction_rows(n, w)))
    assume(determinant(m) != 0)
    x = bareiss_solve(m, rhs)
    assert m * x == rhs
