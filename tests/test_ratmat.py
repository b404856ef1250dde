"""Exact linear algebra: kernels, determinants, solves, characteristic
polynomials against the brute-force cofactor oracle."""

import random
from fractions import Fraction

import pytest

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
