"""Exact linear algebra: kernels, determinants, solves, characteristic
polynomials against the brute-force cofactor oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from buckysob import _modular, ratmat
from buckysob._modular import (charpoly_bound, charpoly_int, det_int,
                               hadamard_bound, jordan_int, prime_table)
from buckysob.graph import laplacian, relabel
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


def _fraction_solve(mat, rhs):
    """Plain Gauss-Jordan over Fractions: X with mat @ X == rhs."""
    n = len(mat)
    a = [[Fraction(x) for x in mat[i] + rhs[i]] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k])
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def _int_matmul(a, b):
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))]
            for row in a]


def _lu(diag, seed):
    """A non-diagonal integer matrix L U with det = prod(diag): L unit lower
    and U upper triangular with small random off-diagonal entries."""
    rng = random.Random(seed)
    n = len(diag)
    lower = [[1 if i == j else rng.randint(-3, 3) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[diag[i] if i == j else rng.randint(-3, 3) if j > i else 0
              for j in range(n)] for i in range(n)]
    return _int_matmul(lower, upper)


@pytest.fixture
def chunks(monkeypatch):
    """(primes, whether each had a pivot in every column) for every chunk
    the kernels eliminate."""
    seen = []
    eliminate = _modular._eliminate

    def recording(a, primes):
        out = eliminate(a, primes)
        seen.append((list(primes), out[1]))
        return out

    monkeypatch.setattr(_modular, "_eliminate", recording)
    return seen


def test_kernel_skips_primes_dividing_det(chunks):
    # det = -p0 p1 for the first two kernel primes; modulo either, columns
    # 2 or 4 run out of pivots halfway through the elimination.
    p0, p1 = prime_table(2)
    mat = _lu([1, 1, p0, -1, p1, 1], seed=50)
    assert any(mat[i][j] for i in range(6) for j in range(6) if i != j)
    rhs = [[i - j for j in range(2)] for i in range(6)]
    assert det_int(mat)[0] == -p0 * p1 == _cofactor_det(mat)
    chunks.clear()
    det, num, _ = jordan_int([r + s for r, s in zip(mat, rhs)], 6, 2)
    assert det == -p0 * p1
    assert [[Fraction(x, det) for x in row] for row in num] == _fraction_solve(mat, rhs)
    skipped = {q for primes, live in chunks for q, ok in zip(primes, live) if not ok}
    assert skipped == {p0, p1}


def test_kernel_swaps_rows_for_some_primes_only():
    # The first pivot vanishes modulo p0 only, so only p0's slice swaps rows.
    p0 = prime_table(1)[0]
    mat = [[p0, 1, 2], [1, 1, -1], [3, -2, 1]]
    rhs = [[1], [0], [2]]
    assert det_int(mat)[0] == _cofactor_det(mat)
    det, num, _ = jordan_int([r + s for r, s in zip(mat, rhs)], 3, 1)
    assert det == _cofactor_det(mat)
    assert [[Fraction(x, det) for x in row] for row in num] == _fraction_solve(mat, rhs)


@pytest.mark.parametrize("mat", [
    [[1, 2], [2, 4]],
    [[0, 0], [0, 0]],
    [[2 ** 70, 3, 1], [2 ** 71, 6, 2], [5, -1, 2 ** 90]],
    _lu([1, 3, 0, -2, 1], seed=51),
])
def test_kernel_singular(mat):
    n = len(mat)
    assert det_int(mat)[0] == 0
    with pytest.raises(ZeroDivisionError):
        jordan_int([row + [int(i == j) for j in range(n)]
                    for i, row in enumerate(mat)], n, n)
    with pytest.raises(SingularMatrixError):
        bareiss_solve(RationalMatrix(mat), RationalMatrix.identity(n))


def test_kernel_entries_beyond_int64():
    rng = random.Random(48)
    edges = [2 ** 62, -2 ** 63, 2 ** 63, -(2 ** 64) - 1]
    for n in (1, 2, 3, 5):
        mat = [[rng.choice(edges) if rng.random() < 0.3 else
                rng.randint(-2 ** 100, 2 ** 100) for _ in range(n)] for _ in range(n)]
        rhs = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(2)] for _ in range(n)]
        d = _cofactor_det(mat)
        assert d != 0
        assert det_int(mat)[0] == d
        det, num, _ = jordan_int([r + s for r, s in zip(mat, rhs)], n, 2)
        assert det == d
        assert [[Fraction(x, det) for x in row] for row in num] == _fraction_solve(mat, rhs)


def test_kernel_small_shapes_and_signs():
    assert det_int([[-7]])[0] == -7
    assert det_int([[0, 1], [1, 0]])[0] == -1
    assert jordan_int([[-3, 6]], 1, 1)[:2] == (-3, [[6]])
    assert jordan_int([[0, 2, 4], [1, 0, 1]], 2, 1)[:2] == (-2, [[-2], [-4]])
    assert jordan_int([[2, 1], [1, 3]], 2, 0)[:2] == (5, [[], []])
    with pytest.raises(ZeroDivisionError):
        jordan_int([[0]], 1, 0)


def test_prime_table():
    primes = prime_table(40)
    assert len(set(primes)) == 40
    assert primes == sorted(primes, reverse=True)
    assert all(2 ** 30 < p < 2 ** 31 for p in primes)
    for p in primes[:3] + primes[-2:]:
        assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
    assert prime_table(3) == primes[:3]


def test_primes_used_pass_twice_hadamard(chunks):
    rng = random.Random(49)
    mat = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)]
    aug = [row + [rng.randint(-9, 9) for _ in range(3)] for row in mat]
    d = _cofactor_det(mat)
    assert abs(d) <= hadamard_bound(mat) <= hadamard_bound(aug)
    for run, bound in ((lambda: det_int(mat), hadamard_bound(mat)),
                       (lambda: jordan_int(aug, 8, 3), hadamard_bound(aug))):
        chunks.clear()
        run()
        assert all(len(primes) <= 8 for primes, _ in chunks)
        assert all(all(live) for _, live in chunks)
        used = [primes for primes, _ in chunks]
        assert math.prod(map(math.prod, used)) > 2 * bound
        assert math.prod(map(math.prod, used[:-1])) <= 2 * bound


def test_solve_primes_run_in_even_chunks(lap, chunks):
    # [A + I | I] is 60 x 120 and needs 5 primes: one chunk, however wide
    # the arrays.
    inverse(lap.scaled_add(1))
    assert [len(primes) for primes, _ in chunks] == [5]
    # A shift of 2**30 needs about 60 primes: split evenly into chunks of
    # at most _CHUNK, the first full and none but the last short by more
    # than one prime.
    chunks.clear()
    inverse(lap.scaled_add(2 ** 30))
    sizes = [len(primes) for primes, _ in chunks]
    assert sizes[0] == _modular._CHUNK
    assert sizes == sorted(sizes, reverse=True)
    assert min(sizes[:-1]) >= _modular._CHUNK - 1


def test_determinant_trivial_cases():
    assert determinant(RationalMatrix.identity(3)) == 1
    assert determinant(RationalMatrix([[2, 1], [1, 1]])) == 1


def test_determinant_rational_entries():
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(m) == Fraction(1, 14) - Fraction(1, 15)


def test_laplacian_determinant_is_zero(lap):
    assert determinant(lap) == 0


def test_det_of_shifted_laplacian_matches_charpoly(bucky, lap, p_char):
    # The elimination kernel against the Hessenberg one: det(xI - A) = P(x),
    # also on a relabeled Laplacian, whose charpoly is not recomputed.
    rng = random.Random(52)
    perm = list(range(60))
    rng.shuffle(perm)
    relabeled = laplacian(relabel(bucky, perm))
    for x in (-1, 3, 60, Fraction(7, 3), Fraction(-1, 2)):
        assert determinant((-lap).scaled_add(x)) == p_char(x)
    for x in (-1, 60, Fraction(7, 3)):
        assert determinant((-relabeled).scaled_add(x)) == p_char(x)


def test_charpoly_runs_no_elimination(monkeypatch, lap, p_char):
    """The charpoly is its own route: it never reaches det_int, jordan_int
    or their shared elimination loop."""
    def refuse(*args, **kwargs):
        raise AssertionError("charpoly reached the elimination kernel")

    monkeypatch.setattr(_modular, "_eliminate", refuse)
    for name in ("det_int", "jordan_int"):
        monkeypatch.setattr(ratmat, name, refuse)
    assert charpoly(lap) == p_char
    m = RationalMatrix([[Fraction(1, 2), 3], [Fraction(-2, 3), 1]])
    assert charpoly_coeffs(m) == charpoly_cofactor(m)


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


def test_charpoly_hessenberg_matches_cofactor():
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
    V = RationalMatrix([[x] for x in v])
    assert entries(A * V) == [[sum((x * y for x, y in zip(r, v)), Fraction(0))]
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


kernel_entries = st.one_of(st.integers(-2, 2), st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_cofactor_and_fractions(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
    mat = data.draw(st.lists(st.lists(kernel_entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    rhs = data.draw(st.lists(st.lists(kernel_entries, min_size=m, max_size=m),
                             min_size=n, max_size=n))
    d = _cofactor_det(mat)
    assert det_int(mat)[0] == d
    aug = [r + s for r, s in zip(mat, rhs)]
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            jordan_int(aug, n, m)
        return
    det, num, _ = jordan_int(aug, n, m)
    assert det == d
    assert [[Fraction(x, det) for x in row] for row in num] == _fraction_solve(mat, rhs)


@pytest.fixture
def hessenberg_chunks(monkeypatch):
    """The primes of every chunk the charpoly kernel reduces."""
    seen = []
    hessenberg = _modular._hessenberg

    def recording(h, primes):
        seen.append(list(primes))
        return hessenberg(h, primes)

    monkeypatch.setattr(_modular, "_hessenberg", recording)
    return seen


def _cofactor_charpoly(rows):
    return [int(c) for c in charpoly_cofactor(RationalMatrix(rows))]


def test_charpoly_kernel_swaps_for_some_primes_only():
    # The first subdiagonal pivot vanishes modulo p0 only, so only p0's
    # slice swaps a row and a column in; the same happens in column 1.
    p0 = prime_table(1)[0]
    for mat in ([[1, 2, 3, 4], [p0, 4, 5, 1], [1, 6, 7, -2], [2, 0, 1, 3]],
                [[2, 1, 0, 5], [1, 3, 1, 1], [0, 2 * p0, 1, 4], [0, -3, 1, 2]]):
        assert charpoly_int(mat)[0] == _cofactor_charpoly(mat)


@pytest.mark.parametrize("mat", [
    # Column 0 is zero below the diagonal: nothing to reduce there.
    [[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 1, 2]],
    # Already upper Hessenberg.
    [[1, 2, 3, 4], [5, 6, 7, 8], [0, -1, 2, 3], [0, 0, 4, -5]],
    # Block upper triangular with a full 2 x 2 block in the middle.
    [[3, 1, 4, 1], [0, 5, 9, 2], [0, 6, 5, 3], [0, 0, 0, -5]],
])
def test_charpoly_kernel_skips_reduced_columns(mat):
    assert charpoly_int(mat)[0] == _cofactor_charpoly(mat)


def test_charpoly_kernel_skips_columns_for_some_primes_only():
    # Modulo p0, column 0 is zero below the diagonal; modulo every other
    # prime it must be reduced.
    p0 = prime_table(1)[0]
    mat = [[1, 2, 3], [p0, 4, 5], [3 * p0, 6, 7]]
    assert charpoly_int(mat)[0] == _cofactor_charpoly(mat)


def test_charpoly_kernel_small_shapes():
    assert charpoly_int([]) == ([1], 0)
    assert charpoly_int([[-7]])[0] == [7, 1]
    assert charpoly_int([[0] * 4 for _ in range(4)])[0] == [0, 0, 0, 0, 1]
    assert charpoly_int([[0, 1], [1, 0]])[0] == [-1, 0, 1]
    assert charpoly_coeffs(RationalMatrix([])) == [1]
    assert charpoly_coeffs(RationalMatrix([[Fraction(-3, 4)]])) == [Fraction(3, 4), 1]
    c = PivotCounter()
    charpoly(RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]), c)
    assert c.ops > 0


def test_charpoly_primes_pass_twice_the_bound(hessenberg_chunks):
    rng = random.Random(53)
    mat = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)]
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 2 for row in mat)
    assert charpoly_bound(mat) == bound
    coeffs = charpoly_int(mat)[0]
    assert sum(map(abs, coeffs)) <= bound
    assert len(hessenberg_chunks) > 1
    assert all(len(primes) <= 8 for primes in hessenberg_chunks)
    assert math.prod(map(math.prod, hessenberg_chunks)) > 2 * bound
    assert math.prod(map(math.prod, hessenberg_chunks[:-1])) <= 2 * bound


def test_charpoly_bound_decides_the_prime_count(hessenberg_chunks):
    # B = p0 for the 1 x 1 matrix [p0 - 2]: the first prime passes B but not
    # 2B, and one prime alone would give the constant term 2 mod p0.
    p0, p1 = prime_table(2)
    assert charpoly_int([[p0 - 2]])[0] == [2 - p0, 1]
    assert hessenberg_chunks == [[p0, p1]]


def test_laplacian_charpoly_runs_as_one_chunk(lap, hessenberg_chunks):
    # Its bound needs 5 primes, which fit in one chunk of _CHUNK.
    charpoly(lap)
    assert [len(primes) for primes in hessenberg_chunks] == [5]


integer_entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
rational_entries = st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20),
                             st.integers(2, 2 ** 12))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_charpoly_matches_cofactor_property(data):
    n = data.draw(st.integers(1, 6))
    entry = data.draw(st.sampled_from((integer_entries, rational_entries)))
    m = RationalMatrix(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                          min_size=n, max_size=n)))
    coeffs = charpoly_coeffs(m)
    assert coeffs == charpoly_cofactor(m)
    assert sum(abs(c) * m.den ** (n - k) for k, c in enumerate(coeffs)) \
        <= charpoly_bound(m.num)
