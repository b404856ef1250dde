"""Exact linear algebra: kernels, determinants, solves, characteristic
polynomials against the brute-force cofactor oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from buckysob import _modular, blocks, green, ratmat
from buckysob._modular import (charpoly_bound, charpoly_int, det_int,
                               hadamard_bound, jordan_int, prime_table)
from buckysob.graph import laplacian, relabel
from buckysob.ratmat import (PivotCounter, RationalMatrix, SingularMatrixError,
                             bareiss_solve, charpoly, charpoly_coeffs,
                             inverse, parse_rat, rat_str)
from oracles import canonical_fraction, charpoly_cofactor, primes_to_bound


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
        if d == 0:
            with pytest.raises(ZeroDivisionError):
                jordan_int(mat)
            continue
        _assert_adjugate(mat, d)
        x = bareiss_solve(RationalMatrix(mat), RationalMatrix(rhs))
        assert RationalMatrix(mat) * x == RationalMatrix(rhs)
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


def _assert_adjugate(mat, d):
    """jordan_int(mat) returns det(M) == d and adj(M), with M adj == d I;
    returns adj."""
    det, adj, _ = jordan_int(mat)
    assert det == d
    n = len(mat)
    assert _int_matmul(mat, adj) == [[d * (i == j) for j in range(n)] for i in range(n)]
    return adj


def _assert_solves(mat, rhs):
    """bareiss_solve, the exact inverse times rhs, against the Fraction
    oracle."""
    assert bareiss_solve(RationalMatrix(mat), RationalMatrix(rhs)) == \
        RationalMatrix(_fraction_solve(mat, rhs))


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


def test_kernel_skips_primes_dividing_det(chunks):
    # det = -p0 p1 for the first two kernel primes; modulo either, columns
    # 2 or 4 run out of pivots halfway through the elimination.
    p0, p1 = prime_table(2)
    mat = _lu([1, 1, p0, -1, p1, 1], seed=50)
    assert any(mat[i][j] for i in range(6) for j in range(6) if i != j)
    rhs = [[i - j for j in range(2)] for i in range(6)]
    assert det_int(mat)[0] == -p0 * p1 == _cofactor_det(mat)
    chunks.clear()
    _assert_adjugate(mat, -p0 * p1)
    skipped = {q for primes, live in chunks for q, ok in zip(primes, live) if not ok}
    assert skipped == {p0, p1}
    _assert_solves(mat, rhs)


def test_kernel_swaps_rows_for_some_primes_only():
    # The first pivot vanishes modulo p0 only, so only p0's slice swaps rows.
    p0 = prime_table(1)[0]
    mat = [[p0, 1, 2], [1, 1, -1], [3, -2, 1]]
    rhs = [[1], [0], [2]]
    assert det_int(mat)[0] == _cofactor_det(mat)
    _assert_adjugate(mat, _cofactor_det(mat))
    _assert_solves(mat, rhs)


def _leading_minors(rows):
    return [_cofactor_det([r[:k] for r in rows[:k]]) for k in range(1, len(rows) + 1)]


def _inverse_mod(mat, q):
    """M^-1 modulo q, from the Fraction oracle."""
    n = len(mat)
    inv = _fraction_solve(mat, [[int(i == j) for j in range(n)] for i in range(n)])
    return [[x.numerator * pow(x.denominator, -1, q) % q for x in row] for row in inv]


def test_invert_undoes_two_swaps_of_one_prime():
    # Modulo p0 only, column 0 swaps rows 0 and 2 and then column 1 swaps
    # rows 1 and 2. The two swaps do not commute, so the inverse's columns
    # come out right only if they are undone in reverse order.
    primes = prime_table(3)
    p0 = primes[0]
    mat = [[p0, 1, 2, 3], [2 * p0, p0, 1, 4], [1, 2, 3, 1], [3, 1, 1, 2]]
    assert [mat[i][0] % p0 for i in range(3)] == [0, 0, 1]
    swapped = [mat[2], mat[1], mat[0], mat[3]]
    assert _leading_minors(swapped)[1] % p0 == 0
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert all(d % p0 for d in _leading_minors(swapped))
    assert all(d % q for q in primes[1:] for d in _leading_minors(mat))
    a = np.array([[[x % q for x in row] for row in mat] for q in primes], dtype=np.int64)
    det, live, ops = _modular._invert(a, primes)
    d = _cofactor_det(mat)
    assert det.tolist() == [d % q for q in primes]
    assert live.tolist() == [True] * 3
    assert ops == 3 * 4 ** 3
    assert [a[t].tolist() for t in range(3)] == [_inverse_mod(mat, q) for q in primes]
    assert det_int(mat)[0] == d
    _assert_adjugate(mat, d)
    _assert_solves(mat, [[1, 0], [0, -2], [5, 0], [0, 0]])


@pytest.mark.parametrize("rhs", [
    [[0, 1], [0, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 3, 0], [0, 0, 0], [0, -2, 4], [0, 7, 0], [0, 1, 0]],
    [[2 ** 70 + i * j - 3 for j in range(4)] for i in range(5)],
], ids=["zero_column", "several_nonzeros", "dense"])
def test_jordan_applies_rhs_through_its_nonzeros(rhs):
    # The kernel inverts M alone; the solve's product then runs through
    # R's nonzeros: none in a column, a few, or every one beyond 2**64.
    mat = _lu([2, -1, 3, 1, -5], seed=54)
    _assert_adjugate(mat, 30)
    assert _cofactor_det(mat) == 30
    _assert_solves(mat, rhs)


@pytest.mark.parametrize("mat", [
    [[1, 2], [2, 4]],
    [[0, 0], [0, 0]],
    [[2 ** 70, 3, 1], [2 ** 71, 6, 2], [5, -1, 2 ** 90]],
    _lu([1, 3, 0, -2, 1], seed=51),
    # Many primes: at one prime per chunk, the singular verdict comes only
    # after several chunks.
    [[2 ** 200, 3, 1], [2 ** 201, 6, 2], [5, -1, 2 ** 300]],
])
def test_kernel_singular(mat, monkeypatch):
    n = len(mat)
    for budget in (_modular._BUDGET, n * n):
        monkeypatch.setattr(_modular, "_BUDGET", budget)
        assert det_int(mat)[0] == 0
        with pytest.raises(ZeroDivisionError):
            jordan_int(mat)
        # X = 0 solves M X = 0, but not uniquely: still singular.
        with pytest.raises(SingularMatrixError):
            bareiss_solve(RationalMatrix(mat), RationalMatrix.zeros(n, 1))
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
        _assert_adjugate(mat, d)
        _assert_solves(mat, rhs)


@st.composite
def kernel_matrices(draw):
    """A square integer matrix of order 1 to 4: small entries, often
    singular; entries beyond int64; or L U with the first two kernel
    primes among the pivots, so that those primes divide det(M)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["small", "wide", "unlucky"]))
    if kind == "unlucky":
        diag = draw(st.lists(st.sampled_from([1, -1, 2, *prime_table(2)]),
                             min_size=n, max_size=n))
        return _lu(diag, draw(st.integers(0, 2 ** 16)))
    top = 3 if kind == "small" else 2 ** 100
    entry = st.integers(-top, top)
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(kernel_matrices())
@example(_lu([prime_table(1)[0], 1, -1], seed=7))
# Nonsingular, but the primes dividing det pass twice the tight bound.
@example([[prime_table(1)[0]]])
@example(_lu([*prime_table(2), 1], seed=8))
@example([[2 ** 70, 3], [2 ** 71, 6]])
def test_jordan_scaled_contract(mat):
    # jordan_int(rows, d, B) returns (d, d M^-1, ops) with M (d M^-1) = d I:
    # with det and the Hadamard bound it is the default (det, adj); with d
    # the least common denominator of M^-1 and the tightest bound it is the
    # reduced numerator of M^-1. A singular M raises in both modes, and the
    # default's results and ops are those of its Hadamard bound.
    n = len(mat)
    det = _cofactor_det(mat)
    h = hadamard_bound(mat)
    if det == 0:
        for args in ((), (1, 1), (1, h)):
            with pytest.raises(ZeroDivisionError):
                jordan_int(mat, *args)
        return
    default = jordan_int(mat)
    adj = _assert_adjugate(mat, det)
    assert default == (det, adj, primes_to_bound(h, det) * n ** 3)
    assert jordan_int(mat, det, h) == default
    inv = _fraction_solve(mat, [[int(i == j) for j in range(n)] for i in range(n)])
    d = math.lcm(*(x.denominator for row in inv for x in row))
    reduced = [[int(d * x) for x in row] for row in inv]
    tight = max(abs(x) for row in reduced for x in row)
    for sign in (1, -1):
        scaled = [[sign * x for x in row] for row in reduced]
        got = jordan_int(mat, sign * d, tight)
        assert got == (sign * d, scaled, primes_to_bound(tight, det) * n ** 3)
        assert _int_matmul(mat, scaled) == [[sign * d * (i == j) for j in range(n)]
                                            for i in range(n)]


def test_jordan_scaled_arguments():
    assert jordan_int([], 7, 1) == (7, [], 0)
    assert jordan_int([[2, 1], [1, 3]], 5, 3)[:2] == (5, [[3, -1], [-1, 2]])
    # d M^-1 need not be the adjugate: for M = 2I, d = 2 gives I.
    assert jordan_int([[2, 0], [0, 2]], 2, 1)[:2] == (2, [[1, 0], [0, 1]])
    # No bound below 1 holds, and none takes less than one prime.
    assert jordan_int([[2, 0], [0, 2]], 2, 0) == (2, [[1, 0], [0, 1]], 8)
    with pytest.raises(ZeroDivisionError):
        jordan_int([[1, 2], [2, 4]], 1, 0)
    for args in ((5,), (None, 3), (0, 3)):
        with pytest.raises(ValueError):
            jordan_int([[2, 1], [1, 3]], *args)


def test_kernel_small_shapes_and_signs():
    assert det_int([[-7]])[0] == -7
    assert det_int([[0, 1], [1, 0]])[0] == -1
    assert jordan_int([]) == (1, [], 0)
    assert jordan_int([[-3]])[:2] == (-3, [[1]])
    assert jordan_int([[0, 2], [1, 0]])[:2] == (-2, [[0, -2], [-1, 0]])
    assert jordan_int([[2, 1], [1, 3]])[:2] == (5, [[3, -1], [-1, 2]])
    with pytest.raises(ZeroDivisionError):
        jordan_int([[0]])
    assert bareiss_solve(RationalMatrix([[-3]]), RationalMatrix([[6]])) == \
        RationalMatrix([[-2]])
    assert bareiss_solve(RationalMatrix([[0, 2], [1, 0]]),
                         RationalMatrix([[4], [1]])) == RationalMatrix([[1], [2]])
    empty = bareiss_solve(RationalMatrix([[2, 1], [1, 3]]), RationalMatrix([[], []]))
    assert (empty.rows, empty.cols) == (2, 0)


def test_prime_table():
    primes = prime_table(40)
    assert len(set(primes)) == 40
    assert primes == sorted(primes, reverse=True)
    assert all(2 ** 30 < p < 2 ** 31 for p in primes)
    for p in primes[:3] + primes[-2:]:
        assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
    assert prime_table(3) == primes[:3]


@st.composite
def crt_inputs(draw):
    """An integer matrix of up to 4 x 5 with entries up to 2^300 in absolute
    value, and chunk sizes for the prime table: odd, even, single primes
    and an empty chunk, one that had no usable prime."""
    r, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.integers(-2 ** 300, 2 ** 300)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=r, max_size=r))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    sizes.insert(draw(st.integers(0, len(sizes))), 0)
    return rows, sizes


def _readable(v, modulus):
    """Whether the read of ``_Crt`` is exact for v modulo ``modulus``: the
    margin ``_multimodular`` keeps by its choice of primes."""
    return 2 * abs(v) + (abs(v) >> 18) < modulus


def _largest_readable(modulus):
    """The largest x with _readable(x, modulus)."""
    x = (modulus - 1) * (1 << 18) // ((1 << 19) + 1)
    while _readable(x + 1, modulus):
        x += 1
    while not _readable(x, modulus):
        x -= 1
    return x


@settings(max_examples=40, deadline=None)
@given(crt_inputs())
@example(([[2 ** 300, -(2 ** 300)], [1, 0]], [0, 1, 2, 1, 8, 3]))
def test_crt_reads_agree_after_every_chunk(case):
    # Chunks run on by single primes until every entry is readable, as
    # ``_multimodular`` runs them past 2 max|x| + (max|x| >> 18). A read
    # before that is checked whenever every symmetric residue is readable.
    x, sizes = case
    r, m = len(x), len(x[0])
    crt, table, modulus = _modular._Crt(), prime_table(60), 1
    while sizes or not all(_readable(v, modulus) for row in x for v in row):
        size = sizes.pop(0) if sizes else 1
        primes, table = table[:size], table[size:]
        crt.add(primes, np.array([[[v % q for v in row] for row in x] for q in primes],
                                 dtype=np.int64).reshape(size, r, m))
        modulus *= math.prod(primes)
        assert crt.modulus == modulus
        if modulus == 1:
            continue
        half = crt.modulus >> 1
        expected = [[(v + half) % crt.modulus - half for v in row] for row in x]
        if all(_readable(v, modulus) for row in expected for v in row):
            assert crt.symmetric() == expected
    assert crt.symmetric() == x


def _crt_oracle(primes, x):
    """Pure-Python Chinese remaindering of the residues of x: sum_j r_j b_j
    modulo P in the symmetric range, with b_j = (P/p_j)((P/p_j)^-1 mod p_j)."""
    big = math.prod(primes)
    basis = [(big // q) * pow(big // q, -1, q) for q in primes]
    out = []
    for row in x:
        out.append([])
        for v in row:
            y = sum(v % q * b for q, b in zip(primes, basis)) % big
            out[-1].append(y - big if y > big >> 1 else y)
    return out


def _add_in_chunks(crt, primes, x, sizes):
    r, m = len(x), len(x[0])
    used = 0
    for size in sizes:
        chunk = primes[used:used + size]
        crt.add(chunk, np.array([[[v % q for v in row] for row in x] for q in chunk],
                                dtype=np.int64).reshape(size, r, m))
        used += size


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 130])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_crt_read_matches_pure_python_crt(count, data):
    # Groups of 64 primes meet at 64, 65 and 130; 1 prime has a 2-limb
    # modulus. The entries fill up to two and a half blocks of a read, never
    # a whole number of them, and hold 0, +-1 and the largest readable +-x,
    # whose fraction x/P lies closest to the half-way point.
    primes = prime_table(count)
    big = math.prod(primes)
    top = _largest_readable(big)
    step = _modular._BLOCK // -(-big.bit_length() // 16)
    r = data.draw(st.integers(1, 3), label="rows")
    m = data.draw(st.integers(1, (2 * step + step // 2) // r), label="cols")
    assume((r * m) % step)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    flat = [rng.randint(-top, top) for _ in range(r * m)]
    for v in (0, 1, -1, top, -top):
        flat[rng.randrange(r * m)] = v
    x = [flat[i:i + m] for i in range(0, r * m, m)]
    sizes = []
    while sum(sizes) < count:
        sizes.append(min(rng.randint(0, 8), count - sum(sizes)))
    sizes.insert(rng.randint(0, len(sizes)), 0)
    crt = _modular._Crt()
    _add_in_chunks(crt, primes, x, sizes)
    assert crt.modulus == big
    got = crt.symmetric()
    assert got == _crt_oracle(primes, x)
    assert got == x


def test_crt_read_of_the_largest_values():
    # Every entry is 0, +-1 or the largest readable +-x, whose fraction x/P
    # lies within 2**-20 of 1/2; 70 primes put 64 and 6 in the two groups.
    primes = prime_table(70)
    top = _largest_readable(math.prod(primes))
    x = [[0, 1, -1, top, -top], [-top, top, 1, 0, -1]]
    crt = _modular._Crt()
    _add_in_chunks(crt, primes, x, [8] * 8 + [6])
    assert crt.symmetric() == x == _crt_oracle(primes, x)


@pytest.mark.parametrize("k", [1, 2, 8, 9])
def test_multimodular_runs_past_twice_the_bound(k):
    # B = (P_k - 1) / 2 has 2B < P_k <= 2B + (B >> 18): k primes would read
    # the half-way value +-B, so one more is taken, and +-B reads exactly.
    primes = prime_table(k + 1)
    bound = (math.prod(primes[:k]) - 1) // 2
    assert 2 * bound < math.prod(primes[:k]) <= 2 * bound + (bound >> 18)
    taken = []

    def unchanged(a, chunk):
        taken.extend(chunk)
        return a, [True] * len(chunk), 0

    x = [[bound, -bound, 0], [1, -1, bound - 1]]
    assert _modular._multimodular(x, bound, unchanged) == (x, 0)
    assert taken == primes


def test_crt_add_of_no_prime():
    # A chunk whose primes were all unusable adds an empty array: before
    # any prime, between chunks and last.
    primes, x = prime_table(3), [[5, -7, 2 ** 80], [0, 1, -(2 ** 90)]]
    crt = _modular._Crt()
    _add_in_chunks(crt, primes, x, [0, 2, 0, 1, 0])
    assert crt.modulus == math.prod(primes)
    assert crt.symmetric() == x


@st.composite
def grouped_reads(draw):
    """A matrix drawn from a few values, each repeated, with pairs x and
    x + p_0 p_1 that agree modulo the first two primes only, negatives and
    0; and chunk sizes, the first of them often 1, which splits p_0 from
    p_1."""
    p0, p1 = prime_table(2)
    base = draw(st.lists(st.integers(-2 ** 100, 2 ** 100), min_size=1, max_size=3))
    pool = [0, *base, *(-x for x in base), *(x + p0 * p1 for x in base),
            *(x - p0 * p1 for x in base)]
    r, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=m, max_size=m),
                         min_size=r, max_size=r))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    sizes.insert(0, draw(st.sampled_from((1, 1, 2, 3))))
    return rows, sizes


@settings(max_examples=80, deadline=None)
@given(grouped_reads())
@example(([[0, 5, 5], [5 + math.prod(prime_table(2)), -5, 0]], [1, 1, 3]))
@example(([[7, 7 + math.prod(prime_table(2))]], [2, 1]))
def test_grouped_read_matches_pure_python_crt(case):
    # A read after every chunk, the first after one prime, whose key is
    # that prime's residue alone. Entries equal modulo p_0 p_1 read equal
    # until a later prime tells them apart.
    x, sizes = case
    r, m = len(x), len(x[0])
    crt, table, used = _modular._Crt(), prime_table(60), []
    while sizes or not all(_readable(v, crt.modulus) for row in x for v in row):
        size = sizes.pop(0) if sizes else 1
        primes, table = table[:size], table[size:]
        used += primes
        crt.add(primes, np.array([[[v % q for v in row] for row in x] for q in primes],
                                 dtype=np.int64).reshape(size, r, m))
        expected = _crt_oracle(used, x)
        if all(_readable(v, crt.modulus) for row in expected for v in row):
            assert crt.symmetric() == expected
    assert crt.symmetric() == x


def _read_columns(monkeypatch):
    """The columns each read rebuilds, summed, as ``_limb_product`` sees
    them."""
    seen = []
    real = _modular._limb_product

    def counting(limbs, y):
        seen.append(y.shape[1])
        return real(limbs, y)

    monkeypatch.setattr(_modular, "_limb_product", counting)
    return seen


@pytest.mark.parametrize("case, expected", [
    ("A + I", [25]), ("grounded", [807]), ("halves at 1", [125, 173]),
    ("halves at 48 bits", [125, 173]), ("random 8 x 8", [65]), ("charpoly", [61])])
def test_read_rebuilds_each_distinct_column_once(lap, sigma, monkeypatch, case,
                                                 expected):
    # A read rebuilds one column per distinct value: 24 in inverse(A + I),
    # 807 in the grounded inverse of pseudo_green and 124 and 172 in the
    # block halves (A+- + aI)^-1. jordan_int rebuilds det(M) as one more
    # column, which adds a group unless some entry of adj(M) equals det(M),
    # as in row 0 of the grounded inverse, where X e_0 = 1. A random 8 x 8
    # has 64 distinct entries in its inverse, and the charpoly 61 distinct
    # coefficients.
    split = blocks.block_split(lap, sigma)
    grounded = [row[:] for row in lap.num]
    grounded[0][0] += 1
    rng = random.Random(64)
    wide = Fraction(281474976710597, 281474976710655)
    runs = {
        "A + I": [lambda: inverse(lap.scaled_add(1))],
        "grounded": [lambda: jordan_int(grounded)],
        "halves at 1": [lambda: inverse(split.a_plus.scaled_add(1)),
                        lambda: inverse(split.a_minus.scaled_add(1))],
        "halves at 48 bits": [lambda: inverse(split.a_plus.scaled_add(wide)),
                              lambda: inverse(split.a_minus.scaled_add(wide))],
        "random 8 x 8": [lambda: jordan_int(
            [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)])],
        "charpoly": [lambda: charpoly_int(lap.num)],
    }[case]
    seen = _read_columns(monkeypatch)
    counts = []
    for run in runs:
        run()
        counts.append(sum(seen))
        seen.clear()
    assert counts == expected


def test_limb_product_exact_at_the_largest_terms():
    # Every term at its largest, (2^16 - 1)(2^31 - 1): a sum over 64 of them
    # is below 2^53, over 65 it is not, and 130 columns make three groups.
    limbs = np.full((2, 130), 0xFFFF, dtype=np.float64)
    y = np.full((130, 3), 2 ** 31 - 1, dtype=np.float64)
    assert _modular._limb_product(limbs, y).tolist() == \
        [[130 * 0xFFFF * (2 ** 31 - 1)] * 3] * 2
    rng = np.random.default_rng(5)
    limbs = rng.integers(0, 2 ** 16, (4, 200)).astype(np.float64)
    y = rng.integers(0, 2 ** 31, (200, 7)).astype(np.float64)
    exact = limbs.astype(np.int64).astype(object) @ y.astype(np.int64).astype(object)
    assert _modular._limb_product(limbs, y).tolist() == exact.tolist()


def test_primes_used_pass_twice_hadamard(chunks, monkeypatch):
    # The bound is the only stopping rule: the second matrix, det(M) = k^8
    # with M^-1's reduced denominators dividing k^2, also runs to the bound
    # and returns det(M). The bound of M also bounds every cofactor. A
    # budget of 8 primes per chunk of an 8 x 8 makes each run take several
    # chunks.
    cap = 8
    monkeypatch.setattr(_modular, "_BUDGET", cap * 8 * 8)
    rng = random.Random(49)
    mats = [[[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)],
            _nilpotent_shift(8, 3, 2 ** 200 + 235, 3, seed=53)[0]]
    for mat in mats:
        d = _cofactor_det(mat)
        bound = hadamard_bound(mat)
        assert abs(d) <= bound
        adj = _assert_adjugate(mat, d)
        assert max(abs(x) for row in adj for x in row) <= bound
        for run in (det_int, jordan_int):
            chunks.clear()
            assert run(mat)[0] == d
            assert len(chunks) >= 2
            assert all(len(primes) <= cap for primes, _ in chunks)
            assert all(all(live) for _, live in chunks)
            used = [primes for primes, _ in chunks]
            enlarged = 2 * bound + (bound >> 18)
            assert math.prod(map(math.prod, used)) > enlarged
            assert math.prod(map(math.prod, used[:-1])) <= enlarged


def test_solve_primes_run_in_even_chunks(lap, chunks):
    # A 60 x 60 chunk holds at most 18 primes. A + I needs 5: one chunk.
    cap = _modular._BUDGET // 60 ** 2
    assert cap == 18
    inverse(lap.scaled_add(1))
    assert [len(primes) for primes, _ in chunks] == [5]
    # A shift of 2**30 needs about 60 primes: split evenly into as few
    # chunks of at most the cap as possible, none short of the first by
    # more than one prime.
    chunks.clear()
    inverse(lap.scaled_add(2 ** 30))
    sizes = [len(primes) for primes, _ in chunks]
    assert len(sizes) == -(-sum(sizes) // cap) >= 2
    assert sizes[0] <= cap
    assert sizes == sorted(sizes, reverse=True)
    assert min(sizes) >= sizes[0] - 1


def test_chunking_does_not_change_results(lap, chunks, monkeypatch):
    # Each matrix runs at the default budget, where some chunk holds several
    # primes, and at one prime per chunk: the same primes in other batches
    # give the same results and ops. The matrices have 40-bit entries,
    # primes dividing det, entries beyond int64, and a shift needing 59
    # primes.
    rng = random.Random(55)
    p0, p1 = prime_table(2)
    budget = _modular._BUDGET
    for mat in ([[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)],
                _lu([1, 1, p0, -1, p1, 1], seed=50),
                [[rng.randint(-2 ** 100, 2 ** 100) for _ in range(4)] for _ in range(4)],
                lap.scaled_add(2 ** 30).num):
        monkeypatch.setattr(_modular, "_BUDGET", budget)
        chunks.clear()
        default = jordan_int(mat), charpoly_int(mat)
        assert max(len(primes) for primes, _ in chunks) >= 2
        chunks.clear()
        monkeypatch.setattr(_modular, "_BUDGET", len(mat) ** 2)
        assert (jordan_int(mat), charpoly_int(mat)) == default
        assert {len(primes) for primes, _ in chunks} == {1}


def test_determinant_trivial_cases():
    assert jordan_int(RationalMatrix.identity(3).num)[0] == 1
    assert jordan_int(RationalMatrix([[2, 1], [1, 1]]).num)[0] == 1


def test_determinant_rational_entries():
    # det(m) = det(N) / d^2 for m = N/d.
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 5), Fraction(1, 7)]])
    assert jordan_int(m.num)[0] == (Fraction(1, 14) - Fraction(1, 15)) * m.den ** 2


def test_laplacian_determinant_is_zero(lap):
    with pytest.raises(ZeroDivisionError):
        jordan_int(lap.num)


def test_det_of_shifted_laplacian_matches_charpoly(bucky, lap, p_char):
    # The elimination kernel against the Hessenberg one: det(xI - A) = P(x),
    # also on a relabeled Laplacian, whose charpoly is not recomputed.
    rng = random.Random(52)
    perm = list(range(60))
    rng.shuffle(perm)
    relabeled = laplacian(relabel(bucky, perm))
    # No x is an eigenvalue, so the kernel returns det(N) for xI - A = N/d.
    for x in (-1, 3, 60, Fraction(7, 3), Fraction(-1, 2)):
        shifted = (-lap).scaled_add(x)
        assert jordan_int(shifted.num)[0] == p_char(x) * shifted.den ** 60
    for x in (-1, 60, Fraction(7, 3)):
        shifted = (-relabeled).scaled_add(x)
        assert jordan_int(shifted.num)[0] == p_char(x) * shifted.den ** 60


def test_charpoly_runs_no_elimination(monkeypatch, lap, p_char):
    """The charpoly is its own route: it never reaches det_int, jordan_int
    or their shared in-place inversion."""
    def refuse(*args, **kwargs):
        raise AssertionError("charpoly reached the elimination kernel")

    monkeypatch.setattr(_modular, "_invert", refuse)
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


def test_inverse_of_rows_over_different_denominators():
    # Rows whose own denominators differ (6, 35 and 4) over the one
    # denominator 420: m^-1 is 420 adj(N) / det(N) for N = m.num.
    m = [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 5), Fraction(1, 7), 1],
         [Fraction(3, 4), 0, Fraction(-1, 2)]]
    assert RationalMatrix(m).den == 420
    expected = _fraction_solve(m, [[int(i == j) for j in range(3)] for i in range(3)])
    assert inverse(RationalMatrix(m)) == RationalMatrix(expected)
    assert RationalMatrix(m) * inverse(RationalMatrix(m)) == RationalMatrix.identity(3)


def test_solve_random_roundtrip():
    rng = random.Random(45)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        m = RationalMatrix([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(n)] for _ in range(n)])
        if _cofactor_det(m.num) == 0:
            continue
        assert m * inverse(m) == RationalMatrix.identity(n)
        done += 1


@pytest.mark.parametrize("m, rhs", [
    (RationalMatrix([[1, 2, 3], [4, 5, 6]]), RationalMatrix([[1], [2]])),
    (RationalMatrix([[2, 1], [1, 1]]), RationalMatrix([[1], [2], [3]])),
], ids=["non_square", "rhs_rows"])
def test_solve_shape_errors_stop_before_the_kernel(monkeypatch, m, rhs):
    def refuse(*args, **kwargs):
        raise AssertionError("a shape error reached the kernel")

    monkeypatch.setattr(ratmat, "jordan_int", refuse)
    monkeypatch.setattr(_modular, "_invert", refuse)
    with pytest.raises(ValueError):
        bareiss_solve(m, rhs)
    # A well-shaped solve does reach the patched kernel.
    with pytest.raises(AssertionError, match="reached the kernel"):
        bareiss_solve(RationalMatrix.identity(rhs.rows), rhs)


def test_solve_singular_raises():
    m = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        bareiss_solve(m, RationalMatrix.identity(2))


def test_solve_counts_pivot_ops():
    c = PivotCounter()
    inverse(RationalMatrix.identity(4), c)
    assert c.ops > 0


def test_inverse_ops_are_n_cubed_per_prime(lap, chunks):
    # The in-place inversion makes n^2 multiply-mod updates per pivot step
    # and prime, and nothing else is counted. inverse(A + I) takes 5 primes.
    c = PivotCounter()
    inverse(lap.scaled_add(1), c)
    assert [len(primes) for primes, _ in chunks] == [5]
    assert c.ops == 5 * 60 ** 3 == 1080000


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


def test_to_json_keeps_no_entry_cache():
    """Formatting a matrix leaves no reduced entries behind on it."""
    m = RationalMatrix.from_ints([[1, 2, 2], [-3, 0, 1]], 4)
    assert m.to_json() == [["1/4", "1/2", "1/2"], ["-3/4", "0", "1/4"]]
    assert m._entries is None


def test_from_ints_copies_rows():
    """A matrix never shares a row with its caller, also when the gcd is 1
    and no entry is divided."""
    for num, den in (([[1, 2], [3, 4]], 1), ([[1, 2], [3, 4]], 5),
                     ([[2, 4], [6, 8]], 2), (((1, 2), (3, 4)), 1)):
        m = RationalMatrix.from_ints(num, den)
        assert all(type(row) is list and row is not caller
                   for row, caller in zip(m.num, num))
        if isinstance(num[0], list):
            expected = [row[:] for row in m.num]
            num[0][0] += 1
            assert m.num == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_from_ints_matches_per_entry_fractions(data):
    """The canonical pair from the distinct numerators equals one reduced
    Fraction per entry, for repeated numerators, a negative den, zero rows
    and the empty matrix; every row is a fresh list."""
    n = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(1, 4)) if n else 0
    pool = data.draw(st.lists(small_or_wide, min_size=1, max_size=3))
    scale = data.draw(st.sampled_from((1, 2, 6, 2 ** 70)))
    entry = st.sampled_from(pool).map(lambda x: scale * x) | st.just(0)
    num = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                             min_size=n, max_size=n))
    den = data.draw(st.sampled_from((1, -1, scale, -scale))
                    | st.integers(-12, 12).filter(bool))
    m = RationalMatrix.from_ints(num, den)
    assert (m.num, m.den) == canonical_fraction(num, den)
    assert (m.rows, m.cols) == (n, k)
    ids = {id(row) for row in m.num}
    assert len(ids) == n
    assert not ids & {id(row) for row in num}


def _reference_entries(m):
    return [[Fraction(x, m.den) for x in row] for row in m.num]


def _assert_reads_match(m, cells):
    """m[i, j] at the given cells, diagonal() and to_json() against one
    Fraction(num, den) and rat_str per entry."""
    ref = _reference_entries(m)
    for i, j in cells:
        x = m[i, j]
        assert (x.numerator, x.denominator) == (ref[i][j].numerator,
                                                ref[i][j].denominator)
    assert m.diagonal() == [ref[i][i] for i in range(min(m.rows, m.cols))]
    assert m.to_json() == [[rat_str(x) for x in row] for row in ref]


small_or_wide = st.integers(-6, 6) | st.integers(-(2 ** 80), 2 ** 80)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_entry_reads_match_per_entry_fractions(data):
    """Reads through the per-matrix cache give what a fresh Fraction per
    entry gives, for negative entries, zeros, repeated values and den 1, in
    any order, and on products and transposes of a matrix already read."""
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    num = data.draw(st.lists(st.lists(small_or_wide, min_size=k, max_size=k),
                             min_size=n, max_size=n))
    den = data.draw(st.sampled_from((1, -1)) | st.integers(-12, 12).filter(bool))
    m = RationalMatrix.from_ints(num, den)
    assert entries(m) == [[Fraction(x, den) for x in row] for row in num]
    cells = [(i, j) for i in range(n) for j in range(k)]
    _assert_reads_match(m, data.draw(st.permutations(cells)) + cells)
    s = data.draw(small_fractions)
    for derived in (m.transpose(), m * m.transpose(), m.transpose() * m, m * s,
                    m - m, m + m):
        _assert_reads_match(derived, [(i, j) for i in range(derived.rows)
                                      for j in range(derived.cols)])
    _assert_reads_match(m, cells)


@pytest.mark.parametrize("route", ["direct", "blocks"])
def test_green_matrix_reads_reduce_each_class_once(lap, sigma, monkeypatch, route):
    """Reading all 3,600 entries of a 48-bit G(a), and its diagonal, builds
    at most one Fraction per walk class (24 on the buckyball). The block
    route's G(a) holds equal numerators as separate integer objects."""
    a = Fraction(281474976710597, 281474976710655)
    if route == "direct":
        g = green.green_matrix(lap, a)
    else:
        g = blocks.assemble_green_via_blocks(blocks.block_split(lap, sigma), a)
    expected = _reference_entries(g)
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(ratmat, "Fraction", counting)
    values = entries(g)
    diagonal = g.diagonal()
    monkeypatch.undo()
    assert 0 < len(built) <= 24
    assert values == expected
    assert diagonal == [expected[i][i] for i in range(60)]


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
    assume(_cofactor_det(m.num) != 0)
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
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            jordan_int(mat)
        with pytest.raises(SingularMatrixError):
            inverse(RationalMatrix(mat))
        return
    _assert_adjugate(mat, d)
    if m:
        _assert_solves(mat, rhs)


def _nilpotent_shift(n, h, k, rhs_cols, seed):
    """[M | R] for M = k I + S, S nonzero only in rows < h and columns >= h
    (S^2 = 0, S[0][h] = 3): det(M) = k^n, yet M^-1 = (I - S/k)/k has
    denominators dividing k^2."""
    rng = random.Random(seed)
    mat = [[k * (i == j) + (rng.randint(-9, 9) if i < h <= j else 0)
            for j in range(n)] for i in range(n)]
    mat[0][h] = 3
    rhs = [[rng.randint(-9, 9) for _ in range(rhs_cols)] for _ in range(n)]
    return mat, rhs


@st.composite
def nilpotent_shifts(draw):
    n = draw(st.integers(2, 8))
    bits = draw(st.integers(64, 256))
    k = draw(st.integers(2 ** bits, 2 ** (bits + 1))) * draw(st.sampled_from([1, -1]))
    return _nilpotent_shift(n, draw(st.integers(1, n - 1)), k,
                            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=60, deadline=None)
@given(nilpotent_shifts())
def test_large_det_small_solution_matches_fraction_oracle(system):
    """A large det with a small reduced solution: jordan_int returns adj(M)
    over det(M) = k^n (M is triangular with k on its diagonal), and
    bareiss_solve reduces the inverse times R to the one solution."""
    mat, rhs = system
    _assert_adjugate(mat, mat[0][0] ** len(mat))
    _assert_solves(mat, rhs)


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


def test_charpoly_primes_pass_twice_the_bound(hessenberg_chunks, monkeypatch):
    # A budget of 8 primes per chunk of an 8 x 8: several chunks.
    cap = 8
    monkeypatch.setattr(_modular, "_BUDGET", cap * 8 * 8)
    rng = random.Random(53)
    mat = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(8)] for _ in range(8)]
    bound = math.prod(math.isqrt(sum(x * x for x in row)) + 2 for row in mat)
    assert charpoly_bound(mat) == bound
    coeffs = charpoly_int(mat)[0]
    assert sum(map(abs, coeffs)) <= bound
    assert len(hessenberg_chunks) > 1
    assert all(len(primes) <= cap for primes in hessenberg_chunks)
    assert math.prod(map(math.prod, hessenberg_chunks)) > 2 * bound
    assert math.prod(map(math.prod, hessenberg_chunks[:-1])) <= 2 * bound


def test_charpoly_bound_decides_the_prime_count(hessenberg_chunks):
    # B = p0 for the 1 x 1 matrix [p0 - 2]: the first prime passes B but not
    # 2B, and one prime alone would give the constant term 2 mod p0.
    p0, p1 = prime_table(2)
    assert charpoly_int([[p0 - 2]])[0] == [2 - p0, 1]
    assert hessenberg_chunks == [[p0, p1]]


def test_laplacian_charpoly_runs_as_one_chunk(lap, hessenberg_chunks):
    # Its bound needs 5 primes, which fit in one 60 x 60 chunk of at most
    # _BUDGET // 60**2 = 18.
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
