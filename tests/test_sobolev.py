"""Energies, reproducing relations, and the two Sobolev inequalities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckysob import closedform, green, sobolev
from buckysob.ratmat import RationalMatrix
from oracles import reproducing_check


def vector(entries):
    return RationalMatrix([[x] for x in entries])


def delta(j, n=60):
    return vector(int(i == j) for i in range(n))


def column(m, j):
    return m.submatrix(range(m.rows), [j])


def test_energy_of_constant_vector(lap):
    assert sobolev.energy(vector([2] * 60), lap) == 0


def test_energy_of_delta(lap):
    assert sobolev.energy(delta(0), lap) == 3


def test_energy_of_pentagon_indicator(bucky, census, lap):
    pentagon = next(f for f in census.faces if len(f) == 5)
    u = vector(int(v in pentagon) for v in range(60))
    boundary = sum(1 for i, j in bucky.sorted_edges()
                   if (i in pentagon) != (j in pentagon))
    assert sobolev.energy(u, lap) == boundary
    # each pentagon vertex has exactly one edge leaving the face
    assert boundary == 5


def test_energy_nonnegative_and_kernel(lap):
    rng = random.Random(11)
    for _ in range(20):
        u = sobolev.random_mean_zero(60, rng)
        assert sobolev.energy(u, lap) > 0


def test_energy_a(lap):
    assert sobolev.energy(vector([1] * 60), lap, 1) == 60
    assert sobolev.energy(delta(0), lap, 2) == 5
    rng = random.Random(12)
    u = sobolev.random_mean_zero(60, rng)
    a = Fraction(3, 7)
    assert (sobolev.energy(u, lap, a) - sobolev.energy(u, lap)
            == a * (u.transpose() * u)[0, 0])


def test_reproducing_mean_zero(lap, g_star):
    rng = random.Random(13)
    for _ in range(10):
        u = sobolev.random_mean_zero(60, rng)
        ok, j = reproducing_check(u, g_star, lap)
        assert ok, f"failed at {j}"


def test_reproducing_damped(lap, g_one):
    rng = random.Random(14)
    for _ in range(10):
        u = vector(Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                   for _ in range(60))
        ok, _ = reproducing_check(u, g_one, lap, 1)
        assert ok
    ones = vector([1] * 60)
    ok, _ = reproducing_check(ones, g_one, lap, 1)
    assert ok


def test_reproducing_meanzero_requires_mean_zero(lap, g_star):
    with pytest.raises(ValueError):
        reproducing_check(vector([1] * 60), g_star, lap)


@pytest.mark.parametrize("a", [-5, Fraction(-1, 10 ** 6)], ids=["-5", "-1/10^6"])
def test_negative_damping_rejected(lap, g_one, a):
    # A + aI is not positive semidefinite for a < 0: sobolev_trial(u, 1, A,
    # -5) would report a negative energy.
    u = delta(0)
    for call in (lambda: sobolev.energy(u, lap, a),
                 lambda: sobolev.sobolev_trial(u, 1, lap, a),
                 lambda: sobolev.equality_witnesses(g_one, lap, a)):
        with pytest.raises(ValueError, match="damping parameter must be nonnegative"):
            call()


def test_sobolev_inequality_random(lap):
    rng = random.Random(15)
    for _ in range(200):
        u = sobolev.random_mean_zero(60, rng)
        lhs, rhs, holds = sobolev.sobolev_trial(u, closedform.C0, lap)
        assert holds and lhs <= rhs


def test_sobolev_damped_random(lap, g_one):
    c1 = green.constant_diagonal(g_one)
    rng = random.Random(16)
    for _ in range(50):
        u = vector(Fraction(rng.randint(-100, 100), rng.randint(1, 10))
                   for _ in range(60))
        _, _, holds = sobolev.sobolev_trial(u, c1, lap, 1)
        assert holds


def test_equality_on_pseudo_green_columns(lap, g_star):
    witnesses = sobolev.equality_witnesses(g_star, lap)
    assert [w.j0 for w in witnesses] == list(range(60))
    for w in witnesses:
        assert w.constant == closedform.C0
        assert w.lhs == closedform.C0 ** 2


def test_equality_on_green_columns(lap, g_one):
    c1 = green.constant_diagonal(g_one)
    for w in sobolev.equality_witnesses(g_one, lap, 1):
        assert w.constant == c1
        assert w.lhs == c1 ** 2


def test_equality_is_homogeneous(lap, g_star):
    col = column(g_star, 0)
    doubled = 2 * col
    lhs, rhs, holds = sobolev.sobolev_trial(doubled, closedform.C0, lap)
    lhs1, rhs1, _ = sobolev.sobolev_trial(col, closedform.C0, lap)
    assert holds
    assert lhs == 4 * lhs1 and rhs == 4 * rhs1
    assert lhs == rhs  # equality preserved under scaling


def test_sharpness(lap, g_star):
    below = closedform.C0 - Fraction(1, 10 ** 6)
    _, _, holds = sobolev.sobolev_trial(column(g_star, 0), below, lap)
    assert not holds


def test_schwarz_intermediate(lap, g_star):
    # |(u, G* delta_j)_A|^2 <= E(u) E(G* delta_j) for random mean-zero u
    rng = random.Random(17)
    for _ in range(5):
        u = sobolev.random_mean_zero(60, rng)
        e_u = sobolev.energy(u, lap)
        w = lap * u
        for j in (0, 31):
            col = column(g_star, j)
            pairing = (col.transpose() * w)[0, 0]
            e_col = (col.transpose() * lap * col)[0, 0]
            assert pairing ** 2 <= e_u * e_col
            assert pairing == u[j, 0]  # reproducing relation again


def test_laplacian_edges_are_the_graph_edges(bucky, lap):
    assert sorted(sobolev.laplacian_edges(lap)) == sorted(bucky.edges)


def test_form_mismatch_detection():
    # forged "Laplacian" whose quadratic form disagrees with its edge sum
    bad = RationalMatrix([[2, -1], [-1, 2]])
    with pytest.raises(sobolev.FormMismatch):
        sobolev.energy(vector([1, 0]), bad)
    # column 0 of its inverse is (2/3, 1/3), maximal at the diagonal
    with pytest.raises(sobolev.FormMismatch):
        sobolev.equality_witnesses(RationalMatrix([[Fraction(2, 3), Fraction(1, 3)],
                                                   [Fraction(1, 3), Fraction(2, 3)]]),
                                   bad)


def test_weighted_laplacian_fails_the_form_check():
    # The edge sum has unit weights: (1 - (-1))^2 = 4, but u^t A u = 8.
    A = RationalMatrix([[2, -2], [-2, 2]])
    u = vector([1, -1])
    assert (u.transpose() * A * u)[0, 0] == 8
    for call in (lambda: sobolev.energy(u, A),
                 lambda: sobolev.sobolev_trial(u, Fraction(1, 4), A),
                 lambda: list(sobolev.trial_batch([([[1, -1]], [1])], Fraction(1, 4), A, 1))):
        with pytest.raises(sobolev.FormMismatch, match="^edge sum 4 vs quadratic form 8$"):
            call()


def test_max_not_at_diagonal_detection(lap, g_star):
    rigged = [[g_star[i, j] for j in range(60)] for i in range(60)]
    rigged[5][0] = Fraction(2)  # bigger than the diagonal
    with pytest.raises(sobolev.MaxNotAtDiagonal, match="column 0: max 2 off"):
        sobolev.equality_witnesses(RationalMatrix(rigged), lap)
    # doubled, a column's energy 4 C0 is no longer its diagonal 2 C0
    with pytest.raises(sobolev.MaxNotAtDiagonal,
                       match=f"column 0: energy {4 * closedform.C0} != "
                             f"diagonal {2 * closedform.C0}"):
        sobolev.equality_witnesses(2 * g_star, lap)


@pytest.mark.parametrize("n", [59, 61])
def test_vector_of_the_wrong_size_raises(lap, n):
    # A 61-entry u would drop entry 60 from the edge sum, a 59-entry one
    # would index past its end: both are rejected before any sum.
    u = vector([1] + [0] * (n - 1))
    for call in (lambda: sobolev.energy(u, lap),
                 lambda: sobolev.energy(u, lap, 1),
                 lambda: sobolev.sobolev_trial(u, closedform.C0, lap, 1)):
        with pytest.raises(ValueError, match=f"vector is {n}x1, not 60x1"):
            call()
    with pytest.raises(ValueError, match="not 60x1"):
        sobolev.energy(RationalMatrix.zeros(60, 2), lap)


@pytest.mark.parametrize("n", [59, 61])
def test_kernel_of_the_wrong_size_raises(lap, n):
    kernel = RationalMatrix.identity(n)
    with pytest.raises(ValueError, match=f"kernel is {n}x{n}, not 60x60"):
        sobolev.equality_witnesses(kernel, lap)
    with pytest.raises(ValueError, match="kernel is 60x59, not 60x60"):
        sobolev.equality_witnesses(RationalMatrix.zeros(60, 59), lap, 1)


def path_plus_edges(n, extra):
    """The Laplacian and edge list of the path 0-1-...-(n-1) plus ``extra``
    (loops dropped): a connected graph, so G* exists."""
    edges = sorted({(i, i + 1) for i in range(n - 1)}
                   | {(min(e), max(e)) for e in extra if e[0] != e[1]})
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
        rows[i][i] += 1
        rows[j][j] += 1
    return RationalMatrix(rows), edges


def ref_energy(v, edges, a):
    """E(v) + a * sum v_j^2 on Fractions, by the edge sum alone."""
    return sum((v[i] - v[j]) ** 2 for i, j in edges) + a * sum(x * x for x in v)


def reference_witnesses(k, edges, a):
    """Per column j0 of the square Fraction rows k, the EqualityWitness built
    on Fractions, column by column; None if the chain fails on any column."""
    witnesses = []
    for j0 in range(len(k)):
        col = [row[j0] for row in k]
        diag, top, e_col = col[j0], max(abs(x) for x in col), ref_energy(col, edges, a)
        if top != abs(diag) or e_col != diag or top ** 2 != diag * e_col:
            return None
        witnesses.append(sobolev.EqualityWitness(
            j0=j0, constant=diag, max_abs=top, lhs=top ** 2))
    return witnesses


def fraction_rows(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1), Fraction(3, 7)],
                         ids=["a=0", "a=1", "a=3/7"])
@pytest.mark.parametrize("n, extra", [(5, []), (6, [(0, 3), (2, 5)]),
                                      (7, [(0, 6), (1, 4), (3, 5)])])
def test_equality_witnesses_match_reference(n, extra, a):
    A, edges = path_plus_edges(n, extra)
    kernel = green.pseudo_green(A) if a == 0 else green.green_matrix(A, a)
    expected = reference_witnesses(fraction_rows(kernel), edges, a)
    assert expected is not None
    assert sobolev.equality_witnesses(kernel, A, a) == expected


@pytest.mark.parametrize("a", [0, 1], ids=["G*", "G(1)"])
def test_buckyball_witnesses_match_reference(a, bucky, lap, g_star, g_one):
    kernel = g_star if a == 0 else g_one
    expected = reference_witnesses(fraction_rows(kernel), bucky.edges, a)
    assert expected is not None
    assert sobolev.equality_witnesses(kernel, lap, a) == expected


def word_values(count, rng):
    """The values v of ``sobolev._draw``, rebuilt word by word from the
    rule in its docstring: rounds of ``rng.getrandbits(16 m)`` for the m
    values still missing, read low 16-bit word first, keeping w % 2010 for
    each w < 2^16 - 2^16 % 2010."""
    out = []
    while len(out) < count:
        m = count - len(out)
        bits = rng.getrandbits(16 * m)
        out += [w % 2010 for w in ((bits >> (16 * i)) & 0xFFFF for i in range(m))
                if w < 2 ** 16 - 2 ** 16 % 2010]
    return out


def oracle_block(k, n, rng, mean_zero, drawn):
    """k Fraction vectors p/q, row by row from the values v of
    ``word_values(k n)``: p = v // 10 - 100 and q = v % 10 + 1; less each
    vector's mean with ``mean_zero``. Appends every (p, q) to ``drawn``."""
    pq = [(v // 10 - 100, v % 10 + 1) for v in word_values(k * n, rng)]
    drawn += pq
    vectors = [[Fraction(p, q) for p, q in pq[r * n:(r + 1) * n]] for r in range(k)]
    if mean_zero:
        vectors = [[x - sum(v, Fraction(0)) / n for x in v] for v in vectors]
    return vectors


def oracle_batch(k, n, rng, mean_zero=False, retries=None, drawn=None):
    """The vectors of ``draw_batch(k, n, rng, mean_zero)``, rebuilt on
    Fractions: blocks of ``sobolev._CHUNK`` vectors, and each all-zero
    mean-zero vector of a block drawn again, in order, as a one-vector
    block before the next block. Appends n to ``retries`` per redraw."""
    retries = [] if retries is None else retries
    drawn = [] if drawn is None else drawn
    out = []
    for start in range(0, k, sobolev._CHUNK):
        block = oracle_block(min(sobolev._CHUNK, k - start), n, rng, mean_zero, drawn)
        for r in range(len(block)):
            while mean_zero and not any(block[r]):
                retries.append(n)
                block[r], = oracle_block(1, n, rng, True, drawn)
        out += block
    return out


def batch_vectors(batch):
    """A batch's vectors as lists of Fractions, block by block."""
    return [[Fraction(x, den) for x in row] for rows, dens in batch
            for row, den in zip(rows.tolist(), dens)]


def test_draws_match_the_word_oracle():
    retries = []
    for seed in range(4):
        for n in (2, 3, 60):
            rng, oracle = random.Random(seed), random.Random(seed)
            for k in (0, 1, 7, 8, 9, 17):
                for mean_zero in (True, False):
                    assert batch_vectors(sobolev.draw_batch(k, n, rng, mean_zero)) == \
                        oracle_batch(k, n, oracle, mean_zero, retries)
            for _ in range(150 if n < 60 else 25):
                assert sobolev.random_mean_zero(n, rng) == \
                    vector(oracle_batch(1, n, oracle, True, retries)[0])
                assert sobolev.random_vector(n, rng) == vector(oracle_batch(1, n, oracle)[0])
            assert rng.getstate() == oracle.getstate()
    assert retries  # the all-zero redraw was taken


def test_draws_cover_every_p_and_q():
    drawn = []
    rng, oracle = random.Random(21), random.Random(21)
    vectors = batch_vectors(sobolev.draw_batch(500, 60, rng))
    assert vectors == oracle_batch(500, 60, oracle, drawn=drawn)
    ps, qs = (set(v) for v in zip(*drawn))
    assert ps == set(range(-100, 101)) and qs == set(range(1, 11))
    assert all(abs(x) <= 100 and x.denominator <= 10 for v in vectors for x in v)


@pytest.mark.parametrize("n", [0, 1])
def test_mean_zero_draw_needs_two_entries(n):
    # every mean-zero draw of fewer than 2 entries is zero; raise, not retry
    with pytest.raises(ValueError, match="n >= 2"):
        sobolev.random_mean_zero(n, random.Random(0))


fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
positive_fractions = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_functions_match_fraction_reference(data):
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    A, edges = path_plus_edges(n, data.draw(st.lists(st.tuples(vertex, vertex),
                                                     max_size=6)))
    a = data.draw(st.one_of(st.just(Fraction(0)), positive_fractions))
    c = data.draw(positive_fractions)
    u = data.draw(st.lists(fractions, min_size=n, max_size=n))
    if a == 0:
        mean = sum(u, Fraction(0)) / n
        u = [x - mean for x in u]

    e = ref_energy(u, edges, a)
    assert sobolev.energy(vector(u), A, a) == e
    lhs = max(abs(x) for x in u) ** 2
    assert sobolev.sobolev_trial(vector(u), c, A, a) == (lhs, c * e, lhs <= c * e)

    kernel = green.pseudo_green(A) if a == 0 else green.green_matrix(A, a)
    k = fraction_rows(kernel)
    if data.draw(st.booleans()):  # a wrong kernel
        k[data.draw(vertex)][data.draw(vertex)] += data.draw(positive_fractions)
        kernel = RationalMatrix(k)
    w = [sum(A[i, j] * x for j, x in enumerate(u)) + a * u[i] for i in range(n)]
    recovered = [sum(x * y for x, y in zip(row, w)) for row in k]
    wrong = [j for j in range(n) if recovered[j] != u[j]]
    assert reproducing_check(vector(u), kernel, A, a) == \
        (not wrong, wrong[0] if wrong else None)

    expected = reference_witnesses(k, edges, a)
    if expected is not None:
        assert sobolev.equality_witnesses(kernel, A, a) == expected
    else:
        with pytest.raises(sobolev.MaxNotAtDiagonal):
            sobolev.equality_witnesses(kernel, A, a)


def block_dtypes(monkeypatch):
    """The dtype of every block ``sobolev._int_block`` returns."""
    seen = []
    int_block = sobolev._int_block

    def recording(*args):
        y = int_block(*args)
        seen.append(y.dtype)
        return y

    monkeypatch.setattr(sobolev, "_int_block", recording)
    return seen


def reference_trials(rows, dens, c, edges, a):
    """(lhs, rhs, holds) per vector rows[r] / dens[r], on Fractions."""
    out = []
    for row, den in zip(rows, dens):
        u = [Fraction(x, den) for x in row]
        lhs, rhs = max(abs(x) for x in u) ** 2, c * ref_energy(u, edges, a)
        out.append((lhs, rhs, lhs <= rhs))
    return out


def test_buckyball_kernels_and_draws_take_the_int64_path(lap, g_star, g_one,
                                                          monkeypatch):
    seen = block_dtypes(monkeypatch)
    sobolev.equality_witnesses(g_star, lap)
    sobolev.equality_witnesses(g_one, lap, 1)
    assert len(seen) == 2 * math.ceil(60 / sobolev._CHUNK)
    draws = sobolev.draw_batch(100, 60, random.Random(1), mean_zero=True)
    assert all(holds for *_, holds in sobolev.trial_batch(draws, closedform.C0, lap))
    assert set(seen) == {np.dtype(np.int64)}


def test_wide_green_matrix_takes_the_object_path(bucky, lap, monkeypatch):
    # numerators of about 745 bits: no int64 bound holds
    a = Fraction(281474976710597, 281474976710655)
    kernel = green.green_matrix(lap, a)
    seen = block_dtypes(monkeypatch)
    expected = reference_witnesses(fraction_rows(kernel), bucky.edges, a)
    assert expected is not None
    assert sobolev.equality_witnesses(kernel, lap, a) == expected
    columns = [list(col) for col in zip(*kernel.num)][:10]
    dens = [kernel.den] * len(columns)
    c = expected[0].constant
    got = list(sobolev.trial_batch([(columns, dens)], c, lap, a))
    assert got == reference_trials(columns, dens, c, bucky.edges, a)
    assert all(lhs == rhs for lhs, rhs, _ in got)  # each column attains equality
    assert seen and set(seen) == {np.dtype(object)}


def sobolev_blocks(rows, dens, cuts=None):
    """rows and dens as (rows, dens) blocks, split at ``cuts`` (every
    ``sobolev._CHUNK`` rows if None)."""
    cuts = range(sobolev._CHUNK, len(rows), sobolev._CHUNK) if cuts is None else cuts
    edges = [0, *cuts, len(rows)]
    return [(rows[i:j], dens[i:j]) for i, j in zip(edges, edges[1:])]


@pytest.mark.parametrize("a", [Fraction(1), Fraction(3, 7)], ids=["a=1", "a=3/7"])
def test_trial_batch_at_the_int64_bound(a, bucky, lap, monkeypatch):
    # The bucky Laplacian's bound is max(4 |E|, n R) = 360, R = 6 its largest
    # absolute row sum: entries up to the largest t with t^2 360 < 2^63 are
    # int64, and up to t + 1 are not; at 2^40 an int64 square would wrap.
    t = math.isqrt((2 ** 63 - 1) // 360)
    rng = random.Random(7)
    for top, dtype in ((t, np.int64), (t + 1, object), (2 ** 40, object)):
        seen = block_dtypes(monkeypatch)
        rows = [[top * (-1) ** (bucky.n * r + i) for i in range(60)] for r in range(3)]
        rows += [[rng.randint(-top, top) for _ in range(59)] + [top] for _ in range(9)]
        dens = [rng.randint(1, 30) for _ in rows]
        c = Fraction(2, 3)
        assert list(sobolev.trial_batch(sobolev_blocks(rows, dens), c, lap, a)) == \
            reference_trials(rows, dens, c, bucky.edges, a)
        assert set(seen) == {np.dtype(dtype)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_batched_trials_match_one_vector_trials(data):
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    A, _ = path_plus_edges(n, data.draw(st.lists(st.tuples(vertex, vertex), max_size=6)))
    a = data.draw(st.one_of(st.just(Fraction(0)), positive_fractions))
    c = data.draw(positive_fractions)
    k = data.draw(st.integers(0, 5))
    rows = [data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
            for _ in range(k)]
    if a == 0:
        rows = [[n * x - sum(row) for x in row] for row in rows]
    dens = [data.draw(st.integers(1, 30)) for _ in range(k)]
    cuts = sorted(data.draw(st.lists(st.integers(0, k), max_size=3)))
    expected = [sobolev.sobolev_trial(vector([Fraction(x, den) for x in row]), c, A, a)
                for row, den in zip(rows, dens)]
    assert list(sobolev.trial_batch(sobolev_blocks(rows, dens, cuts), c, A, a)) == expected
