"""Energies, reproducing relations, and the two Sobolev inequalities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckysob import closedform, green, sobolev
from buckysob.ratmat import RationalMatrix


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
        ok, j = sobolev.reproducing_check(u, g_star, lap)
        assert ok, f"failed at {j}"


def test_reproducing_damped(lap, g_one):
    rng = random.Random(14)
    for _ in range(10):
        u = vector(Fraction(rng.randint(-50, 50), rng.randint(1, 7))
                   for _ in range(60))
        ok, _ = sobolev.reproducing_check(u, g_one, lap, 1)
        assert ok
    ones = vector([1] * 60)
    ok, _ = sobolev.reproducing_check(ones, g_one, lap, 1)
    assert ok


def test_reproducing_meanzero_requires_mean_zero(lap, g_star):
    with pytest.raises(ValueError):
        sobolev.reproducing_check(vector([1] * 60), g_star, lap)


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
    for j0 in (0, 17, 59):
        w = sobolev.equality_witness(g_star, j0, lap)
        assert w.constant == closedform.C0
        assert w.lhs == w.rhs == closedform.C0 ** 2


def test_equality_on_green_columns(lap, g_one):
    c1 = green.constant_diagonal(g_one)
    w = sobolev.equality_witness(g_one, 17, lap, 1)
    assert w.constant == c1
    assert w.lhs == w.rhs == c1 ** 2


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


def test_max_not_at_diagonal_detection(lap, g_star):
    rigged = [[g_star[i, j] for j in range(60)] for i in range(60)]
    rigged[5][0] = Fraction(2)  # bigger than the diagonal
    with pytest.raises(sobolev.MaxNotAtDiagonal):
        sobolev.equality_witness(RationalMatrix(rigged), 0, lap)


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

    def ref_energy(v):
        return (sum((v[i] - v[j]) ** 2 for i, j in edges)
                + a * sum(x * x for x in v))

    e = ref_energy(u)
    assert sobolev.energy(vector(u), A, a) == e
    lhs = max(abs(x) for x in u) ** 2
    assert sobolev.sobolev_trial(vector(u), c, A, a) == (lhs, c * e, lhs <= c * e)

    kernel = green.pseudo_green(A) if a == 0 else green.green_matrix(A, a)
    k = [[kernel[i, j] for j in range(n)] for i in range(n)]
    if data.draw(st.booleans()):  # a wrong kernel
        k[data.draw(vertex)][data.draw(vertex)] += data.draw(positive_fractions)
        kernel = RationalMatrix(k)
    w = [sum(A[i, j] * x for j, x in enumerate(u)) + a * u[i] for i in range(n)]
    recovered = [sum(x * y for x, y in zip(row, w)) for row in k]
    wrong = [j for j in range(n) if recovered[j] != u[j]]
    assert sobolev.reproducing_check(vector(u), kernel, A, a) == \
        (not wrong, wrong[0] if wrong else None)

    j0 = data.draw(vertex)
    col = [row[j0] for row in k]
    diag, top, e_col = col[j0], max(abs(x) for x in col), ref_energy(col)
    if top == abs(diag) and e_col == diag:
        assert sobolev.equality_witness(kernel, j0, A, a) == \
            sobolev.EqualityWitness(j0=j0, constant=diag, max_abs=top,
                                    energy=e_col, lhs=top ** 2, rhs=diag * e_col)
    else:
        with pytest.raises(sobolev.MaxNotAtDiagonal):
            sobolev.equality_witness(kernel, j0, A, a)
