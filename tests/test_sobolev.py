"""Energies, reproducing relations, and the two Sobolev inequalities."""

import random
from fractions import Fraction

import pytest

from buckysob import closedform, green, sobolev


def delta(j, n=60):
    return [Fraction(1) if i == j else Fraction(0) for i in range(n)]


def test_energy_of_constant_vector(lap):
    assert sobolev.energy([Fraction(2)] * 60, lap) == 0


def test_energy_of_delta(lap):
    assert sobolev.energy(delta(0), lap) == 3


def test_energy_of_pentagon_indicator(bucky, census, lap):
    pentagon = next(f for f in census.faces if len(f) == 5)
    u = [Fraction(1) if v in pentagon else Fraction(0) for v in range(60)]
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
    assert sobolev.energy_a([Fraction(1)] * 60, lap, 1) == 60
    assert sobolev.energy_a(delta(0), lap, 2) == 5
    rng = random.Random(12)
    u = sobolev.random_mean_zero(60, rng)
    a = Fraction(3, 7)
    assert (sobolev.energy_a(u, lap, a) - sobolev.energy(u, lap)
            == a * sum(x * x for x in u))


def test_reproducing_mean_zero(lap, g_star):
    rng = random.Random(13)
    for _ in range(10):
        u = sobolev.random_mean_zero(60, rng)
        ok, j = sobolev.reproducing_check(u, g_star, "meanzero", lap)
        assert ok, f"failed at {j}"


def test_reproducing_damped(lap, g_one):
    rng = random.Random(14)
    for _ in range(10):
        u = [Fraction(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(60)]
        ok, _ = sobolev.reproducing_check(u, g_one, "damped", lap, 1)
        assert ok
    ones = [Fraction(1)] * 60
    ok, _ = sobolev.reproducing_check(ones, g_one, "damped", lap, 1)
    assert ok


def test_reproducing_meanzero_requires_mean_zero(lap, g_star):
    with pytest.raises(ValueError):
        sobolev.reproducing_check([Fraction(1)] * 60, g_star, "meanzero", lap)


def test_sobolev_inequality_random(lap):
    rng = random.Random(15)
    for _ in range(200):
        u = sobolev.random_mean_zero(60, rng)
        lhs, rhs, holds = sobolev.sobolev_trial(u, closedform.C0, "meanzero", lap)
        assert holds and lhs <= rhs


def test_sobolev_damped_random(lap, g_one):
    c1 = green.constant_diagonal(g_one)
    rng = random.Random(16)
    for _ in range(50):
        u = [Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(60)]
        _, _, holds = sobolev.sobolev_trial(u, c1, "damped", lap, 1)
        assert holds


def test_equality_on_pseudo_green_columns(lap, g_star):
    for j0 in (0, 17, 59):
        w = sobolev.equality_witness(g_star, j0, "meanzero", lap)
        assert w.constant == closedform.C0
        assert w.lhs == w.rhs == closedform.C0 ** 2


def test_equality_on_green_columns(lap, g_one):
    c1 = green.constant_diagonal(g_one)
    w = sobolev.equality_witness(g_one, 17, "damped", lap, 1)
    assert w.constant == c1
    assert w.lhs == w.rhs == c1 ** 2


def test_equality_is_homogeneous(lap, g_star):
    col = g_star.column(0)
    doubled = [2 * x for x in col]
    lhs, rhs, holds = sobolev.sobolev_trial(doubled, closedform.C0, "meanzero", lap)
    lhs1, rhs1, _ = sobolev.sobolev_trial(col, closedform.C0, "meanzero", lap)
    assert holds
    assert lhs == 4 * lhs1 and rhs == 4 * rhs1
    assert lhs == rhs  # equality preserved under scaling


def test_sharpness(lap, g_star):
    below = closedform.C0 - Fraction(1, 10 ** 6)
    _, _, holds = sobolev.sobolev_trial(g_star.column(0), below, "meanzero", lap)
    assert not holds


def test_schwarz_intermediate(lap, g_star):
    # |(u, G* delta_j)_A|^2 <= E(u) E(G* delta_j) for random mean-zero u
    rng = random.Random(17)
    for _ in range(5):
        u = sobolev.random_mean_zero(60, rng)
        e_u = sobolev.energy(u, lap)
        w = lap.matvec(u)
        for j in (0, 31):
            col = g_star.column(j)
            pairing = sum(c * x for c, x in zip(col, w))
            e_col = sobolev.quadratic_energy(col, lap)
            assert pairing ** 2 <= e_u * e_col
            assert pairing == u[j]  # reproducing relation again


def test_laplacian_edges_are_the_graph_edges(bucky, lap):
    assert sorted(sobolev.laplacian_edges(lap)) == sorted(bucky.edges)


def test_form_mismatch_detection():
    from buckysob.ratmat import RationalMatrix
    # forged "Laplacian" whose quadratic form disagrees with its edge sum
    bad = RationalMatrix([[2, -1], [-1, 2]])
    with pytest.raises(sobolev.FormMismatch):
        sobolev.energy([Fraction(1), Fraction(0)], bad)


def test_max_not_at_diagonal_detection(lap, g_star):
    rigged = [[g_star[i, j] for j in range(60)] for i in range(60)]
    rigged[5][0] = Fraction(2)  # bigger than the diagonal
    from buckysob.ratmat import RationalMatrix
    with pytest.raises(sobolev.MaxNotAtDiagonal):
        sobolev.equality_witness(RationalMatrix(rigged), 0, "meanzero", lap)


def test_trial_record_shape(lap):
    u = delta(0)
    lhs, rhs, holds = sobolev.sobolev_trial(u, Fraction(1), "damped", lap, 1)
    rec = sobolev.trial_record(u, lhs, rhs, holds)
    assert rec["lhs"] == "1"
    assert rec["holds"] is holds
