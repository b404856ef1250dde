"""Green / pseudo-Green matrices and the sharp constants."""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckysob import closedform, graph, green, ratmat
from buckysob.polynomials import IntPolynomial, RationalFunction, VerificationFailed
from buckysob.ratmat import RationalMatrix, charpoly, inverse


def test_projection_entries():
    e0 = green.projection_e0(60)
    assert all(e0[i, j] == Fraction(1, 60) for i in range(60) for j in range(60))
    ones = [Fraction(1)] * 60
    assert e0.matvec(ones) == ones


def test_projection_kills_mean_zero(lap):
    e0 = green.projection_e0(60)
    u = [Fraction(1)] + [Fraction(-1)] + [Fraction(0)] * 58
    assert all(x == 0 for x in e0.matvec(u))
    assert e0 * e0 == e0
    assert e0.trace() == 1


def test_green_matrix_is_inverse(lap):
    a = Fraction(1, 7)
    g = green.green_matrix(lap, a)
    assert lap.scaled_add(a) * g == RationalMatrix.identity(60)


def test_green_matrix_rejects_nonpositive(lap):
    with pytest.raises(green.NonPositiveParameter):
        green.green_matrix(lap, 0)
    with pytest.raises(green.NonPositiveParameter):
        green.green_matrix(lap, Fraction(-1, 2))


def test_green_diagonal_constant(g_one):
    c1 = green.constant_diagonal(g_one)
    assert c1 == Fraction(28136010, 87119712)


def test_pseudo_green_moore_penrose(lap, g_star):
    ag = lap * g_star
    assert ag * lap == lap
    assert g_star * ag == g_star
    assert ag.transpose() == ag
    ga = g_star * lap
    assert ga.transpose() == ga


def test_pseudo_green_defining_relations(lap, g_star):
    ident = RationalMatrix.identity(60)
    e0 = green.projection_e0(60)
    zero = RationalMatrix.zeros(60, 60)
    assert lap * g_star == ident - e0
    assert g_star * lap == ident - e0
    assert g_star * e0 == zero
    assert e0 * g_star == zero
    assert g_star.is_symmetric()


@pytest.mark.parametrize("seed", [None, 7])
def test_pseudo_green_matches_projection_formula(bucky, seed):
    # (A + J)^-1 - E0/60 against the formula (A + E0)^-1 - E0, entrywise.
    if seed is not None:
        perm = list(range(60))
        random.Random(seed).shuffle(perm)
        bucky = graph.relabel(bucky, perm)
    A = graph.laplacian(bucky)
    e0 = green.projection_e0(60)
    old = inverse(A + e0) - e0
    new = green.pseudo_green(A)
    assert all(new[i, j] == old[i, j] for i in range(60) for j in range(60))
    assert new == old


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(60)))
def test_relabeling_keeps_charpoly_and_c0(bucky, perm):
    A = graph.laplacian(graph.relabel(bucky, perm))
    assert charpoly(A) == closedform.charpoly_product()
    assert green.pseudo_green(A).diagonal() == [closedform.C0] * 60


def test_pseudo_green_kills_constants(g_star):
    ones = [Fraction(1)] * 60
    assert all(x == 0 for x in g_star.matvec(ones))


def test_pseudo_green_rejects_wrong_kernel():
    m = RationalMatrix.identity(4)
    with pytest.raises(green.KernelMismatch):
        green.pseudo_green(m)


def test_c0_routes_agree(g_star, p_char):
    c_diag = green.c0_via_diagonal(g_star)
    c_trace = green.c0_via_trace(p_char)
    assert c_diag == closedform.C0
    assert c_trace == closedform.C0
    assert abs(float(closedform.C0) - 0.63727) < 5e-6


def test_c0_trace_requires_zero_root():
    with pytest.raises(ValueError):
        green.c0_via_trace(IntPolynomial([1, 1]))


def test_constant_diagonal_rejects_nonconstant():
    with pytest.raises(green.DiagonalMismatch):
        green.constant_diagonal(RationalMatrix([[1, 0], [0, 2]]))


def test_ca_charpoly_route_matches_closed_form(ca):
    assert ca == closedform.ca_closed_form()
    assert ca.num.coeffs[0] == 3344
    assert ca.num.coeffs[-1] == 1
    assert ca.num.degree == 14
    assert ca.den.degree == 15


def test_ca_denominator_is_squarefree_part(ca, p_char):
    from buckysob.polynomials import squarefree_part
    assert ca.den == squarefree_part(p_char.compose_neg())


def test_ca_fit_route(lap):
    fitted = green.ca_via_fit(lap)
    assert fitted == closedform.ca_closed_form()


def test_ca_fit_pool_is_capped(lap, monkeypatch):
    requested, sent = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            args = list(args)
            sent.extend(args)
            return map(fn, args)

    monkeypatch.setattr(green, "ProcessPoolExecutor", InProcessPool)
    assert green.ca_via_fit(lap, parallel=5000) == closedform.ca_closed_form()
    assert requested and requested[0] <= min(os.cpu_count() or 1,
                                             green.CA_SAMPLE_COUNT)
    assert all(type(x) is int for num, den, _, _ in sent for row in num for x in row)


def _laplacian_of(n, edges):
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    for i, row in enumerate(rows):
        row[i] = -sum(row)
    return RationalMatrix(rows)


def test_walk_regular_vertex_transitive(lap):
    green.walk_regular(lap)
    green.walk_regular(graph.laplacian(graph.truncate(graph.canonical_tetrahedron())))


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(60)))
def test_walk_regular_relabeled(bucky, perm):
    green.walk_regular(graph.laplacian(graph.relabel(bucky, perm)))


def test_walk_regular_rejects_k4_plus_q3():
    # Both components are 3-regular, so m_0..m_2 agree; m_3 = 54 - 2 t(j)
    # counts the t(j) triangles at j: 3 in K4, 0 in Q3.
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    q3 = [(4 + b, 4 + (b ^ (1 << t))) for b in range(8) for t in range(3)
          if b < b ^ (1 << t)]
    with pytest.raises(green.DiagonalMismatch, match="m_3 "):
        green.walk_regular(_laplacian_of(12, k4 + q3))


def test_walk_regular_checks_up_to_n_minus_1():
    # On the path 0-1-2 the moments agree up to k = 1 and first differ at
    # the last one compared, k = n - 1 = 2 (1 at the ends, 2 in the middle).
    path = RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(green.DiagonalMismatch, match="m_2 "):
        green.walk_regular(path)


def test_walk_regular_requires_symmetry():
    with pytest.raises(ValueError):
        green.walk_regular(RationalMatrix([[0, 1], [0, 0]]))


def test_ca_fit_solves_one_column_per_sample(lap, monkeypatch):
    """33 one-column solves at vertices k mod 60, then the fit's one 30x30
    solve; no full inverse."""
    sizes, vertices = [], []
    jordan_int, diag_sample = ratmat.jordan_int, green._diag_sample

    def counted(aug, n, m):
        sizes.append((n, m))
        return jordan_int(aug, n, m)

    def sample(args):
        vertices.append(args[3])
        return diag_sample(args)

    def no_green_matrix(*args, **kwargs):
        raise AssertionError("green_matrix called")

    monkeypatch.setattr(ratmat, "jordan_int", counted)
    monkeypatch.setattr(green, "_diag_sample", sample)
    monkeypatch.setattr(green, "green_matrix", no_green_matrix)
    assert green.ca_via_fit(lap) == closedform.ca_closed_form()
    assert sizes == [(60, 1)] * green.CA_SAMPLE_COUNT + [(30, 1)]
    assert vertices == list(range(green.CA_SAMPLE_COUNT))


@pytest.mark.parametrize("vertex", [0, 31], ids=["fitted", "held_out"])
def test_ca_fit_rejects_one_shifted_diagonal_entry(lap, p_char, monkeypatch, vertex):
    diag_sample = green._diag_sample

    def shifted(args):
        a, value = diag_sample(args)
        return a, value + Fraction(1, 10 ** 6) * (args[3] == vertex)

    monkeypatch.setattr(green, "_diag_sample", shifted)
    with pytest.raises(VerificationFailed):
        green.c_of_a(lap, p_char)


def test_ca_fit_single_worker_runs_in_process(lap, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one worker")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(green, "ProcessPoolExecutor", no_pool)
    assert green.ca_via_fit(lap, parallel=2) == closedform.ca_closed_form()


def test_ca_three_routes(lap, p_char):
    assert green.c_of_a(lap, p_char) == closedform.ca_closed_form()


def test_ca_diag_matches_spectral_sum(ca, p_char):
    # 1/60 sum over table of multiplicity/(root + 1) at a = 1, numerically
    from buckysob import spectral
    table = spectral.build_spectral_table(p_char)
    approx = sum(e.multiplicity / (e.numeric + 1.0) for e in table.entries) / 60
    assert abs(approx - float(ca(Fraction(1)))) <= 1e-9


def test_trace_of_green_is_60_ca(lap, ca, g_one):
    assert g_one.trace() == 60 * ca(Fraction(1))


def test_limit_identity(ca):
    assert green.limit_identity_check(ca, closedform.C0)


def test_limit_identity_wrong_residue(ca):
    wrong = ca - green.singular_part(59)
    assert wrong.has_pole_at(0)
    bad = RationalFunction(IntPolynomial([1]), IntPolynomial([0, 59]))
    with pytest.raises(green.PoleRemains):
        green.limit_identity_check(bad, closedform.C0)


def test_limit_identity_pointwise(ca):
    regular = ca - green.singular_part(60)
    assert regular(Fraction(1)) == ca(Fraction(1)) - Fraction(1, 60)


def test_entrywise_singular_part_removal(lap, g_star):
    # Entrywise, G(a) - E0/a must be regular at 0 with value G*. Write
    # H(a) = G(a)(I - E0); then G(a) = E0/a + H(a), and the exact identity
    # (I + a G*) H(a) = G* pins H as a rational matrix function that is
    # regular at 0 with H(0) = G*. Verify both at several sample points.
    ident = RationalMatrix.identity(60)
    e0 = green.projection_e0(60)
    for a in (Fraction(1), Fraction(1, 7), Fraction(3)):
        g = green.green_matrix(lap, a)
        h = g * (ident - e0)
        assert g == (1 / a) * e0 + h
        assert (ident + a * g_star) * h == g_star


def test_monotonicity(ca):
    pts = [Fraction(1, 10), Fraction(1, 2), 1, 2, 5, 10]
    assert green.monotonicity_scan(ca, pts)
    assert green.monotonicity_scan(ca, [Fraction(3)])
    assert ca(Fraction(1)) > ca(Fraction(2))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(1, 2 ** 12), st.integers(1, 2 ** 12)),
                min_size=1, max_size=8, unique=True))
def test_monotonicity_on_random_points(points):
    assert green.monotonicity_scan(closedform.ca_closed_form(), sorted(points))


def test_monotonicity_rejects_bad_points(ca):
    with pytest.raises(ValueError):
        green.monotonicity_scan(ca, [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError):
        green.monotonicity_scan(ca, [Fraction(-1), Fraction(1)])


def test_bundle_and_report(lap, p_char):
    bundle = green.build_green_bundle(lap, p_char)
    assert bundle.c0 == closedform.C0
    report = green.constants_report(bundle, {"demo": True})
    assert report["c0"] == "239741/376200"
    assert report["N"][0] == "3344"
    assert report["schema_version"] == 1
    assert report["checks"] == {"demo": True}


def test_sample_ca_csv(ca):
    text = green.sample_ca_csv(ca, [Fraction(1, 10), 1, 10])
    lines = text.strip().splitlines()
    assert len(lines) == 4
    values = [Fraction(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]
