"""Green / pseudo-Green matrices and the sharp constants."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckysob import _modular, closedform, graph, green, ratmat
from buckysob.polynomials import (DegreeInsufficient, IntPolynomial, RationalFunction,
                                  fit_rational_function)
from buckysob.ratmat import RationalMatrix, charpoly, inverse
from oracles import monotonicity_scan

SRC = Path(__file__).resolve().parents[1] / "src"


def test_projection_entries():
    e0 = green.projection_e0(60)
    assert all(e0[i, j] == Fraction(1, 60) for i in range(60) for j in range(60))
    ones = RationalMatrix.constant(60, 1, 1)
    assert e0 * ones == ones


def test_projection_kills_mean_zero(lap):
    e0 = green.projection_e0(60)
    u = RationalMatrix([[1], [-1]] + [[0]] * 58)
    assert e0 * u == RationalMatrix.zeros(60, 1)
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


@pytest.mark.parametrize("bits", [1, 8, 48, 70])
def test_green_matrix_matches_elimination(lap, bits):
    """The polynomial route against the direct multimodular solve, at a
    = p/q with p and q of the given bit width."""
    rng = random.Random(bits)
    a = Fraction(rng.getrandbits(bits) | 1 << (bits - 1),
                 rng.getrandbits(bits) | 1 << (bits - 1))
    assert green.green_matrix(lap, a) == inverse(lap.scaled_add(a))


def test_green_matrix_makes_no_elimination(lap, monkeypatch):
    """The route shares no code with the solve that checks it: it runs with
    the elimination kernels replaced by a failure."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("elimination kernel called")

    expected = inverse(lap.scaled_add(Fraction(2, 3)))
    for name in ("det_int", "jordan_int"):
        monkeypatch.setattr(ratmat, name, no_kernel)
        monkeypatch.setattr(_modular, name, no_kernel)
    assert green.green_matrix(lap, Fraction(2, 3)) == expected


def test_green_matrix_defective_non_symmetric():
    # [[1, 1], [0, 1]] is a Jordan block: its squarefree part x - 1 does not
    # annihilate it, so the route takes the charpoly (x - 1)^2.
    A = RationalMatrix([[1, 1], [0, 1]])
    rows = tuple(map(tuple, A.num))
    assert green._annihilator(rows) == IntPolynomial([1, -2, 1])
    for a in (Fraction(1, 3), 1, 5):
        assert green.green_matrix(A, a) == inverse(A.scaled_add(a))


def test_green_matrix_over_a_denominator(lap):
    # A/2 has the integer rows of A over den = 2, so b = a den = 2a.
    half = Fraction(1, 2) * lap
    a = Fraction(5, 3)
    assert green.green_matrix(half, a) == inverse(half.scaled_add(a))
    assert green.green_matrix(half, a) == 2 * green.green_matrix(lap, 2 * a)


def test_green_matrix_singular():
    with pytest.raises(ratmat.SingularMatrixError, match="-2 is an eigenvalue"):
        green.green_matrix(RationalMatrix([[-2, 0], [0, 1]]), 2)


@pytest.mark.parametrize("case", ["bucky_plus_one", "jordan_block_squarefree"])
def test_green_matrix_rejects_wrong_annihilator(lap, monkeypatch, case):
    """With m(A) != 0 the residual fails and no matrix is returned."""
    if case == "bucky_plus_one":
        A = lap
        m = green._annihilator(tuple(map(tuple, A.num))) + IntPolynomial([1])
    else:
        A = RationalMatrix([[1, 1], [0, 1]])
        m = IntPolynomial([-1, 1])
    monkeypatch.setattr(green, "_annihilator", lambda rows: m)
    with pytest.raises(green.RouteMismatch, match="annihilator does not vanish"):
        green.green_matrix(A, Fraction(1, 3))


def test_green_matrix_residual_under_optimize():
    """The residual raises explicitly, so a wrong annihilator is caught with
    asserts stripped by ``python -O``."""
    script = """
import sys
from buckysob import green
from buckysob.polynomials import IntPolynomial
from buckysob.ratmat import RationalMatrix
green._annihilator = lambda rows: IntPolynomial([-1, 1])
try:
    green.green_matrix(RationalMatrix([[1, 1], [0, 1]]), 1)
except green.RouteMismatch:
    sys.exit(3)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stdout + proc.stderr


def test_annihilator_cached_by_value(monkeypatch):
    """Equal matrices built separately compute m once; another matrix of the
    same size gets its own m."""
    calls = []

    def counted(m, *args, _charpoly=green.charpoly):
        calls.append(m)
        return _charpoly(m, *args)

    monkeypatch.setattr(green, "charpoly", counted)
    green._annihilator.cache_clear()
    green.charpoly_by_value.cache_clear()
    first, second = _cycle(7), _cycle(7)
    assert first is not second
    for A in (first, second):
        assert green.green_matrix(A, 1) == inverse(A.scaled_add(1))
    assert len(calls) == 1
    # K7: eigenvalues 0 and 7 only, so m = x (x - 7), unlike C7's degree 4.
    k7 = _laplacian_of(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    assert green.green_matrix(k7, 1) == inverse(k7.scaled_add(1))
    assert len(calls) == 2
    assert green._annihilator(tuple(map(tuple, k7.num))) == IntPolynomial([0, -7, 1])
    assert green._annihilator(tuple(map(tuple, first.num))).degree == 4


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
    green.verify_pseudo_green(lap, g_star)


def _assert_shift_by_j_rejected(lap, g_star, c):
    # A J = J A = 0, so G* + c J passes A G = G A = I - E0; its rows no
    # longer sum to 0, and G A G = G* != G.
    shifted = g_star + RationalMatrix.constant(60, 60, c)
    ident_minus_e0 = RationalMatrix.identity(60) - green.projection_e0(60)
    assert lap * shifted == shifted * lap == ident_minus_e0
    with pytest.raises(green.RouteMismatch, match=r"^G\* 1 != 0"):
        green.verify_pseudo_green(lap, shifted)


def test_verify_pseudo_green_rejects_shift_by_j(lap, g_star):
    _assert_shift_by_j_rejected(lap, g_star, Fraction(1, 10 ** 6))


def test_verify_pseudo_green_rejects_shift_by_e0(lap, g_star):
    # G* + J/60 = G* + E0: the pseudo-inverse plus the projection it omits.
    _assert_shift_by_j_rejected(lap, g_star, Fraction(1, 60))


def test_verify_pseudo_green_rejects_non_symmetric(lap, g_star):
    # G* + 1 v^T with v orthogonal to 1 keeps A G = I - E0 (A 1 = 0) and
    # zero row sums (v^T 1 = 0), but is not symmetric: G A = I - E0 + 1 v^T A
    # is what fails.
    v = [1, -1] + [0] * 58
    skewed = g_star + RationalMatrix([v] * 60)
    assert not skewed.is_symmetric()
    assert lap * skewed == RationalMatrix.identity(60) - green.projection_e0(60)
    assert not any(map(sum, skewed.num))
    with pytest.raises(green.RouteMismatch, match=r"^G\* A != I - E0"):
        green.verify_pseudo_green(lap, skewed)
    # Its transpose fails the other product.
    with pytest.raises(green.RouteMismatch, match=r"^A G\* != I - E0"):
        green.verify_pseudo_green(lap, skewed.transpose())


@pytest.mark.parametrize("bad", ["asymmetric", "row_sum"])
def test_verify_pseudo_green_checks_the_laplacian(lap, g_star, bad):
    # The axioms are derived from A = A^T and A 1 = 0, so both are checked.
    num = [row[:] for row in lap.num]
    if bad == "asymmetric":
        num[0][1] -= 1
        num[0][2] += 1
    else:
        num[0][0] += 1
    with pytest.raises(green.RouteMismatch, match="^A is not symmetric"):
        green.verify_pseudo_green(RationalMatrix.from_ints(num), g_star)


@pytest.mark.parametrize("seed", [None, 7])
def test_pseudo_green_matches_projection_formula(bucky, seed):
    # P (A + e_0 e_0^T)^-1 P against the formula (A + E0)^-1 - E0,
    # entrywise. The grounded 60 x 60 solve runs 4 primes, n^3 updates each.
    if seed is not None:
        perm = list(range(60))
        random.Random(seed).shuffle(perm)
        bucky = graph.relabel(bucky, perm)
    A = graph.laplacian(bucky)
    e0 = green.projection_e0(60)
    old = inverse(A + e0) - e0
    counter = ratmat.PivotCounter()
    new = green.pseudo_green(A, counter)
    assert counter.ops == 4 * 60 ** 3
    assert all(new[i, j] == old[i, j] for i in range(60) for j in range(60))
    assert new == old


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(60)))
def test_relabeling_keeps_charpoly_and_c0(bucky, perm):
    A = graph.laplacian(graph.relabel(bucky, perm))
    assert charpoly(A) == closedform.charpoly_product()
    assert green.pseudo_green(A).diagonal() == [closedform.C0] * 60


def test_pseudo_green_kills_constants(g_star):
    ones = RationalMatrix.constant(60, 1, 1)
    assert g_star * ones == RationalMatrix.zeros(60, 1)


def test_pseudo_green_rejects_wrong_kernel():
    m = RationalMatrix.identity(4)
    with pytest.raises(green.KernelMismatch):
        green.pseudo_green(m)


def test_pseudo_green_rejects_non_symmetric():
    """Zero row sums but A^T != A. A projected inverse is then not A+: the
    formula (A + J)^-1 - E0/n gives (1/18)[[10, -2, -8], [-8, 7, 1],
    [-8, -2, 10]], for which A G is not symmetric, while A+ is
    [[2/3, 1/6, -1/6], [-1/3, 1/6, -1/6], [-1/3, -1/3, 1/3]]."""
    A = RationalMatrix([[1, -1, 0], [0, 1, -1], [0, -1, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        green.pseudo_green(A)


def test_pseudo_green_disconnected_is_singular():
    """Two disjoint K2s: the grounded system keeps a second kernel vector."""
    with pytest.raises(ratmat.SingularMatrixError):
        green.pseudo_green(_laplacian_of(4, [(0, 1), (2, 3)]))


def test_c0_routes_agree(g_star, p_char):
    c_diag = green.c0_via_diagonal(g_star)
    c_trace = green.c0_via_trace(p_char)
    assert c_diag == closedform.C0
    assert c_trace == closedform.C0
    assert abs(float(closedform.C0) - 0.63727) < 5e-6


def test_c0_trace_requires_zero_root():
    with pytest.raises(green.KernelMismatch):
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


def _laplacian_of(n, edges):
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = -1
    for i, row in enumerate(rows):
        row[i] = -sum(row)
    return RationalMatrix(rows)


def _minimal_polynomial(A):
    # Vertex 0's minimal polynomial, the one that ca_via_fit certifies.
    moments = green.closed_walk_moments(A, 0, 2 * A.rows)
    series = [(-1) ** k * m for k, m in enumerate(moments)]
    return fit_rational_function(series).den.compose_neg()


def test_walk_regular_vertex_transitive(lap, ca):
    green.walk_regular(lap, ca.den.compose_neg())
    tt = graph.laplacian(graph.truncate(graph.canonical_tetrahedron()))
    green.walk_regular(tt, _minimal_polynomial(tt))


def test_walk_regular_rational_matrix(lap, ca):
    # A/2 has powers over 2^k, so m(A/2) is summed over their lcm: m(2x)
    # vanishes at A/2, and m itself, whose constant term is 0, does not.
    half = lap * Fraction(1, 2)
    m = ca.den.compose_neg()
    green.walk_regular(half, IntPolynomial([c * 2 ** k for k, c in enumerate(m.coeffs)]))
    with pytest.raises(green.DiagonalMismatch, match=r"^m\(A\) != 0"):
        green.walk_regular(half, m)


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(60)))
def test_walk_regular_relabeled(bucky, ca, perm):
    green.walk_regular(graph.laplacian(graph.relabel(bucky, perm)),
                       ca.den.compose_neg())


def _k4_plus_q3():
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    q3 = [(4 + b, 4 + (b ^ (1 << t))) for b in range(8) for t in range(3)
          if b < b ^ (1 << t)]
    return _laplacian_of(12, k4 + q3)


def test_walk_regular_rejects_k4_plus_q3():
    # Vertex 0 lies in K4 and sees only the eigenvalues 0 and 4, so
    # m = x(x - 4) has degree 2. The diagonals of I and A (all 3) agree;
    # A^2 - 4A is 0 on K4 but not on Q3 (eigenvalues 0, 2, 4, 6).
    A = _k4_plus_q3()
    assert _minimal_polynomial(A) == IntPolynomial([0, -4, 1])
    with pytest.raises(green.DiagonalMismatch, match=r"^m\(A\) != 0"):
        green.walk_regular(A, _minimal_polynomial(A))


def test_walk_regular_checks_up_to_n_minus_1():
    # On the path 0-1-2 vertex 0 sees all three eigenvalues 0, +-sqrt(2),
    # so deg m = n = 3; the moments agree up to k = 1 and first differ at
    # the last one compared, k = n - 1 = 2 (1 at the ends, 2 in the middle).
    path = RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert _minimal_polynomial(path).degree == 3
    with pytest.raises(green.DiagonalMismatch, match="m_2 "):
        green.walk_regular(path, _minimal_polynomial(path))


def test_walk_regular_requires_symmetry():
    # m = x is vertex 0's minimal polynomial and every diagonal is
    # constant, yet m(A) != 0: the certificate's argument needs symmetry.
    with pytest.raises(ValueError):
        green.walk_regular(RationalMatrix([[0, 1], [0, 0]]), IntPolynomial([0, 1]))


@pytest.mark.parametrize("m", [IntPolynomial([0, 1]), IntPolynomial([1]),
                               IntPolynomial([0, -4, 1])],
                         ids=["x", "one", "x(x-4)"])
def test_walk_regular_rejects_wrong_polynomial(lap, m):
    with pytest.raises(green.DiagonalMismatch, match=r"^m\(A\) != 0"):
        green.walk_regular(lap, m)


def test_walk_regular_rejects_zero_polynomial(lap):
    with pytest.raises(ValueError):
        green.walk_regular(lap, IntPolynomial([]))


def test_ca_fit_makes_no_kernel_call(lap, monkeypatch):
    """The moment route eliminates nothing: it runs with every multimodular
    kernel and the G(a) solve replaced by a failure."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel called")

    for name in ("charpoly_int", "det_int", "jordan_int"):
        monkeypatch.setattr(ratmat, name, no_kernel)
        monkeypatch.setattr(_modular, name, no_kernel)
    monkeypatch.setattr(green, "green_matrix", no_kernel)
    assert green.ca_via_fit(lap) == closedform.ca_closed_form()


def _cycle(n):
    return _laplacian_of(n, [(i, (i + 1) % n) for i in range(n)])


SMALL_LAPLACIANS = [
    _laplacian_of(2, [(0, 1)]),
    *(_cycle(n) for n in range(3, 13)),
    graph.laplacian(graph.truncate(graph.canonical_tetrahedron())),
]
SMALL_IDS = ["K2", *(f"C{n}" for n in range(3, 13)), "truncated_tetrahedron"]
BUCKY_HALF = Fraction(1, 2) * graph.laplacian(graph.buckyball())
small_laplacians = pytest.mark.parametrize("lap_small", SMALL_LAPLACIANS, ids=SMALL_IDS)


@pytest.mark.parametrize("A", [*SMALL_LAPLACIANS, BUCKY_HALF, RationalMatrix([[0]])],
                         ids=[*SMALL_IDS, "bucky_half", "K1"])
def test_pseudo_green_matches_dense_oracle(A):
    """The projected grounded solve against (A + E0)^-1 - E0, a dense
    system. The buckyball over 2 has den 2, so a grounded system built
    on A.num over 1 would give 2 A+ there."""
    e0 = green.projection_e0(A.rows)
    assert green.pseudo_green(A) == inverse(A + e0) - e0


# K2 has two simple eigenvalues, so its series needs all 2n = 4 terms.
@small_laplacians
def test_ca_fit_matches_charpoly_route(lap_small):
    assert green.ca_via_fit(lap_small) == green.ca_via_charpoly(charpoly(lap_small))


@small_laplacians
@pytest.mark.parametrize("a", [Fraction(1, 3), 1, Fraction(7, 2)], ids=["1/3", "1", "7/2"])
def test_green_matrix_matches_elimination_small(lap_small, a):
    assert green.green_matrix(lap_small, a) == inverse(lap_small.scaled_add(a))


def _rows(A):
    return tuple(map(tuple, A.num))


@pytest.mark.parametrize("count", [15, 16])
def test_walk_classes_buckyball(lap, count):
    """24 classes through N^14 and through N^15, with every diagonal entry
    in one class; a seeded relabeling has 24 as well."""
    index, profiles = green._walk_classes(_rows(lap), count)
    assert len(profiles) == 24
    assert len({index[i][i] for i in range(60)}) == 1
    assert all(len(profile) == count for profile in profiles)
    perm = list(range(60))
    random.Random(count).shuffle(perm)
    relabeled = graph.laplacian(graph.relabel(graph.buckyball(), perm))
    assert len(green._walk_classes(_rows(relabeled), count)[1]) == 24


@pytest.mark.parametrize("A", [*SMALL_LAPLACIANS, BUCKY_HALF, RationalMatrix([[1, 1], [0, 1]])],
                         ids=[*SMALL_IDS, "bucky_half", "jordan_block"])
def test_class_evaluation_matches_dense_powers(A):
    """sum_k w_k N^k by one dot product per walk class equals the dense sum
    of N's powers, for seeded random integer weights."""
    rows = _rows(A)
    N = RationalMatrix.from_ints(rows)
    rng = random.Random(len(rows))
    degree = green._annihilator(rows).degree
    for count in (degree, degree + 1):
        weights = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(count)]
        power, dense = RationalMatrix.identity(N.rows), RationalMatrix.zeros(N.rows, N.rows)
        for w in weights:
            dense, power = dense + w * power, N * power
        index, values = green._polynomial_classes(rows, weights)
        filled = [[values[c] for c in row] for row in index]
        assert RationalMatrix.from_ints(filled) == dense


def test_green_matrix_rejects_wrong_class_table(lap, monkeypatch):
    """A table with two classes' profiles swapped fails the residual, and
    no matrix is returned."""
    def swapped(rows, count, _walk_classes=green._walk_classes):
        index, profiles = _walk_classes(rows, count)
        return index, (profiles[1], profiles[0]) + profiles[2:]

    monkeypatch.setattr(green, "_walk_classes", swapped)
    with pytest.raises(green.RouteMismatch, match="walk classes are wrong"):
        green.green_matrix(lap, Fraction(1, 3))


def test_green_matrix_residual_checks_off_diagonal(lap, monkeypatch):
    """Two classes of vertices at distance at least 2 swapped: the residual
    (QN + PI) X reads X only at distance 0 and 1 on its diagonal, so the
    diagonal still reads -r and only the off-diagonal entries fail."""
    index, profiles = green._walk_classes(_rows(lap), 15)
    far = [c for c, profile in enumerate(profiles) if profile[:2] == (0, 0)]
    c1, c2 = far[-2:]

    def swapped(rows, count, _walk_classes=green._walk_classes):
        index, profiles = _walk_classes(rows, count)
        profiles = list(profiles)
        profiles[c1], profiles[c2] = profiles[c2], profiles[c1]
        return index, tuple(profiles)

    monkeypatch.setattr(green, "_walk_classes", swapped)
    with pytest.raises(green.RouteMismatch, match="walk classes are wrong"):
        green.green_matrix(lap, Fraction(1, 3))


def test_wrong_class_table_under_optimize():
    """The residual raises explicitly, so a wrong class table is caught with
    asserts stripped by ``python -O``."""
    script = """
import sys
from buckysob import graph, green
real = green._walk_classes
def swapped(rows, count):
    index, profiles = real(rows, count)
    return index, (profiles[1], profiles[0]) + profiles[2:]
green._walk_classes = swapped
try:
    green.green_matrix(graph.laplacian(graph.buckyball()), 1)
except green.RouteMismatch:
    sys.exit(3)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stdout + proc.stderr


@settings(max_examples=3, deadline=None)
@given(st.permutations(range(60)))
def test_ca_fit_relabeled(bucky, perm):
    A = graph.laplacian(graph.relabel(bucky, perm))
    assert green.ca_via_fit(A) == green.ca_via_charpoly(charpoly(A))


def test_ca_fit_requires_walk_regularity():
    with pytest.raises(green.DiagonalMismatch):
        green.ca_via_fit(_k4_plus_q3())


@pytest.mark.parametrize("a", [Fraction(1, 3), 1, Fraction(5, 2)],
                         ids=["1/3", "1", "5/2"])
def test_ca_fit_with_denominator(a):
    # (A/2 + aI)^-1 = 2 (A + 2aI)^-1: the moments of A/2 carry den = 2.
    A = _cycle(6)
    assert green.ca_via_fit(Fraction(1, 2) * A)(a) == 2 * green.ca_via_fit(A)(2 * a)


def test_closed_walk_moments_scale_by_denominator():
    # A = M/2 for the path 0-1-2: (A^k)_00 = (M^k)_00 / 2^k.
    path = RationalMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert green.closed_walk_moments(Fraction(1, 2) * path, 0, 5) == [
        1, 0, Fraction(1, 4), 0, Fraction(2, 16)]


@pytest.mark.parametrize("j", [-1, 60])
def test_closed_walk_moments_reject_a_missing_vertex(lap, j):
    with pytest.raises(ValueError, match="not in 0..59"):
        green.closed_walk_moments(lap, j, 4)


def test_ca_fit_solves_one_column_per_sample(lap, monkeypatch):
    """Sample k of the fit is (A^k e_0)_0: the route reads one column of
    moments, vertex 0's 2n = 120; walk_regular reads none."""
    calls = []
    moments = green.closed_walk_moments

    def counted(A, j, count):
        calls.append((j, count))
        return moments(A, j, count)

    monkeypatch.setattr(green, "closed_walk_moments", counted)
    assert green.ca_via_fit(lap) == closedform.ca_closed_form()
    assert calls == [(0, 120)]


# C(a) has L = 15, so m_0..m_29 fix its recurrence and m_30..m_119 must obey it.
@pytest.mark.parametrize("k, error, match", [
    (5, green.RouteMismatch, "^charpoly vs fit; closed_form vs fit$"),
    (100, DegreeInsufficient, "^120 terms cannot fix a recurrence of order 86$"),
], ids=["fitted", "held_out"])
def test_ca_fit_rejects_one_shifted_diagonal_entry(lap, p_char, monkeypatch,
                                                   k, error, match):
    """A moment m_k(0) shifted by 10^-6 in the route's series: among the
    fitted terms it gives another rational function, which the charpoly and
    closed-form routes reject; past them it breaks the recurrence."""
    moments = green.closed_walk_moments

    def shifted(A, j, count):
        out = moments(A, j, count)
        if count == 2 * A.rows:
            out[k] += Fraction(1, 10 ** 6)
        return out

    monkeypatch.setattr(green, "closed_walk_moments", shifted)
    with pytest.raises(error, match=match):
        green.c_of_a(lap, p_char)


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
    assert green.limit_identity_check(ca, closedform.C0, 60)


def test_limit_identity_wrong_residue(ca):
    wrong = ca - green.singular_part(59)
    assert wrong.has_pole_at(0)
    bad = RationalFunction(IntPolynomial([1]), IntPolynomial([0, 59]))
    with pytest.raises(green.PoleRemains):
        green.limit_identity_check(bad, closedform.C0, 60)


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
    assert monotonicity_scan(ca, pts)
    assert monotonicity_scan(ca, [Fraction(3)])
    assert ca(Fraction(1)) > ca(Fraction(2))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(1, 2 ** 12), st.integers(1, 2 ** 12)),
                min_size=1, max_size=8, unique=True))
def test_monotonicity_on_random_points(points):
    assert monotonicity_scan(closedform.ca_closed_form(), sorted(points))


def test_monotonicity_rejects_bad_points(ca):
    with pytest.raises(ValueError):
        monotonicity_scan(ca, [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError):
        monotonicity_scan(ca, [Fraction(-1), Fraction(1)])


def test_bundle_and_report(lap, p_char):
    report = green.constants_report(lap, p_char)
    assert Fraction(report["c0"]) == closedform.C0
    assert report["c0"] == "239741/376200"
    assert report["N"][0] == "3344"
    assert report["schema_version"] == 1
    assert report["checks"] == {}


def test_sample_ca_csv(ca):
    text = green.sample_ca_csv(ca, [Fraction(1, 10), 1, 10], 60)
    lines = text.strip().splitlines()
    assert len(lines) == 4
    values = [Fraction(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > values[1] > values[2]
