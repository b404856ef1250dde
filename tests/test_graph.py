"""Graph construction: icosahedron seed, truncation, faces, involution."""

import itertools
import random

import pytest

from buckysob import closedform
from buckysob.graph import (InvolutionNotFound, PolyhedralGraph,
                            RotationSystemError, buckyball,
                            canonical_icosahedron, face_census,
                            find_antipodal_involution, girth,
                            laplacian, relabel, to_dot, to_json_dict,
                            truncate)
from buckysob.ratmat import charpoly


def test_icosahedron_regularity():
    seed = canonical_icosahedron()
    assert seed.n == 12
    assert seed.degrees() == [5] * 12
    assert len(seed.edges) == 30


def test_icosahedron_girth_is_three():
    assert girth(canonical_icosahedron()) == 3


@pytest.mark.parametrize("rotation", [
    {0: (1,), 1: (0,)},
    {0: (1,), 1: (0, 2), 2: (1,)},
    {0: ()},
])
def test_girth_of_acyclic_graph_raises(rotation):
    with pytest.raises(ValueError, match="graph has no cycle"):
        girth(PolyhedralGraph(rotation))


def test_icosahedron_faces_are_triangles():
    c = face_census(canonical_icosahedron())
    assert len(c.faces) == 20
    assert all(len(f) == 3 for f in c.faces)


@pytest.mark.parametrize("rotation, message", [
    ({0: (1, 1), 1: (0,)}, "repeated neighbor at vertex 0"),
    ({0: (1, 2), 1: (0, 2), 2: (1,)}, r"asymmetric edge \(0,2\)"),
    ({1: (2,), 2: (1,)}, r"vertices are not 0\.\.n-1"),
    ({0: (0, 1), 1: (0,)}, r"self-loop at vertex 0"),
], ids=["repeated_neighbor", "asymmetric_edge", "vertices_not_0_to_n", "self_loop"])
def test_rotation_system_rejected(rotation, message):
    with pytest.raises(RotationSystemError, match=message):
        PolyhedralGraph(rotation)


def test_buckyball_counts(bucky):
    assert bucky.n == 60
    assert len(bucky.edges) == 90
    assert bucky.degrees() == [3] * 60
    assert bucky.is_connected()
    assert girth(bucky) == 5


def test_truncated_tetrahedron():
    g = truncate(TETRAHEDRON)
    assert g.n == 12
    assert len(g.edges) == 18
    c = face_census(g)
    assert sorted(len(f) for f in c.faces) == [3, 3, 3, 3, 6, 6, 6, 6]


def test_face_census(bucky, census):
    assert census.face_count == 32
    assert census.pentagon_count == 12
    assert census.hexagon_count == 20
    assert bucky.n - len(bucky.edges) + census.face_count == 2


def test_pentagon_provenance(bucky, census):
    # every pentagon is the cut corner of a single seed vertex; truncate
    # numbers the cuts of the 5-regular icosahedron's vertex v as 5 v + i
    for face in census.faces:
        if len(face) != 5:
            continue
        seeds = {v // 5 for v in face}
        assert len(seeds) == 1


def test_hexagon_provenance(bucky, census):
    # hexagons alternate between cuts of exactly three seed vertices,
    # joined by bond edges of three seed edges
    for face in census.faces:
        if len(face) != 6:
            continue
        seeds = [v // 5 for v in face]
        assert len(set(seeds)) == 3


def test_involution_properties(bucky, sigma):
    perm = sigma
    assert sorted(perm) == list(range(60))
    assert all(perm[perm[i]] == i for i in range(60))
    assert all(perm[i] != i for i in range(60))
    edges = set(bucky.edges)
    assert all(tuple(sorted((perm[u], perm[w]))) in edges for u, w in edges)


# Frozen output of the search; the tie-break (lexicographically smallest
# permutation) makes this a stable golden value for the canonical
# construction.
GOLDEN_INVOLUTION = (
    5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 29, 25, 26, 27, 28, 54, 50, 51, 52, 53,
    30, 31, 32, 33, 34, 11, 12, 13, 14, 10, 20, 21, 22, 23, 24, 49, 45, 46,
    47, 48, 56, 57, 58, 59, 55, 36, 37, 38, 39, 35, 16, 17, 18, 19, 15, 44,
    40, 41, 42, 43,
)


def test_involution_is_deterministic(sigma):
    assert sigma == GOLDEN_INVOLUTION


def test_involution_not_found_on_odd_graph():
    tri = PolyhedralGraph({0: (1, 2), 1: (0, 2), 2: (0, 1)})
    with pytest.raises(InvolutionNotFound):
        find_antipodal_involution(tri)


def brute_force_involution(g):
    """Lexicographically smallest fixed-point-free involution of 0..n-1
    that preserves the edge set, over all n! permutations; None if none."""
    for perm in itertools.permutations(range(g.n)):
        if (all(p != i and perm[p] == i for i, p in enumerate(perm))
                and {tuple(sorted((perm[u], perm[w]))) for u, w in g.edges}
                == g.edges):
            return perm
    return None


def cycle(n):
    return PolyhedralGraph({i: ((i + 1) % n, (i - 1) % n) for i in range(n)})


TETRAHEDRON = PolyhedralGraph({0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3),
                               3: (0, 2, 1)})
CUBE = PolyhedralGraph({0: (1, 3, 4), 1: (0, 5, 2), 2: (1, 6, 3),
                        3: (2, 7, 0), 4: (0, 7, 5), 5: (1, 4, 6),
                        6: (2, 5, 7), 7: (3, 6, 4)})
TRIANGULAR_PRISM = PolyhedralGraph({0: (1, 2, 3), 1: (0, 4, 2),
                                    2: (0, 1, 5), 3: (0, 5, 4),
                                    4: (1, 3, 5), 5: (2, 4, 3)})
PENTAGONAL_PYRAMID = PolyhedralGraph({0: (1, 2, 3, 4, 5), 1: (0, 5, 2),
                                      2: (0, 1, 3), 3: (0, 2, 4),
                                      4: (0, 3, 5), 5: (0, 4, 1)})


@pytest.mark.parametrize("g", [
    TETRAHEDRON, CUBE, TRIANGULAR_PRISM, cycle(4), cycle(6),
    cycle(8),
], ids=["tetrahedron", "cube", "triangular_prism", "C4", "C6", "C8"])
def test_involution_matches_brute_force(g):
    assert g.n - len(g.edges) + face_census(g).face_count == 2  # a sphere
    expected = brute_force_involution(g)
    assert expected is not None
    assert find_antipodal_involution(g) == expected


def test_involution_not_found_on_even_graph():
    # the apex is the only degree-5 vertex, so every automorphism fixes it
    assert brute_force_involution(PENTAGONAL_PYRAMID) is None
    with pytest.raises(InvolutionNotFound):
        find_antipodal_involution(PENTAGONAL_PYRAMID)


def test_involution_not_found_on_disconnected_graph():
    # two disjoint edges have the involution (1, 0, 3, 2), but they are not
    # a polyhedron: no dart's image reaches both components
    g = PolyhedralGraph({0: (1,), 1: (0,), 2: (3,), 3: (2,)})
    assert brute_force_involution(g) == (1, 0, 3, 2)
    with pytest.raises(InvolutionNotFound):
        find_antipodal_involution(g)


def test_relabel_identity(bucky):
    assert relabel(bucky, range(60)).edges == bucky.edges


def test_relabel_preserves_degrees_and_charpoly(bucky, p_char):
    rng = random.Random(123)
    perm = list(range(60))
    rng.shuffle(perm)
    g2 = relabel(bucky, perm)
    assert sorted(g2.degrees()) == sorted(bucky.degrees())
    assert charpoly(laplacian(g2)) == p_char


def test_relabel_rejects_malformed(bucky):
    with pytest.raises(ValueError):
        relabel(bucky, [0] * 60)


def test_charpoly_matches_known_factorization(p_char):
    assert p_char == closedform.charpoly_product()


def test_dot_export(bucky):
    dot = to_dot(bucky)
    assert dot.startswith("graph")
    assert dot.count("--") == 90


def test_json_export(bucky):
    d = to_json_dict(bucky)
    assert d["n"] == 60
    assert len(d["edges"]) == 90
    assert d["edges"] == sorted(d["edges"])
    assert all(i < j for i, j in d["edges"])
    assert len(d["faces"]) == 32


TORUS_K4 = PolyhedralGraph({0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3),
                            3: (0, 1, 2)})


@pytest.mark.parametrize("g", [
    TETRAHEDRON, CUBE, TRIANGULAR_PRISM, PENTAGONAL_PYRAMID,
    cycle(4), cycle(5), cycle(6), cycle(7), cycle(8), buckyball(), TORUS_K4,
], ids=["tetrahedron", "cube", "triangular_prism", "pentagonal_pyramid",
        "C4", "C5", "C6", "C7", "C8", "buckyball", "torus_K4"])
def test_faces_partition_the_darts(g):
    faces = face_census(g).faces
    darts = [(f[i], f[(i + 1) % len(f)]) for f in faces for i in range(len(f))]
    assert sorted(darts) == sorted((v, w) for v in g.rotation
                                   for w in g.rotation[v])
    assert sum(map(len, faces)) == 2 * len(g.edges)


def test_toroidal_rotation_faces():
    faces = face_census(TORUS_K4).faces
    assert sorted(map(len, faces)) == [4, 8]
    assert TORUS_K4.n - len(TORUS_K4.edges) + len(faces) == 0
