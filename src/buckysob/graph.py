"""Buckyball construction by truncating the icosahedron.

Everything is combinatorial. A polyhedron has one type, ``PolyhedralGraph``,
which stores only its rotation system: the counterclockwise cyclic neighbor
order at every vertex, seen from outside. The rotation system alone
determines the embedded graph, so the vertex count and the edge set are
derived from it. Faces are traced by the next-edge-in-rotation walk. An
automorphism of a connected rotation system is fixed by the image of one
dart (a directed edge), so the fixed-point-free involutive automorphism for
the block split is read off the images of a few darts. All objects are
immutable after construction and all functions are pure.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from buckysob.ratmat import RationalMatrix


class RotationSystemError(ValueError):
    """The rotation system is not a consistent surface embedding."""


class InvolutionNotFound(ValueError):
    """No fixed-point-free involutive automorphism exists."""


@dataclass(frozen=True)
class PolyhedralGraph:
    """A polyhedron as its rotation system: vertex v's neighbors in
    counterclockwise order, for the vertices 0..n-1."""

    rotation: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if sorted(self.rotation) != list(range(len(self.rotation))):
            raise RotationSystemError("vertices are not 0..n-1")
        for v, nbrs in self.rotation.items():
            if len(set(nbrs)) != len(nbrs):
                raise RotationSystemError(f"repeated neighbor at vertex {v}")
            if v in nbrs:
                raise RotationSystemError(f"self-loop at vertex {v}")
            for w in nbrs:
                if v not in self.rotation.get(w, ()):
                    raise RotationSystemError(f"asymmetric edge ({v},{w})")

    @property
    def n(self):
        return len(self.rotation)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((v, w) for v, nbrs in self.rotation.items()
                         for w in nbrs if v < w)

    def degree(self, v):
        return len(self.rotation[v])

    def degrees(self):
        return [self.degree(v) for v in range(self.n)]

    def is_connected(self):
        if self.n == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.rotation[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class FaceCensus:
    faces: tuple[tuple[int, ...], ...]
    pentagon_count: int
    hexagon_count: int

    @property
    def face_count(self):
        return len(self.faces)


def canonical_icosahedron() -> PolyhedralGraph:
    """The 12-vertex icosahedron: 0 = pole adjacent to upper ring 1..5,
    11 = antipole adjacent to lower ring 6..10, rings joined in an
    antiprism; cyclic orders are counterclockwise seen from outside."""
    adj = {0: (1, 2, 3, 4, 5), 11: (6, 10, 9, 8, 7)}
    for t in range(5):
        adj[1 + t] = (0, 1 + (t - 1) % 5, 6 + (t - 1) % 5, 6 + t, 1 + (t + 1) % 5)
        adj[6 + t] = (1 + t, 6 + (t - 1) % 5, 11, 6 + (t + 1) % 5, 1 + (t + 1) % 5)
    return PolyhedralGraph(adj)


def canonical_tetrahedron() -> PolyhedralGraph:
    """4-vertex tetrahedron rotation system (convenience target)."""
    return PolyhedralGraph({0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 2, 1)})


def truncate(seed: PolyhedralGraph) -> PolyhedralGraph:
    """Cut every corner: one new vertex per (seed vertex, incident edge).

    "Corner" edges join cyclically consecutive cuts around a seed vertex,
    "bond" edges join the two cuts of a seed edge. New ids are assigned in
    (seed vertex, cyclic position) order, so on a d-regular seed the cut at
    position i around seed vertex v is d v + i; all downstream golden
    values rely on this flattening.
    """
    rot = seed.rotation
    ids = {}
    for v in range(seed.n):
        for i in range(len(rot[v])):
            ids[(v, i)] = len(ids)
    rotation = {}
    for v in range(seed.n):
        nbrs = rot[v]
        deg = len(nbrs)
        for i, w in enumerate(nbrs):
            bond = ids[(w, rot[w].index(v))]
            rotation[ids[(v, i)]] = (bond, ids[(v, (i + 1) % deg)],
                                     ids[(v, (i - 1) % deg)])
    return PolyhedralGraph(rotation)


def buckyball() -> PolyhedralGraph:
    return truncate(canonical_icosahedron())


def face_census(g: PolyhedralGraph) -> FaceCensus:
    """Trace all faces by the next-edge-in-rotation walk. With no asymmetric
    edge or repeated neighbour, (u, v) -> (v, succ_v(u)) is injective on the
    darts, so it permutes them: each walk closes at its own start dart."""
    seen = set()
    faces = []
    for start in sorted((u, w) for u in g.rotation for w in g.rotation[u]):
        if start in seen:
            continue
        face = []
        u, v = start
        while (u, v) not in seen:
            seen.add((u, v))
            face.append(u)
            rot = g.rotation[v]
            w = rot[(rot.index(u) + 1) % len(rot)]
            u, v = v, w
        faces.append(tuple(face))
    lengths = Counter(len(f) for f in faces)
    return FaceCensus(faces=tuple(faces),
                      pentagon_count=lengths.get(5, 0),
                      hexagon_count=lengths.get(6, 0))


def girth(g: PolyhedralGraph) -> int:
    """Length of the shortest cycle (BFS from every vertex); raises
    ValueError when the graph has no cycle."""
    best = float("inf")
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.rotation[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif parent[v] != w:
                    best = min(best, dist[v] + dist[w] + 1)
        if best == 3:
            break
    if best == float("inf"):
        raise ValueError("graph has no cycle")
    return int(best)


def _dart_automorphism(g: PolyhedralGraph, v: int, w: int, s: int):
    """The automorphism of g's rotation system that sends the dart
    (0, rotation[0][0]) to (v, w), keeping every cyclic order for s = 1 and
    reversing it for s = -1; None if there is none. Once every vertex is
    reached, each neighbourhood maps onto its image's, so it is a
    permutation."""
    rot = g.rotation
    image = {0: v}
    queue = deque([(0, 0, v, rot[v].index(w))])
    while queue:
        x, i, x2, j = queue.popleft()
        d = len(rot[x])
        if len(rot[x2]) != d:
            return None
        for k in range(d):
            a, b = rot[x][(i + k) % d], rot[x2][(j + s * k) % d]
            if a not in image:
                image[a] = b
                queue.append((a, rot[a].index(x), b, rot[b].index(x2)))
            elif image[a] != b:
                return None
    if len(image) < g.n:
        return None
    return tuple(image[x] for x in range(g.n))


def find_antipodal_involution(g: PolyhedralGraph) -> tuple[int, ...]:
    """Lexicographically smallest fixed-point-free involutive automorphism,
    as the tuple whose entry i is the image of vertex i.

    Despite the name this is not the antipodal map (the central
    inversion). On the buckyball it is a half-turn: it swaps the two ends
    of each of two opposite edges, so 4 vertices go to a neighbour, and only
    4 vertices go to their antipode at distance 9. The block split needs no
    more than a fixed-point-free involution.

    The minimum is taken over the automorphisms of the rotation system,
    orientation-preserving and orientation-reversing. Each is fixed by its
    orientation and the image (v, w) of the dart (0, rotation[0][0]). For a
    polyhedron (a 3-connected planar graph) these are all of its graph
    automorphisms (Whitney, Amer. J. Math. 54, 1932). Entry 0 is the first
    key of the order, so the answer is the smallest among those for the
    smallest v that has any. On a disconnected rotation system no dart's
    image reaches every vertex, so none is found.
    """
    n = g.n
    if n % 2:
        raise InvolutionNotFound("odd vertex count")
    for v in range(1, n):
        found = [perm for w in g.rotation[v] for s in (1, -1)
                 if (perm := _dart_automorphism(g, v, w, s)) is not None
                 and all(p != i and perm[p] == i for i, p in enumerate(perm))]
        if found:
            return min(found)
    raise InvolutionNotFound("no fixed-point-free involutive automorphism")


def relabel(g: PolyhedralGraph, perm) -> PolyhedralGraph:
    """Map vertex i to perm[i] throughout."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    return PolyhedralGraph({perm[v]: tuple(perm[w] for w in nbrs)
                            for v, nbrs in g.rotation.items()})


def laplacian(g: PolyhedralGraph) -> RationalMatrix:
    """Degree matrix minus adjacency matrix."""
    data = [[0] * g.n for _ in range(g.n)]
    for v in range(g.n):
        data[v][v] = g.degree(v)
    for u, w in g.edges:
        data[u][w] = -1
        data[w][u] = -1
    return RationalMatrix.from_ints(data)


def to_dot(g: PolyhedralGraph) -> str:
    lines = ["graph buckyball {"]
    for u, w in g.sorted_edges():
        lines.append(f"  {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: PolyhedralGraph) -> dict:
    census = face_census(g)
    return {
        "n": g.n,
        "edges": [[u, w] for u, w in g.sorted_edges()],
        "faces": [list(f) for f in census.faces],
    }
