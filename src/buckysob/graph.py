"""Buckyball construction by truncating the icosahedron.

Everything is combinatorial: a polyhedron is carried as a rotation system
(counterclockwise cyclic neighbor order at every vertex), faces are traced
by the next-edge-in-rotation walk, and the antipodal involution is found
by backtracking over automorphisms. All objects are immutable after
construction and all functions are pure.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from buckysob.ratmat import RationalMatrix


class RotationSystemError(ValueError):
    """The rotation system is not a consistent surface embedding."""


class InvolutionNotFound(ValueError):
    """No fixed-point-free involutive automorphism exists."""


@dataclass(frozen=True)
class SeedPolyhedron:
    """Rotation system of the polyhedron being truncated."""

    adjacency: dict[int, tuple[int, ...]]

    def __post_init__(self):
        for v, nbrs in self.adjacency.items():
            if len(set(nbrs)) != len(nbrs):
                raise RotationSystemError(f"repeated neighbor at vertex {v}")
            for w in nbrs:
                if w not in self.adjacency or v not in self.adjacency[w]:
                    raise RotationSystemError(f"asymmetric edge ({v},{w})")

    @property
    def vertex_count(self):
        return len(self.adjacency)

    @property
    def edge_count(self):
        return sum(len(n) for n in self.adjacency.values()) // 2


def canonical_icosahedron() -> SeedPolyhedron:
    """The 12-vertex icosahedron: 0 = pole adjacent to upper ring 1..5,
    11 = antipole adjacent to lower ring 6..10, rings joined in an
    antiprism; cyclic orders are counterclockwise seen from outside."""
    adj = {0: (1, 2, 3, 4, 5), 11: (6, 10, 9, 8, 7)}
    for t in range(5):
        adj[1 + t] = (0, 1 + (t - 1) % 5, 6 + (t - 1) % 5, 6 + t, 1 + (t + 1) % 5)
        adj[6 + t] = (1 + t, 6 + (t - 1) % 5, 11, 6 + (t + 1) % 5, 1 + (t + 1) % 5)
    return SeedPolyhedron(adj)


def canonical_tetrahedron() -> SeedPolyhedron:
    """4-vertex tetrahedron rotation system (convenience target)."""
    return SeedPolyhedron({0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 2, 1)})


@dataclass(frozen=True)
class PolyhedralGraph:
    """3-regular (after truncation) graph with an embedding."""

    n: int
    edges: frozenset[tuple[int, int]]
    rotation: dict[int, tuple[int, ...]]
    labels: dict[int, tuple[int, tuple[int, int]]] | None = None

    def __post_init__(self):
        for v, nbrs in self.rotation.items():
            for w in nbrs:
                if v not in self.rotation.get(w, ()):
                    raise RotationSystemError(f"asymmetric edge ({v},{w})")
        edges = {tuple(sorted((v, w))) for v in self.rotation for w in self.rotation[v]}
        if edges != set(self.edges):
            raise RotationSystemError("edge set inconsistent with rotation system")

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


@dataclass(frozen=True)
class Involution:
    perm: tuple[int, ...]

    def __call__(self, i):
        return self.perm[i]


def truncate(seed: SeedPolyhedron) -> PolyhedralGraph:
    """Cut every corner: one new vertex per (seed vertex, incident edge).

    "Corner" edges join cyclically consecutive cuts around a seed vertex,
    "bond" edges join the two cuts of a seed edge. New ids are assigned in
    (seed vertex, cyclic position) order, which is the deterministic
    flattening all downstream golden values rely on.
    """
    ids = {}
    for v in sorted(seed.adjacency):
        for i in range(len(seed.adjacency[v])):
            ids[(v, i)] = len(ids)
    rotation = {}
    labels = {}
    for v in sorted(seed.adjacency):
        nbrs = seed.adjacency[v]
        deg = len(nbrs)
        for i in range(deg):
            w = nbrs[i]
            bond = ids[(w, seed.adjacency[w].index(v))]
            nxt = ids[(v, (i + 1) % deg)]
            prv = ids[(v, (i - 1) % deg)]
            rotation[ids[(v, i)]] = (bond, nxt, prv)
            labels[ids[(v, i)]] = (v, (min(v, w), max(v, w)))
    edges = frozenset(tuple(sorted((u, w))) for u in rotation for w in rotation[u])
    return PolyhedralGraph(n=len(ids), edges=edges, rotation=rotation, labels=labels)


def buckyball() -> PolyhedralGraph:
    return truncate(canonical_icosahedron())


def face_census(g: PolyhedralGraph) -> FaceCensus:
    """Trace all faces by the next-edge-in-rotation walk."""
    seen = set()
    faces = []
    limit = 2 * len(g.edges)
    for start in sorted((u, w) for u in g.rotation for w in g.rotation[u]):
        if start in seen:
            continue
        face = []
        u, v = start
        steps = 0
        while (u, v) not in seen:
            seen.add((u, v))
            face.append(u)
            rot = g.rotation[v]
            w = rot[(rot.index(u) + 1) % len(rot)]
            u, v = v, w
            steps += 1
            if steps > limit:
                raise RotationSystemError("face walk failed to close")
        if (u, v) != start:
            raise RotationSystemError("face walk re-entered mid-cycle")
        faces.append(tuple(face))
    lengths = Counter(len(f) for f in faces)
    return FaceCensus(faces=tuple(faces),
                      pentagon_count=lengths.get(5, 0),
                      hexagon_count=lengths.get(6, 0))


def girth(g: PolyhedralGraph) -> int:
    """Length of the shortest cycle (BFS from every vertex)."""
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
    return int(best)


def distance_matrix(g: PolyhedralGraph) -> list[list[int]]:
    out = []
    for root in range(g.n):
        dist = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in g.rotation[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        out.append(dist)
    return out


def find_antipodal_involution(g: PolyhedralGraph) -> Involution:
    """Lexicographically smallest fixed-point-free involutive automorphism.

    Backtracking over paired assignments i <-> j in vertex order, pruned
    by degree, pairwise distance preservation, and adjacency consistency
    with everything already assigned.
    """
    n = g.n
    if n % 2:
        raise InvolutionNotFound("odd vertex count")
    dist = distance_matrix(g)
    adj = [set(g.rotation[v]) for v in range(n)]
    perm = [-1] * n

    def assign_ok(i, j):
        if dist[i][j] < 0:
            return False
        if len(adj[i]) != len(adj[j]):
            return False
        for k in range(n):
            pk = perm[k]
            if pk < 0:
                continue
            if dist[i][k] != dist[j][pk]:
                return False
            if (k in adj[i]) != (pk in adj[j]):
                return False
        return True

    def search():
        try:
            i = perm.index(-1)
        except ValueError:
            return True
        for j in range(n):
            if j == i or perm[j] >= 0:
                continue
            if not assign_ok(i, j):
                continue
            perm[i], perm[j] = j, i
            if search():
                return True
            perm[i] = perm[j] = -1
        return False

    if not search():
        raise InvolutionNotFound("no fixed-point-free involutive automorphism")
    return Involution(tuple(perm))


def relabel(g: PolyhedralGraph, perm) -> PolyhedralGraph:
    """Map vertex i to perm[i] throughout."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    rotation = {perm[v]: tuple(perm[w] for w in g.rotation[v]) for v in g.rotation}
    edges = frozenset(tuple(sorted((perm[u], perm[w]))) for u, w in g.edges)
    labels = ({perm[v]: lab for v, lab in g.labels.items()}
              if g.labels is not None else None)
    return PolyhedralGraph(n=g.n, edges=edges, rotation=rotation, labels=labels)


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
