"""Geometric graphs over planar point sets.

Adjacency follows the closed-ball rule ||x_i - x_j|| <= r (tolerance-inflated
by 1e-9).  One scipy kd-tree per point set finds the candidate pairs for the
graph build and the points for ball queries; one exact squared-distance test
(``_in_ball``) then decides both.  One level-synchronous BFS (``bfs``) serves
shortest paths, distances and the strategies' masked and edge-filtered
searches.  Also provides diameter/girth/degree metrics, the degree-girth lower
bound on the cop number, and CSV/JSON io.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path as _csgraph_sp
from scipy.spatial import cKDTree

from .geometry import DEFAULT_TOL, Point2

INFINITE = math.inf


@dataclass
class PointSet:
    """Ordered planar points with stable indices; duplicates permitted."""

    coords: np.ndarray  # (n, 2) float64
    bbox: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 2)
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("PointSet: coordinates must be finite")

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __getitem__(self, i: int) -> Point2:
        return Point2(float(self.coords[i, 0]), float(self.coords[i, 1]))

    def points(self) -> list[Point2]:
        return [Point2(float(x), float(y)) for x, y in self.coords]


class Graph:
    """Undirected simple graph in CSR form; vertices are 0..n-1."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Self-loops are dropped; duplicate and reversed pairs collapse."""
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        e = e[e[:, 0] != e[:, 1]]
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        return cls(n, *_symmetric_csr(n, e[:, 0], e[:, 1]))

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def closed_neighborhood(self, v: int) -> np.ndarray:
        """{v} together with its neighbors, sorted."""
        nb = self.neighbors(v)
        pos = np.searchsorted(nb, v)
        return np.insert(nb, pos, v)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacent(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        k = np.searchsorted(nb, v)
        return bool(k < nb.size and nb[k] == v)

    def num_edges(self) -> int:
        return int(self.indices.size // 2)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (u, v) with u < v, in CSR order."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        keep = src < self.indices
        return list(zip(src[keep].tolist(), self.indices[keep].tolist()))

    def to_scipy(self) -> csr_matrix:
        data = np.ones(self.indices.size, dtype=np.int8)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


class GeometricGraph(Graph):
    """Graph of a point set under the radius rule, with its kd-tree."""

    def __init__(self, pointset: PointSet, r: float, indptr, indices,
                 tree: cKDTree):
        super().__init__(len(pointset), indptr, indices)
        self.pointset = pointset
        self.r = float(r)
        self.tree = tree

    def point(self, v: int) -> Point2:
        return self.pointset[v]

    def points_within(self, p, radius: float, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Sorted vertex indices inside the closed ball B(p, radius)."""
        return _ball_points(self.tree, p, radius, tol=tol)

    def points_in_two_balls(self, c1, r1: float, c2, r2: float,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
        """Sorted vertex indices inside B(c1, r1) ∩ B(c2, r2)."""
        return _ball_points(self.tree, c1, r1, c2, r2, tol)

    def nearest_vertex(self, p) -> int:
        d2 = ((self.pointset.coords - np.asarray(p, dtype=np.float64)) ** 2).sum(axis=1)
        return int(np.argmin(d2))


def _in_ball(d: np.ndarray, radius: float, tol: float) -> np.ndarray:
    """The closed-ball rule on offsets d of shape (k, 2): |d| <= radius + tol."""
    if radius + tol < 0:  # squaring would admit the points within |radius + tol|
        return np.zeros(len(d), dtype=bool)
    return d[:, 0] ** 2 + d[:, 1] ** 2 <= (radius + tol) ** 2


def _ball_points(tree: cKDTree, c1, r1: float, c2=None, r2: float = 0.0,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Sorted indices of the tree's points in B(c1, r1), or in B(c1, r1) ∩ B(c2, r2).

    The tree is asked with a radius inflated by 2*tol, a superset of the
    ball; ``_in_ball`` then decides membership, as it does in ``build_graph``.
    Of two balls, the smaller is queried.
    """
    if c2 is not None and r2 < r1:
        c1, r1, c2, r2 = c2, r2, c1, r1
    idx = np.asarray(tree.query_ball_point(c1, r1 + 2 * tol, return_sorted=True),
                     dtype=np.int64)
    idx = idx[_in_ball(tree.data[idx] - c1, r1, tol)]
    if c2 is not None:
        idx = idx[_in_ball(tree.data[idx] - c2, r2, tol)]
    return idx


def _symmetric_csr(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the simple graph on 0..n-1 with edges i[k]-j[k].

    Duplicate and reversed pairs collapse; each row's indices are sorted.
    """
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    m = coo_matrix((np.ones(src.size, dtype=bool), (src, dst)), shape=(n, n)).tocsr()
    m.sort_indices()
    return m.indptr, m.indices


def build_graph(ps: PointSet, r: float, tol: float = DEFAULT_TOL) -> GeometricGraph:
    """Geometric graph with i ~ j iff ||x_i - x_j|| <= r (i != j)."""
    if r <= 0:
        raise ValueError("build_graph: radius must be positive")
    coords = ps.coords
    tree = cKDTree(coords)
    # int32 pairs and an in-place difference: the 3.2M-edge build at n=3000
    # peaks near 200 MB instead of 300 MB
    pairs = tree.query_pairs(r + 2 * tol, output_type="ndarray").astype(np.int32)
    d = coords[pairs[:, 0]]
    d -= coords[pairs[:, 1]]
    pairs = pairs[_in_ball(d, r, tol)]
    del d
    indptr, indices = _symmetric_csr(len(ps), pairs[:, 0], pairs[:, 1])
    return GeometricGraph(ps, r, indptr, indices, tree)


def bfs(g: Graph, sources, mask=None, edge_ok=None) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous multi-source BFS returning (dist, parent).

    Unreachable vertices get -1 in both arrays; sources get distance 0 and
    are their own parents.  With a boolean ``mask``, only masked vertices are
    entered (sources are always expanded).  ``edge_ok(src, dst)`` narrows the
    edges further: given arrays of candidate edges src[i]-dst[i] (dst
    unvisited and inside the mask), it returns a boolean array marking the
    usable ones.  Each vertex keeps its lowest-index parent in the previous
    level, so paths read off ``parent`` are deterministic.
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, g.n, dtype=np.int64)  # g.n: not reached (yet)
    frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
    dist[frontier] = 0
    parent[frontier] = frontier
    frontier = frontier.astype(g.indices.dtype)
    unseen = dist < 0
    if mask is not None:
        unseen &= mask
    d = 0
    while frontier.size:
        d += 1
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        # CSR position of every neighbour: its slice start plus its rank in it
        pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos += np.arange(pos.size)
        dst = g.indices[pos]
        del pos
        keep = np.flatnonzero(unseen[dst])
        dst = dst[keep]
        src = np.repeat(frontier, counts)[keep].astype(np.int64)
        if edge_ok is not None and dst.size:
            ok = edge_ok(src, dst)
            src, dst = src[ok], dst[ok]
        np.minimum.at(parent, dst, src)
        first = parent[dst] == src  # one edge per new vertex: its lowest parent's
        frontier = dst[first]
        dist[frontier] = d
        unseen[frontier] = False
    parent[dist < 0] = -1
    return dist, parent


def shortest_path(g: Graph, u: int, v: int) -> list[int] | None:
    """BFS shortest path with lowest-index-predecessor tie-break.

    Returns the vertex sequence from u to v, or None if disconnected.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError("shortest_path: vertex out of range")
    dist, parent = bfs(g, [u])
    if dist[v] < 0:
        return None
    path = [v]
    while path[-1] != u:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def bfs_distances(g: Graph, sources) -> np.ndarray:
    """Multi-source BFS; -1 marks unreachable vertices."""
    return bfs(g, sources)[0]


def girth(g: Graph) -> float:
    """Length of a shortest cycle; inf for forests.

    Per-vertex BFS, pruned to depth (best-1)//2 once a cycle is known.  This
    is its own search rather than a use of ``bfs`` because of that pruning:
    on the 1440-vertex annular construction, one unpruned ``bfs`` from every
    root took 15 s against this search's 0.04 s (2-core Xeon VM).
    """
    best = INFINITE
    dist = np.empty(g.n, dtype=np.int64)
    for root in range(g.n):
        if best == 3:
            break
        limit = g.n if best is INFINITE else int((best - 1) // 2)
        dist.fill(-1)
        parent = {root: -1}
        dist[root] = 0
        frontier = [root]
        depth = 0
        while frontier and depth < limit:
            depth += 1
            nxt = []
            for a in frontier:
                for b in g.neighbors(a):
                    b = int(b)
                    if dist[b] < 0:
                        dist[b] = depth
                        parent[b] = a
                        nxt.append(b)
                    elif parent.get(a) != b:
                        cycle = int(dist[a] + dist[b] + 1)
                        if cycle < best:
                            best = cycle
            frontier = nxt
    return best


@dataclass
class GraphMetrics:
    diameter: float
    girth: float
    min_degree: int
    connected: bool


def graph_metrics(g: Graph) -> GraphMetrics:
    """Exact diameter, girth, minimum degree and connectivity."""
    if g.n == 0:
        return GraphMetrics(0.0, INFINITE, 0, True)
    ncomp, _ = connected_components(g.to_scipy(), directed=False)
    connected = ncomp == 1
    min_degree = int(g.degrees().min()) if g.n else 0
    if not connected:
        diameter = INFINITE
    elif g.n == 1:
        diameter = 0.0
    else:
        dmat = _csgraph_sp(g.to_scipy(), method="D", unweighted=True, directed=False)
        diameter = float(dmat.max())
    return GraphMetrics(diameter, girth(g), min_degree, connected)


def degree_girth_lower_bound(g: Graph) -> int:
    """Cop-number lower bound: delta(G) when min degree >= 3 and girth >= 5.

    Returns 1 (the vacuous bound) when the hypothesis fails.
    """
    if g.n == 0:
        return 1
    delta = int(g.degrees().min())
    if delta >= 3 and girth(g) >= 5:
        return delta
    return 1


# ---------------------------------------------------------------------------
# io: point CSV and graph JSON
# ---------------------------------------------------------------------------

def write_points_csv(ps: PointSet, path, header: bool = True,
                     meta: dict | None = None) -> None:
    """One "x,y" pair per line; optional # meta comment, optional header."""
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        w = csv.writer(fh)
        if header:
            w.writerow(["x", "y"])
        for x, y in ps.coords:
            w.writerow([repr(float(x)), repr(float(y))])


def read_points_csv(path) -> PointSet:
    """Read "x,y" rows; a header row is skipped, any other bad row raises.

    Only the first row that is neither blank nor a ``#`` comment may be a
    header.  Any later row that is not two finite numbers raises
    ``ValueError`` naming its line number.
    """
    rows = []
    first = True
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            header_allowed, first = first, False
            try:
                x, y = map(float, line.split(","))  # wrong column count too
            except ValueError:
                if header_allowed:
                    continue
                raise ValueError(f"{path}:{lineno}: expected 'x,y', "
                                 f"got {line!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: coordinates must be finite, "
                                 f"got {line!r}")
            rows.append((x, y))
    return PointSet(np.asarray(rows, dtype=np.float64).reshape(-1, 2))


def graph_to_json(g: Graph, extra: dict | None = None) -> dict:
    """Schema {n, r, edges:[[i,j],...]}, plus points for geometric graphs."""
    doc: dict = {"format_version": 1, "n": g.n,
                 "r": getattr(g, "r", None),
                 "edges": [[a, b] for a, b in g.edges()]}
    if isinstance(g, GeometricGraph):
        doc["points"] = [[float(x), float(y)] for x, y in g.pointset.coords]
    if extra:
        doc.update(extra)
    return doc


def graph_from_json(doc: dict) -> Graph:
    """Inverse of ``graph_to_json``.

    A document with points and r is rebuilt from its points; its stored
    edges must then be exactly the rebuilt graph's, or ``ValueError`` is
    raised.
    """
    n = int(doc["n"])
    stored = Graph.from_edges(n, doc.get("edges", []))
    points = doc.get("points")
    r = doc.get("r")
    if points is None or r is None:
        return stored
    g = build_graph(PointSet(np.asarray(points, dtype=np.float64)), float(r))
    if g.n != n:
        raise ValueError("graph JSON: n does not match points")
    if not (np.array_equal(g.indptr, stored.indptr)
            and np.array_equal(g.indices, stored.indices)):
        raise ValueError(f"graph JSON: stored edges ({stored.num_edges()}) differ "
                         f"from the points' graph at r={r} ({g.num_edges()})")
    return g


def save_graph_json(g: Graph, path, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json(g, extra), fh, indent=2)
        fh.write("\n")


def load_graph_json(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(json.load(fh))
