"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: circle intersections
come from 1-d root finding, lens areas from Monte Carlo membership counting,
adjacency from brute-force distance matrices, girth from edge-deletion BFS,
BFS from a plain per-vertex loop, game values from a depth-bounded
forward search, and solve tables from a per-state FIFO retrograde search.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq


def circle_circle_points(x, y, r):
    """Intersection of circle(x, r) and circle(y, ||x-y||) by root finding."""
    d = math.hypot(y[0] - x[0], y[1] - x[1])
    phi = math.atan2(y[1] - x[1], y[0] - x[0])

    def f(t):
        px = x[0] + r * math.cos(phi + t)
        py = x[1] + r * math.sin(phi + t)
        return (px - y[0]) ** 2 + (py - y[1]) ** 2 - d * d

    t0 = brentq(f, 1e-12, math.pi - 1e-12, xtol=1e-14)
    p_plus = (x[0] + r * math.cos(phi + t0), x[1] + r * math.sin(phi + t0))
    p_minus = (x[0] + r * math.cos(phi - t0), x[1] + r * math.sin(phi - t0))
    return p_plus, p_minus


def mc_lens_area(p1, p2, r, samples, seed=0, with_se=False):
    """Monte Carlo area of B(p1,r) ∩ B(p2,r), sampled in an aligned box.

    With with_se=True returns (area, standard_error).
    """
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    q = np.linalg.norm(p2 - p1) / 2.0
    if q >= r:
        return (0.0, 0.0) if with_se else 0.0
    mid = (p1 + p2) / 2.0
    axis = (p2 - p1) / (2.0 * q)
    perp = np.array([-axis[1], axis[0]])
    half_a = r - q
    half_b = math.sqrt(r * r - q * q)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-half_a, half_a, samples)
    b = rng.uniform(-half_b, half_b, samples)
    pts = mid[None, :] + a[:, None] * axis[None, :] + b[:, None] * perp[None, :]
    d1 = ((pts - p1[None, :]) ** 2).sum(axis=1)
    d2 = ((pts - p2[None, :]) ** 2).sum(axis=1)
    hits = ((d1 <= r * r) & (d2 <= r * r)).mean()
    box = (2 * half_a) * (2 * half_b)
    if not with_se:
        return hits * box
    se = box * math.sqrt(max(hits * (1 - hits), 1e-12) / samples)
    return hits * box, se


def brute_adjacency(coords, r, tol=1e-9):
    """All-pairs thresholding; returns a sorted edge list."""
    coords = np.asarray(coords, float)
    n = len(coords)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(*(coords[i] - coords[j])) <= r + tol:
                edges.append((i, j))
    return edges


def brute_girth(n, edges):
    """Shortest cycle via per-edge deletion + BFS, an independent method."""
    from collections import deque
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    best = math.inf
    for a, b in edges:
        adj[a].discard(b)
        adj[b].discard(a)
        dist = {a: 0}
        q = deque([a])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        if b in dist:
            best = min(best, dist[b] + 1)
        adj[a].add(b)
        adj[b].add(a)
    return best


def bfs_reference(g, sources, mask=None, edge_ok=None):
    """(dist, parent) by a per-vertex loop: lowest-index parents, -1 unreachable.

    Sources are always expanded; other vertices are entered only inside the
    boolean ``mask``, and only along edges a-b with ``edge_ok([a], [b])``.
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    frontier = sorted(set(int(s) for s in sources))
    for s in frontier:
        dist[s] = 0
        parent[s] = s
    d = 0
    while frontier:
        d += 1
        nxt = []
        for a in frontier:  # ascending, so the first visitor is the lowest parent
            for b in g.indices[g.indptr[a]:g.indptr[a + 1]]:
                b = int(b)
                if dist[b] >= 0 or (mask is not None and not mask[b]):
                    continue
                if edge_ok is not None and not edge_ok(np.array([a]), np.array([b]))[0]:
                    continue
                dist[b] = d
                parent[b] = a
                nxt.append(b)
        frontier = sorted(nxt)
    return dist, parent


def forward_game_value(adjacency, k, max_depth):
    """Cops-win decision by bounded-depth forward minimax with memoization.

    adjacency: list of neighbor lists.  The robber moves first each round;
    capture is colocation.  max_depth counts half-moves; a cop-win within the
    bound is definitive, and with max_depth >= 2 * #states + 2 a non-win is
    definitive too.
    """
    n = len(adjacency)
    closed = [tuple(sorted(set(adjacency[v]) | {v})) for v in range(n)]

    from functools import lru_cache
    from itertools import product

    @lru_cache(maxsize=None)
    def cop_moves(cops):
        seen = {tuple(sorted(c)) for c in product(*[closed[v] for v in cops])}
        return tuple(sorted(seen))

    @lru_cache(maxsize=None)
    def value(robber, cops, side, depth):
        if robber in cops:
            return True
        if depth == 0:
            return False
        if side == 0:  # robber to move: cops win iff every reply loses
            return all(value(r2, cops, 1, depth - 1) for r2 in closed[robber])
        return any(value(robber, c2, 0, depth - 1) for c2 in cop_moves(cops))

    from itertools import combinations_with_replacement
    for cops in combinations_with_replacement(range(n), k):
        if all(value(rv, tuple(cops), 1, max_depth) for rv in range(n)):
            return True
    return False


def solve_game_reference(g, k):
    """(labels, depth) of the k-cop game by a per-state FIFO retrograde search.

    States are laid out as in ``SolveTable``: index (rank*n + robber)*2 + side,
    ranks in ``combinations_with_replacement`` order, side 0 robber to move.
    Colocation states seed the queue at depth 0; a cops-to-move state is
    cop-win as soon as one joint cop move (listed over the product of the
    cops' closed neighbourhoods) reaches a cop-win state, a robber-to-move
    state once every robber move does.
    """
    from collections import deque
    from itertools import combinations_with_replacement, product

    n = g.n
    closed = [tuple(int(x) for x in g.closed_neighborhood(v)) for v in range(n)]
    multisets = list(combinations_with_replacement(range(n), k))
    rank_of = {t: i for i, t in enumerate(multisets)}
    successors = [sorted({rank_of[tuple(sorted(c))] for c in product(*[closed[v] for v in cops])})
                  for cops in multisets]
    labels = np.zeros(len(multisets) * n * 2, dtype=bool)
    depth = np.full(labels.size, -1, dtype=np.int32)
    counters = {}  # (rank, robber) -> robber moves not yet known cop-win

    def sid(rank, rv, side):
        return (rank * n + rv) * 2 + side

    queue = deque()
    for rank, cops in enumerate(multisets):
        for rv in set(cops):
            for side in (0, 1):
                labels[sid(rank, rv, side)] = True
                depth[sid(rank, rv, side)] = 0
                queue.append((rank, rv, side))
    while queue:
        rank, rv, side = queue.popleft()
        d = depth[sid(rank, rv, side)]
        if side == 0:  # predecessors: cops-to-move states one cop move earlier
            for rank_prev in successors[rank]:
                s = sid(rank_prev, rv, 1)
                if not labels[s]:
                    labels[s] = True
                    depth[s] = d + 1
                    queue.append((rank_prev, rv, 1))
        else:  # predecessors: robber-to-move states one robber move earlier
            for rv_prev in closed[rv]:
                s = sid(rank, rv_prev, 0)
                if labels[s]:
                    continue
                left = counters.get((rank, rv_prev), len(closed[rv_prev])) - 1
                counters[(rank, rv_prev)] = left
                if left == 0:
                    labels[s] = True
                    depth[s] = d + 1
                    queue.append((rank, rv_prev, 0))
    return labels, depth


def segments_intersect_batch(p, q, a, b):
    """Vectorized closed-segment intersection: pq rows against ab rows."""
    p, q, a, b = (np.asarray(v, float) for v in (p, q, a, b))
    d1 = ((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])
          - (b[:, 1] - a[:, 1]) * (p[:, 0] - a[:, 0]))
    d2 = ((b[:, 0] - a[:, 0]) * (q[:, 1] - a[:, 1])
          - (b[:, 1] - a[:, 1]) * (q[:, 0] - a[:, 0]))
    d3 = ((q[:, 0] - p[:, 0]) * (a[:, 1] - p[:, 1])
          - (q[:, 1] - p[:, 1]) * (a[:, 0] - p[:, 0]))
    d4 = ((q[:, 0] - p[:, 0]) * (b[:, 1] - p[:, 1])
          - (q[:, 1] - p[:, 1]) * (b[:, 0] - p[:, 0]))
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) \
        & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)

    def on_seg(o, u, v, cross):
        inx = (np.minimum(u[:, 0], v[:, 0]) <= o[:, 0]) & \
              (o[:, 0] <= np.maximum(u[:, 0], v[:, 0]))
        iny = (np.minimum(u[:, 1], v[:, 1]) <= o[:, 1]) & \
              (o[:, 1] <= np.maximum(u[:, 1], v[:, 1]))
        return (cross == 0) & inx & iny

    touch = (on_seg(p, a, b, d1) | on_seg(q, a, b, d2)
             | on_seg(a, p, q, d3) | on_seg(b, p, q, d4))
    return proper | touch


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner
