"""Nine-cop strategy for connected geometric graphs.

Three triples of cops.  At any time at most two patrolled shortest paths
bound the robber territory (the vertices he can still reach without stepping
onto or crossing a patrolled path), while the remaining triple walks to a new
shortest path that splits the territory.

All bounding paths share two fixed terminal vertices u, v (a farapart pair):
the first path is a shortest u-v path in the whole graph, and each later path
(a chord) is a shortest u-v path in the graph the robber can actually use.
That graph has the territory plus u and v as vertices, and as edges those
whose segments neither touch nor cross a patrolled path, except that an edge
at u or v may touch a patrolled segment at that shared terminal alone.  The
chord's shadow is measured in the same graph, where the chord is isometric.
Since the chord meets the old paths only at u and v, the robber's side of it
is bounded by the chord plus one of the two old paths, so the other patrol
is released once the chord's triple is in position; the territory loses at
least the chord's interior every stage, so it is strictly nested from stage
to stage.  This is an invariant: if three patrols are up and dropping any one
of them would enlarge the territory, the policy raises ``PolicyError``
instead of releasing a bounding patrol.
When no u-v chord through the territory exists any more, the free triple
patrols a shortest path from the robber's own vertex to the territory vertex
farthest from him, which shrinks the territory down to, and finally onto,
the robber.

Path selection and the territory bookkeeping are a documented reconstruction;
the empirical corpus runs are the bar for this policy, not a proof.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..geograph import GeometricGraph, bfs
from .engine import CopPolicy, GameView, PolicyError
from .pathcontrol import _PathTracker


def _segments_cross_batch(p, q, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Closed-segment intersection of p-q against a-b, broadcast over leading axes.

    Each argument holds points along its last axis (x, y); e.g. p, q of shape
    (E, 1, 2) against seg_a, seg_b of shape (S, 2) give an (E, S) result.
    """
    px, py = p[..., 0], p[..., 1]
    qx, qy = q[..., 0], q[..., 1]
    ax, ay = seg_a[..., 0], seg_a[..., 1]
    bx, by = seg_b[..., 0], seg_b[..., 1]
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
    d3 = (qx - px) * (ay - py) - (qy - py) * (ax - px)
    d4 = (qx - px) * (by - py) - (qy - py) * (bx - px)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & \
             (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0)
    # touching / collinear cases via on-segment tests (zero-area crosses)
    def on_seg(ox, oy, ux, uy, vx, vy, cross):
        inx = (np.minimum(ux, vx) <= ox) & (ox <= np.maximum(ux, vx))
        iny = (np.minimum(uy, vy) <= oy) & (oy <= np.maximum(uy, vy))
        return (cross == 0) & inx & iny
    touch = (on_seg(px, py, ax, ay, bx, by, d1)
             | on_seg(qx, qy, ax, ay, bx, by, d2)
             | on_seg(ax, ay, px, py, qx, qy, d3)
             | on_seg(bx, by, px, py, qx, qy, d4))
    return proper | touch


class _Blockers:
    """Vertex and segment obstacles contributed by a set of patrolled paths.

    Vertices in ``terminals`` stay usable, and an edge at a terminal may touch
    a patrolled segment ending at that terminal, provided the two meet only
    there.
    """

    def __init__(self, g: GeometricGraph, paths, terminals=()):
        self.blocked = np.zeros(g.n, dtype=bool)
        ends = []
        for path in paths:
            self.blocked[list(path)] = True
            ends.extend(zip(path, path[1:]))
        self.terminals = np.unique(np.asarray(terminals, dtype=np.int64))
        self.blocked[self.terminals] = False
        self.ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        coords = g.pointset.coords
        self.seg_a = coords[self.ends[:, 0]].astype(np.float64)
        self.seg_b = coords[self.ends[:, 1]].astype(np.float64)

    def _meets_only_at(self, g, t: np.ndarray, other: np.ndarray) -> np.ndarray:
        """(edges, segments): segment ends at t[i], shares only t[i] with t[i]-other[i]."""
        coords = g.pointset.coords
        at_t = self.ends[None, :, :] == t[:, None, None]
        far = np.where(at_t[..., 0], self.ends[:, 1], self.ends[:, 0])
        d = (coords[other] - coords[t])[:, None, :]
        e = coords[far] - coords[t][:, None, :]
        cross = d[..., 0] * e[..., 1] - d[..., 1] * e[..., 0]
        dot = d[..., 0] * e[..., 0] + d[..., 1] * e[..., 1]
        return at_t.any(axis=2) & ((cross != 0) | (dot <= 0))

    def edge_allowed(self, g, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Mask over the edges src[i]-dst[i]: the ones the robber can use."""
        ok = ~self.blocked[dst]
        rows = np.flatnonzero(ok)
        if not (self.seg_a.shape[0] and rows.size):
            return ok
        coords = g.pointset.coords
        s, t = src[rows], dst[rows]
        hit = _segments_cross_batch(coords[s][:, None, :], coords[t][:, None, :],
                                    self.seg_a, self.seg_b)
        for end, other in ((s, t), (t, s)):
            at = np.flatnonzero(np.isin(end, self.terminals))
            if at.size:
                hit[at] &= ~self._meets_only_at(g, end[at], other[at])
        ok[rows] = ~hit.any(axis=1)
        return ok


def territory(g: GeometricGraph, robber: int, paths) -> np.ndarray:
    """Vertices the robber can reach without touching or crossing the paths."""
    blockers = _Blockers(g, paths)
    return bfs(g, [robber], edge_ok=partial(blockers.edge_allowed, g))[0] >= 0


class _Unit:
    def __init__(self, slots):
        self.slots = slots          # indices into the 9-cop position list
        self.tracker: _PathTracker | None = None
        self.patrolling = False
        self.birth_stage = -1


class NineCopPolicy(CopPolicy):
    name = "nine_cop"

    def __init__(self, g: GeometricGraph):
        self.g = g
        self.units = [_Unit([0, 1, 2]), _Unit([3, 4, 5]), _Unit([6, 7, 8])]
        self.territory_log: list[int] = []
        self.territory_sets: list[frozenset[int]] = []  # audit snapshots
        self.stage = 0
        self.endpoints: tuple[int, int] | None = None

    def place(self, g, rng):
        return [0] * 9

    # -- stage machinery -----------------------------------------------------

    def _patrolled_paths(self):
        return [u.tracker.path for u in self.units if u.patrolling]

    def _working_unit(self):
        for u in self.units:
            if u.tracker is not None and not u.patrolling:
                return u
        return None

    def _free_unit(self):
        for u in self.units:
            if u.tracker is None:
                return u
        return None

    def _path_from_parents(self, parent, src: int, dst: int) -> list[int]:
        path = [dst]
        while path[-1] != src:
            path.append(int(parent[path[-1]]))
        path.reverse()
        return path

    def _first_path(self, robber: int) -> list[int]:
        # far-apart terminals by BFS double sweep; all later chords reuse them
        d0, _ = bfs(self.g, [0])
        u = int(np.argmax(d0))
        du, pu = bfs(self.g, [u])
        v = int(np.argmax(du))
        self.endpoints = (u, v)
        return self._path_from_parents(pu, u, v)

    def _chord_graph(self, mask: np.ndarray):
        """(vertex mask, edge filter) of the graph the robber can use, plus u, v."""
        u, v = self.endpoints
        mask2 = mask.copy()
        mask2[u] = mask2[v] = True
        blockers = _Blockers(self.g, self._patrolled_paths(), terminals=(u, v))
        return mask2, partial(blockers.edge_allowed, self.g)

    def _chord_path(self, mask2: np.ndarray, edge_ok) -> list[int] | None:
        """Shortest u-v path in the chord graph, with interior in the territory."""
        u, v = self.endpoints
        dist, parent = bfs(self.g, [u], mask2, edge_ok)
        if dist[v] < 2:  # unreachable through the territory, or no interior
            return None
        return self._path_from_parents(parent, u, v)

    def _chase_path(self, robber: int, mask: np.ndarray) -> list[int]:
        """Endgame: shortest path from the robber to his farthest safe vertex."""
        dist, parent = bfs(self.g, [robber], mask)
        dist_in = np.where(mask, dist, -1)
        far = int(np.argmax(dist_in))
        if dist_in[far] <= 0:
            return [robber]
        return self._path_from_parents(parent, robber, far)

    def _start_stage(self, robber: int):
        unit = self._free_unit()
        if unit is None:
            return
        paths = self._patrolled_paths()
        mask = territory(self.g, robber, paths)
        self.territory_log.append(int(mask.sum()))
        self.territory_sets.append(frozenset(map(int, np.flatnonzero(mask))))
        tracker_mask = edge_ok = None  # first path is shortest in the whole graph
        if not paths:
            path = self._first_path(robber)
        else:
            tracker_mask, edge_ok = self._chord_graph(mask)
            path = self._chord_path(tracker_mask, edge_ok)
            if path is None:
                path = self._chase_path(robber, mask)
                tracker_mask, edge_ok = mask, None
        unit.tracker = _PathTracker(self.g, path, n_cops=3, mask=tracker_mask,
                                    edge_ok=edge_ok)
        unit.patrolling = False
        unit.birth_stage = self.stage
        self.stage += 1

    def _release_redundant(self, robber: int, round_index: int):
        """Release the oldest patrol whose removal leaves the territory as is."""
        patrols = [u for u in self.units if u.patrolling]
        if len(patrols) <= 2:
            return
        full = territory(self.g, robber, [u.tracker.path for u in patrols])
        patrols.sort(key=lambda u: u.birth_stage)
        sizes = []
        for u in patrols:
            rest = territory(self.g, robber,
                             [w.tracker.path for w in patrols if w is not u])
            if np.array_equal(rest, full):
                u.tracker = None
                u.patrolling = False
                return
            sizes.append(int(rest.sum()))
        raise PolicyError(self.name, round_index,
                          f"stage {self.stage}: no patrol is redundant "
                          f"(territory {int(full.sum())} with all three, "
                          f"{sizes} without each, oldest first)")

    # -- engine interface ------------------------------------------------------

    def move(self, g, view: GameView, rng):
        robber = view.robber
        cops = list(view.cops)

        for i, c in enumerate(cops):
            if c == robber or g.adjacent(c, robber):
                out = list(cops)
                out[i] = robber
                return out

        if self._working_unit() is None:
            self._start_stage(robber)

        out = list(cops)
        for u in self.units:
            if u.tracker is None:
                continue
            own = [cops[s] for s in u.slots]
            new = u.tracker.step(own, robber, view.round_index)
            for s, v in zip(u.slots, new):
                out[s] = v
            if not u.patrolling and u.tracker.positioned:
                u.patrolling = True
                self._release_redundant(robber, view.round_index)
        return out


def nine_cop_policy(g: GeometricGraph) -> NineCopPolicy:
    return NineCopPolicy(g)
