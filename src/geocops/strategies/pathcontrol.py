"""Shortest-path control and patrol policies.

A single cop controls a shortest path P by tracking the robber's shadow: the
path vertex v_sigma with sigma = min(dist(path_start, R), len(P)-1).  Once the
cop sits on the shadow, any robber step onto P lands on the cop or is punished
on the responding move.  On geometric graphs two flankers at v_(i-1), v_(i+1)
upgrade control to a patrol: a robber move segment crossing the path's edge
segments puts him inside some patrol cop's ball, and that cop captures next
move.  Flankers take position by the stay/left/right separation rule.
"""

from __future__ import annotations

import numpy as np

from ..geograph import Graph, GeometricGraph, bfs
from ..geometry import Segment, segments_intersect
from .engine import CopPolicy, GameView


def _is_shortest_from(g: Graph, path, dist_start: np.ndarray, edge_ok=None) -> bool:
    """Is `path` a walk along usable edges whose length is dist_start[end]?"""
    src, dst = np.asarray(path[:-1]), np.asarray(path[1:])
    if not all(g.adjacent(a, b) for a, b in zip(src, dst)):
        return False
    if edge_ok is not None and src.size and not edge_ok(src, dst).all():
        return False
    return dist_start[path[-1]] == len(path) - 1


def is_shortest_path(g: Graph, path, mask=None, edge_ok=None) -> bool:
    """Is `path` shortest in g, restricted to `mask` and `edge_ok` (see ``bfs``)?"""
    return _is_shortest_from(g, path, bfs(g, [path[0]], mask, edge_ok)[0], edge_ok)


def crosses_path(g: GeometricGraph, v_from: int, v_to: int, path) -> bool:
    """Did the robber move segment cross the path (closed segments)?"""
    if len(path) < 2:
        return False
    a = g.point(v_from)
    b = g.point(v_to)
    move = Segment(a, b)
    for u, w in zip(path, path[1:]):
        if segments_intersect(move, Segment(g.point(u), g.point(w))):
            return True
    return False


class _PathTracker:
    """Drives 1 or 3 cops to control / patrol one shortest path."""

    def __init__(self, g: Graph, path, n_cops: int = 3, mask=None, edge_ok=None):
        if not path:
            raise ValueError("empty path")
        self.g = g
        self.path = list(int(v) for v in path)
        # the shadow is measured in the graph the path is shortest in
        self.dist_start, _ = bfs(g, [self.path[0]], mask, edge_ok)
        if not _is_shortest_from(g, self.path, self.dist_start, edge_ok):
            raise ValueError("path is not a shortest path (control needs isometry)")
        self.n_cops = n_cops
        self.s_len = len(self.path) - 1
        self.index_of = {v: i for i, v in enumerate(self.path)}
        _, self.route_parent = bfs(g, self.path)  # over the full graph
        self.center_idx: int | None = None
        self.last_shadow = 0
        self.control_round: int | None = None
        self.positioned_round: int | None = None

    # -- helpers ----------------------------------------------------------

    def shadow(self, robber: int) -> int:
        d = self.dist_start[robber]
        if d < 0:
            return self.last_shadow
        return int(min(d, self.s_len))

    def _toward_path(self, v: int) -> int:
        p = int(self.route_parent[v])
        return v if p < 0 else p

    def _step_on_path(self, idx: int, target: int) -> int:
        if idx < target:
            return idx + 1
        if idx > target:
            return idx - 1
        return idx

    @property
    def controlling(self) -> bool:
        return self.control_round is not None

    @property
    def positioned(self) -> bool:
        return self.positioned_round is not None

    # -- one cop half-move --------------------------------------------------

    def step(self, cops: list[int], robber: int, round_index: int) -> list[int]:
        """New positions for this tracker's cops (capture duty first)."""
        for i, c in enumerate(cops):
            if c == robber or self.g.adjacent(c, robber):
                out = list(cops)
                out[i] = robber
                return out

        sigma = self.shadow(robber)
        self.last_shadow = sigma
        out = list(cops)

        # center cop: reach the path, then track the shadow
        ci = 1 if self.n_cops == 3 else 0
        c = cops[ci]
        if c in self.index_of:
            j = self.index_of[c]
            j2 = self._step_on_path(j, sigma)
            out[ci] = self.path[j2]
            self.center_idx = j2
            if j2 == sigma and self.control_round is None:
                self.control_round = round_index
        else:
            out[ci] = self._toward_path(c)
            self.center_idx = None

        if self.n_cops == 3:
            if not self.controlling:
                # move as one while heading for control
                for fi in (0, 2):
                    f = cops[fi]
                    if f in self.index_of:
                        out[fi] = self.path[self._step_on_path(self.index_of[f],
                                                               sigma)]
                    else:
                        out[fi] = self._toward_path(f)
            else:
                j2 = self.center_idx
                targets = {0: max(j2 - 1, 0), 2: min(j2 + 1, self.s_len)}
                for fi, tgt in targets.items():
                    f = cops[fi]
                    if f in self.index_of:
                        out[fi] = self.path[self._step_on_path(self.index_of[f], tgt)]
                    else:
                        out[fi] = self._toward_path(f)
                if (self.positioned_round is None
                        and out[0] == self.path[targets[0]]
                        and out[2] == self.path[targets[2]]):
                    self.positioned_round = round_index
        return out


class PathControlPolicy(CopPolicy):
    """Single cop that takes and keeps control of a shortest path."""

    name = "path_control"

    def __init__(self, g: Graph, path):
        self.tracker = _PathTracker(g, path, n_cops=1)

    def place(self, g, rng):
        return [self.tracker.path[0]]

    def move(self, g, view: GameView, rng):
        return self.tracker.step(view.cops, view.robber, view.round_index)

    @property
    def control_round(self):
        return self.tracker.control_round


class PatrolTriplePolicy(CopPolicy):
    """Three cops: control plus flankers, patrolling a shortest path."""

    name = "patrol"

    def __init__(self, g: Graph, path):
        self.tracker = _PathTracker(g, path, n_cops=3)

    def place(self, g, rng):
        v = self.tracker.path[0]
        return [v, v, v]

    def move(self, g, view: GameView, rng):
        return self.tracker.step(view.cops, view.robber, view.round_index)

    @property
    def control_round(self):
        return self.tracker.control_round

    @property
    def positioned_round(self):
        return self.tracker.positioned_round


def path_control_cop(g: Graph, path) -> PathControlPolicy:
    return PathControlPolicy(g, path)


def patrol_triple(g: Graph, path) -> PatrolTriplePolicy:
    return PatrolTriplePolicy(g, path)
