"""Robber adversaries and small utility policies for evaluation runs."""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np

from ..geograph import Graph, bfs_distances
from ..solver import SolveTable
from .engine import CopPolicy, GameView, PolicyError, RobberPolicy

_UNREACHABLE = np.iinfo(np.int64).max


def _cop_distances(g: Graph, cops) -> np.ndarray:
    d = bfs_distances(g, cops)
    d[d < 0] = _UNREACHABLE
    return d


class RandomWalkRobber(RobberPolicy):
    """Uniform over the closed neighborhood; places on a safe vertex if any."""

    name = "random"

    def place(self, g, cops, rng):
        unsafe = set()
        for c in cops:
            unsafe.update(int(v) for v in g.closed_neighborhood(c))
        safe = [v for v in range(g.n) if v not in unsafe]
        return rng.choice(safe) if safe else rng.randrange(g.n)

    def move(self, g, view: GameView, rng):
        options = g.closed_neighborhood(view.robber)
        return int(options[rng.randrange(len(options))])


class GreedyRobber(RobberPolicy):
    """Maximize the minimum graph distance to any cop; ties to lowest index."""

    name = "greedy"

    def place(self, g, cops, rng):
        d = _cop_distances(g, cops)
        return int(np.argmax(d))

    def move(self, g, view: GameView, rng):
        d = _cop_distances(g, view.cops)
        options = g.closed_neighborhood(view.robber)
        return int(options[int(np.argmax(d[options]))])


class SolverRobber(RobberPolicy):
    """Plays the solve table: never enters a cop-win state when a safe move exists."""

    name = "solver"

    def __init__(self, table: SolveTable):
        self.table = table

    def place(self, g, cops, rng):
        return self.table.initial_robber(tuple(sorted(cops)))

    def move(self, g, view: GameView, rng):
        return self.table.robber_move(view.robber, tuple(sorted(view.cops)))


class StationaryRobber(RobberPolicy):
    name = "stationary"

    def __init__(self, vertex: int):
        self.vertex = vertex

    def place(self, g, cops, rng):
        return self.vertex

    def move(self, g, view: GameView, rng):
        return view.robber


class StationaryCops(CopPolicy):
    name = "stationary"

    def __init__(self, vertices):
        self.vertices = list(vertices)

    def place(self, g, rng):
        return list(self.vertices)

    def move(self, g, view: GameView, rng):
        return list(view.cops)


class ScriptedRobber(RobberPolicy):
    """Replays a fixed vertex sequence; stays put once the script runs out."""

    name = "scripted"

    def __init__(self, vertices):
        self.script = list(vertices)
        self._i = 0

    def place(self, g, cops, rng):
        self._i = 1
        return self.script[0]

    def move(self, g, view: GameView, rng):
        if self._i < len(self.script):
            v = self.script[self._i]
            self._i += 1
            return v
        return view.robber


class SolverCops(CopPolicy):
    """Plays the solve table's recommended cop moves from a winning placement."""

    name = "solver"

    def __init__(self, table: SolveTable):
        self.table = table

    def place(self, g, rng):
        cops = self.table.initial_cops()
        if cops is None:
            # no winning placement: fall back to all cops on vertex 0
            return [0] * self.table.k
        return list(cops)

    def move(self, g, view: GameView, rng):
        """The table's move, as a multiset, matched to the cops it moves.

        The table stores cop positions as sorted multisets, but each cop may
        only stay or step to a neighbour, so the multiset is assigned to the
        cops by the first permutation that gives every cop a target in its
        closed neighbourhood.
        """
        target = self.table.cop_move(view.robber, tuple(sorted(view.cops)))
        for order in permutations(target):
            if all(new == old or g.adjacent(old, new)
                   for old, new in zip(view.cops, order)):
                return list(order)
        raise PolicyError(self.name, view.round_index,
                          f"table move {list(target)} is not reachable "
                          f"from cops {view.cops}")
