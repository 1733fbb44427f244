"""Ground-truth decision procedures for the pursuit game.

* pitfall detection and greedy dismantling (cop-win recognition),
* center-ordered dismantling for geometric graphs (remove vertices in
  descending distance from a center point, each removal justified by a
  dominator, until the survivors sit inside B(c, r/2) and form a clique),
* exact k-cop game solving by retrograde analysis under the
  robber-moves-first round convention, with capture = colocation after
  either side's move.

The exact solve holds arrays of all n^(k+1) ordered (cops, robber) tuples.
On a 2-core Xeon VM (RGGs, r = 0.9·√(log n/n)) it takes 0.6 s for k=2 at
n=120, 16 s (404 MB) at n=300, and 0.6 s / 3.6 s for k=3 at n=40 / n=60.

Closed neighborhoods are kept as packed bitset rows (numpy uint8) so that
domination tests are word-parallel; the greedy dismantler re-scans the
surviving vertices in a fixed heuristic order until a pass removes nothing
(the final verdict is order-independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, permutations

import numpy as np
from scipy.sparse import identity

from .geograph import Graph, GeometricGraph

SOLVER_STATE_BUDGET = 2 * 10 ** 8


class SolverBudgetError(RuntimeError):
    """The solve's array entries (`_working_set`) exceed the solver budget."""

    def __init__(self, states: int, budget: int):
        super().__init__(f"solve needs {states} array entries, over budget {budget}")
        self.states = states
        self.budget = budget


# ---------------------------------------------------------------------------
# bitset helpers
# ---------------------------------------------------------------------------

def _closed_masks(g: Graph) -> np.ndarray:
    """Packed closed-neighborhood rows: bit j of row i set iff j in N̄(i)."""
    n = g.n
    width = (n + 7) // 8
    masks = np.zeros((n, width), dtype=np.uint8)
    row = np.zeros(n, dtype=bool)
    for i in range(n):
        row[:] = False
        row[g.neighbors(i)] = True
        row[i] = True
        masks[i] = np.packbits(row, bitorder="little")
    return masks


def _active_mask(active: np.ndarray) -> np.ndarray:
    return np.packbits(active, bitorder="little")


def _dominator(masks, act_bits, u, candidates) -> int | None:
    """Lowest-index v among candidates with N̄(u)∩act ⊆ N̄(v)∩act."""
    if len(candidates) == 0:
        return None
    uncovered = (masks[u] & ~masks[candidates]) & act_bits
    bad = uncovered.any(axis=1)
    if bad.all():
        return None
    return int(candidates[int(np.argmin(bad))])


# ---------------------------------------------------------------------------
# pitfalls and dismantling
# ---------------------------------------------------------------------------

@dataclass
class DismantleResult:
    removal_order: list[tuple[int, int]]  # (removed vertex, its dominator)
    survivors: list[int]
    copwin: bool
    failed_vertex: int | None = None  # set by ordered dismantling on failure


def find_pitfall(g: Graph, active=None) -> tuple[int, int] | None:
    """Some u dominated by v in the active subgraph; lowest u, then lowest v.

    u is a pitfall when its closed neighborhood (within the active set) is
    contained in the dominator's.  Returns None when no pitfall exists.
    """
    act = np.zeros(g.n, dtype=bool)
    if active is None:
        act[:] = True
    else:
        act[list(active)] = True
    if act.sum() == 0:
        raise ValueError("find_pitfall: active set is empty")
    masks = _closed_masks(g)
    act_bits = _active_mask(act)
    for u in range(g.n):
        if not act[u]:
            continue
        nb = g.neighbors(u)
        cand = nb[act[nb]]
        v = _dominator(masks, act_bits, u, cand)
        if v is not None:
            return u, v
    return None


def _removal_heuristic_order(g: Graph) -> np.ndarray:
    # Geometric graphs dismantle fastest outside-in (distance from the point
    # cloud's center, descending); abstract graphs just use index order.
    if isinstance(g, GeometricGraph) and g.n:
        c = g.pointset.coords.mean(axis=0)
        d = ((g.pointset.coords - c) ** 2).sum(axis=1)
        return np.lexsort((np.arange(g.n), -d))
    return np.arange(g.n)


def dismantle(g: Graph) -> DismantleResult:
    """Greedily remove pitfalls until none remain; cop-win iff one survivor."""
    n = g.n
    if n == 0:
        return DismantleResult([], [], False)
    masks = _closed_masks(g)
    active = np.ones(n, dtype=bool)
    act_bits = _active_mask(active)
    order = _removal_heuristic_order(g)
    removal: list[tuple[int, int]] = []
    remaining = n
    changed = True
    while changed and remaining > 1:
        changed = False
        for u in order:
            if remaining <= 1:
                break
            u = int(u)
            if not active[u]:
                continue
            nb = g.neighbors(u)
            cand = nb[active[nb]]
            v = _dominator(masks, act_bits, u, cand)
            if v is None:
                continue
            removal.append((u, v))
            active[u] = False
            act_bits[u >> 3] &= np.uint8(~(1 << (u & 7)) & 0xFF)
            remaining -= 1
            changed = True
    survivors = [int(i) for i in np.flatnonzero(active)]
    return DismantleResult(removal, survivors, len(survivors) == 1)


# ---------------------------------------------------------------------------
# center-ordered machinery (geometric)
# ---------------------------------------------------------------------------

def nb_set(g: GeometricGraph, i: int, c) -> np.ndarray:
    """Neighbors of i strictly closer to the center point c than x_i is."""
    coords = g.pointset.coords
    di = math.hypot(coords[i, 0] - c[0], coords[i, 1] - c[1])
    nb = g.neighbors(i)
    if nb.size == 0:
        return nb.astype(np.int64)
    pts = coords[nb]
    d = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
    return nb[d < di].astype(np.int64)


@dataclass
class CenterCheckResult:
    holds: bool
    violators: list[int]


def center_pitfall_check(g: GeometricGraph, c) -> CenterCheckResult:
    """Check the center-pitfall condition at every vertex.

    A vertex x_i with ||x_i - c|| >= r/2 passes when some inward neighbor
    j in nb(i) dominates it among the inward neighbors: nb(i) ⊆ N̄(j).
    (Then removing vertices in descending center distance only ever removes
    pitfalls.)  Vertices inside B(c, r/2) are exempt.  Reports all violators.
    """
    coords = g.pointset.coords
    dc = np.hypot(coords[:, 0] - c[0], coords[:, 1] - c[1])
    masks = _closed_masks(g)
    half = g.r / 2.0
    violators: list[int] = []
    for i in range(g.n):
        if dc[i] < half:
            continue
        nb = g.neighbors(i)
        inward = nb[dc[nb] < dc[i]]
        if inward.size == 0:
            violators.append(i)
            continue
        nbm = np.packbits(np.isin(np.arange(g.n), inward), bitorder="little")
        uncovered = nbm & ~masks[inward]
        if uncovered.any(axis=1).all():
            violators.append(i)
    return CenterCheckResult(len(violators) == 0, violators)


def center_order_dismantle(g: GeometricGraph, c) -> DismantleResult:
    """Dismantle by removing vertices in descending distance from c.

    Every removal must be justified by a dominator among the survivors;
    removal stops once the survivors lie inside B(c, r/2) (or one vertex is
    left).  On failure the first unjustifiable vertex is reported and
    copwin is False.  Distance ties are broken by vertex index.
    """
    n = g.n
    if n == 0:
        return DismantleResult([], [], False)
    coords = g.pointset.coords
    dc = np.hypot(coords[:, 0] - c[0], coords[:, 1] - c[1])
    order = np.lexsort((np.arange(n), -dc))
    masks = _closed_masks(g)
    active = np.ones(n, dtype=bool)
    act_bits = _active_mask(active)
    removal: list[tuple[int, int]] = []
    remaining = n
    half = g.r / 2.0
    for u in order:
        u = int(u)
        if dc[u] < half or remaining == 1:
            break
        nb = g.neighbors(u)
        cand = nb[active[nb]]
        v = _dominator(masks, act_bits, u, cand)
        if v is None:
            survivors = [int(i) for i in np.flatnonzero(active)]
            return DismantleResult(removal, survivors, False, failed_vertex=u)
        removal.append((u, v))
        active[u] = False
        act_bits[u >> 3] &= np.uint8(~(1 << (u & 7)) & 0xFF)
        remaining -= 1
    survivors = [int(i) for i in np.flatnonzero(active)]
    # survivors within B(c, r/2) are pairwise within r, but verify honestly
    clique = True
    for v in survivors:
        uncovered = (_active_mask(active) & ~masks[v]).any()
        if uncovered:
            clique = False
            break
    return DismantleResult(removal, survivors, clique)


# ---------------------------------------------------------------------------
# exact game solving (retrograde analysis)
# ---------------------------------------------------------------------------

ROBBER, COPS = 0, 1


def _count_states(n: int, k: int) -> int:
    return math.comb(n + k - 1, k) * n * 2


def _working_set(n: int, k: int) -> int:
    """Array entries a solve holds: the states plus n^(k+1) ordered cop tuples."""
    return _count_states(n, k) + n ** (k + 1)


class SolveTable:
    """Win/lose labels and move recommendations for the k-cop game.

    States are (robber vertex, sorted cop multiset, side to move); the robber
    acts first in every round.  `depth` counts half-moves to capture under
    optimal play (0 at colocation).
    """

    def __init__(self, g: Graph, k: int, multisets, rank_of, labels, depth):
        self.g = g
        self.k = k
        self.n = g.n
        self.multisets = multisets
        self.rank_of = rank_of
        self.labels = labels
        self.depth = depth
        self._closed = [tuple(int(x) for x in g.closed_neighborhood(v))
                        for v in range(g.n)]

    def _sid(self, rank: int, rv: int, side: int) -> int:
        return (rank * self.n + rv) * 2 + side

    @cached_property
    def _rank_of_tuple(self) -> np.ndarray:
        """Rank of the sorted form of every ordered cop tuple, by flat index."""
        ms = np.array(self.multisets, dtype=np.intp).reshape(-1, self.k)
        out = np.empty(self.n ** self.k, dtype=np.intp)
        for perm in set(permutations(range(self.k))):
            out[np.ravel_multi_index(ms[:, perm].T, (self.n,) * self.k)] = np.arange(len(ms))
        return out

    def _cops_to_move(self, a: np.ndarray) -> np.ndarray:
        """`labels` or `depth` of the cops-to-move states, as [rank, robber]."""
        return a.reshape(len(self.multisets), self.n, 2)[:, :, COPS]

    def is_cop_win(self, robber: int, cops, side: int) -> bool:
        rank = self.rank_of[tuple(sorted(cops))]
        return bool(self.labels[self._sid(rank, robber, side)])

    def state_depth(self, robber: int, cops, side: int) -> int:
        rank = self.rank_of[tuple(sorted(cops))]
        return int(self.depth[self._sid(rank, robber, side)])

    @cached_property
    def cops_win(self) -> bool:
        return self.initial_cops() is not None

    def initial_cops(self):
        """A winning initial multiset (min worst-case depth, then lowest rank), or None."""
        winning = np.flatnonzero(self._cops_to_move(self.labels).all(axis=1))
        if winning.size == 0:
            return None
        worst = self._cops_to_move(self.depth)[winning].max(axis=1)
        return self.multisets[int(winning[np.argmin(worst)])]

    def initial_robber(self, cops) -> int:
        """Robber's best placement: the lowest cop-loss vertex, else the deepest."""
        rank = self.rank_of[tuple(sorted(cops))]
        safe = np.flatnonzero(~self._cops_to_move(self.labels)[rank])
        if safe.size:
            return int(safe[0])
        return int(np.argmax(self._cops_to_move(self.depth)[rank]))

    def cop_move(self, robber: int, cops):
        """From a cop-win cops-to-move state: successor of minimal depth.

        Ties go to the lowest multiset rank.
        """
        moves = np.meshgrid(*[self._closed[c] for c in cops], indexing="ij")
        ranks = np.unique(self._rank_of_tuple[np.ravel_multi_index(moves, (self.n,) * self.k)])
        sids = (ranks * self.n + robber) * 2 + ROBBER
        won = self.labels[sids]
        if not won.any():
            return tuple(sorted(cops))  # losing state: stand pat
        return self.multisets[int(ranks[won][np.argmin(self.depth[sids[won]])])]

    def robber_move(self, robber: int, cops) -> int:
        """Safe move if one exists, else stall toward the deepest capture."""
        rank = self.rank_of[tuple(sorted(cops))]
        best, best_key = robber, None
        for rv in self._closed[robber]:
            s = self._sid(rank, rv, COPS)
            key = (0, rv) if not self.labels[s] else (1, -int(self.depth[s]), rv)
            if best_key is None or key < best_key:
                best, best_key = rv, key
        return best

    def to_json(self) -> dict:
        labels = {}
        for rank, cops in enumerate(self.multisets):
            for rv in range(self.n):
                for side, tag in ((ROBBER, "robber"), (COPS, "cops")):
                    key = f"{rv}|{','.join(map(str, cops))}|{tag}"
                    s = self._sid(rank, rv, side)
                    labels[key] = "cop-win" if self.labels[s] else "robber-win"
        return {"format_version": 1, "k": self.k, "n": self.n, "labels": labels}


def solve_game(g: Graph, k: int, budget: int = SOLVER_STATE_BUDGET) -> SolveTable:
    """Retrograde analysis of the k-cop pursuit game on g.

    One level at a time over whole arrays, from colocation at level 0, so
    `depth` is the level a FIFO search gives.  A robber-to-move state is
    cop-win once every robber move is: its counter drops by the closed-
    neighbourhood matrix applied along the robber axis to the new cops-to-move
    states.  A cops-to-move state is cop-win once one cop move is: the new
    robber-to-move states, spread to all ordered cop tuples, are dilated by
    that matrix one cop axis at a time (Petr, Portier & Versteegen, DAM 2022)
    and gathered at the sorted multisets.
    """
    n = g.n
    if n == 0:
        raise ValueError("solve_game: empty graph")
    if k < 1:
        raise ValueError("solve_game: need at least one cop")
    est = _working_set(n, k)
    if est > budget:
        raise SolverBudgetError(est, budget)

    multisets = list(combinations_with_replacement(range(n), k))
    nr = len(multisets)
    labels = np.zeros((nr, n, 2), dtype=bool)
    depth = np.full((nr, n, 2), -1, dtype=np.int32)
    table = SolveTable(g, k, multisets, {t: i for i, t in enumerate(multisets)},
                       labels.reshape(-1), depth.reshape(-1))
    ms = np.array(multisets, dtype=np.intp).reshape(nr, k)
    tuple_of_rank = np.ravel_multi_index(ms.T, (n,) * k)
    sizes = np.diff(g.indptr) + 1
    # closed-neighbour counts fit the smallest unsigned type; the dilation
    # clips its products back to 0/1 after each axis so they never overflow
    dt = np.min_scalar_type(int(sizes.max()))
    closed = (g.to_scipy() + identity(n, dtype=np.int8, format="csr")).astype(dt)

    # robber-to-move counter: number of robber moves not yet known cop-win
    counters = np.tile(sizes.astype(np.int32), (nr, 1))
    robber_new = np.zeros((nr, n), dtype=bool)
    robber_new[np.repeat(np.arange(nr), k), ms.ravel()] = True
    cops_new = robber_new
    labels[robber_new] = True
    depth[robber_new] = 0
    level = 0
    while True:
        counters -= (closed @ cops_new.T.astype(dt)).T
        robber_next = (counters == 0) & ~labels[:, :, ROBBER]
        # axes (c0, .., c(k-1), robber); each step dilates the first axis
        # and rotates it last, so the robber axis ends up first
        x = robber_new[table._rank_of_tuple].astype(dt)
        for _ in range(k):
            x = closed @ x.reshape(n, -1)
            x = np.ascontiguousarray(x.T != 0, dtype=dt)
        cops_next = x.reshape(n, -1)[:, tuple_of_rank].T.astype(bool)
        cops_next &= ~labels[:, :, COPS]
        if not (robber_next.any() or cops_next.any()):
            break
        level += 1
        for side, new in ((ROBBER, robber_next), (COPS, cops_next)):
            labels[:, :, side] |= new
            depth[:, :, side][new] = level
        robber_new, cops_new = robber_next, cops_next
    return table


def cop_number(g: Graph, k_max: int, budget: int = SOLVER_STATE_BUDGET):
    """Smallest k <= k_max with a cop win, else None (meaning "> k_max")."""
    for k in range(1, k_max + 1):
        if solve_game(g, k, budget=budget).cops_win:
            return k
    return None
