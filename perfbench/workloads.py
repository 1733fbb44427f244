"""The benchmark's four workloads.

Each workload runs in cycles.  A cycle is the workload's fixed mix of trials
(one sweep pass over the radius grid, games until one horizon of rounds, or
one solve of every family), so runs with different seeds do the same kind of
work.  Inputs come from (seed, cycle index) alone.  A trial is one sweep
trial, one game including its graph, or one solve including its table-play
game.  `run_cycle` times each trial and then checks its outputs, outside the
timed region, and drops them before the next trial starts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from geocops import PointSet, build_graph, graph_metrics, solver
from geocops.ensembles import (SweepConfig, dagger_cell_size, trial_seed,
                               wilson_interval)
from geocops.strategies import (GreedyRobber, PatrolTriplePolicy,
                                RandomWalkRobber, SolverCops, SolverRobber,
                                StrategyConstants, TwoCopPolicy, crosses_path,
                                replay_verify)

ROBBERS = (GreedyRobber, RandomWalkRobber)  # game j of a cycle uses ROBBERS[j % 2]


@dataclass
class Trial:
    kind: str
    seconds: float = 0.0
    ref_s: float = 0.0            # reference time measured around the trial
    work: int = 0                 # sweep trials, rounds, games or solver states
    result: object = None         # what the cycle digest covers
    error: str | None = None      # exception or failed check
    rounds: dict[str, int] = field(default_factory=dict)  # robber -> rounds


def _seed(*key) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _trace_events(trace) -> list:
    return [[e.round_index, e.mover, e.robber, e.cops] for e in trace.events] + [
        trace.outcome, trace.capture_round]


def digest(obj) -> str:
    """Short content hash of a JSON-able value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cycle_digest(trials: list[Trial]) -> str:
    return digest([t.result for t in trials])


_REF_SMALL = np.arange(4096) * 7919 % 10007
_REF_BULK = np.random.default_rng(0).random((2, 3000))


def _reference_piece() -> None:
    s = 0
    for i in range(10000):
        s += i & 7
    seen = {}
    for i in range(1700):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
    for _ in range(33):
        np.unique(_REF_SMALL[::3] % 97)
    x, y = _REF_BULK[:, :50], _REF_BULK
    d2 = (x[0][:, None] - y[0][None, :]) ** 2 + (x[1][:, None] - y[1][None, :]) ** 2
    np.nonzero(d2 < 0.1)


def reference_s() -> float:
    """Wall time of a fixed computation that uses no geocops code.

    It mixes the kinds of work the workloads do: an interpreter loop, tuple
    and dict work, small numpy calls and a bulk distance block.  The
    machine's speed varies from second to second on a shared host, and the
    workloads' times follow it; dividing a trial's time by the reference
    time measured around it removes much of that variation.

    It runs in three pieces and counts the median one three times, so that
    one preempted piece does not count.  The garbage collector is off meanwhile: the
    reference allocates tuples, and a collection it set off would scan the
    heap the last trial left, which grows with the trial.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_piece()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return 3 * statistics.median(times)


def _timed(trial: Trial, fn, *args):
    """Run fn, recording its wall time, the reference time around it and
    any exception on `trial`."""
    before = reference_s()
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # a failed trial is counted, the run goes on
        trial.error = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        trial.seconds = time.perf_counter() - t0
        trial.ref_s = (before + reference_s()) / 2


def _connected(g) -> bool:
    return connected_components(g.to_scipy(), directed=False)[0] == 1


class Workload:
    name = ""
    work_rate = ""  # the report's name for work done per second of trials
    games = False   # trials are pursuit games: the report gives rounds_per_s

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = seed
        self.workdir = workdir  # for files a trial writes

    def run_cycle(self, index: int, L) -> list[Trial]:
        raise NotImplementedError

    def finish(self, cycles: list[list[Trial]]) -> None:
        """Checks over the whole run; marks the trials they fail."""


# ---------------------------------------------------------------------------

class SweepCopwin(Workload):
    """`ensembles.sweep`, copwin_rate, criterion 9's 10-point radius grid."""

    name = "sweep_copwin"
    work_rate = "trials_per_s"  # the work of a sweep trial is 1

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n = 150 if tiny else 2000
        r_lo = 0.3 * math.sqrt(math.log(self.n) / self.n)
        self.grid = [float(x) for x in np.geomspace(r_lo, math.sqrt(2), 10)]

    def run_cycle(self, index, L):
        master_seed = _seed(self.seed, 9, index)
        one = self._replay if L.traced else self._sweep
        trials = []
        for r in self.grid:
            t = Trial(f"r={r:.4g}", work=1)
            t.result = _timed(t, one, master_seed, r, L)
            trials.append(t)
        lo, hi = trials[0], trials[-1]
        if lo.error is None and lo.result != 0:
            lo.error = "cop-win at the lowest radius"
        if hi.error is None and hi.result != 1:
            hi.error = "not cop-win at r = sqrt(2)"
        return trials

    def _sweep(self, master_seed, r, L) -> int:
        """One `ensembles.sweep` call per radius, so each trial is timed alone.

        Trial t of every row uses trial_seed(master_seed, t), so the rows are
        the same as those of one call over the whole grid.
        """
        cfg = SweepConfig(n_list=[self.n], r_list=[r], trials=1,
                          master_seed=master_seed, measurement="copwin_rate")
        return L.sweep(cfg)[0].successes

    def _replay(self, master_seed, r, L) -> int:
        """The sweep loop itself, so that each layer call gets its span."""
        ps = L.sample_uniform(self.n, trial_seed(master_seed, 0))
        return int(L.dismantle(L.build_graph(ps, r)).copwin)

    def finish(self, cycles):
        succ = [0] * len(self.grid)
        count = [0] * len(self.grid)
        for trials in cycles:
            for i, t in enumerate(trials):
                if t.error is None:
                    succ[i] += t.result
                    count[i] += 1
        for i in range(1, len(self.grid)):
            if not (count[i - 1] and count[i]):
                continue
            ra, rb = succ[i - 1] / count[i - 1], succ[i] / count[i]
            a_lo, _ = wilson_interval(succ[i - 1], count[i - 1])
            _, b_hi = wilson_interval(succ[i], count[i])
            if rb < ra and b_hi < a_lo:
                for trials in cycles:
                    if trials[i].error is None:
                        trials[i].error = (f"copwin rate drops from {ra:.2f} to "
                                           f"{rb:.2f}, outside interval overlap")


# ---------------------------------------------------------------------------

class PatrolLong(Workload):
    """`geocops graph` then `simulate --cop-policy patrol`, criterion 5 shape.

    A cycle plays games, greedy and random robbers alternating, until it has
    played one horizon of rounds.  A greedy robber either survives the whole
    horizon or is caught within a few rounds, depending on the instance, so
    fixing the rounds per cycle, not the games, keeps cycles alike.
    """

    name = "patrol_long"
    work_rate = "rounds_per_s"
    games = True
    MAX_GAMES = 41  # per cycle; only reached if 20 greedy games end early

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # one size, the middle of criterion 5's 220..300, so that cycles are
        # alike and their median does not depend on a run's mix of sizes
        self.n = 50 if tiny else 260
        self.horizon = 200 if tiny else 4000

    def run_cycle(self, index, L):
        trials, rounds = [], 0
        for j in range(self.MAX_GAMES):
            t = self._trial(index, j, self.n, ROBBERS[j % len(ROBBERS)], L)
            trials.append(t)
            rounds += t.work
            if t.error or rounds >= self.horizon:
                break
        return trials

    def _trial(self, index, j, n, robber_cls, L) -> Trial:
        t = Trial(f"patrol/{robber_cls.name}")
        game = _timed(t, self._game, index, j, n, robber_cls, L)
        if game is not None:
            trace = game["trace"]
            t.error = self._check(game)
            t.result = digest(_trace_events(trace))
            t.work = trace.rounds_played
            t.rounds = {robber_cls.name: trace.rounds_played}
        return t

    def _game(self, index, j, n, robber_cls, L):
        r = 2.0 * math.sqrt(math.log(n) / n)
        for attempt in range(100):
            ps = L.sample_uniform(n, np.random.SeedSequence([self.seed, 5, index, j,
                                                             attempt]))
            g = L.build_graph(ps, r)
            if _connected(g):
                break
        else:
            raise RuntimeError("no connected instance in 100 samples")
        gpath = self.workdir / "graph.json"
        L.save_graph_json(g, gpath)
        g2 = L.load_graph_json(gpath)
        # the CLI's patrol path: a BFS double sweep for a far pair
        u = int(np.argmax(L.bfs_distances(g2, [0])))
        v = int(np.argmax(L.bfs_distances(g2, [u])))
        path = L.shortest_path(g2, u, v)
        policy = L.policy_init(PatrolTriplePolicy, g2, path)
        trace = L.run_game(g2, policy, robber_cls(), self.horizon,
                           seed=_seed(self.seed, 5, index, j))
        L.write_trace(self.workdir / "trace.jsonl", trace)
        return {"g": g, "g2": g2, "path": path, "policy": policy, "trace": trace}

    @staticmethod
    def _check(game) -> str | None:
        g, g2, path, trace = game["g"], game["g2"], game["path"], game["trace"]
        positioned = game["policy"].positioned_round
        if not (np.array_equal(g.indptr, g2.indptr)
                and np.array_equal(g.indices, g2.indices)):
            return "loaded graph differs from the saved one"
        if not replay_verify(g2, trace):
            return "replay_verify failed"
        budget = int(graph_metrics(g2).diameter) + 2 * (len(path) - 1)
        if positioned is not None:
            if positioned > budget:
                return f"positioned at round {positioned} > budget {budget}"
        elif not (trace.outcome == "capture" and trace.capture_round <= budget):
            return "neither positioned nor captured within the budget"
        moves = [(e.round_index, e.robber) for e in trace.events if e.mover == "robber"]
        for (_, a), (rnd, b) in zip(moves, moves[1:]):
            if positioned is None or rnd <= positioned or a == b:
                continue
            if crosses_path(g2, a, b, path) and not (
                    trace.outcome == "capture" and trace.capture_round == rnd):
                return f"crossing at round {rnd} not punished"
        return None


# ---------------------------------------------------------------------------

class TwoCopDense(Workload):
    """The two-cop strategy on criterion 6's dense instances."""

    name = "twocop_dense"
    # Games last 2-4 rounds, a number set by the instance, while the graph
    # build is the cost; so the work is the game, not its rounds.
    work_rate = "trials_per_s"
    games = True

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n = 600 if tiny else 3000
        self.r = 3.0 * (math.log(self.n) / self.n) ** 0.25
        self.s = 2.0 * math.sqrt(2.0) * dagger_cell_size(self.n)

    def run_cycle(self, index, L):
        return [self._trial(index, j, robber_cls, L)
                for j, robber_cls in enumerate(ROBBERS)]

    def _trial(self, index, j, robber_cls, L) -> Trial:
        t = Trial(f"two_cop/{robber_cls.name}")
        out = _timed(t, self._game, index, j, robber_cls, L)
        if out is None:
            return t
        g, trace, audit = out
        if not replay_verify(g, trace):
            t.error = "replay_verify failed"
        elif not audit.pure_t4_ok:
            t.error = "potential audit: pure-T4 gain violated"
        elif not audit.loss_bound_ok:
            t.error = "potential audit: loss bound violated"
        t.result = digest(_trace_events(trace))
        t.work = 1
        t.rounds = {robber_cls.name: trace.rounds_played}
        return t

    def _game(self, index, j, robber_cls, L):
        ps = L.sample_uniform(self.n, np.random.SeedSequence([self.seed, 6, index, j]))
        g = L.build_graph(ps, self.r)
        constants = StrategyConstants(r=self.r, s=self.s)
        policy = L.policy_init(TwoCopPolicy, g, constants)
        trace = L.run_game(g, policy, robber_cls(), constants.horizon(10.0),
                           seed=_seed(self.seed, 6, index, j))
        return g, trace, L.potential_audit(trace, self.r)


# ---------------------------------------------------------------------------

def expected_edges(n: int, r: float) -> float:
    """Mean edge count of a uniform random geometric graph in the unit square."""
    p = math.pi * r * r - 8.0 * r ** 3 / 3.0 + r ** 4 / 2.0  # valid for r <= 1
    return n * (n - 1) / 2.0 * p


class SolveExact(Workload):
    """`solver.solve_game` on small connected random geometric graphs."""

    name = "solve_exact"
    work_rate = "states_per_s"
    # (n, c, ks): r = c sqrt(log n / n); every k in ks is solved on one graph
    FULL = ((200, 2.0, (1,)), (50, 0.8, (1, 2)), (20, 0.8, (1, 2, 3)))
    TINY = ((40, 2.0, (1,)), (14, 0.9, (1, 2)), (9, 1.0, (1, 2, 3)))
    EDGE_BAND = 0.01

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.families = self.TINY if tiny else self.FULL

    def graph(self, index, fam):
        """Connected instance whose edge count is near the mean for (n, r).

        Conditioning on the edge count keeps the solver's work, which grows
        with the degrees, about the same from one seed to the next.
        """
        n, c, _ = self.families[fam]
        r = c * math.sqrt(math.log(n) / n)
        target = expected_edges(n, r)
        tolerance = max(self.EDGE_BAND * target, 1.0)
        rng = np.random.default_rng([self.seed, 4, index, fam])
        for _ in range(20000):
            g = build_graph(PointSet(rng.random((n, 2))), r)
            if abs(g.num_edges() - target) <= tolerance and _connected(g):
                return g
        raise RuntimeError(f"no connected n={n} instance in the edge band")

    def run_cycle(self, index, L):
        trials = []
        for fam, (n, _, ks) in enumerate(self.families):
            fam_trials = [Trial(f"solve/n={n}/k={k}") for k in ks]
            trials += fam_trials
            try:
                g = self.graph(index, fam)
            except RuntimeError as exc:
                for t in fam_trials:
                    t.error = str(exc)
                continue
            solved = [_timed(t, self._solve, g, k, L) for k, t in zip(ks, fam_trials)]
            if any(t.error for t in fam_trials):
                continue
            for k, t, (table, trace) in zip(ks, fam_trials, solved):
                t.work = int(table.labels.size)
                t.result = digest([table.labels.tobytes().hex(),
                                   table.depth.tobytes().hex(),
                                   trace and _trace_events(trace)])
                if trace is not None:
                    t.rounds = {"solver": trace.rounds_played}
                # one cop wins iff the graph is dismantlable
                if k == 1 and table.cops_win != solver.dismantle(g).copwin:
                    t.error = "one-cop verdict differs from dismantle"
                elif trace is not None:
                    t.error = self._check_play(table, trace)
            verdicts = [table.cops_win for table, _ in solved]
            if any(a and not b for a, b in zip(verdicts, verdicts[1:])):
                fam_trials[-1].error = f"verdicts not monotone in k: {verdicts}"
        return trials

    @staticmethod
    def _solve(g, k, L):
        table = L.solve_game(g, k)
        trace = None
        # Only one-cop tables are played: SolverCops returns sorted cop
        # multisets, which the engine pairs with the cops by position, so
        # with k >= 2 the play can raise PolicyError on a legal table move.
        if k == 1 and table.cops_win:
            trace = L.table_play(g, SolverCops(table), SolverRobber(table),
                                 int(table.labels.size), seed=0)
        return table, trace

    @staticmethod
    def _check_play(table, trace) -> str | None:
        first = trace.events[0]
        depth = table.state_depth(first.robber, trace.placement_cops, 1)
        if trace.outcome != "capture":
            return "table play did not capture"
        half_moves = len(trace.events) - 1
        if half_moves > depth:
            return f"table play took {half_moves} half-moves > depth {depth}"
        return None


WORKLOADS = {cls.name: cls for cls in (SweepCopwin, PatrolLong, TwoCopDense, SolveExact)}
