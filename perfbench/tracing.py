"""Spans around the benchmark's calls into geocops, kept in memory.

The benchmark calls every library entry point through a `Layers` object.
Untraced, its attributes are the library functions themselves.  Traced,
each one opens a span (name, start, end, parent) around the call and adds
the call's counters.  Policies are timed through delegating proxies that
the benchmark hands to `run_game`; inside a proxy a profile hook also opens
spans for the library functions in `NESTED` (the greedy robber's BFS), so
the robber's time splits into BFS and the rest without touching library
code.  Self time of a span is its duration minus what its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

from geocops import ensembles, geograph, solver, strategies

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._nested: list[tuple[object, int]] = []
        self._watch = {fn.__code__: (name, count) for name, fn, count in NESTED}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def wrap(self, name, fn, count=None):
        """`fn` with a span named `name`; `count(tracer, result, *args)` after."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, out, *args)
            return out
        return traced

    def _profile(self, frame, event, arg):
        if event == "call":
            hit = self._watch.get(frame.f_code)
            if hit is not None:
                self._nested.append((frame, self.open(hit[0])))
        elif event == "return" and self._nested and self._nested[-1][0] is frame:
            _, idx = self._nested.pop()
            self.close(idx)
            count = self._watch[frame.f_code][1]
            if count is not None:
                count(self, arg, frame.f_locals)

    def call_policy(self, name, fn, *args):
        """Span `name` around a policy call, with nested library spans inside."""
        idx = self.open(name)
        sys.setprofile(self._profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            self._nested.clear()
            self.close(idx)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (inclusive) and self_s."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out


class CopProxy(strategies.CopPolicy):
    def __init__(self, inner, tracer: Tracer):
        self.inner, self.tracer, self.name = inner, tracer, inner.name

    def place(self, g, rng):
        return self.tracer.call_policy("strategies.cop_move", self.inner.place, g, rng)

    def move(self, g, view, rng):
        return self.tracer.call_policy("strategies.cop_move", self.inner.move, g, view, rng)


class RobberProxy(strategies.RobberPolicy):
    def __init__(self, inner, tracer: Tracer):
        self.inner, self.tracer, self.name = inner, tracer, inner.name

    def place(self, g, cops, rng):
        return self.tracer.call_policy("strategies.robber_move", self.inner.place,
                                       g, cops, rng)

    def move(self, g, view, rng):
        return self.tracer.call_policy("strategies.robber_move", self.inner.move,
                                       g, view, rng)


# -- counters, computed after the span closes ------------------------------

def _count_build(tr, g, *args):
    tr.add("geograph.build_graph.edges", g.num_edges())


def _count_dismantle(tr, res, g, *args):
    tr.add("solver.dismantle.removed", len(res.removal_order))
    tr.add("solver.dismantle.mask_bytes", g.n * ((g.n + 7) // 8))


def _count_bfs(tr, dist, g, *args):
    # CSR entries a BFS reads: the adjacency lists of every vertex it reaches
    deg = g.indptr[1:] - g.indptr[:-1]
    tr.add("geograph.bfs_distances.csr_entries", int(deg[dist >= 0].sum()))


def _count_bfs_nested(tr, dist, frame_locals):
    if dist is not None:  # None when the call raised
        _count_bfs(tr, dist, frame_locals["g"])


def _count_save(tr, _, g, path, *args):
    tr.add("geograph.save_graph_json.bytes", os.path.getsize(path))


def _count_trace(tr, nbytes, *args):
    tr.add("strategies.trace_jsonl.bytes", nbytes)


def _count_solve(tr, table, *args):
    tr.add("solver.solve_game.states", table.labels.size)


NESTED = [("geograph.bfs_distances", geograph.bfs_distances, _count_bfs_nested)]


def write_trace(path, trace) -> int:
    """Write a trace as JSONL, the way `geocops simulate --output` does."""
    text = trace.to_jsonl()
    with open(path, "w") as fh:
        fh.write(text)
    return len(text)


def policy_init(cls, *args):
    return cls(*args)


class Layers:
    """The geocops entry points a workload calls, direct or traced."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        w = tracer.wrap if tracer else (lambda name, fn, count=None: fn)
        self.sweep = ensembles.sweep
        self.sample_uniform = w("ensembles.sample_uniform", ensembles.sample_uniform)
        self.build_graph = w("geograph.build_graph", geograph.build_graph, _count_build)
        self.bfs_distances = w("geograph.bfs_distances", geograph.bfs_distances,
                               _count_bfs)
        self.shortest_path = w("geograph.shortest_path", geograph.shortest_path)
        self.save_graph_json = w("geograph.save_graph_json", geograph.save_graph_json,
                                 _count_save)
        self.load_graph_json = w("geograph.load_graph_json", geograph.load_graph_json)
        self.dismantle = w("solver.dismantle", solver.dismantle, _count_dismantle)
        self.solve_game = w("solver.solve_game", solver.solve_game, _count_solve)
        self.policy_init = w("strategies.policy_init", policy_init)
        self.potential_audit = w("strategies.potential_audit", strategies.potential_audit)
        self.write_trace = w("strategies.trace_jsonl", write_trace, _count_trace)
        self._run_game = w("strategies.run_game", strategies.run_game)
        self.table_play = w("solver.table_play", strategies.run_game)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def run_game(self, g, cop, robber, max_rounds, seed):
        if self.tracer is not None:
            cop, robber = CopProxy(cop, self.tracer), RobberProxy(robber, self.tracer)
        return self._run_game(g, cop, robber, max_rounds, seed=seed)
