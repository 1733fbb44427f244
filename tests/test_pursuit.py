"""Path control, patrol, and the nine-cop territory strategy."""

import hashlib
import json
import math

import numpy as np
import pytest

from geocops import (PointSet, bfs, bfs_distances, build_graph, graph_metrics,
                     shortest_path)
from geocops.geometry import Segment, segments_intersect
from geocops.strategies import (
    GreedyRobber,
    NineCopPolicy,
    PolicyError,
    RandomWalkRobber,
    ScriptedRobber,
    crosses_path,
    is_shortest_path,
    nine_cop_policy,
    path_control_cop,
    patrol_triple,
    run_game,
    territory,
)
from geocops.strategies import pathcontrol
from geocops.strategies.pathcontrol import _PathTracker

from conftest import random_connected_rgg


def far_pair_path(g):
    d0 = bfs_distances(g, [0])
    u = int(np.argmax(d0))
    du = bfs_distances(g, [u])
    v = int(np.argmax(du))
    return shortest_path(g, u, v)


def line_graph(k, spacing=0.08, r=0.1):
    pts = np.array([[0.05 + i * spacing, 0.5] for i in range(k)])
    return build_graph(PointSet(pts), r)


def corpus_game(seed):
    """Graph and robber of nine-cop corpus game `seed`, horizon 60 n."""
    rng = np.random.default_rng(3000 + seed)
    n = 60 + 10 * (seed % 5)
    g = random_connected_rgg(n, 1.7 * math.sqrt(math.log(n) / n), rng)
    robber = GreedyRobber() if seed % 2 == 0 else RandomWalkRobber()
    return g, robber, 60 * n


def star_graph(arms=3, arm_len=4, spacing=0.08, r=0.1):
    """Center 0 with straight arms; arm k, step i (1-based) is 1 + arm_len*k + i-1."""
    pts = [[0.5, 0.5]]
    for k in range(arms):
        ang = math.pi / 2 + 2 * math.pi * k / arms
        pts += [[0.5 + i * spacing * math.cos(ang), 0.5 + i * spacing * math.sin(ang)]
                for i in range(1, arm_len + 1)]
    return build_graph(PointSet(np.array(pts)), r)


def meet_only_at(g, seg, other, terminals) -> bool:
    """Closed segments (vertex pairs) share no point other than a common terminal."""
    def geo(s):
        return Segment(g.point(s[0]), g.point(s[1]))
    if not segments_intersect(geo(seg), geo(other)):
        return True
    shared = set(seg) & set(other) & set(terminals)
    if len(shared) != 1:
        return False
    t = shared.pop()
    # pull each segment's end at t back by 1e-3 of its length: nothing may meet
    def trimmed(s):
        far = s[1] if s[0] == t else s[0]
        a, b = np.asarray(g.point(t)), np.asarray(g.point(far))
        return Segment(tuple(a + 1e-3 * (b - a)), tuple(b))
    return (not segments_intersect(trimmed(seg), geo(other))
            and not segments_intersect(geo(seg), trimmed(other)))


def patrolling_nine_cop(g, paths):
    """Nine-cop policy whose three triples patrol `paths`, oldest first."""
    pol = NineCopPolicy(g)
    for stage, (unit, path) in enumerate(zip(pol.units, paths)):
        unit.tracker = _PathTracker(g, path, n_cops=3)
        unit.patrolling = True
        unit.birth_stage = stage
    return pol


class ChordRecorder(NineCopPolicy):
    """Nine-cop policy that records each chord with the patrols it joins."""

    def __init__(self, g):
        super().__init__(g)
        self.chords = []
        self.chord_trackers = []

    def _start_stage(self, robber):
        others = self._patrolled_paths()
        super()._start_stage(robber)
        unit = self._working_unit()
        if others and unit is not None:
            path = unit.tracker.path
            if (path[0], path[-1]) == self.endpoints:
                self.chords.append((path, others))
                self.chord_trackers.append(unit.tracker)


class TestPathControl:
    def test_requires_shortest_path(self, rng):
        g = random_connected_rgg(40, 0.45, rng)
        path = far_pair_path(g)
        if len(path) >= 3:
            with pytest.raises(ValueError):
                path_control_cop(g, [path[0], path[-1], path[0]])

    def test_robber_stepping_onto_path_is_caught(self):
        g = line_graph(6)
        pol = path_control_cop(g, list(range(6)))
        # robber hops along the line toward the cop's end
        rob = ScriptedRobber([5, 4, 3, 2])
        trace = run_game(g, pol, rob, 20, seed=0)
        assert trace.outcome == "capture"

    def test_shadowing_stays_legal_over_long_runs(self, rng):
        g = random_connected_rgg(80, 0.3, rng)
        path = far_pair_path(g)
        pol = path_control_cop(g, path)
        trace = run_game(g, pol, GreedyRobber(), 2000, seed=5)
        # no PolicyError raised; liveness is the assertion
        assert trace.rounds_played >= 1

    def test_control_within_diam_plus_path_budget(self, rng):
        trials = 0
        for seed in range(40):
            g = random_connected_rgg(60, 0.35, np.random.default_rng(seed))
            path = far_pair_path(g)
            m = graph_metrics(g)
            pol = path_control_cop(g, path)
            trace = run_game(g, pol, GreedyRobber(), 500, seed=seed)
            budget = int(m.diameter) + len(path)
            if trace.outcome == "capture" and pol.control_round is None:
                continue  # captured before control was even needed
            assert pol.control_round is not None
            assert pol.control_round <= budget
            trials += 1
        assert trials >= 20

    def test_tracker_runs_one_bfs_per_source_set(self, rng, monkeypatch):
        g = random_connected_rgg(60, 0.35, rng)
        path = far_pair_path(g)
        calls = []

        def counting_bfs(g, sources, *args, **kwargs):
            calls.append(list(sources))
            return bfs(g, sources, *args, **kwargs)

        monkeypatch.setattr(pathcontrol, "bfs", counting_bfs)
        _PathTracker(g, path, n_cops=3)
        assert calls == [[path[0]], path]


class TestPatrolTriple:
    def test_flanker_separation_rule(self):
        # robber far away: center stays on the shadow, plus-flanker advances
        pts = [[0.05 + i * 0.08, 0.5] for i in range(7)] + [[0.9, 0.9]]
        g = build_graph(PointSet(np.array(pts)), 0.1)
        pol = patrol_triple(g, list(range(7)))
        rob = ScriptedRobber([7, 7, 7, 7])
        trace = run_game(g, pol, rob, 5, seed=0)
        assert trace.outcome == "survived"
        assert pol.tracker.positioned
        final_cops = trace.events[-1].cops
        assert final_cops == [0, 0, 1]  # (v_{-1}=v_0, v_0, v_1) around shadow 0

    def test_positioning_budget_on_random_rggs(self):
        done = 0
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            g = random_connected_rgg(80, 0.32, rng)
            path = far_pair_path(g)
            m = graph_metrics(g)
            pol = patrol_triple(g, path)
            trace = run_game(g, pol, GreedyRobber(), 400, seed=seed)
            budget = int(m.diameter) + 2 * (len(path) - 1)
            if pol.positioned_round is not None:
                assert pol.positioned_round <= budget
                done += 1
            else:
                assert trace.outcome == "capture"
                assert trace.capture_round <= budget
        assert done >= 15

    def test_no_crossing_without_capture(self):
        """The patrol property: every crossing is punished next cop move."""
        crossings = 0
        for seed in range(25):
            rng = np.random.default_rng(2000 + seed)
            g = random_connected_rgg(70, 0.33, rng)
            path = far_pair_path(g)
            pol = patrol_triple(g, path)
            robber = GreedyRobber() if seed % 2 == 0 else RandomWalkRobber()
            trace = run_game(g, pol, robber, 600, seed=seed)
            seq = [(e.round_index, e.robber) for e in trace.events
                   if e.mover == "robber"]
            for (r1, a), (r2, b) in zip(seq, seq[1:]):
                if pol.positioned_round is None or r2 <= pol.positioned_round:
                    continue
                if a != b and crosses_path(g, a, b, path):
                    crossings += 1
                    assert trace.outcome == "capture" and trace.capture_round == r2, \
                        f"seed {seed}: crossing at round {r2} unpunished"
        # crossings are rare for sensible robbers; the property must hold for all
        assert crossings >= 0


class TestTerritory:
    def test_territory_excludes_path_and_crossings(self, rng):
        g = random_connected_rgg(60, 0.35, rng)
        path = far_pair_path(g)
        robber = next(v for v in range(g.n) if v not in set(path))
        mask = territory(g, robber, [path])
        assert mask[robber]
        assert not mask[list(path)].any()

    def test_no_paths_means_everything(self, rng):
        g = random_connected_rgg(50, 0.35, rng)
        assert territory(g, 0, []).sum() == g.n


class TestNineCop:
    def test_capture_on_corpus(self):
        captures = 0
        for seed in range(25):
            rng = np.random.default_rng(3000 + seed)
            n = 60 + 10 * (seed % 5)
            g = random_connected_rgg(n, 1.7 * math.sqrt(math.log(n) / n), rng)
            pol = nine_cop_policy(g)
            robber = GreedyRobber() if seed % 2 == 0 else RandomWalkRobber()
            trace = run_game(g, pol, robber, 60 * n, seed=seed)
            assert trace.outcome == "capture", f"seed {seed}: escaped"
            captures += 1
            # territory is strictly nested at every stage transition
            sets = pol.territory_sets
            assert all(b < a for a, b in zip(sets, sets[1:])), \
                f"seed {seed}: territory did not shrink: {pol.territory_log}"
        assert captures == 25

    # sha256 of the JSON [events, outcome, capture round, territory_log] of
    # corpus games 0-9, recorded with the per-vertex BFS loops that ``bfs``
    # replaced; the vectorized search must reproduce every choice they made
    GOLDEN = ["3a0df367083c70e0", "a6a0ff7e6d151b25", "9afe87eed9777772",
              "e91e63a096550b1d", "090cbf7becbe9147", "8f8c2b1bf2fca1ae",
              "593fa76e5c0c6e34", "00ed72b91cc30d12", "5f3d0b144d2b1e6b",
              "30c7eb2d159d211f"]

    @pytest.mark.parametrize("seed", range(10))
    def test_corpus_traces_match_golden_digests(self, seed):
        g, robber, horizon = corpus_game(seed)
        pol = nine_cop_policy(g)
        trace = run_game(g, pol, robber, horizon, seed=seed)
        events = [[e.round_index, e.mover, e.robber, e.cops] for e in trace.events]
        text = json.dumps([events, trace.outcome, trace.capture_round,
                           pol.territory_log])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.GOLDEN[seed]

    def test_chords_meet_patrols_only_at_terminals(self):
        # corpus seed 4 once dropped a bounding patrol after a crossing chord
        g, robber, horizon = corpus_game(4)
        pol = ChordRecorder(g)
        trace = run_game(g, pol, robber, horizon, seed=4)
        assert trace.outcome == "capture"
        assert pol.chords
        for chord, others in pol.chords:
            for seg in zip(chord, chord[1:]):
                for path in others:
                    for other in zip(path, path[1:]):
                        assert meet_only_at(g, seg, other, pol.endpoints), \
                            f"chord edge {seg} meets patrol edge {other}"

    @pytest.mark.parametrize("seed", [4, 8, 16, 24, 104])
    def test_chord_shadow_measured_where_chord_is_shortest(self, seed):
        g, robber, horizon = corpus_game(seed)
        pol = ChordRecorder(g)
        run_game(g, pol, robber, horizon, seed=seed)
        assert pol.chord_trackers
        for tr in pol.chord_trackers:
            # the shadow metric makes the chord isometric: dist(u, path[i]) == i
            assert [int(tr.dist_start[w]) for w in tr.path] == list(range(len(tr.path)))

    def test_release_refuses_non_redundant_patrols(self):
        # each arm is cut at its steps 2-3; dropping any cut frees that arm
        pol = patrolling_nine_cop(star_graph(), [[2, 3], [6, 7], [10, 11]])
        with pytest.raises(PolicyError, match=r"round 7: .*no patrol is redundant"):
            pol._release_redundant(0, 7)
        assert all(u.patrolling for u in pol.units)

    def test_release_drops_oldest_redundant_patrol(self):
        # arm 0 cut twice (outer cut oldest), arm 1 cut once, arm 2 open
        pol = patrolling_nine_cop(star_graph(), [[3, 4], [2, 3], [6, 7]])
        pol._release_redundant(0, 7)
        assert pol.units[0].tracker is None and not pol.units[0].patrolling
        assert pol.units[1].patrolling and pol.units[2].patrolling

    def test_seed_104_captures(self):
        # a crossing chord once restarted a stage every round here
        g, robber, horizon = corpus_game(104)
        pol = nine_cop_policy(g)
        trace = run_game(g, pol, robber, horizon, seed=104)
        assert trace.outcome == "capture"
        sets = pol.territory_sets
        assert all(b < a for a, b in zip(sets, sets[1:]))

    def test_path_graph_captured_without_splitting(self):
        g = line_graph(9)
        pol = nine_cop_policy(g)
        trace = run_game(g, pol, GreedyRobber(), 200, seed=1)
        assert trace.outcome == "capture"
        assert len(pol.territory_log) <= 1  # never needed a second stage
