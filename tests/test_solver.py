import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from geocops import (
    Graph,
    PointSet,
    build_graph,
    center_order_dismantle,
    center_pitfall_check,
    cop_number,
    dismantle,
    find_pitfall,
    nb_set,
    solve_game,
)
from geocops.solver import COPS, SolverBudgetError, _count_states, _working_set

from conftest import random_er_graph, random_rgg, random_tree
from oracles import forward_game_value, petersen_edges, solve_game_reference

P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestFindPitfall:
    def test_path_endpoint(self):
        assert find_pitfall(P3) == (0, 1)

    def test_four_cycle_has_none(self):
        assert find_pitfall(C4) is None

    def test_clique_returns_0_1(self):
        assert find_pitfall(K4) == (0, 1)

    def test_respects_active_set(self):
        # restricted to {0, 2} of P3 both are isolated: no dominator
        assert find_pitfall(P3, active=[0, 2]) is None

    def test_empty_active_raises(self):
        with pytest.raises(ValueError):
            find_pitfall(P3, active=[])


class TestDismantle:
    def test_trees_are_copwin(self, rng):
        for n in (2, 5, 9, 17, 40):
            res = dismantle(random_tree(n, rng))
            assert res.copwin
            assert len(res.removal_order) == n - 1

    def test_four_cycle_not_copwin(self):
        res = dismantle(C4)
        assert not res.copwin
        assert len(res.survivors) == 4

    def test_clique_from_r_sqrt2_points(self, rng):
        ps = PointSet(rng.random((12, 2)))
        g = build_graph(ps, math.sqrt(2))
        assert dismantle(g).copwin

    def test_removals_are_pitfalls_at_removal_time(self, rng):
        g = random_rgg(40, 0.3, rng)
        res = dismantle(g)
        active = set(range(g.n))
        for u, v in res.removal_order:
            nu = (set(int(x) for x in g.closed_neighborhood(u)) & active)
            nv = (set(int(x) for x in g.closed_neighborhood(v)) & active)
            assert v in active and v != u
            assert nu <= nv
            active.remove(u)
        assert active == set(res.survivors)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        assert dismantle(g).copwin


class TestSolveGame:
    def test_p5_one_cop(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert solve_game(g, 1).cops_win

    def test_c6_anchors(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert not solve_game(g, 1).cops_win
        assert solve_game(g, 2).cops_win

    def test_c6_matches_forward_search(self):
        adj = [[(i - 1) % 6, (i + 1) % 6] for i in range(6)]
        states = _count_states(6, 1)
        assert forward_game_value(adj, 1, 2 * states + 2) is False
        assert forward_game_value(adj, 2, 60) is True

    def test_p5_matches_forward_search(self):
        adj = [[j for j in (i - 1, i + 1) if 0 <= j < 5] for i in range(5)]
        assert forward_game_value(adj, 1, 40) is True

    def test_geometric_c4_one_cop_robber_wins(self):
        ps = PointSet(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
        g = build_graph(ps, 1.0)
        t = solve_game(g, 1)
        assert not t.cops_win
        assert not dismantle(g).copwin  # Theorem-1 direction on this instance

    def test_budget_error(self):
        g = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        with pytest.raises(SolverBudgetError):
            solve_game(g, 2, budget=100)

    def test_budget_counts_ordered_cop_tuples(self):
        # at k=3 the n^4 ordered cop tuples outnumber the multiset states
        # nearly threefold; a budget one entry short must refuse before allocating
        n, k = 100, 3
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        need = _working_set(n, k)
        assert need == _count_states(n, k) + n ** (k + 1)
        tracemalloc.start()
        try:
            with pytest.raises(SolverBudgetError) as err:
                solve_game(g, k, budget=need - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.states == need
        assert peak < 1 << 20

    def test_budget_admits_exact_working_set(self):
        g = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
        assert solve_game(g, 3, budget=_working_set(9, 3)).cops_win

    def test_disconnected_needs_cop_per_component(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not solve_game(g, 1).cops_win
        assert solve_game(g, 2).cops_win

    def test_cop_multiset_symmetry_is_canonical(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        t = solve_game(g, 2)
        for cops in ((0, 2), (2, 0)):
            assert t.is_cop_win(3, cops, 1) == t.is_cop_win(3, (0, 2), 1)

    def test_monotone_in_k(self, rng):
        for _ in range(10):
            g = random_er_graph(7, 0.35, rng)
            if solve_game(g, 1).cops_win:
                assert solve_game(g, 2).cops_win
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert solve_game(g, 2).cops_win and solve_game(g, 3).cops_win


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return Graph.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=30)))


def golden_graph(name):
    """Graph of one golden solve, from its name."""
    if name == "P5":
        return Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    if name == "C6":
        return Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    if name == "petersen":
        return Graph.from_edges(10, petersen_edges())
    n, c, seed = {"rgg200": (200, 2.0, 7), "rgg50": (50, 0.8, 8), "rgg20": (20, 0.8, 9)}[name]
    r = c * math.sqrt(math.log(n) / n)
    return build_graph(PointSet(np.random.default_rng(seed).random((n, 2))), r)


# (graph, k, cops_win, max depth, sha1 of labels then depth bytes), recorded
# with the per-state deque solver that the array-wide levels replaced
GOLDEN_TABLES = [
    ("rgg200", 1, True, 12, "c1c3de9cab0883501dc6aeaf5fbedd67a15ae2eb"),
    ("rgg50", 1, False, 17, "03a3cd0164b3e0e7e7be13cd318f31fcb2218c79"),
    ("rgg50", 2, False, 17, "c6c8b7e7952141d1eac08f888d6433bcfa55cfcf"),
    ("rgg20", 1, False, 8, "80b4c1f573f1d3ec05ac433f7617f6a7c7928b2e"),
    ("rgg20", 2, False, 8, "c3510599a272f16f609d79a6c0b62550ded3a3b8"),
    ("rgg20", 3, True, 8, "204b89cf5c004cb0d00007e0a95a9ed81f90bdb2"),
    ("P5", 1, True, 8, "a0f47bd64a69a3885d9b70b1beea754ca31f343c"),
    ("P5", 2, True, 8, "cc3ca1130efde2f4b31129d2cf31a78289a4cbb2"),
    ("P5", 3, True, 8, "395b68f59fa32aa19634e6b836bdf6db22f46166"),
    ("C6", 1, False, 1, "99ff7b1986a42d49586414e3faebe49100b47c60"),
    ("C6", 2, True, 6, "f68c3fd160f250f80aa5f76d218a7c82080b1489"),
    ("C6", 3, True, 6, "a073e334c4860ff84b3054d5d5a4ff83962740d8"),
    ("petersen", 1, False, 1, "cbcad3918070f0a2e2432d56e2236af10eded487"),
    ("petersen", 2, False, 1, "646230f6c27752bac6cba8d0a3065bd66231ce09"),
    ("petersen", 3, True, 4, "10a052c3aa080aa6f49102c183c56b6aa8cfe2e7"),
]


class TestSolveTableArrays:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), k=st.integers(1, 3))
    @example(g=Graph.from_edges(1, []), k=1)
    @example(g=Graph.from_edges(1, []), k=3)
    @example(g=Graph.from_edges(7, [(i, i + 1) for i in range(6)]), k=1)
    @example(g=Graph.from_edges(7, [(i, i + 1) for i in range(6)]), k=2)
    @example(g=Graph.from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5)]), k=2)
    @example(g=Graph.from_edges(6, []), k=3)
    def test_matches_reference_solver(self, g, k):
        table = solve_game(g, k)
        labels, depth = solve_game_reference(g, k)
        assert table.labels.tobytes() == labels.tobytes()
        assert table.depth.tobytes() == depth.tobytes()

    @pytest.mark.parametrize("name, k, cops_win, max_depth, sha1", GOLDEN_TABLES,
                             ids=[f"{c[0]}-k{c[1]}" for c in GOLDEN_TABLES])
    def test_matches_golden_digest(self, name, k, cops_win, max_depth, sha1):
        table = solve_game(golden_graph(name), k)
        assert table.cops_win is cops_win
        assert int(table.depth.max()) == max_depth
        h = hashlib.sha1(table.labels.tobytes())
        h.update(table.depth.tobytes())
        assert h.hexdigest() == sha1


class TestTheorem1Equivalence:
    def test_dismantlable_iff_one_cop_wins(self, rng):
        agree = 0
        for trial in range(120):
            n = int(rng.integers(2, 13))
            if trial % 2 == 0:
                g = random_er_graph(n, float(rng.uniform(0.15, 0.75)), rng)
            else:
                g = random_rgg(n, float(rng.uniform(0.2, 0.9)), rng)
            assert dismantle(g).copwin == solve_game(g, 1).cops_win
            agree += 1
        assert agree == 120


class TestCopNumber:
    def test_tree(self, rng):
        assert cop_number(random_tree(12, rng), 2) == 1

    def test_petersen(self):
        g = Graph.from_edges(10, petersen_edges())
        assert not solve_game(g, 2).cops_win
        assert solve_game(g, 3).cops_win
        assert cop_number(g, 3) == 3

    def test_exceeds_kmax(self):
        g = Graph.from_edges(10, petersen_edges())
        assert cop_number(g, 2) is None


class TestSolveTablePlay:
    def test_table_play_captures_within_state_count(self, rng):
        # the recommendation beats both the stalling table robber and
        # arbitrary random play, within |states| rounds
        from geocops.strategies import RandomWalkRobber, SolverCops, SolverRobber, run_game
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g = random_er_graph(n, 0.5, rng)
            t = solve_game(g, 1)
            if not t.cops_win:
                continue
            for robber in (SolverRobber(t), RandomWalkRobber()):
                trace = run_game(g, SolverCops(t), robber,
                                 max_rounds=_count_states(n, 1), seed=1)
                assert trace.outcome == "capture"
                assert trace.capture_round <= _count_states(n, 1)

    def test_two_cop_table_play_captures_within_depth(self):
        # the table moves a sorted cop multiset, which must be matched to the
        # cops it moves; pairing by list position made illegal moves here
        from geocops.strategies import SolverCops, SolverRobber, run_game
        n = 14
        r = 0.9 * math.sqrt(math.log(n) / n)
        played, seed = 0, -1
        while played < 25:
            seed += 1
            g = build_graph(PointSet(np.random.default_rng(seed).random((n, 2))), r)
            if connected_components(g.to_scipy(), directed=False)[0] != 1:
                continue
            t = solve_game(g, 2)
            if not t.cops_win:
                continue
            played += 1
            trace = run_game(g, SolverCops(t), SolverRobber(t), 100, seed=seed)
            depth = t.state_depth(trace.events[0].robber, trace.placement_cops, COPS)
            assert trace.outcome == "capture", f"seed {seed}"
            assert len(trace.events) - 1 <= depth, f"seed {seed}: half-moves past depth"

    def test_robber_table_survives_on_c6(self):
        from geocops.strategies import SolverCops, SolverRobber, run_game
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        t = solve_game(g, 1)
        trace = run_game(g, SolverCops(t), SolverRobber(t), 500, seed=3)
        assert trace.outcome == "survived"


class TestNbSet:
    def setup_method(self):
        self.c = (0.5, 0.5)

    def test_vertex_at_center(self):
        ps = PointSet(np.array([[0.5, 0.5], [0.6, 0.5], [0.4, 0.5]], float))
        g = build_graph(ps, 0.5)
        assert list(nb_set(g, 0, self.c)) == []

    def test_ray_pair(self):
        ps = PointSet(np.array([[0.8, 0.5], [0.85, 0.5]], float))
        g = build_graph(ps, 1.0)
        assert list(nb_set(g, 1, self.c)) == [0]
        assert list(nb_set(g, 0, self.c)) == []

    def test_equidistant_pair_excluded(self):
        # 0.25 offsets are exactly representable, so the tie is exact
        ps = PointSet(np.array([[0.75, 0.5], [0.25, 0.5]], float))
        g = build_graph(ps, 1.0)
        assert list(nb_set(g, 0, self.c)) == []
        assert list(nb_set(g, 1, self.c)) == []


class TestCenterPitfall:
    def test_vacuous_inside_half_r(self):
        ps = PointSet(np.array([[0.5, 0.5], [0.52, 0.5], [0.5, 0.53]], float))
        g = build_graph(ps, 0.5)
        res = center_pitfall_check(g, (0.5, 0.5))
        assert res.holds and res.violators == []

    def test_isolated_outer_vertex_violates(self):
        ps = PointSet(np.array([[0.5, 0.5], [0.95, 0.5]], float))
        g = build_graph(ps, 0.1)
        res = center_pitfall_check(g, (0.5, 0.5))
        assert not res.holds and res.violators == [1]

    def test_radial_chain_holds(self):
        # chain marching inward: each link dominated by the next-inner one
        xs = [0.95, 0.87, 0.79, 0.71, 0.63, 0.55, 0.51]
        ps = PointSet(np.array([[x, 0.5] for x in xs], float))
        g = build_graph(ps, 0.1)
        res = center_pitfall_check(g, (0.5, 0.5))
        assert res.holds


class TestCenterOrderDismantle:
    def test_clique(self, rng):
        ps = PointSet(0.5 + 0.01 * rng.standard_normal((8, 2)))
        g = build_graph(ps, 0.5)
        res = center_order_dismantle(g, (0.5, 0.5))
        assert res.copwin and res.failed_vertex is None

    def test_four_corners_fail(self):
        ps = PointSet(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
        g = build_graph(ps, 1.0)
        res = center_order_dismantle(g, (0.5, 0.5))
        assert not res.copwin
        assert res.failed_vertex is not None

    def test_descending_order(self, rng):
        g = random_rgg(30, 0.9, rng)
        res = center_order_dismantle(g, (0.5, 0.5))
        c = np.array([0.5, 0.5])
        d = np.hypot(*(g.pointset.coords - c).T)
        order = [u for u, _ in res.removal_order]
        assert all(d[a] >= d[b] - 1e-12 for a, b in zip(order, order[1:]))

    def test_success_implies_dismantlable(self, rng):
        # a successful ordered dismantling is a dismantling
        hits = 0
        for _ in range(20):
            g = random_rgg(40, 0.45, rng)
            res = center_order_dismantle(g, (0.5, 0.5))
            if res.copwin:
                hits += 1
                assert dismantle(g).copwin
        assert hits > 0

    def test_agrees_when_center_condition_holds(self, rng):
        # center condition => ordered removal succeeds and matches dismantle
        found = 0
        for _ in range(30):
            g = random_rgg(60, 0.55, rng)
            if not center_pitfall_check(g, (0.5, 0.5)).holds:
                continue
            found += 1
            res = center_order_dismantle(g, (0.5, 0.5))
            assert res.copwin
            assert dismantle(g).copwin
        assert found >= 3
