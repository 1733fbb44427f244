import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import shortest_path as csgraph_shortest_path

from geocops import (
    Graph,
    PointSet,
    bfs,
    bfs_distances,
    build_graph,
    degree_girth_lower_bound,
    girth,
    graph_from_json,
    graph_metrics,
    graph_to_json,
    read_points_csv,
    shortest_path,
    write_points_csv,
)

from oracles import bfs_reference, brute_adjacency, brute_girth, petersen_edges

CORNERS = PointSet(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))


def uniform(n, seed):
    return np.random.default_rng(seed).random((n, 2))


def golden_case(name):
    """Points and radius of one golden build, from its name."""
    if name == "empty":
        return np.empty((0, 2)), 0.5
    if name == "single":
        return uniform(1, 1), 0.5
    if name == "pair_exact":
        return np.array([[0.0, 0.0], [0.25, 0.0]]), 0.25
    if name == "pair_past_tol":
        return np.array([[0.0, 0.0], [0.25 + 1.5e-9, 0.0]]), 0.25
    if name == "lattice_tenth":  # spacing 0.1 is not exact: tol decides
        xs, ys = np.meshgrid(np.arange(11) * 0.1, np.arange(11) * 0.1)
        return np.column_stack([xs.ravel(), ys.ravel()]), 0.1
    if name == "dups_260":
        base = uniform(200, 2)
        return np.vstack([base, base[:60]]), 0.1
    n, r = name[1:].split("_r")
    seed = {"260": 3, "2000": 4, "3000": 5}[n]
    return uniform(int(n), seed), float(r)


GOLDEN_CSR = [
    ("empty", 0, "05fe405753166f125559e7c9ac558654f107c7e9"),
    ("single", 0, "e129f27c5103bc5cc44bcdf0a15e160d445066ff"),
    ("pair_exact", 1, "26eba8e4609dcdde65f96fd05e714972e9772cb3"),
    ("pair_past_tol", 0, "d3399b7262fb56cb9ed053d68db9291c410839c4"),
    ("lattice_tenth", 220, "50118a225dbbd5f8706b093a4cf72babfb8c5bc0"),
    ("dups_260", 1022, "36b2143aa11483277dc66447cdd4c36ad0bc4e84"),
    ("u260_r0.293", 7238, "ee34371f479220b1b0a16a7553bc291339e24f09"),
    ("u2000_r0.01", 634, "0fd3dc95e85f53e5483ef56e8fe7853bd0e47f3b"),
    ("u2000_r0.05", 15102, "db43b541ff7c39e9a7f9c86ef121e0920bd7a616"),
    ("u2000_r0.3", 420891, "ebc281833b67b18f5f55a9dd89441524fe1f7c5d"),
    ("u2000_r1.414", 1999000, "c30565b214c83af26b9d89294b7e2ebf304db8db"),
    ("u3000_r0.6826", 3240443, "f5e6ecface4ba0323e9329f615f8f80bbbe6dc0e"),
]


class TestBuildGraph:
    def test_unit_square_corners_make_a_4cycle(self):
        g = build_graph(CORNERS, 1.0)
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_r_sqrt2_is_complete(self, rng):
        ps = PointSet(rng.random((40, 2)))
        g = build_graph(ps, math.sqrt(2))
        assert g.num_edges() == 40 * 39 // 2

    def test_isolated_vertex(self):
        ps = PointSet(np.array([[0, 0], [0.5, 0], [1.2, 0]], float))
        g = build_graph(ps, 0.5)
        assert set(g.edges()) == {(0, 1)}

    def test_matches_bruteforce(self, rng):
        for n, r in ((30, 0.2), (60, 0.35), (25, 0.9), (50, 0.05)):
            ps = PointSet(rng.random((n, 2)))
            g = build_graph(ps, r)
            assert set(g.edges()) == set(brute_adjacency(ps.coords, r))

    def test_exact_distance_r_is_adjacent(self):
        ps = PointSet(np.array([[0, 0], [0.25, 0]], float))
        g = build_graph(ps, 0.25)
        assert g.adjacent(0, 1)

    def test_duplicates_permitted(self):
        ps = PointSet(np.array([[0.5, 0.5], [0.5, 0.5]], float))
        g = build_graph(ps, 0.1)
        assert g.adjacent(0, 1)

    @pytest.mark.parametrize("name, edges, sha1", GOLDEN_CSR, ids=[c[0] for c in GOLDEN_CSR])
    def test_csr_matches_golden_digest(self, name, edges, sha1):
        # digests of (indptr int64, indices int32) recorded with the
        # grid-bucket build this kd-tree build replaced
        pts, r = golden_case(name)
        g = build_graph(PointSet(pts), r)
        assert g.num_edges() == edges
        h = hashlib.sha1(g.indptr.astype(np.int64).tobytes())
        h.update(g.indices.astype(np.int32).tobytes())
        assert h.hexdigest() == sha1


# dyadic coordinates give exact distance ties (e.g. 3-4-5 triangles)
coord = st.integers(0, 16).map(lambda k: k / 16) | st.floats(0, 1)
point = st.tuples(coord, coord)
# offsets around the closed-ball boundary and its 1e-9 tolerance
boundary_offset = st.sampled_from([-3e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9,
                                   1.5e-9, 2e-9, 3e-9])


@st.composite
def ball(draw, pts):
    """A ball (center, radius), often with some point on or near its boundary."""
    center = draw(point)
    if pts and draw(st.booleans()):
        p = pts[draw(st.integers(0, len(pts) - 1))]
        radius = math.dist(center, p) + draw(boundary_offset)
    else:
        radius = draw(st.integers(-2, 24).map(lambda k: k / 16) | st.floats(-0.5, 1.5))
    return center, radius


def brute_ball(coords, center, radius, tol=1e-9):
    """Closed ball of radius + tol; empty when that is negative."""
    d = coords - np.asarray(center, float)
    return ((d ** 2).sum(axis=1) <= (radius + tol) ** 2) & (radius + tol >= 0)


class TestBallQueries:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_match_bruteforce_filter(self, data):
        pts = data.draw(st.lists(point, max_size=40))
        coords = np.asarray(pts, float).reshape(-1, 2)
        g = build_graph(PointSet(coords), 0.1)
        c1, r1 = data.draw(ball(pts))
        c2, r2 = data.draw(ball(pts))
        in1 = brute_ball(coords, c1, r1)
        assert g.points_within(c1, r1).tolist() == np.flatnonzero(in1).tolist()
        both = np.flatnonzero(in1 & brute_ball(coords, c2, r2))
        assert g.points_in_two_balls(c1, r1, c2, r2).tolist() == both.tolist()


class TestFromEdges:
    @pytest.mark.parametrize("n, edges, indptr, indices", [
        (4, [], [0, 0, 0, 0, 0], []),
        (3, [(0, 0), (0, 1)], [0, 1, 2, 2], [1, 0]),            # self-loop dropped
        (3, [(5, 5), (1, 2)], [0, 0, 1, 2], [2, 1]),            # ... before the range check
        (3, [(0, 1), (1, 0), (0, 1), (2, 1)], [0, 1, 3, 4], [1, 0, 2, 1]),  # pairs collapse
        (3, [(0, 3)], ValueError, None),                         # endpoint out of range
        (3, [(-1, 0)], ValueError, None),
        (3, [(0, 1, 2)], ValueError, None),                      # not a pair
    ])
    def test_rules(self, n, edges, indptr, indices):
        if indptr is ValueError:
            with pytest.raises(ValueError):
                Graph.from_edges(n, edges)
            return
        g = Graph.from_edges(n, edges)
        assert g.indptr.tolist() == indptr
        assert g.indices.tolist() == indices


class TestNeighborhoods:
    def test_isolated(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert list(g.closed_neighborhood(2)) == [2]

    def test_star_center(self):
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert list(g.closed_neighborhood(0)) == [0, 1, 2, 3, 4]

    def test_cycle_vertex(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert list(g.closed_neighborhood(0)) == [0, 1, 3]

    def test_invalid_vertex_raises(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(IndexError):
            g.closed_neighborhood(5)


class TestShortestPath:
    def test_single_vertex(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert shortest_path(g, 1, 1) == [1]

    def test_whole_path(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert shortest_path(g, 0, 4) == [0, 1, 2, 3, 4]

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_length_matches_bfs_and_edges_adjacent(self, rng):
        # random RGGs: path length == BFS distance, consecutive pairs adjacent
        for _ in range(10):
            ps = PointSet(rng.random((40, 2)))
            g = build_graph(ps, 0.35)
            d = bfs_distances(g, [0])
            for v in range(g.n):
                path = shortest_path(g, 0, v)
                if d[v] < 0:
                    assert path is None
                    continue
                assert len(path) - 1 == d[v]
                assert all(g.adjacent(a, b) for a, b in zip(path, path[1:]))

    def test_lowest_index_predecessor(self):
        # both 1 and 2 reach 3; the path must come through 1
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert shortest_path(g, 0, 3) == [0, 1, 3]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 24))
    vertex = st.integers(0, n - 1)
    return Graph.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=70)))


def hashed_edge_filter(salt):
    """A fixed pseudo-random subset of the directed edges, tested on arrays."""
    def edge_ok(src, dst):
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        return (src * 7919 + dst * 104729 + salt) % 3 != 0
    return edge_ok


class TestBFS:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_loop(self, data):
        g = data.draw(small_graphs())
        vertex = st.integers(0, g.n - 1)
        sources = data.draw(st.lists(vertex, max_size=4))
        mask = data.draw(st.none() | st.lists(st.booleans(), min_size=g.n,
                                               max_size=g.n).map(np.array))
        salt = data.draw(st.none() | st.integers(0, 2))
        edge_ok = None if salt is None else hashed_edge_filter(salt)
        dist, parent = bfs(g, sources, mask, edge_ok)
        ref_dist, ref_parent = bfs_reference(g, sources, mask, edge_ok)
        assert dist.tolist() == ref_dist.tolist()
        assert parent.tolist() == ref_parent.tolist()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_distances_match_csgraph(self, data):
        g = data.draw(small_graphs())
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
        ref = csgraph_shortest_path(g.to_scipy(), unweighted=True, directed=False,
                                    indices=sources).min(axis=0)
        ref = np.where(np.isinf(ref), -1, ref).astype(np.int64)
        assert bfs(g, sources)[0].tolist() == ref.tolist()

    def test_sources_are_their_own_parents_and_never_masked_out(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dist, parent = bfs(g, [1], mask=np.array([True, False, True, False]))
        assert dist.tolist() == [1, 0, 1, -1]
        assert parent.tolist() == [1, 1, 1, -1]


class TestMetrics:
    def test_five_cycle(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        m = graph_metrics(g)
        assert (m.diameter, m.girth, m.min_degree, m.connected) == (2, 5, 2, True)

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        m = graph_metrics(g)
        assert m.diameter == math.inf
        assert m.girth == math.inf
        assert not m.connected

    def test_triangle_girth(self, rng):
        # any graph with three pairwise-close points has girth 3
        base = rng.random(2) * 0.5 + 0.25
        pts = np.vstack([base + rng.random(2) * 0.01 for _ in range(3)]
                        + [rng.random(2) for _ in range(20)])
        g = build_graph(PointSet(pts), 0.05)
        assert girth(g) == 3

    def test_girth_matches_edge_deletion_oracle(self, rng):
        for _ in range(15):
            ps = PointSet(rng.random((25, 2)))
            g = build_graph(ps, 0.3)
            assert girth(g) == brute_girth(g.n, g.edges())

    def test_petersen(self):
        g = Graph.from_edges(10, petersen_edges())
        m = graph_metrics(g)
        assert (m.diameter, m.girth, m.min_degree) == (2, 5, 3)


class TestDegreeGirthBound:
    def test_four_cycle_vacuous(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert degree_girth_lower_bound(g) == 1

    def test_petersen_gives_3(self):
        edges = petersen_edges()
        g = Graph.from_edges(10, edges)
        # independent check of the hypothesis
        assert brute_girth(10, edges) >= 5
        degs = np.zeros(10, int)
        for a, b in edges:
            degs[a] += 1
            degs[b] += 1
        assert degs.min() >= 3
        assert degree_girth_lower_bound(g) == int(degs.min()) == 3


class TestIO:
    def test_point_csv_roundtrip(self, rng, tmp_path):
        ps = PointSet(rng.random((25, 2)))
        path = tmp_path / "pts.csv"
        write_points_csv(ps, path, meta={"seed": 7})
        back = read_points_csv(path)
        assert np.array_equal(back.coords, ps.coords)

    def test_point_csv_headerless(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.25,0.5\n0.75,0.5\n")
        ps = read_points_csv(path)
        assert len(ps) == 2

    @pytest.mark.parametrize("text, line", [
        ("x,y\n0.1,0.2\n0.3,abc\n", 3),           # unparsable value
        ("# meta\n0.1,0.2\n\n0.5\n", 4),          # one column
        ("0.1,0.2\nx,y\n", 2),                     # a header only comes first
        ("x,y\n0.1,0.2,0.3\n", 2),                 # three columns
        ("nan,0.5\n", 1),                          # not finite
        ("0.2,0.2\n0.1,inf\n", 2),
    ])
    def test_point_csv_bad_row_raises_with_line_number(self, tmp_path, text, line):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f":{line}: "):
            read_points_csv(path)

    def test_graph_json_roundtrip_geometric(self, rng, tmp_path):
        ps = PointSet(rng.random((30, 2)))
        g = build_graph(ps, 0.3)
        doc = graph_to_json(g)
        assert doc["n"] == 30 and doc["r"] == 0.3
        g2 = graph_from_json(json.loads(json.dumps(doc)))
        assert set(g2.edges()) == set(g.edges())

    def test_graph_json_stored_edges_must_match_points(self, rng):
        g = build_graph(PointSet(rng.random((30, 2))), 0.3)
        doc = graph_to_json(g)
        doc["edges"].pop(3)
        with pytest.raises(ValueError, match="stored edges"):
            graph_from_json(doc)

    def test_graph_json_abstract(self):
        g = Graph.from_edges(10, petersen_edges())
        g2 = graph_from_json(graph_to_json(g))
        assert set(g2.edges()) == set(g.edges())
