"""Explicit instances: the 1440-vertex annular graph and necklace witnesses.

The annular construction is a 3-regular geometric graph of girth 5 with unit
connectivity radius, built from two boundary rings of an annulus (inner
radius 55, outer 57) plus two interleaved interior rings, one vertex per half
degree; pentagons tile the annulus, giving the degree/girth lower bound of 3
on the cop number.

A necklace witness certifies that a geometric graph is not cop-win: for a
regular N-gon with side rho1 = r - r/N^2 and corner discs of radius
rho2 = r/(2 N^2), each corner disc must hold exactly one input point, and
that point must be the unique common neighbor of its two cyclic neighbors.
Those N matched points then form a cycle none of whose vertices can ever be
dominated, so dismantling stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geograph import GeometricGraph, PointSet, _ball_points, build_graph, girth
from .geometry import DEFAULT_TOL, Point2, polar_deg


class ConstructionError(RuntimeError):
    """A constructed instance failed its own validity checks."""


# ---------------------------------------------------------------------------
# annular 3-cop construction
# ---------------------------------------------------------------------------

def annular_points() -> PointSet:
    """The 1440 vertex locations, one pentagon per degree of the annulus.

    A-ring (55 : t) and B-ring (57 : t + 1/2) for integer degrees t; interior
    C-ring at integer degrees alternating radii 55.5 / 55.85 and D-ring at
    half degrees alternating 56 / 56.35 (the drawn-figure pattern).
    """
    pts = []
    for t in range(1, 361):
        pts.append(polar_deg(55.0, t))                              # A_t
    for t in range(1, 361):
        pts.append(polar_deg(57.0, t + 0.5))                        # B_t
    for t in range(1, 361):
        pts.append(polar_deg(55.5 if t % 2 == 0 else 55.85, t))     # C_t
    for t in range(1, 361):
        pts.append(polar_deg(56.0 if t % 2 == 0 else 56.35, t + 0.5))  # D_t
    return PointSet(np.asarray(pts, dtype=np.float64))


def annular_graph() -> GeometricGraph:
    """The full construction with connectivity radius 1, self-checked.

    Aborts if the result is not the intended 1440-vertex 3-regular graph of
    girth 5.
    """
    g = build_graph(annular_points(), 1.0)
    if g.n != 1440:
        raise ConstructionError(f"annular graph has {g.n} vertices, wanted 1440")
    degrees = g.degrees()
    if degrees.min() != 3 or degrees.max() != 3:
        raise ConstructionError(
            f"annular graph not 3-regular (degrees {degrees.min()}..{degrees.max()})")
    gg = girth(g)
    if gg != 5:
        raise ConstructionError(f"annular graph has girth {gg}, wanted 5")
    return g


def annular_edge_lengths() -> tuple[float, float]:
    """Chord lengths of successive outer- and inner-boundary vertices."""
    outer = 2.0 * 57.0 * math.sin(math.radians(0.5))
    inner = 2.0 * 55.0 * math.sin(math.radians(0.5))
    return outer, inner


# ---------------------------------------------------------------------------
# necklace machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NecklaceParams:
    N: int
    rho1: float
    rho2: float
    polygon_diam: float
    lattice_spacing: float

    @property
    def circumradius(self) -> float:
        return self.rho1 / (2.0 * math.sin(math.pi / self.N))


@dataclass(frozen=True)
class NecklaceWitness:
    center: Point2
    corners: tuple[Point2, ...]
    matched: tuple[int, ...]  # vertex indices j_0..j_{N-1}


def necklace_params(n: int, r: float) -> NecklaceParams:
    """N = ceil((n pi r^2)^(1/4)); side, corner radius, and lattice spacing."""
    if n < 1 or r <= 0:
        raise ValueError("necklace_params: need n >= 1 and r > 0")
    N = math.ceil((n * math.pi * r * r) ** 0.25)
    if N < 3:
        raise ValueError(f"necklace_params: N={N} < 3, no polygon at this density")
    rho1 = r - r / N ** 2
    rho2 = r / (2.0 * N ** 2)
    circ = rho1 / (2.0 * math.sin(math.pi / N))
    if N % 2 == 0:
        diam = 2.0 * circ
    else:
        diam = 2.0 * circ * math.cos(math.pi / (2.0 * N))
    return NecklaceParams(N, rho1, rho2, diam, 10.0 * diam)


def corner_chord(params: NecklaceParams) -> float:
    """Distance between next-nearest corners, 2 rho1 cos(pi/N)."""
    return 2.0 * params.rho1 * math.cos(math.pi / params.N)


def place_polygon(center, params: NecklaceParams) -> list[Point2]:
    """Corners of the regular N-gon with side rho1, first corner at angle 0.

    Rejected if any corner leaves the unit square.
    """
    corners = []
    rc = params.circumradius
    for i in range(params.N):
        a = 2.0 * math.pi * i / params.N
        p = Point2(center[0] + rc * math.cos(a), center[1] + rc * math.sin(a))
        if not (0.0 <= p.x <= 1.0 and 0.0 <= p.y <= 1.0):
            raise ValueError(f"place_polygon: corner {i} at {p} leaves the square")
        corners.append(p)
    return corners


def witness_check(ps: PointSet, r: float, corners, rho2: float,
                  tree: cKDTree | None = None, explain: bool = False,
                  tol: float = DEFAULT_TOL):
    """Verify the two witness conditions against a point set.

    Condition 1: each corner disc B(c_i, rho2) holds exactly one point x_(j_i).
    Condition 2: x_(j_i) is the unique point within r of both x_(j_(i-1)) and
    x_(j_(i+1)) (indices mod N).  Returns the witness, or None; with
    explain=True returns (witness_or_None, failure_reason_or_None).
    """
    N = len(corners)
    if tree is None:
        tree = cKDTree(ps.coords)

    def fail(reason):
        return (None, reason) if explain else None

    matched = []
    for i, c in enumerate(corners):
        inside = _ball_points(tree, c, rho2, tol=tol)
        if inside.size != 1:
            return fail(f"corner disc {i} holds {inside.size} points, wanted 1")
        matched.append(int(inside[0]))

    coords = ps.coords
    for i in range(N):
        a = coords[matched[(i - 1) % N]]
        b = coords[matched[(i + 1) % N]]
        common = _ball_points(tree, a, r, b, r, tol)
        if common.size != 1 or int(common[0]) != matched[i]:
            return fail(
                f"lens {i} common-neighbor set {list(map(int, common))} != "
                f"[{matched[i]}]")

    center = Point2(float(np.mean([c[0] for c in corners])),
                    float(np.mean([c[1] for c in corners])))
    witness = NecklaceWitness(center, tuple(Point2(*c) for c in corners),
                              tuple(matched))
    return (witness, None) if explain else witness


def witness_lattice(params: NecklaceParams) -> np.ndarray:
    """Scan-center coordinates: origin at half a spacing, step one spacing."""
    L = params.lattice_spacing
    return np.arange(L / 2.0, 1.0, L)


def find_witness(ps: PointSet, r: float,
                 params: NecklaceParams | None = None) -> NecklaceWitness | None:
    """Scan a lattice of polygon centers and return the first witness found.

    Lattice spacing is 10x the polygon diameter, origin at half a spacing,
    scanned row-major (y outer, x inner) for determinism.  Parameters default
    to necklace_params(len(ps), r).
    """
    if params is None:
        params = necklace_params(len(ps), r)
    tree = cKDTree(ps.coords)
    centers = witness_lattice(params)
    for y in centers:
        for x in centers:
            try:
                corners = place_polygon((float(x), float(y)), params)
            except ValueError:
                continue
            w = witness_check(ps, r, corners, params.rho2, tree=tree)
            if w is not None:
                return w
    return None


def witness_to_json(w: NecklaceWitness) -> dict:
    return {
        "format_version": 1,
        "center": [w.center.x, w.center.y],
        "corners": [[p.x, p.y] for p in w.corners],
        "matched": list(w.matched),
    }


# ---------------------------------------------------------------------------
# planted instances (test fixtures with a witness by construction)
# ---------------------------------------------------------------------------

@dataclass
class PlantedInstance:
    pointset: PointSet
    r: float
    center: Point2
    params: NecklaceParams
    corners: list[Point2]
    cycle: list[int]  # indices of the cycle points (the matched vertices)


def _symmetric_octagon_corners(cx: float, cy: float, circ: float) -> list[Point2]:
    """Octagon corners whose center distances fall into two exact classes.

    Axis corners use offsets (+-c, 0) / (0, +-c) and diagonal corners
    (+-a, +-a): within each class the recomputed np.hypot distances are
    bit-identical, so no corner is ever strictly closer to the center than a
    cyclic neighbor from its own class.  Cyclic neighbors always come from
    opposite classes; whichever class rounds closer, every corner's inward
    neighborhood is then either empty or a pair of next-nearest corners,
    leaving all eight corners without an inward dominator.
    """
    a = circ * math.sqrt(0.5)
    offs = [(circ, 0.0), (a, a), (0.0, circ), (-a, a),
            (-circ, 0.0), (-a, -a), (0.0, -circ), (a, -a)]
    return [Point2(cx + dx, cy + dy) for dx, dy in offs]


def plant_witness_instance(r: float, N: int = 6, center=None,
                           n_clutter: int | None = None, seed=0,
                           max_tries: int = 64,
                           ensure_center_condition: bool = False) -> PlantedInstance:
    """Build a point set holding a necklace witness by construction.

    Cycle points sit on the polygon corners.  Clutter points hang radially
    outward from the corners, outside every corner disc and every
    common-neighbor lens, so they never disturb the witness conditions.  By
    default the polygon sits on a scan-lattice center, so
    find_witness(ps, r, params) locates it.  N >= 5 keeps next-nearest
    corners non-adjacent.

    With ensure_center_condition (N must be 8; see
    _symmetric_octagon_corners) the instance is regenerated until the
    center-pitfall check flags exactly the cycle as violators.
    """
    if N < 5:
        raise ValueError("plant_witness_instance: need N >= 5")
    if ensure_center_condition and N != 8:
        raise ValueError("ensure_center_condition requires N == 8")
    rho1 = r - r / N ** 2
    rho2 = r / (2.0 * N ** 2)
    circ = rho1 / (2.0 * math.sin(math.pi / N))
    diam = 2.0 * circ if N % 2 == 0 else 2.0 * circ * math.cos(math.pi / (2 * N))
    params = NecklaceParams(N, rho1, rho2, diam, 10.0 * diam)
    if center is None:
        lattice = witness_lattice(params)
        if lattice.size == 0:
            raise ValueError("plant_witness_instance: polygon too large for "
                             "the unit square at this r")
        # prefer a center away from the 0.5 binade boundary (exact classes)
        pick = float(lattice[int(np.argmin(np.abs(lattice - 0.75)))])
        center = (pick, pick)
    cx, cy = float(center[0]), float(center[1])
    if ensure_center_condition:
        corners = _symmetric_octagon_corners(cx, cy, circ)
    else:
        corners = place_polygon(center, params)
    if n_clutter is None:
        n_clutter = 2 * N

    rng = np.random.default_rng(seed)
    corner_arr = np.asarray(corners, dtype=np.float64)

    for _ in range(max_tries):
        pts = [tuple(c) for c in corners]
        ok = True
        for _ in range(n_clutter):
            placed = False
            for _attempt in range(200):
                i = int(rng.integers(N))
                delta = float(rng.uniform(0.45 * r, 0.85 * r))
                ang = 2.0 * math.pi * i / N + float(rng.uniform(-0.05, 0.05))
                q = (cx + (circ + delta) * math.cos(ang),
                     cy + (circ + delta) * math.sin(ang))
                if not (0.0 <= q[0] <= 1.0 and 0.0 <= q[1] <= 1.0):
                    continue
                d_corners = np.hypot(corner_arr[:, 0] - q[0], corner_arr[:, 1] - q[1])
                if (d_corners <= rho2 * 3.0).any():
                    continue  # keep well out of the corner discs
                # outside every common-neighbor lens: never within r of two
                # next-nearest corners at once
                in_r = d_corners <= r * (1.0 + 1e-6)
                bad_lens = False
                for k in range(N):
                    if in_r[(k - 1) % N] and in_r[(k + 1) % N]:
                        bad_lens = True
                        break
                if bad_lens:
                    continue
                pts.append(q)
                placed = True
                break
            if not placed:
                ok = False
                break
        if not ok:
            continue
        ps = PointSet(np.asarray(pts, dtype=np.float64))
        w = witness_check(ps, r, corners, rho2)
        if w is None or list(w.matched) != list(range(N)):
            continue
        if ensure_center_condition:
            from .solver import center_pitfall_check
            check = center_pitfall_check(build_graph(ps, r), (cx, cy))
            if set(check.violators) != set(range(N)):
                continue
        return PlantedInstance(ps, r, Point2(cx, cy), params, corners,
                               list(range(N)))
    raise ConstructionError("plant_witness_instance: could not satisfy all "
                            "constraints; widen the square or lower n_clutter")
