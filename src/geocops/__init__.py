"""geocops: cops-and-robbers on geometric graphs.

Library + CLI for building geometric graphs, deciding the pursuit game
exactly at small scale, running the published pursuit strategies, and
measuring threshold behavior on random instances.
"""

from .geometry import (
    DEFAULT_TOL,
    DegenerateConfigError,
    LensRegion,
    Point2,
    Segment,
    clamp_to_square,
    dist,
    lens_area,
    lens_contains,
    lens_points,
    make_lens,
    polar_deg,
    segments_intersect,
)
from .geograph import (
    GeometricGraph,
    Graph,
    GraphMetrics,
    PointSet,
    bfs,
    bfs_distances,
    build_graph,
    degree_girth_lower_bound,
    girth,
    graph_from_json,
    graph_metrics,
    graph_to_json,
    load_graph_json,
    read_points_csv,
    save_graph_json,
    shortest_path,
    write_points_csv,
)
from .solver import (
    CenterCheckResult,
    DismantleResult,
    SolveTable,
    SolverBudgetError,
    center_order_dismantle,
    center_pitfall_check,
    cop_number,
    dismantle,
    find_pitfall,
    nb_set,
    solve_game,
)

__version__ = "0.1.0"
