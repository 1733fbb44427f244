from .engine import (
    CopPolicy,
    GameView,
    PolicyError,
    RobberPolicy,
    Trace,
    TraceEvent,
    replay_verify,
    run_game,
)
from .movetypes import (
    BUDGET_CONSTANT,
    MoveAudit,
    PotentialAuditReport,
    T4_MIN_GAIN_FACTOR,
    classify_move,
    displacement_polar,
    normalize_theta,
    potential_audit,
)
from .ninecop import NineCopPolicy, nine_cop_policy, territory
from .pathcontrol import (
    PathControlPolicy,
    PatrolTriplePolicy,
    crosses_path,
    is_shortest_path,
    path_control_cop,
    patrol_triple,
)
from .robbers import (
    GreedyRobber,
    RandomWalkRobber,
    ScriptedRobber,
    SolverCops,
    SolverRobber,
    StationaryCops,
    StationaryRobber,
)
from .twocop import (
    DaggerViolationError,
    StrategyConstants,
    TwoCopPolicy,
)

__all__ = [
    "BUDGET_CONSTANT", "CopPolicy", "DaggerViolationError", "GameView",
    "GreedyRobber", "MoveAudit", "NineCopPolicy", "PathControlPolicy",
    "PatrolTriplePolicy", "PolicyError", "PotentialAuditReport",
    "RandomWalkRobber", "RobberPolicy", "ScriptedRobber", "SolverCops",
    "SolverRobber", "StationaryCops", "StationaryRobber", "StrategyConstants",
    "T4_MIN_GAIN_FACTOR", "Trace", "TraceEvent", "TwoCopPolicy",
    "classify_move", "crosses_path", "displacement_polar",
    "is_shortest_path", "nine_cop_policy", "normalize_theta",
    "path_control_cop", "patrol_triple", "potential_audit", "replay_verify",
    "run_game", "territory",
]
