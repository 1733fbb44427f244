"""Random geometric graph ensembles and Monte Carlo sweeps.

Covers uniform sampling of the unit square, the tiling certificate for the
density condition (†) (every x in the square and y within r of it must have
an input point in B(x,r) ∩ B(y,s)), the radius formulas of the three density
regimes, and a reproducible sweep harness that reports empirical frequencies
with Wilson 95% intervals as CSV.

All randomness flows from one master seed: trial t uses
SeedSequence(master_seed, spawn_key=(t,)), so sweeps over a radius grid are
coupled trial-by-trial.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geograph import PointSet, _ball_points, build_graph

log = logging.getLogger(__name__)

SWEEP_CSV_HEADER = "n,r,regime,measurement,successes,trials,ci_lo,ci_hi,seconds"

MEASUREMENTS = (
    "copwin_rate",
    "center_condition_rate",
    "dagger_rate",
    "witness_rate",
    "two_cop_capture_rate",
    "cop_number_small",
)


@dataclass
class RegimeConstants:
    """K1 is the analysis value; K2 and K3 have no published numeric values,
    so these are desk-scale defaults chosen to make the phenomena visible."""

    K1: float = 3e5
    K2: float = 2.0
    K3: float = 0.2


@dataclass
class EnsembleSpec:
    n: int
    r: float | None = None
    regime: str | None = None  # two_cop | one_cop | lower
    trials: int = 1
    master_seed: int = 0
    constants: RegimeConstants = field(default_factory=RegimeConstants)

    def radius(self) -> float:
        if self.r is not None:
            return float(self.r)
        if self.regime is None:
            raise ValueError("EnsembleSpec: need either r or regime")
        return regime_radius(self.n, self.regime, self.constants)


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(trial_index,))


def sample_uniform(n: int, seed) -> PointSet:
    """n i.i.d. uniform points in the unit square; deterministic per seed."""
    if n < 1:
        raise ValueError("sample_uniform: n must be >= 1")
    rng = np.random.default_rng(seed)
    return PointSet(rng.random((n, 2)))


def regime_radius(n: int, regime: str, constants: RegimeConstants | None = None) -> float:
    """K1 (log n/n)^(1/4), K2 (log n/n)^(1/5), or K3 log n / sqrt(n)."""
    if n < 2:
        raise ValueError("regime_radius: n must be >= 2")
    k = constants or RegimeConstants()
    ln = math.log(n)
    if regime == "two_cop":
        K, val = k.K1, (ln / n) ** 0.25
    elif regime == "one_cop":
        K, val = k.K2, (ln / n) ** 0.2
    elif regime == "lower":
        K, val = k.K3, ln / math.sqrt(n)
    else:
        raise ValueError(f"regime_radius: unknown regime {regime!r}")
    if K <= 0:
        log.warning("regime_radius: degenerate constant K=%r", K)
        return 0.0
    return K * val


# ---------------------------------------------------------------------------
# condition (†)
# ---------------------------------------------------------------------------

def dagger_cell_size(n: int) -> float:
    """Tile size t = 1/ceil(sqrt(n / (2 log n))) for the (†) certificate."""
    if n < 2:
        raise ValueError("dagger_cell_size: n must be >= 2")
    return 1.0 / math.ceil(math.sqrt(n / (2.0 * math.log(n))))


@dataclass
class DaggerCertificate:
    sufficient: bool
    empty_cells: int
    t: float
    s_needed: float  # 2*sqrt(2)*t, the s that the occupied tiling certifies


def dagger_tiling_check(ps: PointSet, r: float, s: float) -> DaggerCertificate:
    """Sufficient certificate for (†): occupied t-tiling with 2*sqrt(2)*t <= s.

    A sample point within 2*sqrt(2)*t of any y in B(x, r) then lies inside
    B(x, r) ∩ B(y, s).  This certifies (†); a failed certificate decides
    nothing.
    """
    if not (r >= s > 0):
        raise ValueError("dagger_tiling_check: need r >= s > 0")
    t = dagger_cell_size(len(ps))
    k = round(1.0 / t)
    cells = np.floor(ps.coords / t).astype(np.int64)
    cells = np.clip(cells, 0, k - 1)
    occupied = np.zeros((k, k), dtype=bool)
    occupied[cells[:, 0], cells[:, 1]] = True
    empty = int(k * k - occupied.sum())
    s_needed = 2.0 * math.sqrt(2.0) * t
    return DaggerCertificate(empty == 0 and s_needed <= s, empty, t, s_needed)


def dagger_sampled_falsifier(ps: PointSet, r: float, s: float, trials: int,
                             seed) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Random search for a (†) counterexample pair (x, y); None if none found."""
    if trials < 1:
        raise ValueError("dagger_sampled_falsifier: trials must be >= 1")
    rng = np.random.default_rng(seed)
    if len(ps) == 0:
        x = tuple(rng.random(2))
        return x, x
    tree = cKDTree(ps.coords)
    for _ in range(trials):
        x = rng.random(2)
        while True:
            rho = r * math.sqrt(rng.random())
            phi = rng.random() * 2.0 * math.pi
            y = (x[0] + rho * math.cos(phi), x[1] + rho * math.sin(phi))
            if 0.0 <= y[0] <= 1.0 and 0.0 <= y[1] <= 1.0:
                break
        cand = _ball_points(tree, y, s)
        if cand.size:
            pts = ps.coords[cand]
            d2 = (pts[:, 0] - x[0]) ** 2 + (pts[:, 1] - x[1]) ** 2
            if (d2 <= r * r).any():
                continue
        return (float(x[0]), float(x[1])), (float(y[0]), float(y[1]))
    return None


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class SweepConfig:
    n_list: list[int]
    r_list: list[float] | None = None
    regime: str | None = None
    trials: int = 10
    master_seed: int = 0
    measurement: str = "copwin_rate"
    constants: RegimeConstants = field(default_factory=RegimeConstants)
    # measurement-specific knobs
    s: float | None = None          # (†) parameter; default 5*sqrt(log n / n)
    k_cops: int = 1                 # for cop_number_small
    horizon_relax: float = 10.0     # for two_cop_capture_rate
    robber: str = "greedy"          # for two_cop_capture_rate
    falsifier_trials: int = 0       # extra (†) falsifier search in dagger_rate


@dataclass
class SweepRow:
    n: int
    r: float
    regime: str
    measurement: str
    successes: int
    trials: int
    ci_lo: float
    ci_hi: float
    seconds: float

    def csv(self) -> str:
        return (f"{self.n},{self.r:.8g},{self.regime},{self.measurement},"
                f"{self.successes},{self.trials},{self.ci_lo:.6f},{self.ci_hi:.6f},"
                f"{self.seconds:.3f}")


def parse_sweep_config(text: str) -> SweepConfig:
    """key = value per line: n_list, r_list or regime+K, trials, seed, measurement."""
    raw: dict[str, str] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    if "n_list" not in raw:
        raise ValueError("sweep config: n_list is required")
    cfg = SweepConfig(n_list=[int(v) for v in raw["n_list"].split(",") if v])
    if "r_list" in raw:
        cfg.r_list = [float(v) for v in raw["r_list"].split(",") if v]
    if "regime" in raw:
        cfg.regime = raw["regime"]
    if "K" in raw:
        K = float(raw["K"])
        cfg.constants = RegimeConstants(K1=K, K2=K, K3=K)
    for key, cast in (("trials", int), ("seed", int), ("measurement", str),
                      ("s", float), ("k_cops", int), ("horizon_relax", float),
                      ("robber", str), ("falsifier_trials", int)):
        if key in raw:
            attr = "master_seed" if key == "seed" else key
            setattr(cfg, attr, cast(raw[key]))
    return cfg


def default_dagger_s(n: int) -> float:
    """The analysis default s = 5 sqrt(log n / n)."""
    return 5.0 * math.sqrt(math.log(n) / n)


def _measure_trial(measurement: str, ps: PointSet, r: float,
                   cfg: SweepConfig, seed_seq) -> bool | None:
    """Run one trial; True/False = success/failure, None = skipped."""
    # imports are local: several measurements pull in heavier machinery
    if measurement == "copwin_rate":
        from .solver import dismantle
        return dismantle(build_graph(ps, r)).copwin
    if measurement == "center_condition_rate":
        from .solver import center_pitfall_check
        return center_pitfall_check(build_graph(ps, r), (0.5, 0.5)).holds
    if measurement == "dagger_rate":
        s = cfg.s if cfg.s is not None else default_dagger_s(len(ps))
        s = min(s, r)
        cert = dagger_tiling_check(ps, r, s)
        if cert.sufficient and cfg.falsifier_trials:
            bad = dagger_sampled_falsifier(ps, r, s, cfg.falsifier_trials, seed_seq)
            if bad is not None:  # cannot happen if the certificate is correct
                log.error("certified (†) instance falsified at %r", bad)
                return False
        return cert.sufficient
    if measurement == "witness_rate":
        from .constructions import find_witness
        try:
            return find_witness(ps, r) is not None
        except ValueError:
            return None  # necklace parameters undefined at this (n, r)
    if measurement == "two_cop_capture_rate":
        from .strategies import (DaggerViolationError, GreedyRobber,
                                 RandomWalkRobber, StrategyConstants,
                                 TwoCopPolicy, run_game)
        g = build_graph(ps, r)
        s_cert = 2.0 * math.sqrt(2.0) * dagger_cell_size(len(ps))
        s = min(cfg.s if cfg.s is not None else s_cert, r)
        constants = StrategyConstants(r=r, s=s)
        policy = TwoCopPolicy(g, constants)
        robber = GreedyRobber() if cfg.robber == "greedy" else RandomWalkRobber()
        horizon = constants.horizon(cfg.horizon_relax)
        game_seed = int(seed_seq.generate_state(1)[0])
        try:
            trace = run_game(g, policy, robber, horizon, seed=game_seed)
        except DaggerViolationError:
            return False
        return trace.outcome == "capture"
    if measurement == "cop_number_small":
        from .solver import SolverBudgetError, solve_game
        try:
            return solve_game(build_graph(ps, r), cfg.k_cops).cops_win
        except SolverBudgetError:
            return None
    raise ValueError(f"unknown measurement {measurement!r}")


def sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Run the (n, r) grid; one row per grid point.

    Per-trial failures (solver budget, undefined parameters) are skipped and
    do not count toward the trial denominator.
    """
    if cfg.measurement not in MEASUREMENTS:
        raise ValueError(f"unknown measurement {cfg.measurement!r}")
    rows: list[SweepRow] = []
    regime_label = cfg.regime or "fixed_r"
    for n in cfg.n_list:
        if cfg.r_list is not None:
            r_values = list(cfg.r_list)
        elif cfg.regime is not None:
            r_values = [regime_radius(n, cfg.regime, cfg.constants)]
        else:
            raise ValueError("sweep: need r_list or regime")
        for r in r_values:
            t0 = time.perf_counter()
            successes = 0
            counted = 0
            for trial in range(cfg.trials):
                ps = sample_uniform(n, trial_seed(cfg.master_seed, trial))
                aux = np.random.SeedSequence(cfg.master_seed, spawn_key=(trial, 1))
                outcome = _measure_trial(cfg.measurement, ps, r, cfg, aux)
                if outcome is None:
                    continue
                counted += 1
                successes += bool(outcome)
            lo, hi = wilson_interval(successes, counted)
            rows.append(SweepRow(n, r, regime_label, cfg.measurement,
                                 successes, counted, lo, hi,
                                 time.perf_counter() - t0))
    return rows


def sweep_to_csv(rows: list[SweepRow], meta: dict | None = None) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(row.csv() for row in rows)
    if meta is not None:
        import json
        lines.append("# " + json.dumps(meta, sort_keys=True))
    return "\n".join(lines) + "\n"
