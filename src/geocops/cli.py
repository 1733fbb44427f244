"""Command-line surface: generate, graph, solve, simulate, check, search, sweep.

Every run is fully determined by its flags plus one master seed, and every
output file embeds the config that produced it.  Exit codes: 0 on success
(game verdicts are payload, not failures), 2 on configuration errors, 3 when
the solver state budget is exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

FORMAT_VERSION = 1


class ConfigError(Exception):
    pass


def _echo_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func",) and v is not None}
    cfg["format_version"] = FORMAT_VERSION
    return cfg


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _load_graph(path: str):
    from .geograph import load_graph_json
    return load_graph_json(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    from .ensembles import sample_uniform, trial_seed
    from .geograph import write_points_csv
    ps = sample_uniform(args.n, trial_seed(args.seed, 0))
    write_points_csv(ps, args.output, meta=_echo_config(args))
    print(f"wrote {len(ps)} points to {args.output}")
    return 0


def cmd_graph(args) -> int:
    from .geograph import build_graph, read_points_csv, save_graph_json
    ps = read_points_csv(args.input)
    g = build_graph(ps, args.r)
    save_graph_json(g, args.output, extra={"config": _echo_config(args)})
    print(f"wrote graph n={g.n} edges={g.num_edges()} to {args.output}")
    return 0


def cmd_copnumber(args) -> int:
    from .solver import SOLVER_STATE_BUDGET, cop_number, solve_game
    g = _load_graph(args.input)
    budget = args.budget if args.budget is not None else SOLVER_STATE_BUDGET
    k = cop_number(g, args.kmax, budget=budget)
    doc = {"config": _echo_config(args), "n": g.n,
           "cop_number": k if k is not None else f"> {args.kmax}"}
    if args.export_table and k is not None:
        doc["table"] = solve_game(g, k).to_json()
    _emit(doc, args.output)
    return 0


def cmd_dismantle(args) -> int:
    from .solver import dismantle
    g = _load_graph(args.input)
    res = dismantle(g)
    _emit({"config": _echo_config(args), "n": g.n, "copwin": res.copwin,
           "verdict": "cop-win" if res.copwin else "robber-win",
           "survivors": res.survivors,
           "removal_order": [[u, v] for u, v in res.removal_order]},
          args.output)
    return 0


def cmd_center_dismantle(args) -> int:
    from .geograph import GeometricGraph
    from .solver import center_order_dismantle
    g = _load_graph(args.input)
    if not isinstance(g, GeometricGraph):
        raise ConfigError("center-dismantle needs a geometric graph "
                          "(JSON with points and r)")
    c = (args.cx, args.cy)
    res = center_order_dismantle(g, c)
    _emit({"config": _echo_config(args), "n": g.n, "center": list(c),
           "copwin": res.copwin, "failed_vertex": res.failed_vertex,
           "survivors": res.survivors,
           "removal_order": [[u, v] for u, v in res.removal_order]},
          args.output)
    return 0


def _make_cop_policy(name, g, args, horizon):
    from .strategies import (NineCopPolicy, PatrolTriplePolicy, SolverCops,
                             StrategyConstants, TwoCopPolicy)
    from .geograph import GeometricGraph
    if name == "solver":
        from .solver import solve_game
        return SolverCops(solve_game(g, args.k))
    if not isinstance(g, GeometricGraph):
        raise ConfigError(f"cop policy {name!r} needs a geometric graph")
    if name == "two_cop":
        import math
        from .ensembles import dagger_cell_size
        s = args.s if args.s is not None else min(
            g.r, 2.0 * math.sqrt(2.0) * dagger_cell_size(g.n))
        kw = {}
        if args.eps7 is not None:
            kw["eps7"] = args.eps7
        if args.eps9 is not None:
            kw["eps9"] = args.eps9
        return TwoCopPolicy(g, StrategyConstants(r=g.r, s=s, **kw))
    if name == "patrol":
        from .geograph import shortest_path, graph_metrics, bfs_distances
        import numpy as np
        # patrol a long shortest path: BFS double sweep for a far pair
        d0 = bfs_distances(g, [0])
        u = int(np.argmax(d0))
        du = bfs_distances(g, [u])
        v = int(np.argmax(du))
        return PatrolTriplePolicy(g, shortest_path(g, u, v))
    if name == "nine_cop":
        return NineCopPolicy(g)
    raise ConfigError(f"unknown cop policy {name!r}")


def _make_robber_policy(name, g, args):
    from .strategies import GreedyRobber, RandomWalkRobber, SolverRobber
    if name == "random":
        return RandomWalkRobber()
    if name == "greedy":
        return GreedyRobber()
    if name == "solver":
        from .solver import solve_game
        return SolverRobber(solve_game(g, args.k))
    raise ConfigError(f"unknown robber policy {name!r}")


def cmd_simulate(args) -> int:
    from .strategies import run_game
    g = _load_graph(args.input)
    horizon = args.horizon
    cop = _make_cop_policy(args.cop_policy, g, args, horizon)
    robber = _make_robber_policy(args.robber_policy, g, args)
    trace = run_game(g, cop, robber, horizon, seed=args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(json.dumps({"config": _echo_config(args)}) + "\n")
            fh.write(trace.to_jsonl())
    print(f"outcome: {trace.outcome}"
          + (f" at round {trace.capture_round}" if trace.capture_round else ""))
    return 0


def cmd_dagger(args) -> int:
    from .ensembles import (dagger_sampled_falsifier, dagger_tiling_check,
                            default_dagger_s, trial_seed)
    from .geograph import read_points_csv
    ps = read_points_csv(args.input)
    s = args.s if args.s is not None else min(args.r, default_dagger_s(len(ps)))
    cert = dagger_tiling_check(ps, args.r, s)
    bad = dagger_sampled_falsifier(ps, args.r, s, args.trials,
                                   trial_seed(args.seed, 0))
    _emit({"config": _echo_config(args), "n": len(ps), "r": args.r, "s": s,
           "tiling_sufficient": cert.sufficient, "empty_cells": cert.empty_cells,
           "tile_size": cert.t, "s_needed": cert.s_needed,
           "falsifier_trials": args.trials,
           "counterexample": list(map(list, bad)) if bad else None},
          args.output)
    return 0


def cmd_witness(args) -> int:
    from .constructions import find_witness, necklace_params, witness_to_json
    from .geograph import read_points_csv
    ps = read_points_csv(args.input)
    try:
        params = necklace_params(len(ps), args.r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    w = find_witness(ps, args.r, params)
    doc = {"config": _echo_config(args), "n": len(ps), "r": args.r,
           "N": params.N, "rho1": params.rho1, "rho2": params.rho2,
           "found": w is not None}
    if w is not None:
        doc["witness"] = witness_to_json(w)
        doc["verdict"] = "robber-win"
    _emit(doc, args.output)
    return 0


def cmd_annular(args) -> int:
    from .constructions import annular_edge_lengths, annular_graph
    from .geograph import degree_girth_lower_bound, girth, save_graph_json
    from .solver import dismantle
    g = annular_graph()
    outer, inner = annular_edge_lengths()
    doc = {"config": _echo_config(args), "n": g.n, "r": g.r,
           "edges": g.num_edges(), "min_degree": int(g.degrees().min()),
           "girth": girth(g), "outer_edge_length": outer,
           "inner_edge_length": inner,
           "cop_number_lower_bound": degree_girth_lower_bound(g),
           "copwin": dismantle(g).copwin}
    if args.output:
        save_graph_json(g, args.output, extra={"config": _echo_config(args)})
        doc["graph_file"] = args.output
    _emit(doc, None)
    return 0


def cmd_sweep(args) -> int:
    from .ensembles import (RegimeConstants, SweepConfig, parse_sweep_config,
                            sweep, sweep_to_csv)
    if args.config:
        with open(args.config) as fh:
            cfg = parse_sweep_config(fh.read())
    else:
        if not args.n:
            raise ConfigError("sweep: --n or --config is required")
        cfg = SweepConfig(n_list=[int(v) for v in args.n.split(",")])
        if args.r:
            cfg.r_list = [float(v) for v in args.r.split(",")]
        if args.regime:
            cfg.regime = args.regime
        if args.K is not None:
            cfg.constants = RegimeConstants(K1=args.K, K2=args.K, K3=args.K)
        if args.trials:
            cfg.trials = args.trials
        cfg.master_seed = args.seed
        cfg.measurement = args.measurement
        if args.s is not None:
            cfg.s = args.s
    if cfg.r_list is None and cfg.regime is None:
        raise ConfigError("sweep: need --r or --regime")
    rows = sweep(cfg)
    text = sweep_to_csv(rows, meta=_echo_config(args))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="geocops",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--seed", type=int, default=0)
        if output:
            p.add_argument("--output")

    p = sub.add_parser("generate", help="sample uniform points to CSV")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_generate)
    p.add_argument("--output-required", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("graph", help="build a geometric graph from points")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("copnumber", help="exact cop number up to --kmax")
    p.add_argument("--input", required=True)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--budget", type=int, help="solver budget override, in array entries")
    p.add_argument("--export-table", action="store_true")
    common(p)
    p.set_defaults(func=cmd_copnumber)

    p = sub.add_parser("dismantle", help="greedy pitfall dismantling")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_dismantle)

    p = sub.add_parser("center-dismantle", help="center-ordered dismantling")
    p.add_argument("--input", required=True)
    p.add_argument("--cx", type=float, default=0.5)
    p.add_argument("--cy", type=float, default=0.5)
    common(p)
    p.set_defaults(func=cmd_center_dismantle)

    p = sub.add_parser("simulate", help="run one game and write its trace")
    p.add_argument("--input", required=True)
    p.add_argument("--cop-policy", default="solver",
                   choices=["solver", "two_cop", "patrol", "nine_cop"])
    p.add_argument("--robber-policy", default="random",
                   choices=["random", "greedy", "solver"])
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--k", type=int, default=1, help="cops for solver policies")
    p.add_argument("--s", type=float)
    p.add_argument("--eps7", type=float)
    p.add_argument("--eps9", type=float)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dagger", help="(†) tiling certificate and falsifier")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float)
    p.add_argument("--trials", type=int, default=10000)
    common(p)
    p.set_defaults(func=cmd_dagger)

    p = sub.add_parser("witness", help="search for a necklace witness")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("annular", help="emit the 1440-vertex construction")
    common(p)
    p.set_defaults(func=cmd_annular)

    p = sub.add_parser("sweep", help="Monte Carlo ensemble sweep to CSV")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--n", help="comma-separated n list")
    p.add_argument("--r", help="comma-separated r list")
    p.add_argument("--regime", choices=["two_cop", "one_cop", "lower"])
    p.add_argument("--K", type=float)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--measurement", default="copwin_rate")
    p.add_argument("--s", type=float)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        # bad input: a missing file, or a value the library rejects
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .solver import SolverBudgetError
        if isinstance(exc, SolverBudgetError):
            print(f"solver budget exceeded: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    raise SystemExit(main())
