"""geocops benchmark: one workload per run, closed loop, one trial at a time.

    python3 perfbench/run.py --workload sweep_copwin --seed 1 --seconds 20 --trace 0

Run from the repository root; geocops is imported from ./src.  The run
measures whole cycles of the workload (see workloads.py) until --seconds of
measured time have passed, checks every output outside the timed region, and
prints a report line and then, as its last line, a JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives BENCHMARK.json's end-to-end metrics; their times are in
units of a fixed reference computation measured around each trial
(workloads.reference_s), and the report holds the wall-clock figures.
--trace 1 runs half the time untraced, replays the same cycles with spans
around each call into the layers, and gives the per-layer metrics.  The exit code is 1 when any trial
fails (an exception or a failed output check) and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
SHORT_GAME_ROUNDS = 4  # games this short end before a strategy's machinery acts


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": _nproc(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(), "seed": seed}


def measure_setup(workload: str, probes: int) -> list[float]:
    """Wall times of fresh interpreters that import geocops and warm up."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--probe",
                        "--workload", workload], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_cycles(wl, L, indices, budget=math.inf):
    """Run the cycles in `indices` until `budget` seconds have been measured.

    A cycle's time is the sum of its trials' times, and its cost the sum of
    each trial's time divided by the reference time measured around it.  The
    output checks run between trials and are not counted.
    """
    cycles, walls, costs = [], [], []
    for index in indices:
        if sum(walls) >= budget:
            break
        cycles.append(wl.run_cycle(index, L))
        walls.append(sum(t.seconds for t in cycles[-1]))
        costs.append(sum(t.seconds / t.ref_s for t in cycles[-1] if t.ref_s))
    return cycles, walls, costs


def _round_counts(trials) -> dict:
    per_robber: dict[str, list[int]] = {}
    for t in trials:
        for robber, rounds in t.rounds.items():
            per_robber.setdefault(robber, []).append(rounds)
    return per_robber


def _by_kind(trials) -> dict:
    kinds: dict[str, list[float]] = {}
    for t in trials:
        kinds.setdefault(t.kind, []).append(t.seconds)
    return {k: {"count": len(v), "p50_s": statistics.median(v)} for k, v in kinds.items()}


def _metric(value, unit, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def _tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten trials beyond it."""
    if len(times) < 20:
        return None
    s = sorted(times)
    return _metric(s[-11], "s", percentile=round(100.0 * (len(s) - 10) / len(s), 2),
                   samples=len(s))


def wall_clock(wl, cycles, walls) -> dict:
    """The untraced cycles' metrics in seconds.  They are reported, not put
    in the result: the machine's speed drifts by more than their bound."""
    trials = [t for c in cycles for t in c]
    times = [t.seconds for t in trials]
    out = {
        "trials_per_s": _metric(len(trials) / sum(walls), "1/s"),
        "trial_p50_s": _metric(statistics.median(times), "s"),
        "trial_tail_s": _tail(times),
        "cycle_p50_s": _metric(statistics.median(walls), "s"),
        "reference_p50_s": _metric(statistics.median(t.ref_s for t in trials), "s"),
    }
    out[wl.work_rate] = _metric(_work_rate(cycles, walls), "1/s")
    if wl.games:
        rounds = sum(r for t in trials for r in t.rounds.values())
        out["rounds_per_s"] = _metric(rounds / sum(walls), "1/s")
    return out


def _work_rate(cycles, times) -> float:
    return sum(t.work for c in cycles for t in c) / sum(times)


def end_to_end(setup, cycles, costs) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycle_p50_ref": statistics.median(costs),
        "work_per_ref": _work_rate(cycles, costs),
    }


def per_layer(names, tracer, trials, traced_cost, untraced_cost) -> dict:
    spans = tracer.summary()

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def rate(count, name):
        return count / busy(name) if busy(name) > 0 else 0.0

    c = tracer.counts
    rounds = _round_counts(trials)
    games = [r for v in rounds.values() for r in v]
    out = {
        "geograph.build_graph.edges": c["geograph.build_graph.edges"],
        "geograph.build_graph.edges_per_s": rate(c["geograph.build_graph.edges"],
                                                 "geograph.build_graph"),
        "solver.dismantle.removed": c["solver.dismantle.removed"],
        "solver.dismantle.mask_bytes": c["solver.dismantle.mask_bytes"],
        "geograph.bfs_distances.csr_entries": c["geograph.bfs_distances.csr_entries"],
        "strategies.engine.self_s": spans.get("strategies.run_game", {}).get("self_s", 0.0),
        "strategies.run_game.rounds": sum(games),
        "strategies.run_game.short_games_frac": (
            sum(r <= SHORT_GAME_ROUNDS for r in games) / len(games) if games else 0.0),
        "geograph.save_graph_json.bytes": c["geograph.save_graph_json.bytes"],
        "strategies.trace_jsonl.bytes": c["strategies.trace_jsonl.bytes"],
        "solver.solve_game.states": c["solver.solve_game.states"],
        "solver.solve_game.states_per_s": rate(c["solver.solve_game.states"],
                                               "solver.solve_game"),
        "trace.overhead_frac": traced_cost / untraced_cost - 1.0,
    }
    for robber in ("greedy", "random", "solver"):
        v = rounds.get(robber, [])
        out[f"strategies.run_game.rounds_per_game.{robber}"] = (
            sum(v) / len(v) if v else 0.0)
    for name in names:
        layer, _, field = name.rpartition(".")
        if name not in out:
            out[name] = busy(layer) if field == "busy_s" else calls(layer)
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS, cycle_digest, digest
    from tracing import Layers, Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's own tests")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    tiny = args.size == "tiny"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    # on SIGTERM, unwind so that the work directory and probes are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        # warm-up: one tiny cycle loads every lazily imported module
        WORKLOADS[args.workload](args.seed, True, workdir).run_cycle(0, Layers())
        if args.probe:
            return 0
        setup = [] if args.trace else measure_setup(args.workload,
                                                    1 if tiny else SETUP_PROBES)

        wl = WORKLOADS[args.workload](args.seed, tiny, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        cycles, walls, costs = run_cycles(wl, Layers(), itertools.count(), budget)
        wl.finish(cycles)
        trials = [t for c in cycles for t in c]
        digests = [cycle_digest(c) for c in cycles]
        report = {"workload": args.workload, "size": args.size,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine_record(args.seed),
                  "loop": "closed, one client, one trial at a time",
                  "cycles": len(cycles), "cycle_s": walls, "cycle_ref": costs,
                  "digest": digest(digests),
                  "cycle_digests": digests,
                  "rounds_per_game": _round_counts(trials),
                  "trials_by_kind": _by_kind(trials)}

        if args.trace == 0:
            report["setup_probes_s"] = setup
            metrics = end_to_end(setup, cycles, costs)
        else:
            tracer = Tracer()
            traced, _, tcosts = run_cycles(wl, Layers(tracer), range(len(cycles)))
            for c, d, replay in zip(cycles, digests, traced):
                if cycle_digest(replay) != d:
                    for t in replay:
                        t.error = t.error or "traced replay differs from the untraced run"
            trials_traced = [t for c in traced for t in c]
            metrics = per_layer(units, tracer, trials_traced, sum(tcosts), sum(costs))
            report["self_s"] = {name: row["self_s"] for name, row in sorted(
                tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])}
            trials = trials + trials_traced

    failures = [f"{t.kind}: {t.error}" for t in trials if t.error]
    attempted, failed = len(trials), len(failures)
    report["wall_clock"] = {"fail_frac": _metric(failed / attempted, "ratio"),
                            **wall_clock(wl, cycles, walls)}
    report["failures"] = failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: _metric(metrics[k], u) for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


def _bootstrap() -> None:
    """Import geocops from this checkout's src/ with thread pools capped."""
    if not (SRC / "geocops" / "__init__.py").is_file():
        print(f"run.py: no geocops sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(_nproc()))
    sys.path[:0] = [str(SRC), str(HERE)]


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
