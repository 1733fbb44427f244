"""The benchmark's own tests, at the tiny input size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(ROOT / "src"), str(PERF)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# each workload's work rate in the report, besides trials_per_s
RATE = {"sweep_copwin": "trials_per_s", "patrol_long": "rounds_per_s",
        "twocop_dense": "rounds_per_s", "solve_exact": "states_per_s"}


def _run(capsys, workload, seed=1, trace=0, seconds=0.3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_lists_the_workloads():
    assert [m["name"] for m in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, report, result = _run(capsys, workload, trace=trace)
    assert code == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if not trace:
        units = {k: v["unit"] for k, v in report["wall_clock"].items() if v}
        assert units.items() >= {"fail_frac": "ratio", "trials_per_s": "1/s",
                                 "trial_p50_s": "s", RATE[workload]: "1/s"}.items()
        assert "trial_tail_s" in report["wall_clock"]
    machine = report["machine"]
    assert machine["nproc"] >= 1 and machine["seed"] == 1
    assert {"cpu_model", "python", "numpy", "scipy", "git_commit"} <= set(machine)


@pytest.mark.parametrize("workload", ["sweep_copwin", "solve_exact"])
def test_wrong_dismantle_verdict_trips_the_check(capsys, monkeypatch, workload):
    from geocops import solver
    real = solver.dismantle

    def flipped(g):
        res = real(g)
        res.copwin = not res.copwin
        return res

    monkeypatch.setattr(solver, "dismantle", flipped)
    code, report, result = _run(capsys, workload)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    fail_frac = report["wall_clock"]["fail_frac"]
    assert fail_frac == {"value": result["failed"] / result["attempted"], "unit": "ratio"}


def test_seed_changes_inputs_not_metric_names(capsys):
    _, rep1, res1 = _run(capsys, "solve_exact", seed=1)
    _, rep2, res2 = _run(capsys, "solve_exact", seed=2)
    _, rep1b, _ = _run(capsys, "solve_exact", seed=1)
    assert rep1["cycle_digests"][0] != rep2["cycle_digests"][0]
    assert rep1["cycle_digests"][0] == rep1b["cycle_digests"][0]
    assert res1["metrics"].keys() == res2["metrics"].keys()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload",
                           "sweep_copwin", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
