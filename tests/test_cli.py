import json

import numpy as np
import pytest

from geocops.cli import main
from geocops.geograph import load_graph_json, read_points_csv
from oracles import petersen_edges


def run(argv):
    return main(argv)


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.json"
    path.write_text(json.dumps({
        "format_version": 1, "n": 10, "r": None,
        "edges": [[a, b] for a, b in petersen_edges()],
    }))
    return str(path)


class TestPipeline:
    def test_generate_graph_dismantle_roundtrip(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        gj = tmp_path / "g.json"
        out = tmp_path / "dis.json"
        assert run(["generate", "--n", "60", "--seed", "5",
                    "--output", str(pts)]) == 0
        assert run(["graph", "--input", str(pts), "--r", "0.4",
                    "--output", str(gj)]) == 0
        assert run(["dismantle", "--input", str(gj), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] in ("cop-win", "robber-win")
        assert "config" in doc
        # byte-stability of the generated inputs under the same seed
        pts2 = tmp_path / "pts2.csv"
        run(["generate", "--n", "60", "--seed", "5", "--output", str(pts2)])
        a = [l for l in pts.read_text().splitlines() if not l.startswith("#")]
        b = [l for l in pts2.read_text().splitlines() if not l.startswith("#")]
        assert a == b

    def test_graph_json_embeds_config_and_points(self, tmp_path):
        pts = tmp_path / "pts.csv"
        gj = tmp_path / "g.json"
        run(["generate", "--n", "25", "--seed", "1", "--output", str(pts)])
        run(["graph", "--input", str(pts), "--r", "0.5", "--output", str(gj)])
        doc = json.loads(gj.read_text())
        assert doc["config"]["r"] == 0.5
        assert len(doc["points"]) == 25
        g = load_graph_json(gj)
        assert g.n == 25


class TestCopnumber:
    def test_petersen_needs_three(self, petersen_file, tmp_path, capsys):
        out = tmp_path / "cn.json"
        assert run(["copnumber", "--input", petersen_file, "--kmax", "3",
                    "--output", str(out)]) == 0
        assert json.loads(out.read_text())["cop_number"] == 3

    def test_kmax_exceeded_is_data_not_error(self, petersen_file, tmp_path):
        out = tmp_path / "cn.json"
        assert run(["copnumber", "--input", petersen_file, "--kmax", "2",
                    "--output", str(out)]) == 0
        assert json.loads(out.read_text())["cop_number"] == "> 2"

    def test_budget_exit_code_3(self, petersen_file):
        assert run(["copnumber", "--input", petersen_file, "--kmax", "3",
                    "--budget", "50"]) == 3

    def test_export_table(self, tmp_path):
        gj = tmp_path / "p3.json"
        gj.write_text(json.dumps({"n": 3, "r": None,
                                  "edges": [[0, 1], [1, 2]]}))
        out = tmp_path / "cn.json"
        assert run(["copnumber", "--input", str(gj), "--kmax", "1",
                    "--export-table", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["cop_number"] == 1
        assert any(v == "cop-win" for v in doc["table"]["labels"].values())


class TestErrors:
    def test_missing_file_is_config_error(self):
        assert run(["dismantle", "--input", "/nonexistent.json"]) == 2

    def test_bad_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_center_dismantle_needs_geometry(self, petersen_file):
        assert run(["center-dismantle", "--input", petersen_file]) == 2

    def test_library_value_error_is_config_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(["generate", "--n", "10", "--seed", "1", "--output", str(pts)])
        assert run(["graph", "--input", str(pts), "--r", "-1",
                    "--output", str(tmp_path / "g.json")]) == 2
        assert "radius must be positive" in capsys.readouterr().err

    def test_bad_point_row_is_config_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.1,0.2\n0.3,abc\n")
        assert run(["graph", "--input", str(pts), "--r", "0.5",
                    "--output", str(tmp_path / "g.json")]) == 2
        assert ":3:" in capsys.readouterr().err

    def test_edges_that_disagree_with_points_are_config_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        gj = tmp_path / "g.json"
        run(["generate", "--n", "25", "--seed", "1", "--output", str(pts)])
        run(["graph", "--input", str(pts), "--r", "0.5", "--output", str(gj)])
        doc = json.loads(gj.read_text())
        doc["edges"].pop()
        gj.write_text(json.dumps(doc))
        assert run(["dismantle", "--input", str(gj),
                    "--output", str(tmp_path / "dis.json")]) == 2
        assert "stored edges" in capsys.readouterr().err


class TestSimulate:
    def test_solver_simulation_writes_trace(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        gj = tmp_path / "g.json"
        tr = tmp_path / "trace.jsonl"
        run(["generate", "--n", "30", "--seed", "3", "--output", str(pts)])
        run(["graph", "--input", str(pts), "--r", "0.6", "--output", str(gj)])
        assert run(["simulate", "--input", str(gj), "--cop-policy", "solver",
                    "--robber-policy", "random", "--horizon", "100",
                    "--seed", "4", "--output", str(tr)]) == 0
        lines = tr.read_text().strip().splitlines()
        assert json.loads(lines[0])["config"]["horizon"] == 100
        assert json.loads(lines[-1])["outcome"] in ("capture", "survived")

    def test_two_cop_simulation(self, tmp_path):
        pts = tmp_path / "pts.csv"
        gj = tmp_path / "g.json"
        run(["generate", "--n", "900", "--seed", "6", "--output", str(pts)])
        run(["graph", "--input", str(pts), "--r", "0.9", "--output", str(gj)])
        assert run(["simulate", "--input", str(gj), "--cop-policy", "two_cop",
                    "--robber-policy", "greedy", "--horizon", "2000",
                    "--seed", "7"]) == 0


class TestChecks:
    def test_dagger_report(self, tmp_path):
        pts = tmp_path / "pts.csv"
        out = tmp_path / "dag.json"
        run(["generate", "--n", "1500", "--seed", "8", "--output", str(pts)])
        assert run(["dagger", "--input", str(pts), "--r", "0.5",
                    "--trials", "500", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tiling_sufficient"] in (True, False)
        assert doc["counterexample"] is None or len(doc["counterexample"]) == 2

    def test_witness_subcommand(self, tmp_path):
        from geocops.constructions import plant_witness_instance
        from geocops.geograph import write_points_csv
        inst = plant_witness_instance(0.05, N=6, seed=1)
        pts = tmp_path / "w.csv"
        write_points_csv(inst.pointset, pts)
        out = tmp_path / "w.json"
        # automatic parameters at this tiny n exceed N>=3 only if n*pi*r^2
        # is large enough; expect a clean config error rather than a crash
        code = run(["witness", "--input", str(pts), "--r", "0.05",
                    "--output", str(out)])
        assert code in (0, 2)

    def test_annular_verdict(self, tmp_path, capsys):
        out = tmp_path / "ann.json"
        assert run(["annular", "--seed", "0", "--output", str(out)]) == 0
        msg = capsys.readouterr().out
        doc = json.loads(msg)
        assert doc["n"] == 1440
        assert doc["min_degree"] == 3
        assert doc["girth"] == 5
        assert doc["cop_number_lower_bound"] == 3
        assert doc["copwin"] is False


class TestSweepCommand:
    def test_sweep_flags(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--n", "30", "--r", "1.5", "--trials", "4",
                    "--measurement", "copwin_rate", "--seed", "1",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,r,regime,measurement,successes,trials,ci_lo,ci_hi,seconds"
        assert lines[1].startswith("30,1.5,fixed_r,copwin_rate,4,4,")

    def test_sweep_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_list=25\nr_list=1.45\ntrials=3\nseed=2\n"
                       "measurement=copwin_rate\n")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        assert "25,1.45" in out.read_text()

    def test_sweep_requires_radius_or_regime(self):
        assert run(["sweep", "--n", "30"]) == 2
