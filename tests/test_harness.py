"""Scenario parsing, runners, CLI exit codes, and report determinism."""
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import holds_at_its_plan
from entgrover import cli, counting, memory
from entgrover.harness import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    run_count,
    run_find,
    run_sweep,
)


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestScenarioParsing:
    def test_missing_kind_names_field(self):
        with pytest.raises(ScenarioError, match="'kind'"):
            parse_scenario({})

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="find|count|verify|sweep"):
            parse_scenario({"kind": "explore"})

    def test_count_requires_power_of_two_p(self):
        with pytest.raises(ScenarioError, match="'P'"):
            parse_scenario({"kind": "count", "n_qubits": 2, "good": {"indices": [0]},
                            "P": 3, "seed": 1})

    def test_count_requires_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario({"kind": "count", "n_qubits": 2, "good": {"indices": [0]}, "P": 4})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "find",}')
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(str(path))


class TestRunFind:
    def test_flat_n4_report(self):
        s = parse_scenario({"kind": "find", "n_qubits": 2, "data_dim": 1,
                            "state": {"type": "flat"}, "good": {"indices": [0]}})
        report = run_find(s)
        assert report.passed
        table = report.payload["table"]
        assert table[1]["p_analytic"] == pytest.approx(1.0, abs=1e-12)
        assert report.payload["max_probability_deviation"] < 1e-9
        assert report.payload["best_integer_time"] == 1

    def test_one_to_one_from_file_flags_degenerate(self, tmp_path):
        from entgrover import from_amplitudes

        one_to_one = from_amplitudes(np.eye(4))
        path = tmp_path / "state.json"
        path.write_text(json.dumps(one_to_one.to_json_obj()))
        s = parse_scenario({"kind": "find", "n_qubits": 2, "data_dim": 4,
                            "state": {"type": "file", "path": str(path)},
                            "good": {"indices": [0]}, "iterations": 10})
        report = run_find(s)
        assert report.passed
        assert report.payload["oscillation"]["degenerate"]
        for row in report.payload["table"]:
            assert row["p_analytic"] == pytest.approx(0.25, abs=1e-12)

    def test_random_state_scenario(self):
        s = parse_scenario({"kind": "find", "n_qubits": 3, "data_dim": 2,
                            "state": {"type": "random", "seed": 9, "var_g": 0.1,
                                       "var_b": 0.05, "g_avg": [1.0, 0.0],
                                       "b_avg": [[0.8, 0.1], 0.2]},
                            "good": {"t": 2, "seed": 4}})
        report = run_find(s)
        assert report.passed

    def test_degenerate_sector_t0(self):
        s = parse_scenario({"kind": "find", "n_qubits": 2, "good": {"indices": []},
                            "iterations": 5})
        report = run_find(s)
        assert report.passed
        assert report.payload["degenerate_sector"]


class TestRunCount:
    def test_circuit_built_once(self, monkeypatch):
        calls = []
        build = counting.circuit_distribution

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(counting, "circuit_distribution", counted)
        s = parse_scenario({"kind": "count", "n_qubits": 4, "good": {"indices": [0, 1, 2, 3]},
                            "P": 16, "repetitions": 11, "seed": 7})
        report = run_count(s)
        assert report.passed
        assert len(calls) == 1

    def test_cap_below_the_tensor_above_the_working_set_completes(self, monkeypatch):
        tensor_bytes = 1024 * (1 << 12) * 16
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(1 << 24))
        assert tensor_bytes > 1 << 24
        s = parse_scenario({"kind": "count", "n_qubits": 12,
                            "state": {"type": "random", "seed": 5, "var_g": 0.1, "var_b": 0.05},
                            "good": {"t": 100, "seed": 6}, "P": 1024, "repetitions": 11,
                            "seed": 7})
        report = run_count(s)
        assert report.passed
        (window,) = [c for c in report.payload["checks"] if c["name"] == "window_mass_agreement"]
        assert window["value"] < s.tolerances.probability


def planned(scenario):
    """The planned peak of a run of ``scenario``."""
    return run_sweep(parse_scenario(scenario)).planned


class TestSweep:
    def test_four_cell_grid(self):
        s = parse_scenario({"kind": "sweep",
                            "grid": {"n_qubits": [3, 4], "t": [1, 2], "seeds": [11]}})
        report = run_sweep(s)
        rows = report.payload["rows"]
        assert len(rows) == 4
        assert report.passed
        for row in rows:
            assert row["max_amp_dev"] < 1e-9
            assert row["max_prob_dev"] < 1e-9

    def test_cell_fails_where_find_fails_its_unitarity_check(self, tmp_path):
        # the cell with seed s sweeps find's state {"seed": s} and marked set {"seed": s + 1}
        state = {"type": "random", "var_b": 0.05}
        find = {"kind": "find", "n_qubits": 5, "state": dict(state, seed=0),
                "good": {"t": 1, "seed": 1}}
        checks = run_find(parse_scenario(find)).payload["checks"]
        norm_dev = next(c["value"] for c in checks if c["name"] == "unitarity")
        tight = {"tolerances": {"unitarity": norm_dev}}  # a pass needs value < tolerance
        cfg = write_json(tmp_path / "find.json", {**find, **tight})
        assert cli.main(["find", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
        failed = [c["name"] for c in json.loads((tmp_path / "r.json").read_text())["checks"]
                  if not c["passed"]]
        assert failed == ["unitarity"]
        sweep = {"kind": "sweep", "state": state,
                 "grid": {"n_qubits": [5], "t": [1], "seeds": [0]}, **tight}
        report = run_sweep(parse_scenario(sweep))
        (row,) = report.payload["rows"]
        assert row["max_norm_dev"] == norm_dev
        assert row["passed"] is False and not report.passed

    def test_empty_grid_header_only(self):
        s = parse_scenario({"kind": "sweep", "output_format": "csv", "grid": {}})
        report = run_sweep(s)
        csv_text = report.to_csv()
        assert csv_text.count("\n") == 1
        assert csv_text.startswith("n_qubits,")

    def test_memory_cap_marks_skipped(self, monkeypatch):
        # a cap of the N = 4 cell's plan
        cell = {"kind": "sweep", "grid": {"n_qubits": [2], "t": [1], "seeds": [3]}}
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(planned(cell)))
        s = parse_scenario({"kind": "sweep",
                            "grid": {"n_qubits": [2, 6], "t": [1], "seeds": [3]}})
        report = run_sweep(s)
        status = {r["n_qubits"]: r["status"] for r in report.payload["rows"]}
        assert status[2] == "ok"
        assert status[6] == "skipped"
        assert report.passed  # skipped cells do not fail the run

    def test_count_cell_skipped_only_over_the_working_set(self, tmp_path):
        # P x N x D is 64 MiB; the cell's plan is the larger of the circuit's
        # and the audit's working sets, here the audit's
        cell = {"kind": "sweep", "grid": {"n_qubits": [12], "t": [100], "P": [1024], "seeds": [3]}}
        assert planned(cell) < 16 * 1024 * 4096
        assert "trajectory audit" in holds_at_its_plan(cell, tmp_path)

    def test_cell_skipped_only_over_the_audit_working_set(self, monkeypatch):
        # N = 2^8, D = 4: a cap of the t = 3 cell's plan, its audit with the
        # readings of the default horizon; the t = 0 cell is not audited
        audit = planned({"kind": "sweep", "grid": {"n_qubits": [8], "data_dim": [4], "t": [3],
                                                   "seeds": [3]}})
        s = parse_scenario({"kind": "sweep", "grid": {"n_qubits": [8], "data_dim": [4],
                                                      "t": [0, 3], "seeds": [3]}})
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(audit))
        rows = run_sweep(s).payload["rows"]
        assert [(r["status"], r["passed"]) for r in rows] == [("ok", True)] * 2
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(audit - 1))
        unaudited, audited = run_sweep(s).payload["rows"]
        assert (unaudited["status"], unaudited["passed"]) == ("ok", True)
        assert (audited["status"], audited["passed"]) == ("skipped", None)
        assert "trajectory audit" in audited["error"] and "max_amp_dev" not in audited

    def test_cell_over_the_readings_charge_is_skipped(self, monkeypatch):
        # the readings of steps 0 .. 10^4 at 1,280 bytes a reading are over 1 MiB
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(1 << 20))
        s = parse_scenario({"kind": "sweep", "iterations": 10_000,
                            "grid": {"n_qubits": [2], "t": [1]}})
        (row,) = run_sweep(s).payload["rows"]
        assert (row["status"], row["passed"]) == ("skipped", None)
        assert "10001 readings" in row["error"] and "max_amp_dev" not in row

    def test_circuit_over_the_cap_leaves_no_readings(self, monkeypatch):
        # the 2^12-row state's build fits one byte under the circuit's working set at P = 2048
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(memory.circuit(1 << 12, 1, 2048).bytes - 1))
        grid = {"n_qubits": [12], "t": [100], "P": [2048], "seeds": [3]}
        (row,) = run_sweep(parse_scenario({"kind": "sweep", "grid": grid})).payload["rows"]
        big = dict(grid, n_qubits=[17])
        (table_row,) = run_sweep(parse_scenario({"kind": "sweep", "grid": big})).payload["rows"]
        assert (row["status"], row["passed"]) == ("skipped", None)
        assert tuple(row) == tuple(table_row)
        assert "counting circuit" in row["error"] and "P = 2048" in row["error"]

    def test_workers_do_not_change_output(self):
        base = {"kind": "sweep",
                "grid": {"n_qubits": [3, 4], "data_dim": [1, 2], "t": [1, 3],
                          "P": [8], "seeds": [5]}}
        r1 = run_sweep(parse_scenario(dict(base, workers=1)))
        r4 = run_sweep(parse_scenario(dict(base, workers=4)))
        assert json.dumps(r1.payload["rows"]) == json.dumps(r4.payload["rows"])

    def test_json_rows_keep_their_keys(self, tmp_path):
        edge = ("n_qubits", "data_dim", "t", "p_size", "seed", "status", "error", "theta",
                "passed")
        measured = ("p_max", "max_amp_dev", "max_prob_dev", "var_drift", "max_norm_dev",
                    "w_predicted", "w_dev", "passed")
        s = parse_scenario({"kind": "sweep",
                            "grid": {"n_qubits": [3], "t": [0, 2, 8], "P": [8], "seeds": [1]}})
        keys = {r["t"]: tuple(r) for r in run_sweep(s).payload["rows"]}
        assert keys[0] == keys[8] == edge
        assert keys[2] == edge[:-1] + ("n0", "best_integer_time") + measured

        # a degenerate law has no optimal time: n0 and best_integer_time stay absent.
        # F+ and F- are orthogonal when |Bbar|^2 = tan^2(theta) |Gbar|^2, at t/N = 1/4 a third
        state = {"type": "random", "var_g": 0.1, "var_b": 0.1, "g_avg": [1.0, 0.0],
                 "b_avg": [0.0, 3 ** -0.5]}
        s = parse_scenario({"kind": "sweep", "state": state,
                            "grid": {"n_qubits": [3], "data_dim": [2], "t": [2], "P": [8]}})
        (row,) = run_sweep(s).payload["rows"]
        assert tuple(row) == edge[:-1] + measured


class TestCli:
    def run(self, argv):
        return cli.main(argv)

    def test_find_writes_report(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "find", "n_qubits": 2,
                                               "good": {"indices": [0]}})
        out = tmp_path / "r.json"
        assert self.run(["find", "--config", cfg, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["kind"] == "find"
        assert obj["passed"] is True
        assert "wall_clock" not in json.dumps(obj)

    def test_malformed_config_exit_1_no_output(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "r.json"
        assert self.run(["find", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()

    def test_count_p3_exit_1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 4,
                                               "good": {"indices": [0, 1, 2, 3]},
                                               "P": 3, "repetitions": 5, "seed": 1})
        assert self.run(["count", "--config", cfg]) == 1

    def test_count_flat_n16(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 4,
                                               "good": {"indices": [0, 1, 2, 3]},
                                               "P": 16, "repetitions": 101, "seed": 7})
        out = tmp_path / "r.json"
        assert self.run(["count", "--config", cfg, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["count"]["bound_satisfied"] is True
        assert obj["count"]["bound"] == pytest.approx(3.7584, abs=1e-4)
        assert obj["count"]["W_predicted"] == pytest.approx(0.86515, abs=1e-4)

    def test_kind_mismatch_exit_1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "find", "n_qubits": 2,
                                               "good": {"indices": [0]}})
        assert self.run(["count", "--config", cfg]) == 1

    def test_usage_error_exit_1(self):
        assert self.run(["find"]) == 1

    def test_seed_override(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 3,
                                               "good": {"indices": [0]},
                                               "P": 8, "repetitions": 31, "seed": 1})
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert self.run(["count", "--config", cfg, "--out", str(out_a)]) == 0
        assert self.run(["count", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
        assert json.loads(out_a.read_text())["count"]["outcomes"] != json.loads(
            out_b.read_text()
        )["count"]["outcomes"]

    @pytest.mark.parametrize("config", ["find_random.json", "sweep_small.json"])
    def test_seed_is_refused_where_nothing_reads_it(self, tmp_path, capsys, config):
        scenario = json.loads((CONFIGS / config).read_text())
        command = scenario["kind"]
        assert self.run([command, "--config", str(CONFIGS / config), "--seed", "2"]) == 1
        assert "--seed" in capsys.readouterr().err
        cfg = write_json(tmp_path / "c.json", dict(scenario, seed=2))
        assert self.run([command, "--config", cfg]) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_count_report_records_its_sampling_seed(self, tmp_path):
        cfg = str(CONFIGS / "count_flat.json")
        counts = {}
        for seed in ("7", "8"):
            out = tmp_path / f"r{seed}.json"
            assert self.run(["count", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
            counts[seed] = json.loads(out.read_text())["count"]
        assert (counts["7"]["seed"], counts["8"]["seed"]) == (7, 8)
        assert counts["7"]["outcomes"] != counts["8"]["outcomes"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"kind": "sweep", "output_format": "csv",
                          "grid": {"n_qubits": [3], "t": [1, 2], "P": [8], "seeds": [2]}})
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert self.run(["sweep", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_count_memory_cap_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", "4096")
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 4,
                                               "good": {"indices": [0]},
                                               "P": 64, "repetitions": 5, "seed": 1})
        assert self.run(["count", "--config", cfg]) == 1

    def test_state_file_dims_mismatch_exit_1(self, tmp_path):
        from entgrover import new_flat

        path = tmp_path / "state.json"
        path.write_text(json.dumps(new_flat(3, 1).to_json_obj()))
        cfg = write_json(tmp_path / "c.json", {"kind": "find", "n_qubits": 2,
                                               "state": {"type": "file", "path": str(path)},
                                               "good": {"indices": [0]}})
        assert self.run(["find", "--config", cfg]) == 1

    def test_verify_verdicts_stable_across_seeds(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"kind": "verify"})
        verdicts = []
        for seed in (1, 2, 3):
            out = tmp_path / f"r{seed}.json"
            assert self.run(["verify", "--config", cfg, "--out", str(out),
                             "--seed", str(seed)]) == 0
            obj = json.loads(out.read_text())
            verdicts.append(tuple((c["name"], c["passed"]) for c in obj["criteria"]))
        assert verdicts[0] == verdicts[1] == verdicts[2]

    def test_unsupported_schema_version(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"schema_version": 99, "kind": "find",
                                               "n_qubits": 2, "good": {"indices": [0]}})
        assert self.run(["find", "--config", cfg]) == 1

    def test_verify_tightened_tolerance_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"kind": "verify",
                          "tolerances": {"amplitude": 1e-15, "probability": 1e-15}})
        out = tmp_path / "r.json"
        assert self.run(["verify", "--config", cfg, "--out", str(out)]) == 2
        obj = json.loads(out.read_text())
        assert obj["passed"] is False
        failed = [c["name"] for c in obj["criteria"] if not c["passed"]]
        assert "closed_form_fidelity" in failed
