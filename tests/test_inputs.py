"""Malformed scenarios and state files: each ends in a report, exit 1 naming the
bad field, or exit 2 -- never in a traceback."""
import contextlib
import io
import json
import os
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import holds_at_its_plan
from entgrover import checks, cli, harness, memory, new_flat
from entgrover.checks import VerifyConfig
from entgrover.harness import ScenarioError, parse_scenario
from entgrover.qstate import MemoryLimitError


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv):
    """(exit code, stderr) of one cli.main call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


FIND = {"kind": "find", "n_qubits": 2, "good": {"indices": [0]}}
FLAT_FILE = new_flat(2, 1).to_json_obj()
FLAT_ROWS = FLAT_FILE["rows"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("the run started")


class TestRegressions:
    def test_bool_is_not_an_int(self):
        with pytest.raises(ScenarioError, match="'n_qubits'"):
            parse_scenario(dict(FIND, n_qubits=True))

    def test_huge_n_qubits_exit_1_names_field(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", dict(FIND, n_qubits=200, good={"t": 1, "seed": 1}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and "n_qubits" in err

    def test_n_qubits_over_memory_cap_exit_1_names_field(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", "4096")
        cfg = write_json(tmp_path / "c.json", dict(FIND, n_qubits=40, good={"t": 1, "seed": 1}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and "n_qubits" in err

    def test_audit_over_memory_cap_exit_1_names_field(self, tmp_path):
        # N = 2^8, D = 4: the 16 KiB table fits alone; the audit is charged with
        # the readings of the default horizon: at t = 3, ceil(2*pi/theta) = 58
        # steps, so 59 readings
        err = holds_at_its_plan(dict(FIND, n_qubits=8, data_dim=4, good={"t": 3, "seed": 1}),
                                tmp_path)
        assert "'n_qubits' = 8" in err and "trajectory audit" in err and "59 readings" in err

    @pytest.mark.parametrize(
        "good, state, field",
        [
            ({"indices": [0, 0]}, {"type": "flat"}, "good.indices"),
            ({"indices": [9]}, {"type": "flat"}, "good.indices"),
            ({"indices": [-1]}, {"type": "flat"}, "good.indices"),
            ({"t": 9, "seed": 1}, {"type": "flat"}, "good.t"),
            ({"t": -1, "seed": 1}, {"type": "flat"}, "good.t"),
            ({"t": 1, "seed": 1}, {"type": "random", "seed": 1, "var_g": 5}, "state.var_g"),
            ({"t": 7, "seed": 1}, {"type": "random", "seed": 1, "var_b": 5}, "state.var_b"),
            ({"t": 2, "seed": 1}, {"type": "random", "seed": 1, "var_b": -0.5}, "state.var_b"),
        ],
    )
    def test_bad_marked_set_or_variance_exit_1_names_field(self, tmp_path, good, state, field):
        # at N = 8; the marked set and the state's checks used to surface
        # without the field they came from
        cfg = write_json(tmp_path / "c.json", dict(FIND, n_qubits=3, good=good, state=state))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"'{field}'" in err

    def test_count_circuit_over_memory_cap_exit_1_names_p(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", "4096")
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 4,
                                               "good": {"indices": [0]},
                                               "P": 64, "repetitions": 5, "seed": 1})
        code, err = run_cli(["count", "--config", cfg])
        assert code == 1 and "'P' = 64" in err

    def test_repetitions_over_memory_cap_exit_1_names_field(self, tmp_path, monkeypatch):
        # 10^4 samples are charged over 1 MiB; a billion got the process killed
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(1 << 20))
        cfg = write_json(tmp_path / "c.json", {"kind": "count", "n_qubits": 4,
                                               "good": {"indices": [0]},
                                               "P": 16, "repetitions": 10_000, "seed": 1})
        code, err = run_cli(["count", "--config", cfg])
        assert code == 1 and "'repetitions' = 10000" in err

    def test_verify_over_memory_cap_exit_1_names_kind(self, tmp_path, monkeypatch):
        # the default battery's corpus, its samples aside; its traced peak is held
        # to this plan in tests/test_memory.py
        charge = memory.corpus(VerifyConfig()).bytes
        monkeypatch.setattr(checks, "run_checks", lambda cfg: [])
        cfg = write_json(tmp_path / "c.json", {"kind": "verify"})
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge - 1))
        code, err = run_cli(["verify", "--config", cfg])
        assert code == 1 and "'kind' = 'verify'" in err and f"needs {charge} bytes" in err
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge))
        assert run_cli(["verify", "--config", cfg])[0] == 0

    @pytest.mark.parametrize(
        "scenario, field",
        [
            ({"kind": "sweep", "grid": {"n_qubits": [3], "t": [1], "p": [16]}}, "grid.p"),
            (dict(FIND, tolerances={"unitary": 1e-30}), "tolerances.unitary"),
            (dict(FIND, iteration=3), "iteration"),
            (dict(FIND, n_qubits=3, good={"indices": [0], "t": 5, "seed": 1}), "good.t"),
            (dict(FIND, n_qubits=3, good={"t": 3, "seed": 1},
                  state={"type": "random", "seed": 1, "var_G": 0.1}), "state.var_G"),
            ({"kind": "verify", "n_qubits": 3}, "n_qubits"),
            # the battery's sizes are fixed: this one audited no corpus state and passed
            ({"kind": "verify", "verify": {"corpus_count": 0, "max_steps": 0, "sigma_samples": 0,
                                           "averages_cases": 0, "sweep_n_qubits": [2],
                                           "sweep_p_sizes": [4]}}, "verify"),
            ({"kind": "verify", "verify": {}}, "verify"),
            ({"kind": "sweep", "grid": {"n_qubits": [3], "t": [1]}, "include_timings": False},
             "include_timings"),
        ],
    )
    def test_key_the_run_does_not_read_exit_1_names_it(self, tmp_path, scenario, field):
        # each of these ran, and exited 0, with the key's default in its place
        # (or, for the last three, with the key's value in force)
        cfg = write_json(tmp_path / "c.json", scenario)
        code, err = run_cli([scenario["kind"], "--config", cfg])
        assert code == 1 and f"'{field}'" in err

    @pytest.mark.parametrize(
        "t, target, field",
        [(3, {"var_g": 1e308}, "state.var_g"), (5, {"var_b": 1e308}, "state.var_b"),
         (3, {"g_avg": [1e200]}, "state.g_avg"), (3, {"b_avg": [1e200]}, "state.b_avg")],
    )
    def test_overflowing_random_state_target_exit_1_names_field(self, tmp_path, t, target, field):
        # at N = 8 these overflowed the construction and failed its norm gate
        # with "got nan" or "got 0.0"
        state = {"type": "random", "seed": 0, **target}
        cfg = write_json(tmp_path / "c.json",
                         dict(FIND, n_qubits=3, good={"t": t, "seed": 1}, state=state))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"'{field}'" in err

    def test_sweep_state_seed_exit_1_names_it(self, tmp_path):
        # grid.seeds sets each cell's state seed: sweeps with a state.seed of 5
        # and of 6 ran, and gave identical rows
        state = {"type": "random", "seed": 5, "var_b": 0.05}
        cfg = write_json(tmp_path / "c.json", {"kind": "sweep", "state": state,
                                               "grid": {"n_qubits": [4], "t": [3], "seeds": [0]}})
        code, err = run_cli(["sweep", "--config", cfg])
        assert code == 1 and "'state.seed'" in err and "grid.seeds" in err

    def test_sweep_file_state_exit_1_names_state_type(self, tmp_path):
        # a file fixes the table's shape, which the grid varies: this sweep of a
        # 2-qubit file ran, labelled its rows n_qubits 3, and read the file's N = 4
        state = write_json(tmp_path / "s.json", new_flat(2, 1).to_json_obj())
        grid = {"n_qubits": [3], "data_dim": [1, 3], "t": [1], "seeds": [0]}
        cfg = write_json(tmp_path / "c.json", {"kind": "sweep", "grid": grid,
                                               "state": {"type": "file", "path": state}})
        code, err = run_cli(["sweep", "--config", cfg])
        assert code == 1 and "'state.type'" in err

    @pytest.mark.parametrize("iterations, cap", [(10_000, 1 << 20), (10**7, None)])
    def test_iterations_over_memory_cap_exit_1_names_field(
        self, tmp_path, monkeypatch, iterations, cap
    ):
        # each step's readings are charged; 10^7 steps, about 12.5 GB of them, started to run
        if cap is not None:
            monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(cap))
        monkeypatch.setattr(harness, "audit_trajectory", _must_not_run)
        cfg = write_json(tmp_path / "c.json", dict(FIND, iterations=iterations))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"'iterations' = {iterations}" in err

    @pytest.mark.parametrize("iterations", [0, 10])
    def test_iterations_readings_are_charged_at_the_boundary(self, tmp_path, iterations):
        # N = 2^8, D = 4, t = 3: the audit and the readings of steps 0 ..
        # iterations; iterations 0 was charged no reading, and 10 ten
        err = holds_at_its_plan(dict(FIND, n_qubits=8, data_dim=4, good={"t": 3, "seed": 1},
                                     iterations=iterations), tmp_path)
        assert f"'iterations' = {iterations}" in err and f"{iterations + 1} readings" in err

    @pytest.mark.parametrize(
        "cfg",
        [VerifyConfig(corpus_count=1, data_dims=(10**9,)),
         VerifyConfig(corpus_count=1, n_qubits_list=(40,))],
        ids=["data_dims", "n_qubits_list"],
    )
    def test_corpus_tables_are_charged(self, cfg):
        with pytest.raises(MemoryLimitError, match="corpus"):
            memory.check([memory.corpus(cfg)])

    @pytest.mark.parametrize(
        "cfg, cap",
        [(VerifyConfig(corpus_count=4, max_steps=10_000), 1 << 20),
         (VerifyConfig(max_steps=10**6), None)],
        ids=["capped", "default-cap"],
    )
    def test_max_steps_readings_are_charged(self, monkeypatch, cfg, cap):
        # the corpus's readings are charged a state and step: the same corpus
        # read to its law horizons fits
        if cap is not None:
            monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(cap))
        with pytest.raises(MemoryLimitError, match=f"{cfg.max_steps} steps"):
            memory.check([memory.corpus(cfg)])
        memory.check([memory.corpus(replace(cfg, max_steps=0))])

    def test_corpus_law_horizon_is_charged(self):
        # one state at N = 2^16 and max_steps 0 is charged the readings of
        # criterion 4's two periods at t = 1, ceil(pi/theta) + 1 = 806 steps
        cfg = VerifyConfig(corpus_count=1, n_qubits_list=(16,), data_dims=(1,), max_steps=0)
        charge = [memory.corpus(replace(cfg, max_steps=steps)).bytes for steps in (0, 806, 807)]
        assert charge[0] == charge[1] < charge[2]

    @pytest.mark.parametrize(
        "rows",
        [
            [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]],
            [[[1.0]], [[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]],
            [[["a", "b"]], [[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]],
            7,
        ],
    )
    def test_ragged_state_file_exit_1_names_rows(self, tmp_path, rows):
        state = write_json(tmp_path / "s.json", {"n_qubits": 2, "data_dim": 1, "rows": rows})
        cfg = write_json(tmp_path / "c.json", dict(FIND, state={"type": "file", "path": state}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and "rows" in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"note": 1}, "state.path:note"),
            ({"rows": [[[float("nan"), 0.0]], *FLAT_ROWS[1:]]}, "state.path:rows[0][0]"),
            ({"rows": [*FLAT_ROWS[:3], [[1.0, float("inf")]]]}, "state.path:rows[3][0]"),
            ({"rows": [*FLAT_ROWS[:3], [[-float("inf"), 0.0]]]}, "state.path:rows[3][0]"),
            # finite entries whose squares overflow the norm gate's sum
            ({"rows": [[[1e308, 1e308]], *FLAT_ROWS[1:]]}, "state.path:rows"),
            ({"rows": [[[2.0, 0.0]], *FLAT_ROWS[1:]]}, "state.path:rows"),
            ({"rows": FLAT_ROWS[:3]}, "state.path:rows"),
            ({"rows": [[[1.0, 0.0], [0.0, 0.0]], *FLAT_ROWS[1:]]}, "state.path:rows[0]"),
            ({"n_qubits": 3}, "state.path:n_qubits"),
            ({"data_dim": 2}, "state.path:data_dim"),
            ({"rows": None}, "state.path:rows"),
            ([1, 2], "state.path"),  # a whole file that is not an object
        ],
        ids=["extra-key", "nan", "inf", "-inf", "overflow", "norm", "row-count", "row-length",
             "n_qubits", "data_dim", "no-rows", "not-object"],
    )
    def test_bad_state_file_exit_1_names_the_entry(self, tmp_path, change, field):
        # each of these exited 0, or 1 with a message naming no field
        obj = {**FLAT_FILE, **change} if isinstance(change, dict) else change
        state = write_json(tmp_path / "s.json", obj)
        cfg = write_json(tmp_path / "c.json", dict(FIND, state={"type": "file", "path": state}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"field '{field}'" in err, err

    @pytest.mark.parametrize("text", [b"[" * 10**4 + b"]" * 10**4, b'{"kind": "find\xff"}'],
                             ids=["deep", "not-utf8"])
    @pytest.mark.parametrize("where", ["config", "state.path"])
    def test_unreadable_file_exit_1_names_its_field(self, tmp_path, text, where):
        # these ended in a RecursionError traceback, or in a codec message that
        # named neither file
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        cfg = str(bad) if where == "config" else write_json(
            tmp_path / "c.json", dict(FIND, state={"type": "file", "path": str(bad)}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"field '{where}'" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("value", [-1e-9, 0.0, float("nan"), float("inf"), "1e-9", True])
    @pytest.mark.parametrize("field", ["amplitude", "probability", "unitarity"])
    def test_tolerance_must_be_finite_positive(self, tmp_path, field, value):
        cfg = write_json(tmp_path / "c.json", dict(FIND, tolerances={field: value}))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and f"tolerances.{field}" in err

    @pytest.mark.parametrize(
        "field, value",
        [("t", -1), ("n_qubits", 0), ("n_qubits", 63), ("data_dim", 0), ("P", 3),
         ("seeds", -1), ("t", 1.5), ("seeds", True)],
    )
    def test_bad_grid_value_exit_1_names_field(self, tmp_path, field, value):
        grid = {"n_qubits": [3], "t": [1], "seeds": [0], field: [value]}
        with pytest.raises(ScenarioError, match=f"grid.{field}"):
            parse_scenario({"kind": "sweep", "grid": grid})
        cfg = write_json(tmp_path / "c.json", {"kind": "sweep", "grid": grid})
        code, err = run_cli(["sweep", "--config", cfg])
        assert code == 1 and f"grid.{field}" in err

    def test_csv_output_only_for_sweep(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", dict(FIND, output_format="csv"))
        code, err = run_cli(["find", "--config", cfg])
        assert code == 1 and "output_format" in err

    def test_non_finite_value_anywhere_exit_1(self, tmp_path):
        # every value passes through the tables' reader: a key no table declares
        # is refused by name, and a NaN or infinity in a declared key by its path
        random = {"type": "random", "seed": 0, "g_avg": [[1.0, float("nan")]]}
        for scenario, message in [
            (dict(FIND, note=[1.0, float("nan")]), "'note' is not read"),
            (dict(FIND, n_qubits=3, good={"t": 3, "seed": 1}, state=random),
             "'state.g_avg' must be a finite number"),
            (dict(FIND, tolerances={"amplitude": float("-inf")}),
             "'tolerances.amplitude' must be a finite number"),
        ]:
            cfg = write_json(tmp_path / "c.json", scenario)
            code, err = run_cli(["find", "--config", cfg])
            assert code == 1 and message in err, err

    @pytest.mark.parametrize(
        "scenario, flags",
        [(dict(FIND, workers=0), []), (dict(FIND, workers=True), []), (FIND, ["--workers", "0"])],
    )
    def test_bad_worker_count_exit_1_names_workers(self, tmp_path, scenario, flags):
        cfg = write_json(tmp_path / "c.json", scenario)
        code, err = run_cli(["find", "--config", cfg, *flags])
        assert code == 1 and "workers" in err

    def test_unwritable_out_exit_1(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", FIND)
        code, err = run_cli(["find", "--config", cfg, "--out", str(tmp_path / "no" / "r.json")])
        assert code == 1 and "cannot write" in err


# -- fuzz -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    good = root / "good.json"
    good.write_text(json.dumps(new_flat(2, 1).to_json_obj()))
    ragged = root / "ragged.json"
    ragged.write_text(json.dumps({"n_qubits": 2, "data_dim": 1, "rows": [[[1, 0]], [[1]]]}))
    bad = {
        "not-object": [1, 2],
        "extra-key": {**FLAT_FILE, "note": 1},
        "nan-entry": {**FLAT_FILE, "rows": [[[float("nan"), 0.0]], *FLAT_ROWS[1:]]},
        "row-count": {**FLAT_FILE, "rows": FLAT_ROWS[:3]},
        "dimensions": new_flat(4, 3).to_json_obj(),  # the scenarios draw 1-3 qubits, D <= 2
    }
    for name, obj in bad.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    return [str(good), str(ragged), str(root / "missing.json"), str(root),
            *(str(root / f"{name}.json") for name in bad)]


ODD = st.sampled_from([None, True, -1, 0, 63, 200, 2**70, 1.5, float("nan"), float("inf"),
                       "x", [], [1], {}])


def scenarios(paths):
    """Plausible scenarios; semantically they may still be infeasible."""
    ints = st.integers
    number = st.one_of(st.floats(-2, 2), st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    state = st.one_of(
        st.just({"type": "flat"}),
        st.builds(lambda p: {"type": "file", "path": p}, st.sampled_from(paths)),
        st.fixed_dictionaries(
            {"type": st.just("random"), "seed": ints(0, 9)},
            optional={
                "var_g": st.floats(0, 0.3),
                "var_b": st.floats(0, 0.3),
                "g_avg": st.lists(number, min_size=1, max_size=2),
                "b_avg": st.lists(number, min_size=1, max_size=2),
            },
        ),
    )
    good = st.one_of(
        st.fixed_dictionaries({"indices": st.lists(ints(0, 4), max_size=3, unique=True)}),
        st.fixed_dictionaries({"t": ints(0, 5), "seed": ints(0, 9)}),
    )
    grid = st.fixed_dictionaries(
        {},
        optional={
            "n_qubits": st.lists(ints(1, 3), max_size=2),
            "data_dim": st.lists(ints(1, 2), max_size=2),
            "t": st.lists(ints(0, 4), max_size=2),
            "P": st.lists(st.sampled_from([1, 2, 4, 8]), max_size=2),
            "seeds": st.lists(ints(0, 3), max_size=2),
        },
    )
    tolerances = st.fixed_dictionaries(
        {}, optional={k: st.floats(1e-15, 1e-6) for k in ("amplitude", "probability")}
    )
    common = {
        "schema_version": st.just(1),
        "workers": ints(1, 3),
        "tolerances": tolerances,
    }
    search = {"n_qubits": ints(1, 3), "good": good}
    setup = {"data_dim": ints(1, 2), "state": state}
    by_kind = {
        "find": (search, {**setup, "iterations": ints(0, 6)}),
        "count": (
            {**search, "P": st.sampled_from([2, 4, 8]), "seed": ints(0, 9)},
            {**setup, "repetitions": ints(1, 9)},
        ),
        "verify": ({}, {"seed": ints(0, 9)}),
        "sweep": (
            {"grid": grid},
            {"state": state, "iterations": ints(0, 6), "output_format": st.just("csv")},
        ),
    }
    return st.sampled_from(sorted(by_kind)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {"kind": st.just(kind), **by_kind[kind][0]},
            optional={**common, **by_kind[kind][1]},
        )
    )


def corrupt(data, obj):
    """Replace, or delete, one field of obj or of one of its sub-objects."""
    if not obj:
        return
    target = obj
    key = data.draw(st.sampled_from(sorted(obj)))
    if isinstance(obj[key], dict) and obj[key] and data.draw(st.booleans()):
        target = obj[key]
        key = data.draw(st.sampled_from(sorted(target)))
    if data.draw(st.booleans()):
        target[key] = data.draw(ODD)
    else:
        del target[key]


@settings(
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_any_small_scenario_ends_in_0_1_or_2(state_files, tmp_path_factory, data):
    scenario = data.draw(scenarios(state_files))
    for _ in range(data.draw(st.integers(0, 2))):
        corrupt(data, scenario)
    kinds = ["find", "count", "verify", "sweep"]
    command = scenario.get("kind") if scenario.get("kind") in kinds else "find"
    extra = data.draw(st.sampled_from([[], [], ["--workers", "2"], ["--seed", "3"], ["--seed", "-1"]]))
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "c.json"
    cfg.write_text(json.dumps(scenario))
    # a small cap keeps every accepted scenario small
    with mock.patch.dict(os.environ, {"ENTGROVER_MEMORY_CAP": str(1 << 20)}):
        code, _ = run_cli([command, "--config", str(cfg), "--out", str(work / "r"), *extra])
    assert code in (0, 1, 2)
