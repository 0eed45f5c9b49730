"""The memory plan (``entgrover.memory``) held to traced peaks.

A generated property draws parse-valid ``find``, ``count`` and one-cell
``sweep`` scenarios at N*D <= 2^10; ``verify``, whose sizes are fixed, is an
example (the hand-written cap boundaries of ``test_harness``, ``test_inputs``
and ``test_audit`` run through the same check, ``conftest.holds_at_its_plan``).
Each runs at a cap equal to its planned
peak, where it must end as it does under the default cap and trace at most
``SLACK`` bytes over the plan, and at one byte less, where it must exit 1
naming the field of the plan's first term over the cap (a sweep marks its
cell skipped instead).  A dropped term and an extra table each break it.  The
plan's formulas and constants live in one module: an ``ast`` guard keeps the
cap check and every charge constant there.
"""
import ast
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import holds_at_its_plan, planted, run_cli
from entgrover import audit, from_amplitudes, harness, memory
from entgrover.harness import parse_scenario, run_scenario

SRC = Path(__file__).resolve().parent.parent / "src" / "entgrover"

# find at 4096 x 64: an extra table (4 MiB) shows far above the slack.
WIDE = {"kind": "find", "n_qubits": 12, "data_dim": 64, "iterations": 4,
        "state": {"type": "random", "seed": 1, "var_b": 0.05}, "good": {"t": 300, "seed": 2}}


@st.composite
def small_scenarios(draw):
    """A parse-valid find, count or one-cell sweep at N*D <= 2^10 that runs to a
    report; a ``file`` state is to be written as a random table of its shape."""
    kind = draw(st.sampled_from(["find", "count", "sweep"]))
    nq = draw(st.integers(1, 10))
    d = draw(st.integers(1, 1 << (10 - nq)))
    n = 1 << nq
    good = draw(st.one_of(
        st.fixed_dictionaries({"t": st.integers(0, n), "seed": st.integers(0, 9)}),
        st.fixed_dictionaries({"indices": st.lists(st.integers(0, n - 1), unique=True,
                                                   max_size=8)}),
    ))
    t = good.get("t", len(good.get("indices", ())))
    state = {"type": draw(st.sampled_from(["flat", "random"] + ["file"] * (kind != "sweep")))}
    if state["type"] == "random":
        if t >= 2:
            state["var_g"] = draw(st.floats(0, 0.3))
        if n - t >= 2:
            state["var_b"] = draw(st.floats(0, 0.3))
    seed = draw(st.integers(0, 9))
    if kind == "sweep":
        grid = {"n_qubits": [nq], "data_dim": [d], "t": [t], "seeds": [seed],
                "P": draw(st.sampled_from([[], [2], [4], [16], [64]]))}
        scenario = {"kind": kind, "grid": grid, "state": state,
                    "output_format": draw(st.sampled_from(["json", "csv"]))}
    else:
        if state["type"] != "flat":
            state["seed"] = seed
        scenario = {"kind": kind, "n_qubits": nq, "data_dim": d, "state": state, "good": good}
    if kind == "count":
        scenario.update(P=draw(st.sampled_from([2, 4, 16, 64, 1024])),
                        repetitions=draw(st.integers(1, 300)), seed=seed)
    else:
        iterations = draw(st.one_of(st.none(), st.integers(0, 40)))
        if iterations is not None:
            scenario["iterations"] = iterations
    return scenario


def with_state_file(scenario, work):
    """``scenario`` with its ``file`` state written to ``work`` as a random table."""
    if scenario.get("state", {}).get("type") != "file":
        return scenario
    shape = (1 << scenario["n_qubits"], scenario["data_dim"])
    rng = np.random.default_rng(scenario["state"]["seed"])
    table = from_amplitudes(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            renormalize=True)
    path = work / "state.json"
    path.write_text(json.dumps(table.to_json_obj()))
    return dict(scenario, state={"type": "file", "path": str(path)})


@settings(deadline=None, max_examples=30, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenario=small_scenarios())
@example(scenario={"kind": "verify"})
def test_a_run_fits_its_plan(tmp_path_factory, scenario):
    work = tmp_path_factory.mktemp("plan")
    holds_at_its_plan(with_state_file(scenario, work), work)


@pytest.mark.parametrize(
    "fn, old, new, scenario",
    [
        # the readings of 501 steps go uncharged
        (memory.plan, "audit(n, d, 0, size), audit(n, d, horizon + 1, blame)",
         "audit(n, d, 0, size)", {"kind": "find", "n_qubits": 1, "good": {"t": 1, "seed": 0},
                                  "iterations": 500}),
        # one more table a step of the audit's chunks
        (audit._audit_n, "chunks = [(k, n_big, width), (k, b, n_big, d)]",
         "chunks = [(k, n_big, width), (k, b, n_big, d), (k, n_big, width)]", WIDE),
    ],
    ids=["dropped-term", "extra-table"],
)
def test_the_property_fails_on_a_planted_fault(tmp_path, monkeypatch, fn, old, new, scenario):
    monkeypatch.setattr(memory if fn is memory.plan else audit, fn.__name__,
                        planted(fn, old, new))
    with pytest.raises(AssertionError, match="bytes over the plan"):
        holds_at_its_plan(scenario, tmp_path)


def test_a_state_file_is_charged_before_it_is_parsed(tmp_path, monkeypatch):
    """A 2^18-row file read by a 1-qubit find under a 64 KiB cap: it was parsed
    whole, to 101.6 MB of max RSS, before the run exited 1 on its n_qubits."""
    path = tmp_path / "big.json"
    path.write_text('{"n_qubits": 18, "data_dim": 1, "rows": ['
                    + ", ".join(["[[1.0, 0.0]]"] * (1 << 18)) + "]}")
    s = parse_scenario({"kind": "find", "n_qubits": 1, "good": {"t": 1, "seed": 0},
                        "state": {"type": "file", "path": str(path)}})
    monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(1 << 16))
    tracemalloc.start()
    try:
        with pytest.raises(memory.qstate.MemoryLimitError, match="field 'state.path' is too"):
            run_scenario(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_densest_state_file_reads_within_its_charge(tmp_path):
    """One bare integer a row, without spaces, is the densest text that parses to
    the most objects: at 2^14 x 1 tracemalloc read 32.1 bytes a file byte, and
    the charge (``_FILE_BYTES`` a byte) holds it with at most 30% to spare."""
    nq = 14
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"n_qubits": nq, "data_dim": 1, "rows": [[1]] * (1 << nq)},
                               separators=(",", ":")))
    harness._read_state_file(str(path), nq, 1)
    tracemalloc.start()
    try:
        harness._read_state_file(str(path), nq, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = memory.state_file(str(path)).bytes
    assert peak <= charge <= 1.3 * peak


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A random 2^16 x 4 state and the file it is written to."""
    rng = np.random.default_rng(5)
    shape = (1 << 16, 4)
    state = from_amplitudes(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                            renormalize=True)
    path = tmp_path_factory.mktemp("written") / "state.json"
    path.write_text(json.dumps(state.to_json_obj()))
    return state, path


def test_a_written_2_16_by_4_state_reads_under_the_default_cap(written):
    state, path = written
    s = parse_scenario({"kind": "find", "n_qubits": 16, "data_dim": 4, "iterations": 0,
                        "good": {"t": 1, "seed": 0}, "state": {"type": "file", "path": str(path)}})
    _, back, _ = harness._setup(s)
    assert np.array_equal(back.coeffs, state.coeffs)


def test_a_state_file_is_read_into_the_states_own_table(written):
    """The read holds the parsed file and one table, filled row by row and handed
    to the norm gate: at 2^16 x 4 tracemalloc read 12.80 tables.  Read into a
    list of rows, then an array and the constructor's copy of it, the read peaked
    at 16.52 tables (CPython 3.11, numpy 2.4.6)."""
    state, path = written
    tracemalloc.start()
    try:
        back = harness._read_state_file(str(path), 16, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.coeffs, state.coeffs)
    assert peak <= 14 * state.coeffs.nbytes


@pytest.mark.parametrize("kind", ["flat", "random", "file"])
def test_building_a_state_and_its_moments_fits_the_build_term(written, kind):
    """At 2^16 x 4, ``_setup`` and ``moments`` peak within the plan's build term;
    a file state's parse within its own term (``memory.state_file``).  Before the
    construction was charged, a flat state read 3.0 tables to build and a random
    one 3.1-4.1, with 3.0-3.5 more for its moments, against one table."""
    state = {"type": kind}
    if kind == "random":
        state.update(seed=1, var_b=0.05)
    if kind == "file":
        state = {"type": "file", "path": str(written[1])}
    s = parse_scenario({"kind": "count", "n_qubits": 16, "data_dim": 4, "P": 4, "seed": 1,
                        "state": state, "good": {"t": 1, "seed": 0}})
    build, *terms = memory.plan(s)
    if kind != "file":  # a parse dwarfs the first call's caches
        harness._setup(s)
    tracemalloc.start()
    try:
        good, built, _ = harness._setup(s)
        setup = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        memory.qstate.moments(built, good)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build.what.startswith("building a state of 262144 amplitudes")
    assert setup <= (terms[-1].bytes if kind == "file" else build.bytes)
    assert read <= build.bytes


def test_a_flat_2_24_find_fits_the_default_cap(monkeypatch):
    """The plan alone (nothing is run): a flat find at N = 2^24, D = 1, t = 1, its
    default horizon the longest, holds its state and two tables of the audit
    (943 MiB).  Charged three, the audit asked for 1,224,736,864 bytes."""
    monkeypatch.delenv("ENTGROVER_MEMORY_CAP", raising=False)
    s = parse_scenario({"kind": "find", "n_qubits": 24, "good": {"t": 1, "seed": 0}})
    assert memory.check(memory.plan(s)) <= memory.qstate.memory_cap_bytes()


def test_the_verdict_line_carries_the_planned_peak(tmp_path):
    scenario = {"kind": "find", "n_qubits": 2, "good": {"indices": [0]}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(scenario))
    code, err = run_cli(["find", "--config", str(cfg), "--out", str(tmp_path / "r")])
    peak = max(term.bytes for term in memory.plan(parse_scenario(scenario)))
    assert code == 0
    assert re.fullmatch(rf"entgrover: find: pass in \d+\.\d\ds \(plan {peak / 1e6:.2f} MB\)\n",
                        err), err


def test_charges_live_in_the_plan_module_only():
    """No module but ``memory`` defines a charge constant (a module-level
    ``*_BYTES`` name) or a ``Term``, and no module defines or calls
    ``check_bytes`` or a ``check_*_memory``: elsewhere ``memory.check`` is handed ``memory.plan`` or
    a list of memory's own terms, so each formula is stated once."""
    for path in SRC.glob("*.py"):
        module = path.stem
        tree = ast.parse(path.read_text())
        constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                     for target in node.targets
                     if isinstance(target, ast.Name) and target.id.endswith("_BYTES")}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not {n for n in names if n == "check_bytes" or re.fullmatch(r"check_\w*memory", n)}
        if module == "memory":
            continue
        assert not constants, module
        assert "Term" not in names, module
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "check"
                    and getattr(node.func.value, "id", None) == "memory"):
                (arg,) = node.args
                calls = arg.elts if isinstance(arg, ast.List) else [arg]
                assert all(isinstance(c, ast.Call)
                           and getattr(c.func.value, "id", None) == "memory"
                           for c in calls), (module, node.lineno)
