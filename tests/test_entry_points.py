"""The shipped configs run through the CLI, in process and as a process, the
demo scripts run to completion, the benchmark's tracer still finds every name
it rebinds, and the benchmark's workloads pass its own correctness checks.

``verify_default.json`` is left out: acceptance criterion 11 already runs
the full battery through the CLI three times.
"""
import importlib
import importlib.util
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import planted
from entgrover import cli, grover

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("name", ["find_flat", "find_random", "count_flat", "sweep_small"])
def test_shipped_config_exits_0(name, tmp_path):
    config = SCRIPTS / "configs" / f"{name}.json"
    command = json.loads(config.read_text())["kind"]
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "report")]) == 0


@pytest.mark.parametrize("deep, code", [(False, 0), (True, 1)], ids=["shipped", "deep"])
def test_cli_process_exits_without_a_traceback(deep, code, tmp_path):
    """``python -m entgrover.cli`` on a shipped config, and on a config nested
    10^4 levels deep, which ended in a RecursionError traceback.  An uncaught
    exception exits 1 too, so only stderr tells the two apart."""
    config = SCRIPTS / "configs" / "find_flat.json"
    if deep:
        config = tmp_path / "deep.json"
        config.write_text("[" * 10**4 + "]" * 10**4)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run(
        [sys.executable, "-m", "entgrover.cli", "find", "--config", str(config),
         "--out", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == code and "Traceback" not in run.stderr, run.stderr
    assert deep == ("field 'config'" in run.stderr)


# Runs each shipped config named on its command line through ``cli.main``, in
# order, and prints whether the battery's module was loaded after each.
_BATTERY_PROBE = """
import sys
from entgrover import cli
configs, out = sys.argv[1], sys.argv[2]
for name in sys.argv[3:]:
    assert cli.main([name.split("_")[0], "--config", f"{configs}/{name}.json", "--out", out]) == 0
    print(name, "entgrover.checks" in sys.modules)
"""


def test_only_verify_loads_the_battery(tmp_path):
    """A fresh interpreter runs find, count and sweep without loading
    ``entgrover.checks``; a verify run then loads it."""
    names = ["find_flat", "count_flat", "sweep_small", "verify_default"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run(
        [sys.executable, "-c", _BATTERY_PROBE, str(SCRIPTS / "configs"),
         str(tmp_path / "report"), *names],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [word for name in names
                                  for word in (name, str(name == "verify_default"))]


@pytest.mark.parametrize("script", ["demo_find.py", "demo_count.py"])
def test_demo_script_runs(script, capsys):
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert capsys.readouterr().out


def _namespaces():
    """Every global of the package's modules, by identity."""
    return {
        (name, key): id(value)
        for name, module in sys.modules.items()
        if name == "entgrover" or name.startswith("entgrover.")
        for key, value in vars(module).items()
    }


def test_benchmark_tracer_rebinds_and_restores_the_package():
    """A traced benchmark run enters ``perfbench/tracer.py``'s ``Tracer``, which
    looks up each layer's functions by name: a renamed or deleted one fails
    here, where only the benchmark's own tests would otherwise notice."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    trajectory, before = grover.grover_trajectory, _namespaces()
    with tracer.Tracer("tier1"):
        assert grover.grover_trajectory is not trajectory
    assert grover.grover_trajectory is trajectory
    assert _namespaces() == before


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, imported by name and gone again after."""
    for module in ("workloads", "tracer"):
        monkeypatch.delitem(sys.modules, module, raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["count", "find-wide", "verify"])
def test_benchmark_workload_passes_the_benchmarks_check(name, workloads, tmp_path):
    """Seed 1 of a benchmark workload, run through ``cli.main`` in process, passes
    ``perfbench/workloads.py``'s own check: its referee simulation and report
    fields.  A report the benchmark would call incorrect fails here first."""
    workload = workloads.WORKLOADS[name]
    argv, scenario = workload.make(1, ROOT, tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert workload.check(json.loads(out.read_text()), scenario, 1) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_find_wide_exits_2_on_a_step_scaled_by_1e_13(seed, workloads, monkeypatch, tmp_path):
    """The benchmark's find-wide run (N = 2^12, D = 64, t = 300, a random
    state) exits 0, and exits 2 once every step is scaled by (1 + 1e-13).
    With an accurate step its ``min_margin`` reads thousands, by seed, so
    an A/B of that metric cannot see such a drift; the planted step reads a
    margin of 0.435 on every seed."""
    argv, _ = workloads.WORKLOADS["find-wide"].make(seed, ROOT, tmp_path)
    argv += ["--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    step = planted(grover._step_rows, "    return out", "    out *= 1.0 + 1e-13\n    return out")
    monkeypatch.setattr(grover, "_step_rows", step)
    assert cli.main(argv) == 2
