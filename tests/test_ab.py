"""The A/B runner (``scripts/ab.py``) with the same commit on both sides."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_ab_writes_a_bench_file_of_its_schema(tmp_path):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), "HEAD", "--workloads", "count",
         "--pairs", "1", "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["schema"] == "entgrover-ab/1"
    assert bench["parent"]["commit"] == bench["change"]["commit"]
    assert {"python", "numpy", "nproc"} <= set(bench["environment"])
    (workload,) = bench["workloads"].values()
    assert workload["failed"] == {"parent": [], "change": []}
    (report,) = workload["reports"]
    assert report["seed"] == 1 and report["same"] and len(report["parent"]) == 64
    assert set(workload["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in workload["metrics"].values():
        assert len(metric["parent"]) == len(metric["change"]) == 1
        assert set(metric["median"]) == set(metric["quartiles"]) == {"parent", "change"}
        assert sum(metric["pairs_won"].values()) == 1
        assert metric["verdict"] in {"better", "within bound", "worse", "unresolved"}
    margin = workload["metrics"]["min_margin"]
    assert margin["parent"] == margin["change"]


def series(*files):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), "--series", *files],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_series_prints_one_median_series_per_workload_and_metric():
    files = [ROOT / f"BENCH_{n}.json" for n in (27, 28, 29)]
    benches = [json.loads(path.read_text()) for path in files]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    want = []
    for workload in benches[0]["workloads"]:
        cells = {metric: [] for metric in metrics}
        for path, bench in zip(files, benches):
            for metric in metrics:
                m = bench["workloads"][workload]["metrics"][metric]
                cells[metric].append(f"{path.stem} {m['median']['parent']:.4g} -> "
                                     f"{m['median']['change']:.4g} ({m['verdict']})")
        want += [f"{workload} {metric}: " + "; ".join(cells[metric]) for metric in metrics]
    assert len(want) == 12
    assert series(*map(str, files)) == want
    # by default every BENCH file at the root, in PR order, and older layouts
    # (BENCH_26 and before) are skipped: later files add cells at the end
    default = series()
    assert len(default) == len(want)
    assert all(line == w or line.startswith(w + "; ") for line, w in zip(default, want))
