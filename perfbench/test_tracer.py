"""Fast checks of the tracer and of BENCHMARK.json against the benchmark code.

    PYTHONPATH=src python3 -m pytest perfbench/test_tracer.py -q
"""
import json
import sys

import run
import tracer
from workloads import WORKLOADS


def _busy(k: int) -> int:
    return sum(range(20_000 * k))


def test_pool_spans_keep_their_parent_and_non_negative_self_time():
    tr = tracer.Tracer("pool")
    leaf = tr.wrap(_busy, "grover.step")
    task = tr.wrap(lambda k: leaf(k) + leaf(k), "checks.task")

    def root():
        with tracer.ContextPool(max_workers=4) as pool:
            return list(pool.map(task, range(1, 13)))

    tr.wrap(root, "cli.main")()
    by_id = {s.id: s for s in tr.spans}
    main = next(s for s in tr.spans if s.name == "cli.main")
    for span in tr.spans:
        if span.name == "checks.task":
            assert span.parent == main.id
            assert span.thread != main.thread
        elif span.name == "grover.step":
            parent = by_id[span.parent]
            assert parent.name == "checks.task" and parent.thread == span.thread
    assert min(tracer.self_times(tr.spans)) >= 0.0


def test_self_time_subtracts_same_thread_children():
    tr = tracer.Tracer("nest")
    inner = tr.wrap(_busy, "qstate.moments")
    outer = tr.wrap(lambda: inner(20) + _busy(20), "analytic.closed_form")
    outer()
    own = dict(zip((s.name for s in tr.spans), tracer.self_times(tr.spans)))
    spans = {s.name: s for s in tr.spans}
    total = spans["analytic.closed_form"].cpu_end - spans["analytic.closed_form"].cpu_start
    assert own["analytic.closed_form"] + own["qstate.moments"] == total
    assert 0.0 < own["qstate.moments"] < total


def test_install_rebinds_every_reference_and_restores_it():
    from entgrover import checks, grover, harness, qstate

    mods = [m for n, m in sys.modules.items() if n.startswith("entgrover")]
    before = [(m, dict(vars(m))) for m in mods]
    runners, criteria = dict(harness.RUNNERS), checks.CHECKS
    post_init = qstate.EntangledState.__dict__["__post_init__"]
    trajectory = grover.grover_trajectory
    with tracer.Tracer("install"):
        assert harness.RUNNERS["find"] is not runners["find"]
        assert all(a is not b for a, b in zip(checks.CHECKS, criteria))
        assert grover.grover_trajectory is not trajectory
        assert harness.grover.grover_trajectory is grover.grover_trajectory
        assert checks.ThreadPoolExecutor is tracer.ContextPool
    for mod, ns in before:
        assert all(vars(mod)[k] is v for k, v in ns.items())
    assert harness.RUNNERS == runners and checks.CHECKS is criteria
    assert qstate.EntangledState.__dict__["__post_init__"] is post_init


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    from entgrover import cli

    argv = ["find", "--config", str(run.ROOT / "scripts" / "configs" / "find_random.json")]
    plain = run.run_once(cli.main, argv, tmp_path / "plain.json")
    tr = tracer.Tracer("bytes")
    with tr:
        traced = run.run_once(tr.wrap(cli.main, "cli.main"), argv, tmp_path / "traced.json")
    assert plain.error is None and traced.error is None
    assert plain.data == traced.data
    assert {s.name for s in tr.spans} >= {"cli.main", "harness.parse", "harness.audit",
                                           "grover.step", "qstate.validate", "harness.serialize"}


def test_benchmark_json_names_what_run_py_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
