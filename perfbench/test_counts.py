"""Exact counts from traced runs of the benchmark workloads (about a minute).

    PYTHONPATH=src python3 -m pytest perfbench/test_counts.py -q

The counts repeat exactly between runs, and on find-wide and count they
do not depend on the workload seed either: the seed draws the state and
the marked set, not the sizes.  Exempt from the cross-seed half are
harness.report_bytes (float digits differ from seed to seed); verify,
whose probability-law horizon depends on the corpus marked counts the seed
draws (grover.steps 11792..11897 over seeds 11..15); and find-tall, whose
runs abort at the second or third step depending on the seed's rounding.
"""
import functools
import shutil
import time

import pytest

import run
import tracer
from workloads import WORKLOADS

EXACT = (
    "grover.steps",
    "qstate.validate_calls",
    "counting.circuit_calls",
    "analytic.recurrence_calls",
    "harness.report_bytes",
)
SEED_A, SEED_B = 101, 202


@functools.lru_cache(maxsize=None)
def traced(workload: str, seed: int, attempt: int):
    """(metrics, self times, repetition, process CPU seconds) of one traced run."""
    from entgrover import cli

    work = run.OUT_DIR / f"test-{workload}-{seed}-{attempt}"
    work.mkdir(parents=True, exist_ok=True)
    argv, _ = WORKLOADS[workload].make(seed, run.ROOT, work)
    tr = tracer.Tracer(f"{workload}-{seed}-{attempt}")
    cpu = time.process_time()
    try:
        with tr:
            rep = run.run_once(tr.wrap(cli.main, "cli.main"), argv, work / "report.out")
    finally:
        cpu = time.process_time() - cpu
        shutil.rmtree(work)
    metrics = tracer.span_metrics(tr.spans, len(rep.data) if rep.data else 0)
    return metrics, tracer.self_times(tr.spans), rep, cpu


@pytest.mark.parametrize("workload", ["find-wide", "find-tall", "count", "verify"])
def test_counts_repeat_exactly(workload):
    first = traced(workload, SEED_A, 0)[0]
    second = traced(workload, SEED_A, 1)[0]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


@pytest.mark.parametrize("workload", ["find-wide", "count"])
def test_counts_do_not_depend_on_the_seed(workload):
    a = traced(workload, SEED_A, 0)[0]
    b = traced(workload, SEED_B, 0)[0]
    seed_free = [k for k in EXACT if k != "harness.report_bytes"]
    assert {k: a[k] for k in seed_free} == {k: b[k] for k in seed_free}


def test_seed_readings_of_the_counts():
    wide = traced("find-wide", SEED_A, 0)[0]
    assert (wide["grover.steps"], wide["qstate.validate_calls"]) == (23, 48)
    count = traced("count", SEED_A, 0)[0]
    assert count["counting.circuit_calls"] == 2
    verify = traced("verify", SEED_A, 0)[0]
    assert verify["analytic.recurrence_calls"] == 5240


def test_find_tall_fails_in_the_norm_gate():
    rep = traced("find-tall", SEED_A, 0)[2]
    assert rep.error is not None and "total squared norm must equal N=65536" in rep.error


@pytest.mark.parametrize("workload", ["find-wide", "count", "verify"])
def test_self_times_are_non_negative_and_sum_to_the_wall_time(workload, tmp_path):
    from entgrover import cli

    _, own, rep, cpu = traced(workload, SEED_A, 0)
    assert min(own) >= 0.0
    # Every CPU second of the run is in exactly one span's self time.
    assert abs(sum(own) - cpu) <= 0.01 * cpu
    argv, _ = WORKLOADS[workload].make(SEED_A, run.ROOT, tmp_path)
    plain = run.run_once(cli.main, argv, tmp_path / "report.out")
    overhead = rep.seconds / plain.seconds - 1.0
    # Thread CPU exceeds wall time where numpy releases the interpreter
    # lock and the verify pool's threads overlap (3-6% measured on 2 cores),
    # and one untraced sample makes the overhead itself noisy.
    assert abs(sum(own) - rep.seconds) <= max(overhead, 0.10) * rep.seconds
