"""Benchmark workloads: CLI arguments generated from a seed, and report checks.

Sizes and marked counts are fixed per workload, so the amount of work does
not depend on the seed; the seed draws the marked set, the state and the
sector averages (and, for ``count``, the sampling seed; for ``verify``, the
corpus seed).  Each check re-derives what it can from the scenario with an
algorithm the program does not use, so a wrong report is caught even when
the program's own checks pass.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import CRITERIA

VERIFY_CONFIG = Path("scripts") / "configs" / "verify_default.json"
VERIFY_WORKERS = 2

# Verify criteria whose value is a floor or a slack, not a deviation.
NON_DEVIATION_CRITERIA = ("sufficient_averages", "estimator_bound", "determinism")

# Agreement required between the report and this module's own simulation.
REFEREE_ATOL = 1e-9


@dataclass(frozen=True)
class Workload:
    # (seed, checkout root, work dir) -> (cli argv without --out, scenario or None)
    make: Callable[[int, Path, Path], tuple[list[str], dict | None]]
    # (report, scenario, seed) -> problems found
    check: Callable[[dict, dict | None, int], list[str]]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % (1 << 63))


def _unit_vector(rng: np.random.Generator, dim: int) -> list[list[float]]:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return [[float(z.real), float(z.imag)] for z in v]


def find_scenario(seed: int, n_qubits: int, data_dim: int, t: int) -> dict:
    rng = _rng(seed)
    state_seed, good_seed = (int(x) for x in rng.integers(0, 1 << 31, 2))
    return {
        "schema_version": 1,
        "kind": "find",
        "n_qubits": n_qubits,
        "data_dim": data_dim,
        "state": {
            "type": "random",
            "seed": state_seed,
            "var_g": 0.1,
            "var_b": 0.05,
            "g_avg": _unit_vector(rng, data_dim),
            "b_avg": _unit_vector(rng, data_dim),
        },
        "good": {"t": t, "seed": good_seed},
    }


def count_scenario(seed: int) -> dict:
    scenario = find_scenario(seed, n_qubits=12, data_dim=1, t=100)
    sample_seed = int(_rng(seed + 1).integers(0, 1 << 31))
    scenario.update(kind="count", P=1024, repetitions=101, seed=sample_seed)
    return scenario


def _write_scenario(scenario: dict, work: Path) -> list[str]:
    path = work / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    return [scenario["kind"], "--config", str(path)]


def verify_seed(seed: int) -> int:
    return int(_rng(seed).integers(0, 1 << 31))


# -- independent referee ----------------------------------------------------


def _input_state(scenario: dict):
    """The scenario's initial table and marked mask, built by the package."""
    from entgrover import harness

    n_states = 1 << scenario["n_qubits"]
    good = harness.build_good(scenario["good"], n_states)
    state = harness.build_state(
        scenario["state"], scenario["n_qubits"], scenario["data_dim"], good
    )
    return np.array(state.coeffs), good.mask(n_states)


def _reflect_about_mean(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One step -W S0 W S_H, written as 2|u><u| - I after the phase flip."""
    x = rows.copy()
    x[mask] = -x[mask]
    return 2.0 * x.mean(axis=0) - x


def _good_mass(rows: np.ndarray, mask: np.ndarray) -> float:
    g = rows[mask]
    return float(np.sum(g.real**2 + g.imag**2)) / rows.shape[0]


def _failed_checks(report: dict) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("report says passed is not true")
    for c in report.get("checks", []):
        if not c["passed"]:
            problems.append(f"check {c['name']} failed: {c['value']!r} vs {c['tolerance']!r}")
    return problems


def check_find(report: dict, scenario: dict, seed: int) -> list[str]:
    problems = _failed_checks(report)
    n_states = 1 << scenario["n_qubits"]
    t = scenario["good"]["t"]
    theta = math.asin(math.sqrt(t / n_states))
    n_max = math.ceil(2.0 * math.pi / theta)
    for key, want in (("n_states", n_states), ("data_dim", scenario["data_dim"]), ("t", t)):
        if report.get(key) != want:
            problems.append(f"{key} is {report.get(key)!r}, expected {want!r}")
    if abs(report["theta"] - theta) > 1e-12:
        problems.append(f"theta {report['theta']!r} differs from asin(sqrt(t/N)) = {theta!r}")
    table = report["table"]
    if [row["n"] for row in table] != list(range(n_max + 1)):
        problems.append(f"table does not cover n = 0..{n_max}")
        return problems
    rows, mask = _input_state(scenario)
    worst = 0.0
    for row in table:
        p = _good_mass(rows, mask)
        worst = max(worst, abs(row["p_simulated"] - p), abs(row["p_analytic"] - p))
        rows = _reflect_about_mean(rows, mask)
    if not worst < REFEREE_ATOL:
        problems.append(f"P(n) differs from the referee simulation by {worst!r}")
    return problems


def check_count(report: dict, scenario: dict, seed: int) -> list[str]:
    problems = _failed_checks(report)
    c = report["count"]
    p_size, reps = scenario["P"], scenario["repetitions"]
    n_states = 1 << scenario["n_qubits"]
    t = scenario["good"]["t"]
    if (c["P"], c["N"], c["t_true"]) != (p_size, n_states, t):
        problems.append(f"P, N, t_true are {(c['P'], c['N'], c['t_true'])}")

    # Referee circuit: powers by reflection about the mean, numpy's FFT.
    rows, mask = _input_state(scenario)
    amps = np.empty((p_size,) + rows.shape, dtype=np.complex128)
    for m in range(p_size):
        amps[m] = rows
        rows = _reflect_about_mean(rows, mask)
    spec = np.fft.ifft(amps, axis=0, norm="ortho")
    del amps
    dist = np.sum(spec.real**2 + spec.imag**2, axis=(1, 2)) / (p_size * n_states)
    del spec
    got = np.array(report["ancilla_distribution"])
    dev = float(np.max(np.abs(got - dist))) if got.shape == dist.shape else math.inf
    if not dev < REFEREE_ATOL:
        problems.append(f"ancilla distribution differs from the referee by {dev!r}")

    f = p_size * math.asin(math.sqrt(t / n_states)) / math.pi
    lo = math.floor(f)
    window = [lo, lo + 1, p_size - lo - 1, p_size - lo]
    if c["window"] != window:
        problems.append(f"window {c['window']} is not {window}")
    mass = float(sum(dist[m] for m in window))
    if not abs(c["W_predicted"] - mass) < REFEREE_ATOL:
        problems.append(f"W_predicted {c['W_predicted']!r} vs referee mass {mass!r}")

    outcomes = c["outcomes"]
    counts = Counter(outcomes)
    if len(outcomes) != reps or not all(0 <= m < p_size for m in outcomes):
        problems.append("outcomes are not repetitions draws from [0, P)")
    majority = min(counts, key=lambda m: (-counts[m], m))
    if c["majority_m"] != majority:
        problems.append(f"majority_m {c['majority_m']} is not the mode {majority}")
    if c["W_empirical"] != sum(counts[m] for m in window) / reps:
        problems.append("W_empirical does not match the samples")
    f_tilde = min(majority, p_size - majority)
    t_tilde = n_states * math.sin(math.pi * f_tilde / p_size) ** 2
    bound = math.pi * n_states * (math.pi / p_size + 2.0 * math.sqrt(t / n_states)) / p_size
    if abs(c["majority_t"] - t_tilde) > 1e-9 * n_states or abs(c["bound"] - bound) > 1e-9:
        problems.append("majority_t or bound does not match its formula")
    if not abs(t_tilde - t) <= bound:
        problems.append(f"estimate {t_tilde!r} is outside t = {t} +- {bound!r}")
    return problems


def check_verify(report: dict, scenario: dict | None, seed: int) -> list[str]:
    problems = []
    if report.get("passed") is not True:
        problems.append("report says passed is not true")
    if report["config"]["base_seed"] != verify_seed(seed):
        problems.append("corpus seed was not applied")
    names = [c["name"] for c in report["criteria"]]
    if tuple(names) != CRITERIA:
        problems.append(f"criteria are {names}")
    for c in report["criteria"]:
        if not c["passed"]:
            problems.append(f"criterion {c['name']} failed: {c['detail']}")
        elif c["name"] not in NON_DEVIATION_CRITERIA and not c["max_deviation"] < c["tolerance"]:
            problems.append(f"criterion {c['name']} passed with deviation >= tolerance")
    if report["counts"] != {"total": 11, "passed": 11, "failed": 0}:
        problems.append(f"counts are {report['counts']}")
    return problems


def min_margin(report: dict) -> float | None:
    """Smallest tolerance / value over the report's deviation checks."""
    pairs = [(c["tolerance"], c["value"]) for c in report.get("checks", [])]
    pairs += [
        (c["tolerance"], c["max_deviation"])
        for c in report.get("criteria", [])
        if c["name"] not in NON_DEVIATION_CRITERIA
    ]
    margins = [tol / value for tol, value in pairs if tol > 0 and value > 0]
    return min(margins) if margins else None


# -- the workloads ------------------------------------------------------------


def _find(n_qubits: int, data_dim: int, t: int):
    def make(seed: int, root: Path, work: Path):
        scenario = find_scenario(seed, n_qubits, data_dim, t)
        return _write_scenario(scenario, work), scenario

    return make


def _make_count(seed: int, root: Path, work: Path):
    scenario = count_scenario(seed)
    return _write_scenario(scenario, work), scenario


def _make_verify(seed: int, root: Path, work: Path):
    argv = [
        "verify",
        "--config", str(root / VERIFY_CONFIG),
        "--workers", str(VERIFY_WORKERS),
        "--seed", str(verify_seed(seed)),
    ]
    return argv, None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "find-wide": Workload(_find(12, 64, 300), check_find),
    "find-tall": Workload(_find(16, 4, 4000), check_find),
    "count": Workload(_make_count, check_count),
    "verify": Workload(_make_verify, check_verify),
}
