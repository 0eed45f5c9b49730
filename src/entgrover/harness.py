"""Reproducible experiment runner: JSON scenarios in, deterministic reports out.

A scenario names everything explicitly (state, marked set, seeds, sizes,
tolerances); identical scenarios produce byte-identical report artifacts.
Wall-clock timings are therefore never part of the canonical serialized
report -- runners record them on the report object and the CLI prints them
to stderr, and sweep rows only carry a runtime column when
``include_timings`` is set.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import analytic, counting, grover, qstate
from .checks import Tolerances, VerifyConfig, results_to_json_obj, run_checks

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Configuration problem; messages name the offending field."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    n_qubits: int | None = None
    data_dim: int = 1
    state_spec: dict = field(default_factory=lambda: {"type": "flat"})
    good_spec: dict | None = None
    iterations: int | None = None
    p_size: int | None = None
    repetitions: int = 1
    seed: int | None = None
    grid: dict | None = None
    verify_overrides: dict = field(default_factory=dict)
    output_format: str = "json"
    workers: int = 1
    include_timings: bool = False
    tolerances: Tolerances = field(default_factory=Tolerances)
    echo: dict = field(default_factory=dict)


@dataclass
class Report:
    kind: str
    scenario_echo: dict
    payload: dict
    passed: bool
    wall_clock_s: float = 0.0

    def to_json_obj(self) -> dict:
        obj = {"schema_version": SCHEMA_VERSION, "kind": self.kind, "scenario": self.scenario_echo}
        obj.update(self.payload)
        obj["passed"] = self.passed
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        rows = self.payload.get("rows")
        columns = self.payload.get("columns")
        if rows is None or columns is None:
            raise ScenarioError("csv output is only available for sweep reports")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return buf.getvalue()


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _require(obj: dict, name: str, kinds: type | tuple, where: str) -> Any:
    if name not in obj:
        raise ScenarioError(f"{where}: missing required field '{name}'")
    value = obj[name]
    if not isinstance(value, kinds):
        raise ScenarioError(f"{where}: field '{name}' has wrong type {type(value).__name__}")
    return value


def _optional(obj: dict, name: str, kinds: type | tuple, where: str, default: Any = None) -> Any:
    if name not in obj or obj[name] is None:
        return default
    return _require(obj, name, kinds, where)


def parse_scenario(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("top level: scenario must be a JSON object")
    version = _optional(obj, "schema_version", int, "top level", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"top level: unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        )
    kind = _require(obj, "kind", str, "top level")
    if kind not in ("find", "count", "verify", "sweep"):
        raise ScenarioError(f"top level: field 'kind' must be find|count|verify|sweep, got {kind!r}")
    tol_obj = _optional(obj, "tolerances", dict, "top level", {})
    tolerances = Tolerances(
        amplitude=float(tol_obj.get("amplitude", 1e-9)),
        probability=float(tol_obj.get("probability", 1e-9)),
        unitarity=float(tol_obj.get("unitarity", 1e-12)),
    )
    scenario = Scenario(
        kind=kind,
        n_qubits=_optional(obj, "n_qubits", int, "top level"),
        data_dim=_optional(obj, "data_dim", int, "top level", 1),
        state_spec=_optional(obj, "state", dict, "top level", {"type": "flat"}),
        good_spec=_optional(obj, "good", dict, "top level"),
        iterations=_optional(obj, "iterations", int, "top level"),
        p_size=_optional(obj, "P", int, "top level"),
        repetitions=_optional(obj, "repetitions", int, "top level", 1),
        seed=_optional(obj, "seed", int, "top level"),
        grid=_optional(obj, "grid", dict, "top level"),
        verify_overrides=_optional(obj, "verify", dict, "top level", {}),
        output_format=_optional(obj, "output_format", str, "top level", "json"),
        workers=_optional(obj, "workers", int, "top level", 1),
        include_timings=bool(_optional(obj, "include_timings", bool, "top level", False)),
        tolerances=tolerances,
        echo=obj,
    )
    if scenario.output_format not in ("json", "csv"):
        raise ScenarioError("top level: field 'output_format' must be json or csv")
    if kind in ("find", "count") and scenario.n_qubits is None:
        raise ScenarioError(f"top level: kind '{kind}' requires field 'n_qubits'")
    if kind in ("find", "count") and scenario.good_spec is None:
        raise ScenarioError(f"top level: kind '{kind}' requires field 'good'")
    if kind == "count":
        if scenario.p_size is None:
            raise ScenarioError("top level: kind 'count' requires field 'P'")
        if scenario.p_size < 1 or scenario.p_size & (scenario.p_size - 1) != 0:
            raise ScenarioError(f"top level: field 'P' must be a power of two, got {scenario.p_size}")
        if scenario.seed is None:
            raise ScenarioError("top level: kind 'count' requires field 'seed' (no ambient randomness)")
    if kind == "sweep" and scenario.grid is None:
        raise ScenarioError("top level: kind 'sweep' requires field 'grid'")
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(obj)


def _complex_vector(raw: Any, dim: int, where: str) -> np.ndarray:
    if raw is None:
        vec = np.zeros(dim, dtype=np.complex128)
        vec[0] = 1.0
        return vec
    out = []
    for item in raw:
        if isinstance(item, (int, float)):
            out.append(complex(item))
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            out.append(complex(item[0], item[1]))
        else:
            raise ScenarioError(f"{where}: vector entries must be numbers or [re, im] pairs")
    if len(out) != dim:
        raise ScenarioError(f"{where}: vector must have length {dim}, got {len(out)}")
    return np.array(out, dtype=np.complex128)


def build_state(
    spec: dict, n_qubits: int | None, data_dim: int, good: qstate.GoodSet | None = None
) -> qstate.EntangledState:
    where = "state"
    kind = _require(spec, "type", str, where)
    if kind == "flat":
        if n_qubits is None:
            raise ScenarioError("state: flat state requires 'n_qubits'")
        return qstate.new_flat(n_qubits, data_dim)
    if kind == "file":
        path = _require(spec, "path", str, where)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"state: cannot read {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"state: {path!r} is not valid JSON: {exc.msg}") from exc
        return qstate.EntangledState.from_json_obj(obj)
    if kind == "random":
        if n_qubits is None:
            raise ScenarioError("state: random state requires 'n_qubits'")
        if good is None:
            raise ScenarioError("state: random state requires a marked set")
        seed = _require(spec, "seed", int, where)
        var_g = float(_optional(spec, "var_g", (int, float), where, 0.0))
        var_b = float(_optional(spec, "var_b", (int, float), where, 0.0))
        g_avg = _complex_vector(spec.get("g_avg"), data_dim, where)
        b_avg = _complex_vector(spec.get("b_avg"), data_dim, where)
        return qstate.random_with_moments(
            n_qubits, data_dim, good, var_g, var_b, g_avg, b_avg, seed=seed
        )
    raise ScenarioError(f"state: unknown type {kind!r} (expected flat|random|file)")


def build_good(spec: dict, n_states: int) -> qstate.GoodSet:
    where = "good"
    if "indices" in spec:
        indices = _require(spec, "indices", list, where)
        good = qstate.GoodSet(tuple(int(i) for i in indices))
        good.mask(n_states)
        return good
    if "t" in spec:
        t = _require(spec, "t", int, where)
        seed = _require(spec, "seed", int, where)
        return qstate.random_good_set(n_states, t, seed)
    raise ScenarioError("good: need either 'indices' or {'t', 'seed'}")


def _verify_config(s: Scenario) -> VerifyConfig:
    cfg = VerifyConfig(tolerances=s.tolerances)
    if s.seed is not None:
        # verdicts must not depend on the corpus seed; --seed exercises that
        cfg = replace(cfg, base_seed=s.seed)
    allowed = {
        "corpus_count",
        "n_qubits_list",
        "data_dims",
        "max_steps",
        "base_seed",
        "sweep_n_qubits",
        "sweep_p_sizes",
        "majority_repetitions",
        "sigma_samples",
        "averages_cases",
    }
    overrides = {}
    for key, value in s.verify_overrides.items():
        if key not in allowed:
            raise ScenarioError(f"verify: unknown field {key!r}")
        overrides[key] = tuple(value) if isinstance(value, list) else value
    return replace(cfg, **overrides)


def _check_dims(state: qstate.EntangledState, s: Scenario) -> None:
    if state.n_qubits != s.n_qubits or state.data_dim != s.data_dim:
        raise ScenarioError(
            f"state: dimensions {state.n_qubits} qubits x {state.data_dim} do not match "
            f"scenario n_qubits={s.n_qubits}, data_dim={s.data_dim}"
        )


def run_find(s: Scenario) -> Report:
    start = time.perf_counter()
    if s.kind != "find":
        raise ScenarioError(f"run_find needs kind 'find', got {s.kind!r}")
    n_states = 1 << s.n_qubits
    good = build_good(s.good_spec, n_states)
    state = build_state(s.state_spec, s.n_qubits, s.data_dim, good)
    _check_dims(state, s)
    tol = s.tolerances
    m = qstate.moments(state, good)
    degenerate_sector = not 0 < good.t < n_states

    if degenerate_sector:
        params = None
        n_max = s.iterations if s.iterations is not None else 16
    else:
        params = analytic.oscillation_params(m)
        n_max = s.iterations if s.iterations is not None else math.ceil(2.0 * math.pi / m.theta)

    table = []
    max_prob_dev = 0.0
    max_amp_dev = 0.0
    max_var_drift = 0.0
    max_norm_dev = 0.0
    for n, sim in grover.grover_trajectory(state, good, n_max):
        p_sim = qstate.good_mass(sim, good)
        if degenerate_sector:
            p_an = good.t / n_states
        else:
            p_an = analytic.success_probability(params, n)
        dev = abs(p_an - p_sim)
        max_prob_dev = max(max_prob_dev, dev)
        if not degenerate_sector:
            pred = analytic.closed_form_rows(state, good, n)
            max_amp_dev = max(max_amp_dev, float(np.max(np.abs(pred.coeffs - sim.coeffs))))
        mn = qstate.moments(sim, good)
        max_var_drift = max(max_var_drift, abs(mn.var_g - m.var_g), abs(mn.var_b - m.var_b))
        max_norm_dev = max(max_norm_dev, abs(sim.physical_norm() - 1.0))
        table.append({"n": n, "p_analytic": p_an, "p_simulated": p_sim, "abs_dev": dev})

    checks = [
        {"name": "probability_agreement", "value": max_prob_dev, "tolerance": tol.probability,
         "passed": max_prob_dev < tol.probability},
        {"name": "variance_conservation", "value": max_var_drift, "tolerance": tol.probability,
         "passed": max_var_drift < tol.probability},
        {"name": "unitarity", "value": max_norm_dev, "tolerance": tol.unitarity,
         "passed": max_norm_dev < tol.unitarity},
    ]
    if not degenerate_sector:
        checks.insert(1, {"name": "closed_form_agreement", "value": max_amp_dev,
                          "tolerance": tol.amplitude, "passed": max_amp_dev < tol.amplitude})

    payload: dict = {
        "n_states": n_states,
        "data_dim": s.data_dim,
        "t": good.t,
        "theta": m.theta,
        "degenerate_sector": degenerate_sector,
    }
    if params is not None:
        payload["oscillation"] = {
            "degenerate": params.degenerate,
            "p_av": params.p_av,
            "delta_p": params.delta_p,
            "phi_r": None if params.degenerate else params.phi_r,
            "phi_i": None if params.degenerate else params.phi_i,
        }
        if params.degenerate:
            payload["n0"] = None
            payload["best_integer_time"] = None
        else:
            payload["n0"] = analytic.optimal_times(params, 0)
            payload["best_integer_time"] = analytic.best_integer_time(params)
        payload["p_max"] = analytic.p_max(params)
    payload["table"] = table
    payload["max_probability_deviation"] = max_prob_dev
    payload["checks"] = checks
    passed = all(c["passed"] for c in checks)
    return Report(
        kind="find",
        scenario_echo=s.echo,
        payload=payload,
        passed=passed,
        wall_clock_s=time.perf_counter() - start,
    )


def run_count(s: Scenario) -> Report:
    start = time.perf_counter()
    if s.kind != "count":
        raise ScenarioError(f"run_count needs kind 'count', got {s.kind!r}")
    n_states = 1 << s.n_qubits
    good = build_good(s.good_spec, n_states)
    state = build_state(s.state_spec, s.n_qubits, s.data_dim, good)
    _check_dims(state, s)
    dist = counting.ancilla_distribution(counting.build_count_state(state, good, s.p_size))
    report = counting.run_count(state, good, s.p_size, s.repetitions, s.seed, dist)

    checks = []
    if report.w_predicted is not None:
        circuit_mass = float(sum(dist[m] for m in report.window))
        w_dev = abs(report.w_predicted - circuit_mass)
        checks.append({"name": "window_mass_agreement", "value": w_dev,
                       "tolerance": s.tolerances.probability,
                       "passed": w_dev < s.tolerances.probability})
    checks.append({"name": "estimate_within_bound",
                   "value": abs(report.majority_t - report.t_true),
                   "tolerance": report.bound, "passed": report.bound_satisfied})
    payload = {
        "count": report.to_json_obj(),
        "ancilla_distribution": [float(p) for p in dist],
        "checks": checks,
    }
    return Report(
        kind="count",
        scenario_echo=s.echo,
        payload=payload,
        passed=all(c["passed"] for c in checks),
        wall_clock_s=time.perf_counter() - start,
    )


def run_verify(s: Scenario) -> Report:
    start = time.perf_counter()
    if s.kind != "verify":
        raise ScenarioError(f"run_verify needs kind 'verify', got {s.kind!r}")
    cfg = _verify_config(s)
    results = run_checks(cfg, workers=s.workers)
    payload = {
        "config": cfg.to_json_obj(),
        "criteria": results_to_json_obj(results),
        "counts": {
            "total": len(results),
            "passed": sum(1 for r in results if r.passed),
            "failed": sum(1 for r in results if not r.passed),
        },
    }
    return Report(
        kind="verify",
        scenario_echo=s.echo,
        payload=payload,
        passed=all(r.passed for r in results),
        wall_clock_s=time.perf_counter() - start,
    )


SWEEP_COLUMNS = (
    "n_qubits",
    "data_dim",
    "t",
    "p_size",
    "seed",
    "status",
    "theta",
    "n0",
    "best_integer_time",
    "p_max",
    "max_amp_dev",
    "max_prob_dev",
    "var_drift",
    "w_predicted",
    "w_dev",
    "passed",
    "error",
)


def _sweep_cell(s: Scenario, nq: int, d: int, t: int, p_size: int | None, seed: int) -> dict:
    row: dict[str, Any] = {
        "n_qubits": nq, "data_dim": d, "t": t, "p_size": p_size, "seed": seed,
        "status": "ok", "error": None,
    }
    started = time.perf_counter()
    try:
        n_states = 1 << nq
        good = qstate.random_good_set(n_states, t, seed + 1)
        template = dict(s.state_spec)
        if template.get("type") == "random":
            template["seed"] = seed
        state = build_state(template, nq, d, good)
        m = qstate.moments(state, good)
        row["theta"] = m.theta
        tol = s.tolerances
        if 0 < t < n_states:
            params = analytic.oscillation_params(m)
            if not params.degenerate:
                row["n0"] = analytic.optimal_times(params, 0)
                row["best_integer_time"] = analytic.best_integer_time(params)
            row["p_max"] = analytic.p_max(params)
            n_max = s.iterations if s.iterations is not None else math.ceil(2 * math.pi / m.theta)
            max_amp = max_prob = drift = 0.0
            for n, sim in grover.grover_trajectory(state, good, n_max):
                pred = analytic.closed_form_rows(state, good, n)
                max_amp = max(max_amp, float(np.max(np.abs(pred.coeffs - sim.coeffs))))
                max_prob = max(
                    max_prob,
                    abs(analytic.success_probability(params, n) - qstate.good_mass(sim, good)),
                )
                mn = qstate.moments(sim, good)
                drift = max(drift, abs(mn.var_g - m.var_g), abs(mn.var_b - m.var_b))
            row["max_amp_dev"] = max_amp
            row["max_prob_dev"] = max_prob
            row["var_drift"] = drift
            ok = max_amp < tol.amplitude and max_prob < tol.probability and drift < tol.probability
            if p_size is not None and p_size >= 4:
                pred_w = counting.window_probability(m, p_size)
                dist = counting.ancilla_distribution(
                    counting.build_count_state(state, good, p_size)
                )
                w_dev = abs(pred_w.mass - float(sum(dist[mm] for mm in pred_w.outcomes)))
                row["w_predicted"] = pred_w.mass
                row["w_dev"] = w_dev
                ok = ok and w_dev < tol.probability
            row["passed"] = ok
        else:
            row["passed"] = True
    except qstate.MemoryLimitError as exc:
        row["status"] = "skipped"
        row["error"] = str(exc)
        row["passed"] = None
    if s.include_timings:
        row["runtime_s"] = time.perf_counter() - started
    return row


def run_sweep(s: Scenario) -> Report:
    start = time.perf_counter()
    if s.kind != "sweep":
        raise ScenarioError(f"run_sweep needs kind 'sweep', got {s.kind!r}")
    grid = s.grid
    nq_list = [int(v) for v in _optional(grid, "n_qubits", list, "grid", [])]
    d_list = [int(v) for v in _optional(grid, "data_dim", list, "grid", [1])]
    t_list = [int(v) for v in _optional(grid, "t", list, "grid", [])]
    p_list = _optional(grid, "P", list, "grid")
    p_values = [int(v) for v in p_list] if p_list else [None]
    seeds = [int(v) for v in _optional(grid, "seeds", list, "grid", [0])]
    cells = [
        (nq, d, t, p, seed)
        for nq in nq_list
        for d in d_list
        for t in t_list
        for p in p_values
        for seed in seeds
        if t <= (1 << nq)
    ]
    if s.workers > 1 and cells:
        with ThreadPoolExecutor(max_workers=s.workers) as pool:
            rows = list(pool.map(lambda c: _sweep_cell(s, *c), cells))
    else:
        rows = [_sweep_cell(s, *c) for c in cells]
    rows.sort(key=lambda r: (r["n_qubits"], r["data_dim"], r["t"], r["p_size"] or 0, r["seed"]))
    columns = list(SWEEP_COLUMNS) + (["runtime_s"] if s.include_timings else [])
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    payload = {
        "columns": columns,
        "rows": rows,
        "cells": len(rows),
        "skipped": skipped,
    }
    passed = all(r["passed"] is not False for r in rows)
    return Report(
        kind="sweep",
        scenario_echo=s.echo,
        payload=payload,
        passed=passed,
        wall_clock_s=time.perf_counter() - start,
    )


RUNNERS = {"find": run_find, "count": run_count, "verify": run_verify, "sweep": run_sweep}


def run_scenario(s: Scenario) -> Report:
    return RUNNERS[s.kind](s)
