"""Reproducible experiment runner: JSON scenarios in, deterministic reports out.

A scenario names everything explicitly (state, marked set, seeds, sizes,
tolerances); identical scenarios produce byte-identical report artifacts.
Wall-clock timings are therefore never part of the canonical serialized
report -- the CLI times the run and prints it to stderr, and sweep rows
only carry a runtime column when ``include_timings`` is set.

``find`` and ``count`` build their marked set and state through one setup
step, and ``find`` and each ``sweep`` cell read the oscillation law against
one trajectory audit, and make the same checks on it, through one shared
step.  The scenario key
``workers`` is accepted and checked but selects nothing: every run is
sequential.

Every scenario field is checked when the scenario is parsed, so a bad
value ends in a ScenarioError that names it rather than in a traceback
half-way through a run.  Each block also refuses a key it does not read,
so a misspelled key cannot leave its default in force.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from . import analytic, counting, qstate
from .checks import Tolerances, VerifyConfig, audit_trajectory
from .checks import check_audit_memory, check_corpus_memory, run_checks

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
    include_timings: bool = False
    tolerances: Tolerances = field(default_factory=Tolerances)
    echo: dict = field(default_factory=dict)


@dataclass
class Report:
    kind: str
    scenario_echo: dict
    payload: dict
    passed: bool

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


def _is_kind(value: Any, kinds: type | tuple) -> bool:
    """isinstance, except that a bool passes only where bool itself is asked for."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, bool):
        return bool in kinds
    return isinstance(value, kinds)


def _require(obj: dict, name: str, kinds: type | tuple, where: str) -> Any:
    if name not in obj:
        raise ScenarioError(f"{where}: missing required field '{name}'")
    value = obj[name]
    if not _is_kind(value, kinds):
        raise ScenarioError(f"{where}: field '{name}' has wrong type {type(value).__name__}")
    return value


def _optional(obj: dict, name: str, kinds: type | tuple, where: str, default: Any = None) -> Any:
    if name not in obj or obj[name] is None:
        return default
    return _require(obj, name, kinds, where)


def _in_range(value: int | None, path: str, minimum: int, maximum: int | None = None) -> int | None:
    if value is not None and (value < minimum or (maximum is not None and value > maximum)):
        upper = "" if maximum is None else f" and <= {maximum}"
        raise ScenarioError(f"field '{path}' must be >= {minimum}{upper}, got {value}")
    return value


def _number(value: Any, path: str) -> float:
    """A finite JSON number as a float; a bool or an int beyond the double range is refused."""
    if _is_kind(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ScenarioError(f"field '{path}' must be a finite number, got {value!r}")


def _int_list(
    obj: dict,
    name: str,
    where: str,
    default: list,
    minimum: int,
    maximum: int | None = None,
    power_of_two: bool = False,
) -> list[int]:
    """A list of integers in [minimum, maximum] (powers of two when asked), default when absent."""
    path = f"{where}.{name}"
    values = _optional(obj, name, list, where, default)
    for v in values:
        if not _is_kind(v, int) or (power_of_two and v & (v - 1) != 0):
            want = "powers of two" if power_of_two else "integers"
            raise ScenarioError(f"field '{path}' must list {want}, got {v!r}")
        _in_range(v, path, minimum, maximum)
    return values


def _non_finite_path(value: Any, path: str) -> str | None:
    """Path of the first NaN or infinity in a parsed JSON value, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return path
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for sub_path, sub in items:
        found = _non_finite_path(sub, sub_path)
        if found is not None:
            return found
    return None


def _known(block: dict, keys, where: str) -> dict:
    """``block``, once every key in it is one of ``keys``, the keys the run reads."""
    for key in block:
        if key not in keys:
            raise ScenarioError(f"field '{where}.{key}' is not read; {where} reads "
                                + ", ".join(keys))
    return block


# The top-level keys each kind reads, beside the ones every kind reads.
_COMMON_KEYS = ("schema_version", "kind", "workers", "output_format", "tolerances")
_KIND_KEYS = {
    "find": ("n_qubits", "data_dim", "state", "good", "iterations"),
    "count": ("n_qubits", "data_dim", "state", "good", "P", "repetitions", "seed"),
    "verify": ("verify", "seed"),
    "sweep": ("grid", "state", "iterations", "include_timings"),
}


def _parse_tolerances(obj: dict) -> Tolerances:
    tol_obj = _known(_optional(obj, "tolerances", dict, "top level", {}), asdict(Tolerances()),
                     "tolerances")
    values = {}
    for name, default in asdict(Tolerances()).items():
        path = f"tolerances.{name}"
        value = _number(tol_obj.get(name, default), path)
        if value <= 0.0:
            raise ScenarioError(f"field '{path}' must be a finite positive number, got {value!r}")
        values[name] = value
    return Tolerances(**values)


def _parse_grid(obj: dict) -> dict:
    """Grid lists with their defaults filled in, every value range-checked."""
    grid = _optional(obj, "grid", dict, "top level")
    if grid is None:
        raise ScenarioError("top level: kind 'sweep' requires field 'grid'")
    _known(grid, ("n_qubits", "data_dim", "t", "P", "seeds"), "grid")
    return {
        "n_qubits": _int_list(grid, "n_qubits", "grid", [], 1, qstate.MAX_QUBITS),
        "data_dim": _int_list(grid, "data_dim", "grid", [1], 1),
        "t": _int_list(grid, "t", "grid", [], 0),
        "P": _int_list(grid, "P", "grid", [], 1, power_of_two=True),
        "seeds": _int_list(grid, "seeds", "grid", [0], 0),
    }


_VERIFY_INTS = {
    "corpus_count": 0,
    "max_steps": 0,
    "base_seed": 0,
    "majority_repetitions": 1,
    "sigma_samples": 0,
    "averages_cases": 0,
}
# Non-empty list fields -> (smallest entry, largest entry, powers of two only).
# The estimator-bound grid needs N >= 4 for a marked count t <= N/4 to exist.
_VERIFY_LISTS = {
    "n_qubits_list": (1, qstate.MAX_QUBITS, False),
    "data_dims": (1, None, False),
    "sweep_n_qubits": (2, qstate.MAX_QUBITS, False),
    "sweep_p_sizes": (4, None, True),
}


def _parse_verify(obj: dict) -> dict:
    """Battery overrides as VerifyConfig fields (lists become tuples)."""
    raw = _known(_optional(obj, "verify", dict, "top level", {}), [*_VERIFY_INTS, *_VERIFY_LISTS],
                 "verify")
    overrides: dict[str, Any] = {}
    for key in raw:
        if key in _VERIFY_INTS:
            overrides[key] = _in_range(_require(raw, key, int, "verify"), f"verify.{key}",
                                       _VERIFY_INTS[key])
        else:
            values = _int_list(raw, key, "verify", [], *_VERIFY_LISTS[key])
            if not values:
                raise ScenarioError(f"field 'verify.{key}' must not be empty")
            overrides[key] = tuple(values)
    return overrides


def parse_scenario(obj: dict) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("top level: scenario must be a JSON object")
    # The scenario is echoed into every report, which must stay valid JSON.
    bad = _non_finite_path(obj, "")
    if bad is not None:
        raise ScenarioError(f"field '{bad}' must be a finite number")
    version = _optional(obj, "schema_version", int, "top level", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"top level: unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        )
    kind = _require(obj, "kind", str, "top level")
    if kind not in ("find", "count", "verify", "sweep"):
        raise ScenarioError(f"top level: field 'kind' must be find|count|verify|sweep, got {kind!r}")
    for key in obj:
        if key not in _COMMON_KEYS + _KIND_KEYS[kind]:
            raise ScenarioError(f"top level: field '{key}' is not read by kind '{kind}'")
    def bounded(name: str, minimum: int, default: int | None = None) -> int | None:
        return _in_range(_optional(obj, name, int, "top level", default), name, minimum)

    bounded("workers", 1)  # checked only: every run is sequential
    scenario = Scenario(
        kind=kind,
        n_qubits=_in_range(_optional(obj, "n_qubits", int, "top level"), "n_qubits", 1,
                           qstate.MAX_QUBITS),
        data_dim=bounded("data_dim", 1, 1),
        state_spec=_optional(obj, "state", dict, "top level", {"type": "flat"}),
        good_spec=_optional(obj, "good", dict, "top level"),
        iterations=bounded("iterations", 0),
        p_size=_optional(obj, "P", int, "top level"),
        repetitions=bounded("repetitions", 1, 1),
        seed=bounded("seed", 0),
        grid=_parse_grid(obj) if kind == "sweep" else None,
        verify_overrides=_parse_verify(obj) if kind == "verify" else {},
        output_format=_optional(obj, "output_format", str, "top level", "json"),
        include_timings=bool(_optional(obj, "include_timings", bool, "top level", False)),
        tolerances=_parse_tolerances(obj),
        echo=obj,
    )
    if scenario.output_format not in ("json", "csv"):
        raise ScenarioError("top level: field 'output_format' must be json or csv")
    if scenario.output_format == "csv" and kind != "sweep":
        raise ScenarioError("top level: field 'output_format' csv is only available for sweep")
    if kind == "sweep" and "seed" in scenario.state_spec:
        raise ScenarioError("field 'state.seed' is not read by a sweep: grid.seeds sets each "
                            "cell's state seed")
    if kind in ("find", "count") and scenario.n_qubits is None:
        raise ScenarioError(f"top level: kind '{kind}' requires field 'n_qubits'")
    if kind in ("find", "count") and scenario.good_spec is None:
        raise ScenarioError(f"top level: kind '{kind}' requires field 'good'")
    if kind == "count":
        if scenario.p_size is None:
            raise ScenarioError("top level: kind 'count' requires field 'P'")
        if scenario.p_size < 2 or scenario.p_size & (scenario.p_size - 1) != 0:
            raise ScenarioError(
                f"top level: field 'P' must be a power of two >= 2, got {scenario.p_size}"
            )
        if scenario.seed is None:
            raise ScenarioError("top level: kind 'count' requires field 'seed' (no ambient randomness)")
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
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: vector must be a list, got {type(raw).__name__}")
    out = []
    for i, item in enumerate(raw):
        if isinstance(item, list) and len(item) == 2:
            out.append(complex(_number(item[0], f"{where}[{i}]"), _number(item[1], f"{where}[{i}]")))
        elif _is_kind(item, (int, float)):
            out.append(complex(_number(item, f"{where}[{i}]")))
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
        _known(spec, ("type",), where)
        if n_qubits is None:
            raise ScenarioError("state: flat state requires 'n_qubits'")
        return qstate.new_flat(n_qubits, data_dim)
    if kind == "file":
        path = _require(_known(spec, ("type", "path"), where), "path", str, where)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ScenarioError(f"state: cannot read {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"state: {path!r} is not valid JSON: {exc.msg}") from exc
        return qstate.EntangledState.from_json_obj(obj)
    if kind == "random":
        _known(spec, ("type", "seed", "var_g", "var_b", "g_avg", "b_avg"), where)
        if n_qubits is None:
            raise ScenarioError("state: random state requires 'n_qubits'")
        if good is None:
            raise ScenarioError("state: random state requires a marked set")
        seed = _in_range(_require(spec, "seed", int, where), "state.seed", 0)
        var_g = _variance(spec, "var_g", good.t)
        var_b = _variance(spec, "var_b", (1 << n_qubits) - good.t)
        g_avg = _complex_vector(spec.get("g_avg"), data_dim, "state.g_avg")
        b_avg = _complex_vector(spec.get("b_avg"), data_dim, "state.b_avg")
        for name, avg in (("g_avg", g_avg), ("b_avg", b_avg)):
            if not np.vdot(avg, avg).real <= qstate.TARGET_MAX:
                raise ScenarioError(f"field 'state.{name}' must have squared norm <= 1e150")
        try:
            return qstate.random_with_moments(
                n_qubits, data_dim, good, var_g, var_b, g_avg, b_avg, seed=seed
            )
        except ValueError as exc:
            raise ScenarioError(f"state: {exc}") from exc
    raise ScenarioError(f"state: unknown type {kind!r} (expected flat|random|file)")


def _variance(spec: dict, name: str, rows: int) -> float:
    """The random state's variance target ``name`` for a sector of ``rows`` rows."""
    path = f"state.{name}"
    var = _number(spec.get(name, 0.0), path)
    if not 0 <= var <= qstate.TARGET_MAX:
        raise ScenarioError(f"field '{path}' must lie in [0, 1e150], got {var}")
    if rows == 1 and var > 0:
        raise ScenarioError(f"field '{path}' = {var} is unsatisfiable: a sector of one row has variance 0")
    return var


def build_good(spec: dict, n_states: int) -> qstate.GoodSet:
    where = "good"
    if "indices" in spec:
        indices = _require(_known(spec, ("indices",), where), "indices", list, where)
        if not all(_is_kind(i, int) for i in indices):
            raise ScenarioError("good: field 'indices' must list integers")
        try:
            good = qstate.GoodSet(tuple(indices))
            good.mask(n_states)
        except ValueError as exc:
            raise ScenarioError(f"field 'good.indices': {exc}") from exc
        return good
    if "t" in spec:
        t = _in_range(_require(_known(spec, ("t", "seed"), where), "t", int, where), "good.t", 0,
                      n_states)
        seed = _in_range(_require(spec, "seed", int, where), "good.seed", 0)
        return qstate.random_good_set(n_states, t, seed)
    raise ScenarioError("good: need either 'indices' or {'t', 'seed'}")


def _verify_config(s: Scenario) -> VerifyConfig:
    cfg = VerifyConfig(tolerances=s.tolerances)
    if s.seed is not None:
        # verdicts must not depend on the corpus seed; --seed exercises that
        cfg = replace(cfg, base_seed=s.seed)
    return replace(cfg, **s.verify_overrides)


def _setup(s: Scenario) -> tuple[qstate.GoodSet, qstate.EntangledState]:
    """The scenario's marked set and state, once its table (and for ``find`` the
    table together with its trajectory audit) is known to fit the memory cap."""
    n_states = 1 << s.n_qubits
    try:
        qstate.check_memory(n_states * s.data_dim)
        if s.kind == "find":
            check_audit_memory(n_states, s.data_dim)
    except qstate.MemoryLimitError as exc:
        raise ScenarioError(
            f"field 'n_qubits' = {s.n_qubits} (with data_dim = {s.data_dim}) is too large: {exc}"
        ) from exc
    good = build_good(s.good_spec, n_states)
    state = build_state(s.state_spec, s.n_qubits, s.data_dim, good)
    if state.n_qubits != s.n_qubits or state.data_dim != s.data_dim:
        raise ScenarioError(
            f"state: dimensions {state.n_qubits} qubits x {state.data_dim} do not match "
            f"scenario n_qubits={s.n_qubits}, data_dim={s.data_dim}"
        )
    return good, state


def _read_law(
    s: Scenario, state: qstate.EntangledState, good: qstate.GoodSet, m: qstate.MomentSummary
) -> tuple[analytic.OscillationParams | None, list[dict], list[dict]]:
    """The oscillation law against one simulated trajectory, and find's checks on it.

    Returns the law's parameters (None when t is 0 or N, where P = t/N at
    every step), the table of P(n) from the law and from the audit of
    ``s.iterations`` steps (by default ceil(2*pi/theta), or 16 when a sector
    is empty), and the checks in report order.  ``find`` reports the table
    and the checks; a sweep cell reads the same checks into its row.
    """
    if 0 < good.t < state.n_states:
        params = analytic.oscillation_params(m)
        horizon = math.ceil(2.0 * math.pi / m.theta)
    else:
        params, horizon = None, 16
    audit = audit_trajectory(state, good, horizon if s.iterations is None else s.iterations, m)
    table = []
    max_prob_dev = 0.0
    for n, p_sim in enumerate(audit.p_sim):
        p_an = (good.t / state.n_states if params is None
                else analytic.success_probability(params, n))
        dev = abs(p_an - p_sim)
        max_prob_dev = max(max_prob_dev, dev)
        table.append({"n": n, "p_analytic": p_an, "p_simulated": p_sim, "abs_dev": dev})
    max_amp_dev = max(audit.amp_dev, default=0.0)
    max_var_drift = max(audit.var_drift)
    max_norm_dev = max(audit.norm_dev)

    tol = s.tolerances
    checks = [
        {"name": "probability_agreement", "value": max_prob_dev, "tolerance": tol.probability,
         "passed": max_prob_dev < tol.probability},
        {"name": "variance_conservation", "value": max_var_drift, "tolerance": tol.probability,
         "passed": max_var_drift < tol.probability},
        {"name": "unitarity", "value": max_norm_dev, "tolerance": tol.unitarity,
         "passed": max_norm_dev < tol.unitarity},
    ]
    if params is not None:
        checks.insert(1, {"name": "closed_form_agreement", "value": max_amp_dev,
                          "tolerance": tol.amplitude, "passed": max_amp_dev < tol.amplitude})
    return params, table, checks


def _peak(params: analytic.OscillationParams) -> dict:
    """n0 and best_integer_time (None when the law is degenerate) and p_max."""
    return {
        "n0": None if params.degenerate else analytic.optimal_times(params, 0),
        "best_integer_time": None if params.degenerate else analytic.best_integer_time(params),
        "p_max": analytic.p_max(params),
    }


def run_find(s: Scenario) -> Report:
    if s.kind != "find":
        raise ScenarioError(f"run_find needs kind 'find', got {s.kind!r}")
    good, state = _setup(s)
    m = qstate.moments(state, good)
    params, table, checks = _read_law(s, state, good, m)

    payload: dict = {
        "n_states": state.n_states,
        "data_dim": s.data_dim,
        "t": good.t,
        "theta": m.theta,
        "degenerate_sector": params is None,
    }
    if params is not None:
        payload["oscillation"] = {
            "degenerate": params.degenerate,
            "p_av": params.p_av,
            "delta_p": params.delta_p,
            "phi_r": None if params.degenerate else params.phi_r,
            "phi_i": None if params.degenerate else params.phi_i,
        }
        payload.update(_peak(params))
    payload["table"] = table
    payload["max_probability_deviation"] = checks[0]["value"]
    payload["checks"] = checks
    return Report("find", s.echo, payload, all(c["passed"] for c in checks))


def run_count(s: Scenario) -> Report:
    if s.kind != "count":
        raise ScenarioError(f"run_count needs kind 'count', got {s.kind!r}")
    good, state = _setup(s)
    try:
        dist = counting.circuit_distribution(state, good, s.p_size)
    except qstate.MemoryLimitError as exc:
        raise ScenarioError(
            f"field 'P' = {s.p_size} is too large for the counting circuit at "
            f"n_qubits = {s.n_qubits}, data_dim = {s.data_dim}: {exc}"
        ) from exc
    try:
        report = counting.run_count(state, good, s.p_size, s.repetitions, s.seed, dist)
    except qstate.MemoryLimitError as exc:
        raise ScenarioError(f"field 'repetitions' = {s.repetitions} is too large: {exc}") from exc

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
    return Report("count", s.echo, payload, all(c["passed"] for c in checks))


def run_verify(s: Scenario) -> Report:
    if s.kind != "verify":
        raise ScenarioError(f"run_verify needs kind 'verify', got {s.kind!r}")
    cfg = _verify_config(s)
    try:  # criterion 10 draws this many samples per cell
        counting.check_sample_memory(cfg.majority_repetitions)
    except qstate.MemoryLimitError as exc:
        raise ScenarioError(
            f"field 'verify.majority_repetitions' = {cfg.majority_repetitions} is too large: {exc}"
        ) from exc
    try:
        check_corpus_memory(cfg)
    except qstate.MemoryLimitError as exc:
        raise ScenarioError(f"fields 'verify.corpus_count', 'verify.n_qubits_list' and "
                            f"'verify.data_dims' ask for too large a corpus: {exc}") from exc
    results = run_checks(cfg)
    payload = {
        "config": asdict(cfg),
        "criteria": [asdict(r) for r in results],
        "counts": {
            "total": len(results),
            "passed": sum(1 for r in results if r.passed),
            "failed": sum(1 for r in results if not r.passed),
        },
    }
    return Report("verify", s.echo, payload, all(r.passed for r in results))


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
    "max_norm_dev",
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
        qstate.check_memory(n_states * d)
        interior = 0 < t < n_states
        circuit = interior and p_size is not None and p_size >= 4
        # before any reading, so a skipped row carries none
        if circuit:
            counting.check_circuit_memory(n_states, d, p_size)
        if interior:
            check_audit_memory(n_states, d)
        good = qstate.random_good_set(n_states, t, seed + 1)
        template = dict(s.state_spec)
        if template.get("type") == "random":
            template["seed"] = seed
        state = build_state(template, nq, d, good)
        m = qstate.moments(state, good)
        row["theta"] = m.theta
        if interior:
            params, _, checks = _read_law(s, state, good, m)
            row.update((k, v) for k, v in _peak(params).items() if v is not None)
            value = {c["name"]: c["value"] for c in checks}
            row["max_amp_dev"] = value["closed_form_agreement"]
            row["max_prob_dev"] = value["probability_agreement"]
            row["var_drift"] = value["variance_conservation"]
            row["max_norm_dev"] = value["unitarity"]
            ok = all(c["passed"] for c in checks)
            if circuit:
                pred_w = counting.window_probability(m, p_size)
                dist = counting.circuit_distribution(state, good, p_size)
                w_dev = abs(pred_w.mass - float(sum(dist[mm] for mm in pred_w.outcomes)))
                row["w_predicted"] = pred_w.mass
                row["w_dev"] = w_dev
                ok = ok and w_dev < s.tolerances.probability
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
    if s.kind != "sweep":
        raise ScenarioError(f"run_sweep needs kind 'sweep', got {s.kind!r}")
    grid = s.grid
    cells = [
        (nq, d, t, p, seed)
        for nq in grid["n_qubits"]
        for d in grid["data_dim"]
        for t in grid["t"]
        for p in grid["P"] or [None]
        for seed in grid["seeds"]
        if t <= (1 << nq)
    ]
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
    return Report("sweep", s.echo, payload, all(r["passed"] is not False for r in rows))


RUNNERS = {"find": run_find, "count": run_count, "verify": run_verify, "sweep": run_sweep}


def run_scenario(s: Scenario) -> Report:
    return RUNNERS[s.kind](s)
