"""Reproducible experiment runner: JSON scenarios in, deterministic reports out.

A scenario names everything explicitly (state, marked set, seeds, sizes,
tolerances); identical scenarios produce byte-identical report artifacts.
Wall-clock timings are therefore never part of the canonical serialized
report: the CLI times the run and prints it to stderr.

``find``, ``count`` and each ``sweep`` cell, which runs as the ``find`` of its
cell, build their marked set and state through one setup step, once the
run's memory plan (``memory.plan``) fits the cap; ``verify`` checks its plan
before the battery.  ``find`` and each cell read the oscillation law against
one trajectory audit, and make the same checks on it, through one shared
step.  The scenario key ``workers`` is accepted and checked but selects
nothing: every run is sequential.

The scenario format and the state file's format have one source, the tables
of ``_Key`` records below: the top-level keys of each kind (``KEYS``),
``tolerances``, ``grid``, one per ``state`` type, one per ``good`` form and
the state file's (``_STATE_FILE``).  One reader, ``_read``, takes every block
through its table and every value through ``_value``, which refuses NaN and
infinities; each message names the bad key as ``field '<dotted path>'``, an
entry of a state file as ``field 'state.path:<entry>'``.  A sweep reads a
``flat`` or ``random`` state, never a ``file``, whose shape is fixed where
the grid varies it.  Rules that tie one field to another stay as code after
the tables.
``verify`` runs the battery at ``VerifyConfig``'s fixed sizes: its scenario
chooses only the corpus ``seed`` and the ``tolerances``.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from . import analytic, counting, memory, qstate
from .checks import Tolerances, VerifyConfig, audit_trajectory, run_checks

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Configuration problem; messages name the offending field."""


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario, its defaults filled in from the format's tables; a key
    that its kind does not read is None.  ``echo`` is the scenario as given.
    A ``verify`` sets only ``seed`` and ``tolerances``: the battery's sizes are
    ``VerifyConfig``'s defaults."""

    kind: str
    n_qubits: int | None
    data_dim: int | None
    state: dict | None
    good: dict | None
    iterations: int | None
    p_size: int | None
    repetitions: int | None
    seed: int | None
    grid: dict | None
    output_format: str
    tolerances: Tolerances
    echo: dict


@dataclass
class Report:
    """A run's report; ``planned`` is its memory plan's peak in bytes, which the
    CLI prints and the report does not hold."""

    kind: str
    scenario_echo: dict
    payload: dict
    passed: bool
    planned: int

    def to_json_obj(self) -> dict:
        obj = {"schema_version": SCHEMA_VERSION, "kind": self.kind, "scenario": self.scenario_echo}
        obj.update(self.payload)
        obj["passed"] = self.passed
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        """A sweep report as CSV: the format's tables give csv output to sweeps only."""
        columns = self.payload["columns"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in self.payload["rows"]:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return buf.getvalue()


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


class _Key(NamedTuple):
    """One key of the scenario format: its JSON ``type`` (int; float, a finite number;
    complex, a number or an [re, im] pair; str, dict or list), inclusive bounds ``lo`` and
    ``hi``, whether it must be a power of two, the ``choices`` allowed, and its
    ``default`` when absent unless it is ``required``.  With ``many`` set, the key
    holds a list of such values, read as a tuple."""

    type: type
    lo: float | None = None
    hi: float | None = None
    pow2: bool = False
    choices: tuple = ()
    default: Any = None
    required: bool = False
    many: bool = False


# The least positive double: a lower bound that reads "> 0".
_POSITIVE = math.ulp(0.0)


# The top-level keys every kind reads (csv output is for sweeps only).
_COMMON = {
    "schema_version": _Key(int, choices=(SCHEMA_VERSION,), default=SCHEMA_VERSION),
    "kind": _Key(str, choices=("find", "count", "verify", "sweep"), required=True),
    "workers": _Key(int, 1),  # checked only: every run is sequential
    "output_format": _Key(str, choices=("json",), default="json"),
    "tolerances": _Key(dict, default={}),
}
_SETUP = {
    "n_qubits": _Key(int, 1, qstate.MAX_QUBITS, required=True),
    "data_dim": _Key(int, 1, default=1),
    "state": _Key(dict, default={"type": "flat"}),
    "good": _Key(dict, required=True),
}
# The top-level keys of each kind.
KEYS = {
    "find": {**_COMMON, **_SETUP, "iterations": _Key(int, 0)},
    "count": {**_COMMON, **_SETUP, "P": _Key(int, 2, pow2=True, required=True),
              "repetitions": _Key(int, 1, default=1), "seed": _Key(int, 0, required=True)},
    "verify": {**_COMMON, "seed": _Key(int, 0)},
    "sweep": {**_COMMON, "output_format": _Key(str, choices=("json", "csv"), default="json"),
              "grid": _Key(dict, required=True), "state": _SETUP["state"],
              "iterations": _Key(int, 0)},
}
_TOLERANCES = {name: _Key(float, _POSITIVE, default=value)
               for name, value in asdict(Tolerances()).items()}
_GRID = {
    "n_qubits": _Key(int, 1, qstate.MAX_QUBITS, default=(), many=True),
    "data_dim": _Key(int, 1, default=(1,), many=True),
    "t": _Key(int, 0, default=(), many=True),
    "P": _Key(int, 1, pow2=True, default=(), many=True),
    "seeds": _Key(int, 0, default=(0,), many=True),
}
# The state tables, one per type.  A sweep reads no file: a file fixes the
# table's shape, which the grid varies; and grid.seeds seeds a random state.
_RANDOM = {
    "type": _Key(str, required=True),
    "seed": _Key(int, 0, required=True),
    "var_g": _Key(float, 0, qstate.TARGET_MAX, default=0.0),
    "var_b": _Key(float, 0, qstate.TARGET_MAX, default=0.0),
    "g_avg": _Key(complex, many=True),
    "b_avg": _Key(complex, many=True),
}
_STATE = {
    "flat": {"type": _Key(str, required=True)},
    "random": _RANDOM,
    "file": {"type": _Key(str, required=True), "path": _Key(str, required=True)},
}
_SWEEP_STATE = {"flat": _STATE["flat"],
                "random": {k: v for k, v in _RANDOM.items() if k != "seed"}}
# The marked-set tables, one per form: the form with "indices" when it is given.
_GOOD = {
    "indices": {"indices": _Key(int, 0, required=True, many=True)},
    "t": {"t": _Key(int, 0, required=True), "seed": _Key(int, 0, required=True)},
}
# A state file, as ``EntangledState.to_json_obj`` writes it: its dimensions are
# the scenario's, and its N rows each hold data_dim entries (``_ENTRY``).
_STATE_FILE = {
    "n_qubits": _SETUP["n_qubits"],
    "data_dim": _Key(int, 1, required=True),
    "rows": _Key(list, required=True),
}
_ENTRY = _Key(complex)
_NOUNS = {int: "an integer", float: "a finite number", complex: "a number or [re, im] pair",
          str: "a string", dict: "an object", list: "a list"}


def _describe(key: _Key) -> str:
    """What a value of ``key`` must be, as the messages say it."""
    if key.choices:
        return "one of " + ", ".join(map(str, key.choices))
    noun = "a power of two" if key.pow2 else _NOUNS[key.type]
    if key.lo == _POSITIVE:
        return f"{noun} > 0"
    if key.hi is not None:
        return f"{noun} in [{key.lo:g}, {key.hi:g}]"
    return noun if key.lo is None else f"{noun} >= {key.lo:g}"


def _value(raw: Any, key: _Key, path: str) -> Any:
    """``raw`` once it has ``key``'s type (never a bool) and lies in its bounds
    and choices."""
    if key.type is complex and isinstance(raw, list) and len(raw) == 2:
        re, im = raw
        if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
            return complex(re, im)  # a state file's entries, without the checks below
        return complex(*(_value(part, _Key(float), path) for part in raw))
    numeric = key.type in (float, complex)
    kinds = (int, float) if numeric else key.type
    if isinstance(raw, bool) or not isinstance(raw, kinds):
        raise ScenarioError(f"field '{path}' must be {_describe(key)}, got {raw!r}")
    value = raw
    if numeric:
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the double range
            value = math.inf
        if not math.isfinite(value):
            raise ScenarioError(f"field '{path}' must be a finite number, got {raw!r}")
        value = key.type(value)
    if ((key.lo is not None and value < key.lo) or (key.hi is not None and value > key.hi)
            or (key.pow2 and value & (value - 1)) or (key.choices and value not in key.choices)):
        raise ScenarioError(f"field '{path}' must be {_describe(key)}, got {raw!r}")
    return value


def _read(block: dict, keys: dict, where: str) -> dict:
    """The values of ``block`` as the table ``keys`` declares them, defaults filled
    in.  A key the table does not declare is refused, so that a misspelled key
    cannot leave its default in force; ``where`` is the block's dotted path."""
    for name in block:
        if name not in keys:
            raise ScenarioError(f"field '{where}{name}' is not read; "
                                f"{where[:-1] or 'this kind'} reads {', '.join(keys)}")
    out = {}
    for name, key in keys.items():
        path = where + name
        if block.get(name) is None:  # null reads as absent
            if key.required:
                raise ScenarioError(f"field '{path}' is required")
            out[name] = key.default
        elif not key.many:
            out[name] = _value(block[name], key, path)
        else:
            values = block[name]
            if not isinstance(values, list):
                raise ScenarioError(f"field '{path}' must be a list, got {values!r}")
            out[name] = tuple(_value(v, key, path) for v in values)
    return out


def _read_state(spec: dict, forms: dict = _STATE) -> dict:
    """A state spec read by the table of its type."""
    kind = _value(spec.get("type"), _Key(str, choices=tuple(forms)), "state.type")
    return _read(spec, forms[kind], "state.")


def _read_good(spec: dict) -> dict:
    return _read(spec, _GOOD["indices" if "indices" in spec else "t"], "good.")


def read_option(kind: str, name: str, value: int) -> int:
    """A command-line override of the top-level key ``name``, checked by the kind's table."""
    if name not in KEYS[kind]:
        raise ScenarioError(f"--{name} is not read by {kind}")
    return _value(value, KEYS[kind][name], name)


def parse_scenario(obj: dict) -> Scenario:
    """Read a scenario by the format's tables.  Every value it holds passes
    through ``_value``, so the report that echoes it holds no NaN or infinity.
    Rules that tie one field to another (state dimensions, marked indices,
    variances) are checked when the run builds its state, after its memory plan."""
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = _value(obj.get("kind"), _COMMON["kind"], "kind")
    top = _read(obj, KEYS[kind], "")
    if kind == "sweep" and "seed" in top["state"]:
        raise ScenarioError("field 'state.seed' is not read by a sweep: grid.seeds sets each "
                            "cell's state seed")
    if "state" in top:
        _read_state(top["state"], _SWEEP_STATE if kind == "sweep" else _STATE)
    if "good" in top:
        _read_good(top["good"])
    return Scenario(
        kind=kind,
        p_size=top.get("P"),
        grid=_read(top["grid"], _GRID, "grid.") if kind == "sweep" else None,
        tolerances=Tolerances(**_read(top["tolerances"], _TOLERANCES, "tolerances.")),
        echo=obj,
        **{name: top.get(name) for name in ("n_qubits", "data_dim", "state", "good", "seed",
                                            "iterations", "repetitions", "output_format")},
    )


def _load_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{what}: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what}: {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{what}: {path!r} is not UTF-8 text: byte {exc.start}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{what}: {path!r} nests its values too deeply to read") from exc


def load_scenario(path: str) -> Scenario:
    return parse_scenario(_load_json(path, "field 'config'"))


def _read_state_file(path: str, n_qubits: int, data_dim: int) -> qstate.EntangledState:
    """The state in the file at ``path``, read by ``_STATE_FILE``: its dimensions
    must be the scenario's, each entry a finite number or [re, im] pair, and the
    table must pass the state's norm gate."""
    obj = _load_json(path, "field 'state.path'")
    if not isinstance(obj, dict):
        raise ScenarioError(f"field 'state.path' must hold a JSON object, got {type(obj).__name__}")
    where = "state.path:"
    spec = _read(obj, _STATE_FILE, where)
    for name, want in (("n_qubits", n_qubits), ("data_dim", data_dim)):
        if spec[name] != want:
            raise ScenarioError(f"field '{where}{name}' = {spec[name]} does not match the "
                                f"scenario's {name} = {want}")
    rows = spec["rows"]
    if len(rows) != 1 << n_qubits:
        raise ScenarioError(f"field '{where}rows' must hold N = {1 << n_qubits} rows, "
                            f"got {len(rows)}")
    table = []
    for a, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != data_dim:
            raise ScenarioError(f"field '{where}rows[{a}]' must be a list of data_dim = "
                                f"{data_dim} entries")
        table.append([_value(z, _ENTRY, f"{where}rows[{a}][{d}]") for d, z in enumerate(row)])
    try:  # entries whose squares overflow fail the gate, named below
        with np.errstate(over="ignore"):
            return qstate.EntangledState(n_qubits, data_dim, np.array(table, dtype=np.complex128))
    except ValueError as exc:
        raise ScenarioError(f"field '{where}rows': {exc}") from exc


def _vector(values: tuple | None, dim: int, path: str) -> np.ndarray:
    """A random state's sector average: ``values``, or the first basis vector when absent."""
    if values is None:
        return np.eye(1, dim, dtype=np.complex128)[0]
    if len(values) != dim:
        raise ScenarioError(f"field '{path}' must have length data_dim = {dim}, got {len(values)}")
    vec = np.array(values, dtype=np.complex128)
    if not np.vdot(vec, vec).real <= qstate.TARGET_MAX:
        raise ScenarioError(f"field '{path}' must have squared norm <= 1e150")
    return vec


def build_state(
    spec: dict, n_qubits: int | None, data_dim: int, good: qstate.GoodSet | None = None
) -> qstate.EntangledState:
    spec = _read_state(spec)
    if spec["type"] == "file":
        return _read_state_file(spec["path"], n_qubits, data_dim)
    if spec["type"] == "flat":
        return qstate.new_flat(n_qubits, data_dim)
    for name, rows in (("var_g", good.t), ("var_b", (1 << n_qubits) - good.t)):
        if rows == 1 and spec[name] > 0:
            raise ScenarioError(f"field 'state.{name}' = {spec[name]} is unsatisfiable: "
                                "a sector of one row has variance 0")
    g_avg = _vector(spec["g_avg"], data_dim, "state.g_avg")
    b_avg = _vector(spec["b_avg"], data_dim, "state.b_avg")
    try:
        return qstate.random_with_moments(n_qubits, data_dim, good, spec["var_g"],
                                          spec["var_b"], g_avg, b_avg, seed=spec["seed"])
    except ValueError as exc:
        raise ScenarioError(f"state: {exc}") from exc


def build_good(spec: dict, n_states: int) -> qstate.GoodSet:
    spec = _read_good(spec)
    try:  # qstate checks the marked set against N
        if "t" in spec:
            return qstate.random_good_set(n_states, spec["t"], spec["seed"])
        good = qstate.GoodSet(spec["indices"])
        good.mask(n_states)
        return good
    except ValueError as exc:
        raise ScenarioError(f"field 'good.{'t' if 't' in spec else 'indices'}': {exc}") from exc


def _setup(s: Scenario) -> tuple[qstate.GoodSet, qstate.EntangledState, int]:
    """The scenario's marked set and state, and its planned peak, once its memory
    plan fits the cap."""
    planned = memory.check(memory.plan(s))
    good = build_good(s.good, 1 << s.n_qubits)
    return good, build_state(s.state, s.n_qubits, s.data_dim, good), planned


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
    params = analytic.oscillation_params(m) if 0 < good.t < state.n_states else None
    horizon = (memory.default_horizon(good.t, state.n_states) if s.iterations is None
               else s.iterations)
    audit = audit_trajectory(state, good, horizon, m)
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
    good, state, planned = _setup(s)
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
    return Report("find", s.echo, payload, all(c["passed"] for c in checks), planned)


def run_count(s: Scenario) -> Report:
    good, state, planned = _setup(s)
    dist = counting.circuit_distribution(state, good, s.p_size)
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
    return Report("count", s.echo, payload, all(c["passed"] for c in checks), planned)


def run_verify(s: Scenario) -> Report:
    cfg = VerifyConfig(tolerances=s.tolerances)
    if s.seed is not None:  # verdicts must not depend on the corpus seed; --seed exercises that
        cfg = replace(cfg, base_seed=s.seed)
    planned = memory.check(memory.plan(s, cfg))
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
    return Report("verify", s.echo, payload, all(r.passed for r in results), planned)


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


def _sweep_cell(s: Scenario, nq: int, d: int, t: int, p_size: int | None,
                seed: int) -> tuple[dict, int]:
    """A grid cell's row and planned peak (0 when skipped): the ``find`` of the
    cell, with state seed ``seed`` and marked-set seed ``seed + 1``, read only at
    0 < t < N, and there the counting window's mass too when P >= 4."""
    row: dict[str, Any] = {
        "n_qubits": nq, "data_dim": d, "t": t, "p_size": p_size, "seed": seed,
        "status": "ok", "error": None,
    }
    spec = dict(s.state, seed=seed) if s.state["type"] == "random" else s.state
    cell = replace(s, n_qubits=nq, data_dim=d, state=spec, good={"t": t, "seed": seed + 1},
                   p_size=p_size)
    try:
        good, state, planned = _setup(cell)
    except qstate.MemoryLimitError as exc:  # before any reading, so the row carries none
        row.update(status="skipped", error=str(exc), passed=None)
        return row, 0
    m = qstate.moments(state, good)
    row["theta"] = m.theta
    ok = True
    if 0 < t < state.n_states:
        params, _, checks = _read_law(cell, state, good, m)
        row.update((k, v) for k, v in _peak(params).items() if v is not None)
        value = {c["name"]: c["value"] for c in checks}
        row["max_amp_dev"] = value["closed_form_agreement"]
        row["max_prob_dev"] = value["probability_agreement"]
        row["var_drift"] = value["variance_conservation"]
        row["max_norm_dev"] = value["unitarity"]
        ok = all(c["passed"] for c in checks)
        if p_size is not None and p_size >= 4:
            pred_w = counting.window_probability(m, p_size)
            dist = counting.circuit_distribution(state, good, p_size)
            row["w_predicted"] = pred_w.mass
            row["w_dev"] = abs(pred_w.mass - float(sum(dist[mm] for mm in pred_w.outcomes)))
            ok = ok and row["w_dev"] < s.tolerances.probability
    row["passed"] = ok
    return row, planned


def run_sweep(s: Scenario) -> Report:
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
    results = [_sweep_cell(s, *c) for c in cells]
    rows = [row for row, _ in results]
    rows.sort(key=lambda r: (r["n_qubits"], r["data_dim"], r["t"], r["p_size"] or 0, r["seed"]))
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    payload = {
        "columns": list(SWEEP_COLUMNS),
        "rows": rows,
        "cells": len(rows),
        "skipped": skipped,
    }
    return Report("sweep", s.echo, payload, all(r["passed"] is not False for r in rows),
                  max((planned for _, planned in results), default=0))


RUNNERS = {"find": run_find, "count": run_count, "verify": run_verify, "sweep": run_sweep}


def run_scenario(s: Scenario) -> Report:
    return RUNNERS[s.kind](s)
