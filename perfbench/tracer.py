"""Outside-in span tracer for the entgrover layers.

Entering a ``Tracer`` as a context manager rebinds the public functions of
each layer, in every ``entgrover`` module that holds a reference to them
(plain globals, the ``harness.RUNNERS`` dict, the ``checks.CHECKS`` tuple),
to wrappers that record one span per call; leaving it restores the
originals.  Nothing in the package itself is edited.  Spans are kept in
memory and written out by the caller when the run ends.

Each context (thread) keeps its own span stack in a ``ContextVar``.  The
package's thread pools are swapped for a subclass that runs every task in a
copy of the submitting context, so a span opened in a pool worker gets the
submitting span as its parent instead of landing on another thread's stack.
"""
from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_STACK: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)

CRITERIA = (
    "closed_form_fidelity",
    "recurrence_consistency",
    "variance_conservation",
    "probability_law",
    "grover_reduction",
    "degenerate_cases",
    "p_max_claim",
    "counting_window",
    "sufficient_averages",
    "estimator_bound",
    "determinism",
)

# (metric name, unit, better); run.py adds trace.overhead_frac and fail_frac.
SPAN_METRICS = (
    ("qstate.validate_s", "s", "lower"),
    ("qstate.validate_calls", "count", "lower"),
    ("qstate.validate_amps", "count", "lower"),
    ("qstate.moments_s", "s", "lower"),
    ("qstate.moments_calls", "count", "lower"),
    ("qstate.measure_s", "s", "lower"),
    ("qstate.build_s", "s", "lower"),
    ("grover.step_s", "s", "lower"),
    ("grover.steps", "count", "lower"),
    ("grover.amp_steps", "count", "lower"),
    ("grover.step_gbps", "GB/s", "higher"),
    ("analytic.closed_form_s", "s", "lower"),
    ("analytic.closed_form_calls", "count", "lower"),
    ("analytic.recurrence_s", "s", "lower"),
    ("analytic.recurrence_calls", "count", "lower"),
    ("analytic.law_s", "s", "lower"),
    ("counting.circuit_s", "s", "lower"),
    ("counting.circuit_calls", "count", "lower"),
    ("counting.circuit_amps", "count", "lower"),
    ("counting.validate_s", "s", "lower"),
    ("counting.dist_s", "s", "lower"),
    ("counting.window_s", "s", "lower"),
    ("counting.sample_s", "s", "lower"),
    *((f"checks.{name}_s", "s", "lower") for name in CRITERIA),
    ("harness.parse_s", "s", "lower"),
    ("harness.audit_s", "s", "lower"),
    ("harness.serialize_s", "s", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
)

# Bytes counted per amplitude per step: one complex128 read and one write,
# the least any step must move.  grover.step_gbps is computed, not measured.
STEP_BYTES_PER_AMP = 32


class Span:
    __slots__ = (
        "id", "parent", "name", "thread", "start", "end", "cpu_start", "cpu_end", "amps", "steps"
    )

    def __init__(self, span_id: int, parent: int | None, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.cpu_start = 0.0
        self.cpu_end = 0.0
        self.amps = 0
        self.steps = 0

    def to_json_obj(self, run_id: str) -> dict:
        return {
            "run": run_id,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "cpu_start": self.cpu_start,
            "cpu_end": self.cpu_end,
            "amps": self.amps,
            "steps": self.steps,
        }


class ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _table_amps(state) -> int:
    return state.n_states * state.data_dim


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> tuple[Span, contextvars.Token]:
        stack = _STACK.get()
        span = Span(next(self._ids), stack[-1] if stack else None, name)
        token = _STACK.set(stack + (span.id,))
        self.spans.append(span)
        span.start = time.perf_counter()
        span.cpu_start = time.thread_time()
        return span, token

    @staticmethod
    def _close(span: Span, token: contextvars.Token) -> None:
        span.cpu_end = time.thread_time()
        span.end = time.perf_counter()
        _STACK.reset(token)

    def wrap(self, fn, name: str, work=None):
        """Return fn recording a span per call; work(*args) gives (amps, steps)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self._open(name)
            if work is not None:
                span.amps, span.steps = work(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return traced

    def _wrap_trajectory(self, fn):
        """grover_trajectory is a generator: one span per advance, not per call."""

        @functools.wraps(fn)
        def trajectory(state, good, n_max):
            gen = fn(state, good, n_max)
            amps = _table_amps(state)
            while True:
                span, token = self._open("grover.step")
                try:
                    n, sim = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span, token)
                if n > 0:
                    span.amps, span.steps = amps, 1
                yield n, sim

        return trajectory

    # -- installation ----------------------------------------------------
    def _rebind(self, modules, orig, new) -> None:
        for mod in modules:
            ns = vars(mod)
            for key, value in list(ns.items()):
                if key.startswith("__"):
                    continue
                if value is orig:
                    self._undo.append(functools.partial(ns.__setitem__, key, value))
                    ns[key] = new
                elif isinstance(value, tuple) and any(v is orig for v in value):
                    self._undo.append(functools.partial(ns.__setitem__, key, value))
                    ns[key] = tuple(new if v is orig else v for v in value)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append(functools.partial(value.__setitem__, k, v))
                            value[k] = new

    def _rebind_method(self, cls, attr: str, name: str, work=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append(functools.partial(setattr, cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, name, work))

    def install(self) -> None:
        from entgrover import analytic, checks, counting, grover, harness, qstate

        modules = [
            m for n, m in sys.modules.items() if n == "entgrover" or n.startswith("entgrover.")
        ]

        def fn(module, attr, name, work=None):
            orig = getattr(module, attr)
            self._rebind(modules, orig, self.wrap(orig, name, work))

        self._rebind(modules, ThreadPoolExecutor, ContextPool)

        for module, attr in (
            (harness, "build_state"),
            (harness, "build_good"),
            (checks, "corpus_states"),
            (qstate, "new_flat"),
            (qstate, "from_amplitudes"),
            (qstate, "random_with_moments"),
            (qstate, "random_good_set"),
        ):
            fn(module, attr, "qstate.build")
        self._rebind_method(
            qstate.EntangledState, "__post_init__", "qstate.validate",
            lambda self: ((1 << self.n_qubits) * self.data_dim, 0),
        )
        fn(qstate, "moments", "qstate.moments")
        fn(qstate, "good_mass", "qstate.measure")
        fn(qstate, "search_distribution", "qstate.measure")
        self._rebind_method(qstate.EntangledState, "physical_norm", "qstate.measure")

        trajectory = grover.grover_trajectory
        self._rebind(modules, trajectory, self._wrap_trajectory(trajectory))
        fn(
            grover, "grover_iterate", "grover.step",
            lambda state, good, n: (n * _table_amps(state), n),
        )

        fn(analytic, "closed_form_rows", "analytic.closed_form")
        fn(analytic, "recurrence_vectors", "analytic.recurrence")
        for attr in (
            "oscillation_params",
            "success_probability",
            "optimal_times",
            "best_integer_time",
            "p_max",
        ):
            fn(analytic, attr, "analytic.law")

        fn(
            counting, "build_count_state", "counting.circuit",
            lambda state, good, p_size: (p_size * _table_amps(state), 0),
        )
        self._rebind_method(
            counting.CountState, "__post_init__", "counting.validate",
            lambda self: (self.p_size * (1 << self.n_qubits) * self.data_dim, 0),
        )
        fn(counting, "ancilla_distribution", "counting.dist")
        fn(counting, "window_probability", "counting.window")
        fn(counting, "run_count", "counting.sample")

        for criterion in CRITERIA:
            fn(checks, f"check_{criterion}", f"checks.{criterion}")

        fn(harness, "load_scenario", "harness.parse")
        fn(harness, "parse_scenario", "harness.parse")
        for attr in ("run_find", "run_count", "run_verify"):
            fn(harness, attr, "harness.audit")
        self._rebind_method(harness.Report, "to_json", "harness.serialize")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Thread-CPU time each span spent outside its same-thread child spans.

    A span reads its own thread's CPU clock when it opens and closes, so a
    child on the same thread nests inside its parent on that clock and the
    difference is never negative.  A child that a pool ran on another
    thread is not subtracted: meanwhile the parent's thread waited, which
    costs no CPU time.  The self times of a run sum to its CPU time; with
    the interpreter lock letting one thread run Python at a time, that is
    about its wall time.
    """
    index = {s.id: i for i, s in enumerate(spans)}
    out = [s.cpu_end - s.cpu_start for s in spans]
    for s in spans:
        i = index.get(s.parent)
        if i is not None and spans[i].thread == s.thread:
            out[i] -= s.cpu_end - s.cpu_start
    return out


def span_metrics(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Every SPAN_METRICS value for one traced run."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    amps: dict[str, int] = {}
    steps: dict[str, int] = {}
    for span, t in zip(spans, own):
        self_s[span.name] = self_s.get(span.name, 0.0) + t
        calls[span.name] = calls.get(span.name, 0) + 1
        amps[span.name] = amps.get(span.name, 0) + span.amps
        steps[span.name] = steps.get(span.name, 0) + span.steps

    # Criteria report inclusive wall time of their outermost calls; the
    # reduced battery that determinism reruns counts towards determinism.
    by_id = {s.id: s for s in spans}
    inclusive = {name: 0.0 for name in CRITERIA}
    for span in spans:
        if not span.name.startswith("checks."):
            continue
        up = by_id.get(span.parent)
        while up is not None and not up.name.startswith("checks."):
            up = by_id.get(up.parent)
        if up is None:
            inclusive[span.name[len("checks."):]] += span.end - span.start

    step_s = self_s.get("grover.step", 0.0)
    out = {}
    for metric, _unit, _better in SPAN_METRICS:
        stem, _, kind = metric.rpartition("_")
        if metric.startswith("checks."):
            out[metric] = inclusive[stem[len("checks."):]]
        elif metric == "grover.steps":
            out[metric] = steps.get("grover.step", 0)
        elif metric == "grover.amp_steps":
            out[metric] = amps.get("grover.step", 0)
        elif metric == "grover.step_gbps":
            moved = STEP_BYTES_PER_AMP * amps.get("grover.step", 0)
            out[metric] = moved / step_s / 1e9 if step_s > 0 else 0.0
        elif metric == "harness.report_bytes":
            out[metric] = report_bytes
        elif kind == "s":
            out[metric] = self_s.get(stem, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(stem, 0)
        elif kind == "amps":
            out[metric] = amps.get(stem, 0)
        else:
            raise KeyError(metric)
    return out
