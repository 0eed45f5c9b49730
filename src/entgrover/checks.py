"""End-to-end verification criteria: closed forms vs the exact simulator.

Each check pits an analytic prediction against brute-force state-vector
simulation (or an independently stated bound) at a pinned tolerance and
returns a CheckResult.  The same battery backs the ``verify`` CLI command
and the acceptance test suite, so a criterion is stated exactly once.

``audit_trajectory`` simulates one state once and records, step by step,
the marked-sector mass, the amplitude deviation from the closed form, and
the drift of the sector variances and of the norm; ``find``, ``sweep`` and
the criteria that simulate a trajectory read it.  It steps and reads a
chunk of k steps at a time (at most ``memory._CHUNK_BYTES`` of tables), in
two chunks allocated once per call, the steps and the work that is both the
step's scratch and the read's only buffer; ``memory.audit`` charges them.

The battery builds its corpus once (``build_corpus``) for criteria 1-4, as
one stack per table shape: each stack is audited in lock step
(``audit_trajectory`` is the stack of one), and criterion 2 runs the
recurrence once over the whole corpus, its averages zero-padded to the
widest D, and compares its offsets with the closed form's a chunk of steps
at a time, without a table.  Criterion 7 audits its three states as one
stack, criterion 8 reads its kernel sums as arrays, and criterion 10 makes
one circuit pass per (N, P) over every t.  Every reading stays bit for bit
what the state gives alone: elementwise work, the norms and the per-state
maxima run on whole chunks or on their gathered sectors, while sums over a
state's rows are formed one state at a time over all k steps.  The battery
runs sequentially: its work is small arrays under the interpreter lock.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analytic, counting, grover, memory, qstate

SIGMA_LOW = counting.SIGMA_LOWER_BOUND
AVG_THRESHOLD = math.pi**2 / (8.0 * math.sqrt(2.0))

# The audit's chunks start on a cache line: malloc aligns to 16 bytes only,
# and a 4096 x 64 step between tables off a cache-line boundary ran 8-10%
# slower, by an amount that changed from process to process (2 cores, numpy 2.4.6).
_ALIGN = 64


@dataclass(frozen=True)
class Tolerances:
    amplitude: float = 1e-9
    probability: float = 1e-9
    unitarity: float = 1e-12


@dataclass(frozen=True)
class VerifyConfig:
    """Sizes and seeds for the verification battery; defaults are the full battery."""

    corpus_count: int = 100
    n_qubits_list: tuple[int, ...] = (2, 3, 4, 6)
    data_dims: tuple[int, ...] = (1, 2, 4)
    max_steps: int = 50
    base_seed: int = 20260808
    sweep_n_qubits: tuple[int, ...] = (4, 6)
    sweep_p_sizes: tuple[int, ...] = (16, 32, 64)
    majority_repetitions: int = 101
    sigma_samples: int = 1000
    averages_cases: int = 50
    tolerances: Tolerances = field(default_factory=Tolerances)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def corpus_states(cfg: VerifyConfig) -> list[tuple[qstate.EntangledState, qstate.GoodSet]]:
    """Seeded corpus of random entangled states with random marked sets."""
    combos = [(nq, d) for nq in cfg.n_qubits_list for d in cfg.data_dims]
    out = []
    for i in range(cfg.corpus_count):
        nq, d = combos[i % len(combos)]
        n = 1 << nq
        memory.check([memory.table(n, d)])
        rng = np.random.default_rng(cfg.base_seed + i)
        t = int(rng.integers(1, n))
        table = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        state = qstate.from_amplitudes(table, renormalize=True)
        good = qstate.random_good_set(n, t, seed=cfg.base_seed + 100_000 + i)
        out.append((state, good))
    return out


@dataclass(frozen=True)
class TrajectoryAudit:
    """Per-step readings of one simulated trajectory, indexed by n = 0 .. n_max:
    the marked-sector mass, the largest amplitude deviation from the closed
    form (empty when t is 0 or N, where it is singular), the larger drift of
    the two sector variances and the deviation of the physical norm from 1."""

    moments: qstate.MomentSummary
    p_sim: tuple[float, ...]
    amp_dev: tuple[float, ...]
    var_drift: tuple[float, ...]
    norm_dev: tuple[float, ...]


def _abs2(z: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array, formed in the float view of a free
    C-contiguous buffer of at least ``z.size`` amplitudes and returned as a
    contiguous array of ``z``'s shape in its first half."""
    sq, im = _carve(buf, z.shape, np.float64), _carve(buf, z.shape, np.float64, z.size)
    np.square(z.real, out=sq)
    np.square(z.imag, out=im)
    return np.add(sq, im, out=sq)


def _carve(
    buf: np.ndarray, shape: tuple[int, ...], dtype=np.complex128, skip: int = 0
) -> np.ndarray:
    """A contiguous array of ``shape`` and ``dtype`` carved from a free C-contiguous
    buffer, starting ``skip`` items in."""
    return buf.reshape(-1).view(dtype)[skip : skip + math.prod(shape)].reshape(shape)


def _arena(shape: tuple[int, ...], count: int) -> list[np.ndarray]:
    """``count`` C-ordered complex arrays of ``shape``, each starting on a cache
    line (``_ALIGN``) and carved from an allocation of its own, at most
    ``_ALIGN`` bytes longer; the memory charge leaves that padding out."""
    size = 16 * math.prod(shape)
    arrays = []
    for _ in range(count):
        raw = np.empty(size + _ALIGN, dtype=np.uint8)
        start = -raw.ctypes.data % _ALIGN
        arrays.append(raw[start : start + size].view(np.complex128).reshape(shape))
    return arrays


def _spans(sizes: list[int]) -> list[slice]:
    """Consecutive slices of the given sizes."""
    ends = itertools.accumulate(sizes)
    return [slice(end - size, end) for end, size in zip(ends, sizes)]


def _span_sums(rows: np.ndarray, spans: list[slice]) -> np.ndarray:
    """Pairwise sum of each state's rows (axis -2) of a stack-wide gather, as
    ``np.sum`` forms it: (B,) for a (rows, D) gather, (B, k) for k of them."""
    return np.array([np.add.reduce(rows[..., span, :], axis=(-2, -1)) for span in spans])


def _span_means(rows: np.ndarray, spans: list[slice], out: np.ndarray) -> None:
    """Row mean (axis -2) of each non-empty span into ``out[..., i, :]``, as
    ``np.mean(rows, axis=0)`` forms it."""
    for i, span in enumerate(spans):
        if span.start < span.stop:
            out[..., i, :] = np.add.reduce(rows[..., span, :], -2) / (span.stop - span.start)


def _chunk_steps(shape: tuple[int, int, int], steps: int) -> int:
    """Steps the audit of a (B, N, D) stack holds at once: as many stacks as
    ``memory._CHUNK_BYTES`` holds and the memory cap leaves room for beside the
    audit's readings (``memory._STEP_BYTES`` a state and step), at most
    ``steps`` and at least one."""
    step = memory._audit_bytes(shape, 1) - memory._audit_bytes(shape, 0)
    room = (qstate.memory_cap_bytes() - memory._audit_bytes(shape, 0)
            - shape[0] * steps * memory._STEP_BYTES)
    return max(1, min(steps, memory._CHUNK_BYTES // (16 * math.prod(shape)), room // step))


def _audit_stack(
    c0: np.ndarray,
    gmask: np.ndarray,
    ms: list[qstate.MomentSummary],
    horizons: list[int],
) -> list[TrajectoryAudit]:
    """Step B same-shape trajectories in lock step and audit every step.

    ``c0`` is the (B, N, D) stack of initial tables, ``gmask`` their (B, N)
    marked-row masks, ``ms`` their moments and ``horizons`` the last step
    audited for each; the stack is stepped to max(horizons).

    The call owns two C-ordered chunks of k tables (``_chunk_steps``), each
    on a cache line (``_arena``): ``steps`` and ``work``.  The steps of a
    chunk are written into ``steps``, with a table of ``work`` as scratch;
    then all k are read at once, and the last is stepped into the first
    table for the next chunk.  ``work`` is also the read's only buffer:
    - the k tables' |z|^2 go into its float view and are reduced to the
      norms, and their marked rows are gathered into the rest of it and
      summed to the masses;
    - the closed-form predictions (``analytic._closed_form_into``) are
      written into it for one half of the rows at a time, the steps
      subtracted and each state's largest absolute value taken;
    - the two sectors, ``c[gmask]`` then ``c[~gmask]``, are gathered into it
      with one ``np.take``, centred, and squared in place into their real
      parts, whose sums give the sector variances.
    Sums over a state's rows are reduced state by state, with the reductions
    ``qstate.good_mass`` and ``qstate.moments`` make, so every reading stays
    bit for bit what the state gives alone, whatever k is.
    """
    n_big, d = c0.shape[1:]
    ts = [m.t for m in ms]
    n_bad = [n_big - t for t in ts]
    n_good_rows = sum(ts)
    # The flat rows, in a (B*N, D) view, of the gathers c[gmask] then
    # c[~gmask], and each state's rows in them.
    rows = np.concatenate([np.flatnonzero(gmask), np.flatnonzero(~gmask)])
    g_spans = _spans(ts)
    b_spans = _spans(n_bad)
    # The closed form is singular at t in {0, N}: predict the others only.
    # Only a stack mixing both copies its interior tables; a runner's stack is
    # one state, or a corpus stack with every t in [1, N).
    interior = [i for i, t in enumerate(ts) if 0 < t < n_big]
    pick = slice(None) if len(interior) == len(ms) else interior
    c0_in, gmask_in, ms_in = c0[pick], gmask[pick], [ms[i] for i in interior]
    halves = (slice(0, n_big // 2), slice(n_big // 2, n_big))
    last = max(horizons)
    k = _chunk_steps(c0.shape, last + 1)
    steps, work = _arena((k,) + c0.shape, 2)
    avg = np.empty((k,) + c0.shape[::2], dtype=np.complex128)
    # Empty sectors sum to 0 over one row, so their drift reads 0.
    t_rows = np.maximum(ts, 1)[:, None]
    b_rows = np.maximum(n_bad, 1)[:, None]
    var0 = np.array([[m.var_g, m.var_b] for m in ms]).T[..., None]

    def read(n0: int, c: np.ndarray, work: np.ndarray):
        """(p_sim, amp_dev or None, var_drift, norm_dev) of each stacked table,
        each a length-k array, at the k steps from n0 held in ``c``."""
        size = len(c)
        abs2 = _abs2(c, work)
        norms = np.add.reduce(abs2, axis=(2, 3)).T
        marked = _carve(work, (size, n_good_rows, d), np.float64, abs2.size)
        np.take(abs2.reshape(size, -1, d), rows[:n_good_rows], axis=1, out=marked, mode="clip")
        masses = _span_sums(marked, g_spans)
        amp_dev = [None] * len(ms)
        if interior:
            offsets = analytic._closed_form_offsets(ms_in, n0, size)
            peaks = []
            for half in halves:
                pred = analytic._closed_form_into(
                    c0_in[:, half], gmask_in[:, half], offsets, n0,
                    _carve(work, (size, len(ms_in), half.stop - half.start, d)))
                with grover.small_buffer():  # a half's rows are strided
                    pred -= c[:, pick, half]
                abs_dev = np.abs(pred, out=_carve(work, pred.shape, np.float64, 2 * pred.size))
                peaks.append(np.max(abs_dev, axis=(2, 3)))
            for i, dev in zip(interior, np.maximum(*peaks).T):
                amp_dev[i] = dev
        flat = work.reshape(size, -1, d)
        np.take(c.reshape(size, -1, d), rows, axis=1, out=flat, mode="clip")
        good, bad = flat[:, :n_good_rows], flat[:, n_good_rows:]
        for sector, spans in ((good, g_spans), (bad, b_spans)):
            _span_means(sector, spans, avg[:size])
            with grover.small_buffer():
                for i, span in enumerate(spans):
                    sector[:, span] -= avg[:size, i, None]
        # Squared on the whole gather: on a sector's slice numpy copies the operands.
        squares = qstate._abs2_into_real(flat)
        var_g = _span_sums(squares[:, :n_good_rows], g_spans)
        var_b = _span_sums(squares[:, n_good_rows:], b_spans)
        drift = np.maximum(np.abs(var_g / t_rows - var0[0]), np.abs(var_b / b_rows - var0[1]))
        return zip(masses / n_big, amp_dev, drift, np.abs(np.sqrt(norms / n_big) - 1.0))

    readings = [([], [], [], []) for _ in ms]
    tables = list(steps)  # one view each, so a chunk of one steps in place
    np.copyto(tables[0], c0)
    for n0 in range(0, last + 1, k):
        size = min(k, last + 1 - n0)
        for j in range(1, size):
            grover._step_rows(tables[j - 1], gmask, tables[j], work[0])
        for i, reading in enumerate(read(n0, steps[:size], work[:size])):
            count = max(0, min(size, horizons[i] + 1 - n0))
            for series, values in zip(readings[i], reading):
                if values is not None:
                    series.extend(values[:count].tolist())
        if n0 + size <= last:
            grover._step_rows(tables[size - 1], gmask, tables[0], work[0])
    return [TrajectoryAudit(m, *map(tuple, r)) for m, r in zip(ms, readings)]


def audit_trajectory(
    state: qstate.EntangledState,
    good: qstate.GoodSet,
    n_max: int,
    m: qstate.MomentSummary | None = None,
) -> TrajectoryAudit:
    """Simulate n_max steps once and compare every step with the predictions.

    ``m`` is moments(state, good) when the caller already has it.  The mass
    and the variances are those ``qstate.good_mass`` and ``qstate.moments``
    compute, bit for bit; the norm uses numpy's pairwise sum, and agrees
    with the exactly-rounded ``physical_norm`` to about 1e-16.
    """
    if m is None:
        m = qstate.moments(state, good)
    gmask = good.mask(state.n_states)[None]
    return _audit_stack(state.coeffs[None], gmask, [m], [n_max])[0]


def _law_horizon(m: qstate.MomentSummary) -> int:
    return memory.law_horizon(m.t, m.n_states)


@dataclass(frozen=True)
class Corpus:
    """The battery's corpus, built once for criteria 1-4: ``stacks`` holds the
    (B, N, D) initial tables, (B, N) marked-row masks and B moment summaries
    of each table shape, and ``audits`` one audit per state, in corpus order."""

    stacks: tuple[tuple[np.ndarray, np.ndarray, tuple[qstate.MomentSummary, ...]], ...]
    audits: tuple[TrajectoryAudit, ...]


def build_corpus(cfg: VerifyConfig) -> Corpus:
    """Stack the corpus by shape; step each stack to its longest horizon, each audit to its own."""
    states = corpus_states(cfg)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (state, _) in enumerate(states):
        groups.setdefault(state.coeffs.shape, []).append(i)
    stacks = []
    audits: list[TrajectoryAudit | None] = [None] * len(states)
    for idx in groups.values():
        c0 = np.stack([states[i][0].coeffs for i in idx])
        gmask = np.stack([states[i][1].mask(c0.shape[1]) for i in idx])
        ms = tuple(qstate.moments(*states[i]) for i in idx)
        horizons = [max(cfg.max_steps, _law_horizon(m)) for m in ms]
        for i, audit in zip(idx, _audit_stack(c0, gmask, ms, horizons)):
            audits[i] = audit
        stacks.append((c0, gmask, ms))
    return Corpus(tuple(stacks), tuple(audits))


def check_closed_form_fidelity(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """Predicted rows equal simulated rows, amplitude by amplitude, for n up to max_steps."""
    tol = cfg.tolerances.amplitude
    worst = max([0.0, *(max(a.amp_dev[: cfg.max_steps + 1]) for a in corpus.audits)])
    return CheckResult("closed_form_fidelity", worst < tol, worst, tol)


def check_recurrence_consistency(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """The two-block recurrence's offsets -(2/N) X_n and -(2/N) Y_n equal the
    closed form's marked and unmarked offsets, for n up to max_steps.  One
    recurrence pass runs over the whole corpus, its averages zero-padded to
    the widest D, and is compared a chunk of steps at a time
    (``memory.recurrence_steps``: at most ``memory._CHUNK_BYTES`` with its
    temporaries), each state with its own bits."""
    tol = cfg.tolerances.amplitude
    worst = 0.0
    ms = [m for _, _, stack in corpus.stacks for m in stack]
    if ms and cfg.max_steps:
        scale = np.array([[-2.0 / m.n_states] for m in ms])
        steps = analytic.recurrence_sequence(ms, cfg.max_steps)
        widest = max(c0.shape[2] for c0, _, _ in corpus.stacks)
        k = memory.recurrence_steps(len(ms), widest, cfg.max_steps)
        for n0 in range(1, cfg.max_steps + 1, k):
            size = min(k, cfg.max_steps + 1 - n0)
            xy = np.array([(x, y) for _, x, y in itertools.islice(steps, size)])
            offsets = analytic._closed_form_offsets(ms, n0, size)
            for z, offset in zip(np.moveaxis(xy, 1, 0), offsets):  # X_n, then Y_n
                worst = max(worst, float(np.max(np.abs(scale * z - offset))))
    return CheckResult("recurrence_consistency", worst < tol, worst, tol)


def check_variance_conservation(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """Sector variances of the iterated rows never drift from their initial values."""
    tol = cfg.tolerances.probability
    worst = max([0.0, *(max(a.var_drift[: cfg.max_steps + 1]) for a in corpus.audits)])
    return CheckResult("variance_conservation", worst < tol, worst, tol)


def check_probability_law(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """The damped-cosine law tracks simulation over two periods; the N-scaled
    coefficient variant must demonstrably fail on the uniform N=4 case."""
    tol = cfg.tolerances.probability
    worst = 0.0
    for a in corpus.audits:
        p = analytic.oscillation_params(a.moments)
        for n in range(_law_horizon(a.moments) + 1):
            worst = max(worst, abs(analytic.success_probability(p, n) - a.p_sim[n]))

    # negative control: coefficients scaled by N/2 and N overshoot immediately
    flat = qstate.new_flat(2, 1)
    good = qstate.GoodSet((0,))
    m = qstate.moments(flat, good)
    n_big = m.n_states
    cos2 = math.cos(m.theta) ** 2
    tan2 = math.tan(m.theta) ** 2
    dp_scaled = (n_big / 2.0) * cos2 * (m.b_norm2 + tan2 * m.g_norm2)
    pav_scaled = 1.0 - dp_scaled - n_big * m.var_b * cos2
    control_dev = 0.0
    for n, p_sim in enumerate(audit_trajectory(flat, good, 6, m).p_sim):
        scaled = pav_scaled - dp_scaled * math.cos(2.0 * (2.0 * n * m.theta + m.theta))
        control_dev = max(control_dev, abs(scaled - p_sim))
    passed = worst < tol and control_dev > 0.5
    return CheckResult(
        "probability_law",
        passed,
        worst,
        tol,
        detail=f"N-scaled control deviates by {control_dev:.3f} (must exceed 0.5)",
    )


def check_grover_reduction(cfg: VerifyConfig) -> CheckResult:
    """Uniform states give P(n) = sin^2((2n+1) theta); N=4, t=1 peaks at n0 = 1."""
    tol = 1e-12
    worst = 0.0
    for nq, t in ((2, 1), (3, 1), (4, 3), (6, 1)):
        flat = qstate.new_flat(nq, 1)
        good = qstate.GoodSet(tuple(range(t)))
        m = qstate.moments(flat, good)
        p = analytic.oscillation_params(m)
        for n, p_sim in enumerate(audit_trajectory(flat, good, _law_horizon(m), m).p_sim):
            expected = math.sin((2 * n + 1) * m.theta) ** 2
            worst = max(
                worst,
                abs(analytic.success_probability(p, n) - expected),
                abs(p_sim - expected),
            )
    flat = qstate.new_flat(2, 1)
    good = qstate.GoodSet((0,))
    p = analytic.oscillation_params(qstate.moments(flat, good))
    worst = max(worst, abs(analytic.success_probability(p, 1) - 1.0))
    worst = max(worst, abs(analytic.optimal_times(p, 0) - 1.0))
    return CheckResult("grover_reduction", worst < tol, worst, tol)


def check_degenerate_cases(cfg: VerifyConfig) -> CheckResult:
    """One-to-one data maps give constant P = t/N; the fine-tuned zero-mean
    construction gives P identically zero."""
    tol = cfg.tolerances.probability
    worst = 0.0
    for nq, t in ((2, 1), (3, 3)):
        n_big = 1 << nq
        state = qstate.from_amplitudes(np.eye(n_big, dtype=np.complex128))
        good = qstate.GoodSet(tuple(range(t)))
        m = qstate.moments(state, good)
        p = analytic.oscillation_params(m)
        if not p.degenerate:
            return CheckResult(
                "degenerate_cases", False, math.inf, tol, detail="one-to-one not flagged"
            )
        for n, p_sim in enumerate(audit_trajectory(state, good, 30, m).p_sim):
            worst = max(worst, abs(p_sim - t / n_big))
            worst = max(worst, abs(analytic.success_probability(p, n) - t / n_big))

    # marked rows all zero, unmarked rows zero-mean: the iteration never
    # moves any mass onto the marked sector
    table = np.array([[0.0], [0.0], [math.sqrt(2.0)], [-math.sqrt(2.0)]], dtype=np.complex128)
    state = qstate.from_amplitudes(table)
    good = qstate.GoodSet((0, 1))
    m = qstate.moments(state, good)
    p = analytic.oscillation_params(m)
    worst = max(worst, abs(analytic.success_probability(p, 0) - 0.0))
    worst = max(worst, *audit_trajectory(state, good, 30, m).p_sim)
    return CheckResult("degenerate_cases", worst < tol, worst, tol)


def _state_with_bad_variance(epsilon: float, seed: int) -> tuple[qstate.EntangledState, qstate.GoodSet]:
    """N=16, t=4 state with var_b*cos^2(theta) = epsilon and undamped oscillation."""
    nq, t = 4, 4
    n_big = 1 << nq
    sin2 = t / n_big
    cos2 = 1.0 - sin2
    var_g = 0.2
    b2 = 0.81
    var_b = epsilon / cos2
    g2 = (1.0 - epsilon - cos2 * b2 - sin2 * var_g) / sin2
    if g2 <= 0:
        raise ValueError("infeasible epsilon")
    good = qstate.GoodSet(tuple(range(t)))
    state = qstate.random_with_moments(
        nq, 1, good, var_g, var_b, [math.sqrt(g2)], [math.sqrt(b2)], seed=seed
    )
    return state, good


def check_p_max_claim(cfg: VerifyConfig) -> CheckResult:
    """With bad-sector variance epsilon (and no damping) the peak probability is 1 - epsilon;
    the three states are audited as one stack, each to its best integer time."""
    tol = 1e-6
    epsilons = (0.01, 0.05, 0.1)
    cases = [_state_with_bad_variance(eps, seed=cfg.base_seed + 777 + i)
             for i, eps in enumerate(epsilons)]
    ms = [qstate.moments(state, good) for state, good in cases]
    params = [analytic.oscillation_params(m) for m in ms]
    worst = max(abs(analytic.p_max(p) - (1.0 - eps)) for p, eps in zip(params, epsilons))
    n_stars = [analytic.best_integer_time(p) for p in params]
    c0 = np.stack([state.coeffs for state, _ in cases])
    gmask = np.stack([good.mask(state.n_states) for state, good in cases])
    audits = _audit_stack(c0, gmask, ms, n_stars)
    sim_dev = max(abs(a.p_sim[n] - analytic.success_probability(p, n))
                  for a, p, n in zip(audits, params, n_stars))
    passed = worst < tol and sim_dev < cfg.tolerances.probability
    return CheckResult(
        "p_max_claim",
        passed,
        worst,
        tol,
        detail=f"simulated P at best integer time within {sim_dev:.2e} of analytic",
    )


def check_counting_window(cfg: VerifyConfig) -> CheckResult:
    """Window formula equals circuit mass on the uniform N=16, t=4, P=16 case and
    exceeds 1/2; all three kernel sums stay in (8/pi^2, 1].

    The sums are read at ``sigma_samples`` random (P, f) per case, drawn as
    arrays from one seeded generator at most ``memory._CHUNK_BYTES`` of samples
    at a time, and the ten squared kernels of a sample are array operations
    (``counting.kernel_s2``)."""
    tol = cfg.tolerances.probability
    flat = qstate.new_flat(4, 1)
    good = qstate.GoodSet((0, 1, 2, 3))
    pred = counting.window_probability(qstate.moments(flat, good), 16)
    dist = counting.circuit_distribution(flat, good, 16)
    circuit_mass = float(sum(dist[m] for m in pred.outcomes))
    worst = abs(pred.mass - circuit_mass)
    ok = (
        pred.outcomes == (2, 3, 13, 14)
        and pred.mass > 0.5
        and worst < tol
    )

    rng = np.random.default_rng(cfg.base_seed + 55)
    per_chunk = memory._CHUNK_BYTES // memory._SIGMA_SAMPLE_BYTES
    sigma_ok = True
    for lo in range(0, cfg.sigma_samples, per_chunk):
        sigma_ok &= _kernel_sums_hold(rng, min(per_chunk, cfg.sigma_samples - lo))
    return CheckResult(
        "counting_window",
        ok and sigma_ok,
        worst,
        tol,
        detail=f"W1={pred.mass:.6f} on {pred.outcomes}; kernel-sum bounds "
        f"{'held' if sigma_ok else 'VIOLATED'} over {cfg.sigma_samples} samples/case",
    )


def _kernel_sums_hold(rng: np.random.Generator, size: int) -> bool:
    """Draw ``size`` samples of (P, f) for each case and read whether every sample's
    kernel sum lies in (SIGMA_LOW, 1], from an (offsets, samples) array of outcomes."""
    p_size = rng.choice((8, 16, 32, 64), size=size)
    half = p_size // 2
    f_int = rng.uniform(1.0, half - 1.0)
    f_low = rng.uniform(1e-6, 1.0 - 1e-6, size=size)
    f_high = rng.uniform(half - 1.0 + 1e-6, half - 1e-6)
    lo = np.floor(f_int)
    sums = [
        np.sum(counting.kernel_s2(np.array(outcomes), f, p_size), axis=0)
        for outcomes, f in (
            ((lo, lo + 1, p_size - lo - 1, p_size - lo), f_int),
            ((np.zeros_like(p_size), np.ones_like(p_size), p_size - 1), f_low),
            ((half, half - 1, half + 1), f_high),
        )
    ]
    return all(bool(np.all((SIGMA_LOW < s) & (s <= 1.0 + 1e-12))) for s in sums)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def check_sufficient_averages(cfg: VerifyConfig) -> CheckResult:
    """Sector averages both above pi^2/(8*sqrt(2)) guarantee window mass above 1/2."""
    rng = np.random.default_rng(cfg.base_seed + 99)
    min_w = 1.0
    for _ in range(cfg.averages_cases):
        nq = int(rng.choice((3, 4, 5)))
        n_big = 1 << nq
        d = int(rng.integers(1, 5))
        t = int(rng.integers(1, n_big - 1))
        p_size = int(rng.choice((8, 16, 32)))
        # both norms below 1 keep the variance budget positive for every t
        b2 = rng.uniform(AVG_THRESHOLD + 0.005, 0.95)
        g2 = rng.uniform(b2 + 1e-6, 0.99)
        sin2 = t / n_big
        cos2 = 1.0 - sin2
        budget = 1.0 - sin2 * g2 - cos2 * b2
        share = 0.0 if t == 1 else (1.0 if n_big - t == 1 else rng.uniform(0.0, 1.0))
        var_g = share * budget / sin2
        var_b = (1.0 - share) * budget / cos2
        good = qstate.random_good_set(n_big, t, seed=int(rng.integers(1 << 31)))
        state = qstate.random_with_moments(
            nq,
            d,
            good,
            var_g,
            var_b,
            math.sqrt(g2) * _random_unit(rng, d),
            math.sqrt(b2) * _random_unit(rng, d),
            seed=int(rng.integers(1 << 31)),
        )
        m = qstate.moments(state, good)
        if not (m.g_norm2 >= m.b_norm2 > AVG_THRESHOLD):
            return CheckResult(
                "sufficient_averages", False, math.inf, 0.5, detail="generator missed targets"
            )
        pred = counting.window_probability(m, p_size)
        min_w = min(min_w, pred.mass)
    return CheckResult(
        "sufficient_averages",
        min_w > 0.5,
        min_w,
        0.5,
        detail=f"minimum window mass over {cfg.averages_cases} cases",
    )


def check_estimator_bound(cfg: VerifyConfig) -> CheckResult:
    """Every window outcome decodes within the stated error bound; the majority
    of 101 samples lands in the window whenever its mass exceeds 1/2.

    Cell c of the (N, t, P) grid, in that order, samples with seed base_seed + c.
    One circuit pass per (N, P) covers every t: the flat tables marked 1 .. N/4
    are stacked (``counting.circuit_distributions``) a chunk at a time, as many
    as ``memory._CHUNK_BYTES`` holds of what a table adds to the pass at the
    largest P (``memory._table_bytes``), and each cell gets its distribution and
    moments through ``counting.run_count(dist=, m=)``."""
    worst_slack = -math.inf
    majority_ok = True
    cells = 0
    n_p = len(cfg.sweep_p_sizes)
    for nq in cfg.sweep_n_qubits:
        n_big = 1 << nq
        flat = qstate.new_flat(nq, 1)
        per_table = memory._table_bytes(n_big, 1, max(cfg.sweep_p_sizes))
        per_chunk = max(1, memory._CHUNK_BYTES // per_table)
        for lo in range(1, n_big // 4 + 1, per_chunk):
            ts = range(lo, min(lo + per_chunk, n_big // 4 + 1))
            goods = [qstate.GoodSet(tuple(range(t))) for t in ts]
            ms = [qstate.moments(flat, good) for good in goods]
            for j, p_size in enumerate(cfg.sweep_p_sizes):
                dists = counting.circuit_distributions([(flat, good) for good in goods], p_size)
                for t, good, m, dist in zip(ts, goods, ms, dists):
                    report = counting.run_count(
                        flat,
                        good,
                        p_size,
                        repetitions=cfg.majority_repetitions,
                        seed=cfg.base_seed + cells + (t - 1) * n_p + j + 1,
                        dist=dist,
                        m=m,
                    )
                    for outcome in report.window:
                        est = counting.estimate_from_outcome(outcome, p_size, n_big)
                        worst_slack = max(worst_slack, abs(est.t_tilde - t) - report.bound)
                    if report.w_predicted > 0.5 and (
                        report.majority_m not in report.window or report.w_empirical <= 0.5
                    ):
                        majority_ok = False
        cells += n_big // 4 * n_p
    return CheckResult(
        "estimator_bound",
        worst_slack <= 0.0 and majority_ok,
        worst_slack,
        0.0,
        detail=f"max (|t~-t| - bound) over {cells} cells; majority rule "
        f"{'held' if majority_ok else 'FAILED'}",
    )


def check_determinism(cfg: VerifyConfig) -> CheckResult:
    """The reduced battery, run three times, serializes identically each time."""
    small = replace(
        cfg,
        corpus_count=8,
        max_steps=10,
        sweep_n_qubits=(4,),
        sweep_p_sizes=(16,),
        sigma_samples=50,
        averages_cases=8,
    )
    blobs = []
    for _ in range(3):
        results = run_checks(small, include_determinism=False)
        blobs.append(json.dumps([asdict(r) for r in results], sort_keys=True))
    passed = blobs[0] == blobs[1] == blobs[2]
    return CheckResult(
        "determinism",
        passed,
        0.0 if passed else math.inf,
        0.0,
        detail="reduced battery, 3 runs, byte-compared",
    )


CHECKS = (
    check_closed_form_fidelity,
    check_recurrence_consistency,
    check_variance_conservation,
    check_probability_law,
    check_grover_reduction,
    check_degenerate_cases,
    check_p_max_claim,
    check_counting_window,
    check_sufficient_averages,
    check_estimator_bound,
)


def run_checks(cfg: VerifyConfig, include_determinism: bool = True) -> list[CheckResult]:
    """Run the battery in declaration order; criteria 1-4 read one shared corpus."""
    corpus = build_corpus(cfg)
    results = [fn(cfg, corpus) for fn in CHECKS[:4]] + [fn(cfg) for fn in CHECKS[4:]]
    if include_determinism:
        results.append(check_determinism(cfg))
    return results
