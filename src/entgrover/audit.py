"""The trajectory audit: one simulated trajectory read against the closed form.

``audit_trajectory`` simulates one state once and records, step by step,
the marked-sector mass, the amplitude deviation from the closed form, and
the drift of the sector variances and of the norm; ``find``, ``sweep`` and
the verify battery's criteria that simulate a trajectory read it.  It steps
and reads a chunk of k steps at a time (``memory.audit_steps``), in two
chunks allocated once per call, the steps and the work that is both the
step's scratch and the read's only buffer; ``memory.audit`` charges them.
``_audit_stack`` audits a stack of same-shape states in lock step, as the
battery's corpus does; ``audit_trajectory`` is the stack of one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, grover, memory, qstate

# The audit's chunks start on a cache line: malloc aligns to 16 bytes only,
# and a 4096 x 64 step between tables off a cache-line boundary ran 8-10%
# slower, by an amount that changed from process to process (2 cores, numpy 2.4.6).
_ALIGN = 64


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

    The call owns two C-ordered chunks of k tables (``memory.audit_steps``),
    each on a cache line (``_arena``): ``steps`` and ``work``.  The steps of a
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
    k = memory.audit_steps(c0.shape, last + 1)
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
