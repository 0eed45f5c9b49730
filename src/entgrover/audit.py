"""The trajectory audit: simulated trajectories read against the closed form.

``audit_trajectories`` simulates each of a list of states once and records,
step by step, the marked-sector mass, the amplitude deviation from the
closed form, and the drift of the sector variances and of the norm; ``find``
and ``sweep`` read one state's (``audit_trajectory``, the list of one), and
the verify battery reads its corpus and criteria 4-7's trajectories in one
call.  The iteration acts on the search index only, so every state of one N,
whatever its D or marked set, steps as a column block of one wide (N, W)
table (``_audit_n``), one step for all.  The wide table is stepped and read
a chunk of k steps at a time (``memory.audit_steps``): each (N, D) group of
states copies its columns out of the chunk into a (k, B, N, D) stack and is
read there (``_reader``), so every reading keeps the bits the state gives
alone; a lone state is read in place.  ``memory.audit`` and
``memory.corpus`` charge the chunks.
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


def _arena(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """A C-ordered complex array of each of ``shapes``, each starting on a cache
    line (``_ALIGN``) and carved from an allocation of its own, at most
    ``_ALIGN`` bytes longer; the memory charge leaves that padding out."""
    arrays = []
    for shape in shapes:
        size = 16 * math.prod(shape)
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


def _reader(c0: np.ndarray, gmask: np.ndarray, ms: list[qstate.MomentSummary]):
    """The read of one (N, D) group of B states: ``c0`` their (B, N, D) initial
    tables, ``gmask`` their (B, N) marked-row masks and ``ms`` their moments.

    The returned ``read(n0, c, work)`` takes the group's (size, B, N, D) tables
    at the steps from n0, C-ordered, and a free C-contiguous ``work`` buffer of
    as many amplitudes, its only buffer:
    - the tables' |z|^2 go into its float view and are reduced to the norms,
      and their marked rows are gathered into the rest of it and summed to the
      masses;
    - the closed-form predictions (``analytic._closed_form_into``) are written
      into it for one half of the rows at a time, the steps subtracted and each
      state's largest absolute value taken;
    - the two sectors, ``c[gmask]`` then ``c[~gmask]``, are gathered into it
      with one ``np.take``, centred, and squared in place into their real
      parts, whose sums give the sector variances.
    Sums over a state's rows are reduced state by state, with the reductions
    ``qstate.good_mass`` and ``qstate.moments`` make, so every reading stays
    bit for bit what the state gives alone, whatever the group and k are.
    It returns (p_sim, amp_dev or None, var_drift, norm_dev) of each state,
    each a length-size array.
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
    # Only a group mixing both copies its interior tables.
    interior = [i for i, t in enumerate(ts) if 0 < t < n_big]
    pick = slice(None) if len(interior) == len(ms) else interior
    c0_in, gmask_in, ms_in = c0[pick], gmask[pick], [ms[i] for i in interior]
    halves = (slice(0, n_big // 2), slice(n_big // 2, n_big))
    # Empty sectors sum to 0 over one row, so their drift reads 0.
    t_rows = np.maximum(ts, 1)[:, None]
    b_rows = np.maximum(n_bad, 1)[:, None]
    var0 = np.array([[m.var_g, m.var_b] for m in ms]).T[..., None]

    def read(n0: int, c: np.ndarray, work: np.ndarray):
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
        avg = np.empty((size,) + c0.shape[::2], dtype=np.complex128)
        for sector, spans in ((good, g_spans), (bad, b_spans)):
            _span_means(sector, spans, avg)
            with grover.small_buffer():
                for i, span in enumerate(spans):
                    sector[:, span] -= avg[:, i, None]
        # Squared on the whole gather: on a sector's slice numpy copies the operands.
        squares = qstate._abs2_into_real(flat)
        var_g = _span_sums(squares[:, :n_good_rows], g_spans)
        var_b = _span_sums(squares[:, n_good_rows:], b_spans)
        drift = np.maximum(np.abs(var_g / t_rows - var0[0]), np.abs(var_b / b_rows - var0[1]))
        return zip(masses / n_big, amp_dev, drift, np.abs(np.sqrt(norms / n_big) - 1.0))

    return read


def _audit_n(
    tables: list[np.ndarray],
    masks: list[np.ndarray],
    ms: list[qstate.MomentSummary],
    horizons: list[int],
) -> list[TrajectoryAudit]:
    """Step every trajectory of one N as column blocks of one wide table and
    audit every step.

    ``tables`` are the states' (N, D) initial tables (any D, any layout),
    ``masks`` their (N,) marked-row masks, ``ms`` their moments and
    ``horizons`` the last step audited for each; the wide table is stepped to
    max(horizons).  The states are grouped by D, and each group's B states
    take B*D consecutive columns, state by state, of the (N, W) wide table.

    The call owns C-ordered chunks on a cache line (``_arena``), k steps long
    (``memory.audit_steps``, sized by the group of most columns): ``steps``,
    k wide tables, and ``work``, k of that group's (B, N, D) stacks.  The
    steps of a chunk are written into ``steps`` with one step of the whole
    wide table each; then each group still within its horizons copies its
    columns out of the chunk into ``copy``, a (size, B, N, D) stack, and
    reads them there (``_reader``) with ``work`` as its buffer; the last step
    is stepped into the first table for the next chunk.  A lone state is its
    own wide table: it is read in ``steps`` without a copy, and steps with a
    table of ``work`` as scratch, where a wide table has ``scratch`` of its
    own.  Each column gets the operations it gets alone, so every reading
    keeps its bits.
    """
    n_big = len(masks[0])
    by_d: dict[int, list[int]] = {}
    for i, table in enumerate(tables):
        by_d.setdefault(table.shape[1], []).append(i)
    shapes = [(len(idx), n_big, d) for d, idx in by_d.items()]
    width = sum(b * d for b, _, d in shapes)
    b, _, d = max(shapes, key=lambda shape: shape[0] * shape[2])
    last = max(horizons)
    k = memory.audit_steps(shapes, last + 1)
    groups = []
    spans = _spans([bg * dg for bg, _, dg in shapes])
    for idx, cols in zip(by_d.values(), spans):
        c0 = tables[idx[0]][None] if len(idx) == 1 else np.stack([tables[i] for i in idx])
        read = _reader(c0, np.stack([masks[i] for i in idx]), [ms[i] for i in idx])
        groups.append((idx, cols, c0, max(horizons[i] for i in idx), read))
    lone = len(tables) == 1
    chunks = [(k, n_big, width), (k, b, n_big, d)]
    steps, work, *wide = _arena(chunks if lone else chunks + [chunks[1], (n_big, width)])
    order = [i for idx in by_d.values() for i in idx]
    if lone:
        flip, scratch = masks[0][:, None], _carve(work, (n_big, width))
    else:
        copy, scratch = wide
        flip = np.repeat(np.stack([masks[i] for i in order], axis=1),
                         [2 * tables[i].shape[1] for i in order], axis=1)
    for _, cols, c0, _, _ in groups:
        np.copyto(steps[0][:, cols].reshape(n_big, *c0.shape[::2]), c0.transpose(1, 0, 2))

    readings = [([], [], [], []) for _ in tables]
    wides = list(steps)  # one view each, so a chunk of one steps in place
    for n0 in range(0, last + 1, k):
        size = min(k, last + 1 - n0)
        for j in range(1, size):
            grover._step_rows(wides[j - 1], flip, wides[j], scratch)
        for idx, cols, c0, group_last, read in groups:
            if n0 > group_last:
                continue
            if lone:
                c = steps[:size, None]
            else:
                c = _carve(copy, (size,) + c0.shape)
                np.copyto(c, steps[:size, :, cols].reshape(size, n_big, *c0.shape[::2])
                          .transpose(0, 2, 1, 3))
            for i, reading in zip(idx, read(n0, c, _carve(work, (size,) + c0.shape))):
                count = max(0, min(size, horizons[i] + 1 - n0))
                for series, values in zip(readings[i], reading):
                    if values is not None:
                        series.extend(values[:count].tolist())
        if n0 + size <= last:
            grover._step_rows(wides[size - 1], flip, wides[0], scratch)
    return [TrajectoryAudit(m, *map(tuple, r)) for m, r in zip(ms, readings)]


def audit_trajectories(
    cases: list[tuple[qstate.EntangledState, qstate.GoodSet, qstate.MomentSummary, int]],
) -> list[TrajectoryAudit]:
    """The audit of each (state, good, moments, horizon) of ``cases``, in order:
    the states of each N stepped as one wide table (``_audit_n``)."""
    by_n: dict[int, list[int]] = {}
    for i, (state, *_) in enumerate(cases):
        by_n.setdefault(state.n_states, []).append(i)
    audits = [None] * len(cases)
    for idx in by_n.values():
        states, goods, ms, horizons = zip(*(cases[i] for i in idx))
        tables = [state.coeffs for state in states]
        masks = [good.mask(state.n_states) for state, good in zip(states, goods)]
        for i, trajectory in zip(idx, _audit_n(tables, masks, ms, horizons)):
            audits[i] = trajectory
    return audits


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
    return audit_trajectories([(state, good, m, n_max)])[0]
