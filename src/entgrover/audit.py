"""The trajectory audit: simulated trajectories read against the closed form.

``audit_trajectories`` simulates each of a list of states once and records,
step by step, the marked-sector mass, the amplitude deviation from the
closed form, and the drift of the sector variances and of the norm; ``find``
and ``sweep`` read one state's (``audit_trajectory``, the list of one), and
the verify battery reads its corpus and criteria 4-7's trajectories in one
call.  The iteration depends on the search index only through the marked
split, so each state is held with its rows in sector order, marked rows
first (``counting._sector_order``), and every state of one N steps as a
column block of one wide (N, W) table (``_audit_n``), one step for all.  The
wide table is stepped and read a chunk of k steps at a time
(``memory.audit_steps``): each (N, D) group of states reads its columns of
the chunk in place, as a (k, B, N, D) view (``_reader``).  A state's sectors
are the row spans [0, t) and [t, N) of its block, so a read sums spans,
copies, masks and gathers no whole table, and takes the norm from the sector
sums.  ``memory.audit`` and
``memory.corpus`` charge the chunks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, counting, grover, memory, qstate

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


def _abs2_into(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array into the float array ``out`` of its shape,
    the imaginary squares formed in ``tmp`` (``z.imag`` itself may be it): the
    roundings ``qstate._abs2_into_real`` makes."""
    np.square(z.real, out=out)
    np.square(z.imag, out=tmp)
    return np.add(out, tmp, out=out)


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


def _blocks(ts: list[int], n_big: int, rows: int) -> list[tuple[slice, object]]:
    """(span, marked) of the read blocks of tables in sector order with ``ts``
    marked rows: row slices of at most ``rows`` rows over [0, N), none across
    min(ts) or max(ts).  ``marked`` is True below min(ts), False from max(ts),
    and between them a (B, rows) mask of each state's marked rows."""
    lo, hi = min(ts), max(ts)
    blocks = []
    for start, stop, marked in ((0, lo, True), (lo, hi, None), (hi, n_big, False)):
        for r0 in range(start, stop, rows):
            span = slice(r0, min(stop, r0 + rows))
            if marked is None:
                blocks.append((span, np.arange(span.start, span.stop) < np.array(ts)[:, None]))
            else:
                blocks.append((span, marked))
    return blocks


def _reader(c0: np.ndarray, rows: np.ndarray, ms: list[qstate.MomentSummary], block_rows: int):
    """The read of one (N, D) group of B states: ``c0`` their (B, N, D) initial
    tables in row order, ``rows`` the (B, N) index of each state's rows in
    sector order into c0's (B*N, D) rows, ``ms`` their moments and
    ``block_rows`` the rows of a read block (``_blocks``).

    The returned ``read(n0, c, sq, buf)`` takes the group's (size, B, N, D)
    tables at the steps from n0 (a view of any strides), each state's rows in
    sector order, a free float buffer ``sq`` of their shape and a free
    complex ``buf`` of size + 1 blocks of B x block_rows x D:
    - the squares of the marked rows go into ``sq``, whose sums over each
      state's span [0, t) are the masses, and the spans' means are taken;
    - block by block, the closed form (``analytic._closed_form_into``) of
      c0's rows, taken through ``rows`` into the last block of ``buf``, is
      written into ``buf``, the steps subtracted and each state's largest
      absolute value taken; then the block is centred into ``buf``, and its
      squares written into ``sq``, whose sums over the spans give the sector
      variances;
    - the norm is the sum over the sectors of sum |x - mean|^2 + n |mean|^2.
    Sums over a state's rows are reduced state by state, with the reductions
    ``qstate.good_mass`` and ``qstate.moments`` make, so every reading but the
    norm is bit for bit what the state in sector order gives alone, whatever
    the group and k are.  It returns (p_sim, amp_dev or None, var_drift,
    norm_dev) of each state, each a length-size array.
    """
    b, n_big, d = c0.shape
    flat = c0.reshape(-1, d)
    ts = [m.t for m in ms]
    spans = [(slice(0, t), slice(t, n_big)) for t in ts]
    sizes = np.array([[t, n_big - t] for t in ts])
    blocks = _blocks(ts, n_big, block_rows)
    marked_rows = max(ts)
    # The closed form is singular at t in {0, N}: predict the others only, and
    # in a group mixing both step the singular ones with zero offsets.
    interior = [i for i, t in enumerate(ts) if 0 < t < n_big]
    ms_in = [ms[i] for i in interior]
    # Empty sectors sum to 0 over one row, so their drift reads 0.
    var0 = np.array([[m.var_g, m.var_b] for m in ms])[..., None]

    def read(n0: int, c: np.ndarray, sq: np.ndarray, buf: np.ndarray):
        size = len(c)
        tmp_at = size * b * block_rows * d
        for span, _ in blocks:
            if span.start >= marked_rows:
                break
            _abs2_into(c[:, :, span], sq[:, :, span],
                       _carve(buf, sq[:, :, span].shape, np.float64))
        masses = np.array([np.add.reduce(sq[:, i, good], axis=(-2, -1))
                           for i, (good, _) in enumerate(spans)])
        avg = np.zeros((size, b, 2, d), dtype=np.complex128)
        for i, sectors in enumerate(spans):
            for j, span in enumerate(sectors):
                if span.start < span.stop:
                    avg[:, i, j] = np.add.reduce(c[:, i, span], -2) / (span.stop - span.start)
        if interior:
            offsets = analytic._closed_form_offsets(ms_in, n0, size)
            if len(interior) < b:
                padded = np.zeros((2, size, b, d), dtype=np.complex128)
                padded[:, :, interior] = offsets
                offsets = tuple(padded)
        peaks = np.zeros((size, b))
        g_avg, b_avg = avg[:, :, :1], avg[:, :, 1:]
        with grover.small_buffer():
            for span, marked in blocks:
                block, sq_block = c[:, :, span], sq[:, :, span]
                work = _carve(buf, block.shape)
                if interior:
                    c0_rows = np.take(flat, rows[:, span], axis=0, mode="clip",
                                      out=_carve(buf, block.shape[1:], skip=tmp_at))
                    pred = analytic._closed_form_into(c0_rows, marked, offsets, n0, work)
                    pred -= block
                    # the largest value is exact, whatever the buffer
                    np.maximum(peaks, np.max(np.abs(pred, out=sq_block), axis=(2, 3)), out=peaks)
                if isinstance(marked, bool):
                    np.subtract(block, g_avg if marked else b_avg, out=work)
                else:
                    np.subtract(block, g_avg, out=work, where=marked[..., None])
                    np.subtract(block, b_avg, out=work, where=~marked[..., None])
                _abs2_into(work, sq_block, work.imag)
        sums = np.array([[np.add.reduce(sq[:, i, span], axis=(-2, -1)) for span in sectors]
                         for i, sectors in enumerate(spans)])
        drift = np.max(np.abs(sums / np.maximum(sizes, 1)[..., None] - var0), axis=1)
        mean2 = np.add.reduce(np.square(avg.real) + np.square(avg.imag), axis=-1)
        norms = np.add.reduce(sums + sizes[..., None] * mean2.transpose(1, 2, 0), axis=1)
        amp_dev = [peaks[:, i] if 0 < t < n_big else None for i, t in enumerate(ts)]
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
    take B*D consecutive columns, state by state, of the (N, W) wide table,
    each filled from its state's rows in sector order, so the flip negates
    the leading t rows of every block: a slice when every block has the same
    t, else a mask over the leading max(t) rows.

    The call owns C-ordered chunks on a cache line (``_arena``), k steps long
    (``memory.audit_steps``, sized by the group of most columns): ``steps``,
    k wide tables, ``squares``, k of that group's (B, N, D) stacks of floats,
    and ``blocks``, k + 1 of its read blocks (``memory.audit_block_rows``).
    Each step of a chunk is one step of the whole wide table into ``steps``;
    then each group still within its horizons reads its columns of the chunk
    in place, as a (size, B, N, D) view (``_reader``); the last step is
    stepped into the first table for the next chunk.  A wide table has a
    half-table ``scratch`` for its steps, and a lone state, its own wide
    table, carves it from ``squares``.  Each column gets the operations it
    gets alone, so every reading keeps its bits.
    """
    n_big = len(masks[0])
    by_d: dict[int, list[int]] = {}
    for i, table in enumerate(tables):
        by_d.setdefault(table.shape[1], []).append(i)
    shapes = [(len(idx), n_big, d) for d, idx in by_d.items()]
    width = sum(b * d for b, _, d in shapes)
    b, _, d = max(shapes, key=lambda shape: shape[0] * shape[2])
    block = b * memory.audit_block_rows(b, n_big, d) * d
    last = max(horizons)
    k = memory.audit_steps(shapes, last + 1)
    groups = []
    spans = _spans([bg * dg for bg, _, dg in shapes])
    for idx, cols in zip(by_d.values(), spans):
        c0 = tables[idx[0]][None] if len(idx) == 1 else np.stack([tables[i] for i in idx])
        rows = np.stack([j * n_big + counting._sector_order(masks[i]) for j, i in enumerate(idx)])
        bg, _, dg = c0.shape
        read = _reader(c0, rows, [ms[i] for i in idx], max(1, min(n_big, block // (bg * dg))))
        groups.append((idx, cols, c0, rows, max(horizons[i] for i in idx), read))
    lone = len(tables) == 1
    chunks = [(k, n_big, width), (k, b, n_big // 2, d), (k + 1, block)]
    steps, squares, blocks, *wide = _arena(chunks if lone else chunks + [(n_big // 2, width)])
    order = [i for idx in by_d.values() for i in idx]
    ts = [ms[i].t for i in order]
    if len(set(ts)) == 1:
        flip = int(ts[0])
    else:
        flip = np.arange(max(ts))[:, None] < np.repeat(ts, [2 * tables[i].shape[1] for i in order])
    scratch = wide[0] if wide else _carve(squares, (n_big // 2, width))
    for _, cols, c0, rows, _, _ in groups:
        dest = steps[0][:, cols].reshape(n_big, *c0.shape[::2])
        part_rows = max(1, block // (len(rows) * c0.shape[2]))
        for r0 in range(0, n_big, part_rows):
            part = dest[r0 : r0 + part_rows]
            fill = part if lone else _carve(blocks, part.shape)
            np.take(c0.reshape(-1, c0.shape[2]), rows.T[r0 : r0 + part_rows], axis=0, out=fill,
                    mode="clip")
            if fill is not part:
                np.copyto(part, fill)

    readings = [([], [], [], []) for _ in tables]
    wides = list(steps)  # one view each, so a chunk of one steps in place
    for n0 in range(0, last + 1, k):
        size = min(k, last + 1 - n0)
        for j in range(1, size):
            grover._step_rows(wides[j - 1], flip, wides[j], scratch)
        for idx, cols, c0, _, group_last, read in groups:
            if n0 > group_last:
                continue
            c = steps[:size, :, cols].reshape(size, n_big, *c0.shape[::2]).transpose(0, 2, 1, 3)
            sq = _carve(squares, (size,) + c0.shape, np.float64)
            for i, reading in zip(idx, read(n0, c, sq, blocks)):
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
    compute on the state with its rows in sector order, bit for bit; the
    norm, from the sector sums, agrees with the exactly-rounded
    ``physical_norm`` to about 1e-16.
    """
    if m is None:
        m = qstate.moments(state, good)
    return audit_trajectories([(state, good, m, n_max)])[0]
