"""Exact application of the search-register operators to an entangled state.

The iteration operator is the composition  -W S0 W S_H : the marked-row
phase flip S_H, the Walsh-Hadamard transform W on the search register,
the |0> reflection S0, W again, and a global sign.  The global sign is
kept (not dropped as an unobservable phase) so iterated rows can be
compared amplitude-by-amplitude, including the (-1)^n alternation of the
unmarked rows, against closed-form predictions.

A step composes the operators literally: the phase flip, W as log2(N)
butterfly passes, S0, W again.  Since W|0> is the uniform vector |u>,
the diffusion -W S0 W also equals 2|u><u| - I, the inversion about the
average: each row x_a becomes 2*mean(x) - x_a.  ``_reflect_rows`` computes
that form in O(N*D) for the counting circuit's referee tensor
(``counting.build_count_state``), whose many powers of a small state would
be dominated by per-pass overhead; ``counting.circuit_distribution`` steps
its table with the same arithmetic in place.  The two forms agree to last-place
rounding but round differently: every butterfly pass scales by the rounded
1/sqrt(2), so the composed step drifts the norm by the same few 1e-14 for
every state of a given shape, while the mean form leaves a few ulps that
change from state to state.  ``grover_step``, ``grover_iterate`` and
``grover_trajectory`` compose the operators, so the unitarity headroom of
a find report depends on the shape only, not on the random state.

W's butterfly passes run on cache-sized blocks of rows (``_BLOCK_BYTES``)
while a pass pairs rows inside a block, and over the whole table after
that.  Only the order in which elements are visited changes: every element
gets (a +- b) * (1/sqrt(2)) in the same pass order, so the bits are those
of unblocked passes, which the tests keep as a reference.

The row operators act on the rows axis (-2) of any leading batch shape.
``trajectory_tables`` steps a stack of same-shape tables (B, N, D), with
marked-row masks (B, N), in lock step; every operation is elementwise, so
each table gets the bits it gets alone.  ``grover_trajectory`` wraps the same
generator for one state, without stacking it, and ``grover_iterate`` keeps
its last table.

There is one step code path, ``_step_rows``, which writes the step into two
buffers its caller passes and allocates no table.  The public functions pass
a fresh C-ordered output table for every step, whatever the input's layout,
and carry the buffer a step leaves over to the next step as scratch, so
each table they return is new and never written again.  The trajectory
audit (``checks._audit_stack``) steps through ``_step_rows`` directly, into
chunks of tables it allocates once per call.

Everything here acts on the search index only; the data register rides
along untouched.  The public functions are pure and numerically exact up
to double rounding (no N x N matrix is ever materialized).  Their inputs were
validated where they entered the package, and each operator is unitary, so
results are wrapped through ``EntangledState._trusted`` without a copy or a
second norm check; the accumulated drift of the norm is what the trajectory
audit (``checks.audit_trajectory``) measures instead.
"""
from __future__ import annotations

import math

import numpy as np

from .qstate import EntangledState, GoodSet

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Bytes of one cache block of rows: the low passes run block by block, so a
# block and its partner buffer (1 MiB) stay in a 2 MiB L2 cache.  Over 4096 x 64,
# 2^16 x 4, 2^18 x 4 and 2^20 x 1, 256 KiB and 512 KiB blocks were fastest;
# 1 MiB and 2 MiB were up to 40% slower at 2^18 x 4 and 2^20 x 1 (2 cores,
# 2 MiB L2 each, numpy 2.4.6).
_BLOCK_BYTES = 1 << 19


def _hadamard_rows(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n-qubit Hadamard along the rows axis (-2) via log2(N) butterfly passes.

    ``src`` and ``dst`` are two C-contiguous complex tables of one shape, and
    both are overwritten; returns (result, the other buffer).  Leading axes are
    a batch of independent tables; each entry sees the same elementwise
    operations as it would alone, so the bits do not depend on the batch.

    Pass h pairs rows h apart, so the passes with h below a block of
    ``_BLOCK_BYTES`` run one cache block at a time (a block of whole tables
    when a table is smaller), and the remaining passes over the whole stack.
    Every element still gets (a +- b) * (1/sqrt(2)) in the same pass order.
    """
    if src.nbytes <= _BLOCK_BYTES:
        return _passes(src, dst, 1, src.shape[-2])
    *_, n, d = src.shape
    block = 1 << max(0, (_BLOCK_BYTES // (16 * d)).bit_length() - 1)
    low = min(block, n)
    src_blocks, dst_blocks = src.reshape(-1, low, d), dst.reshape(-1, low, d)
    per = block // low
    for i in range(0, len(src_blocks), per):
        _passes(src_blocks[i : i + per], dst_blocks[i : i + per], 1, low)
    if (low.bit_length() - 1) % 2:
        src, dst = dst, src
    return _passes(src, dst, low, n)


def _passes(src: np.ndarray, dst: np.ndarray, h: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The butterfly passes h, 2h, ... below ``stop`` of ``_hadamard_rows``."""
    d = src.shape[-1]
    # A pass pairs runs of h*d amplitudes, 2h rows to a group; groups never
    # straddle two tables of a stack.  Sums and differences are the same on
    # the float64 view, whose longer runs add faster; a run of one amplitude
    # is faster as one strided loop over the complex entries.  The scaling
    # stays complex, which keeps the sign of a zero part.
    src_f, dst_f = src.view(np.float64), dst.view(np.float64)
    while h < stop:
        if h * d == 1:
            a, b = src.reshape(-1, 2, 1), dst.reshape(-1, 2, 1)
        else:
            a, b = src_f.reshape(-1, 2, 2 * h * d), dst_f.reshape(-1, 2, 2 * h * d)
        a0, a1 = a[:, 0], a[:, 1]
        np.add(a0, a1, out=b[:, 0])
        np.subtract(a0, a1, out=b[:, 1])
        dst *= _INV_SQRT2
        src, dst, src_f, dst_f = dst, src, dst_f, src_f
        h *= 2
    return src, dst


def _flip_good(table: np.ndarray, gmask: np.ndarray) -> np.ndarray:
    out = table.copy()
    out[gmask] = -out[gmask]
    return out


def _step_rows(
    src: np.ndarray, gmask: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """-W S0 W S_H on the rows, composed operator by operator, in caller buffers.

    ``src`` is (..., N, D) and ``gmask`` the matching (..., N) marked-row mask.
    The phase flip writes into ``out`` (``src`` itself flips in place) and both
    transforms run in ``out`` and ``scratch``, two C-contiguous tables of
    ``src``'s shape; returns (result, the other buffer).  Nothing the size of
    a table is allocated.
    """
    if out is not src:
        np.copyto(out, src)
    np.negative(out, out=out, where=gmask[..., None])
    out, scratch = _hadamard_rows(out, scratch)
    np.negative(out[..., 0, :], out=out[..., 0, :])
    out, scratch = _hadamard_rows(out, scratch)
    np.negative(out, out=out)
    return out, scratch


def _reflect_rows(table: np.ndarray, gmask: np.ndarray) -> np.ndarray:
    """The same step as the phase flip, then the reflection about the column mean."""
    x = _flip_good(table, gmask)
    return 2.0 * x.mean(axis=0) - x


def _wrap(state: EntangledState, coeffs: np.ndarray) -> EntangledState:
    return EntangledState._trusted(state.n_qubits, state.data_dim, coeffs)


def oracle_phase_flip(state: EntangledState, good: GoodSet) -> EntangledState:
    """Negate the marked rows (the reflection I - 2 sum_g |g><g|)."""
    gmask = good.mask(state.n_states)
    return _wrap(state, _flip_good(state.coeffs, gmask))


def walsh_hadamard(state: EntangledState) -> EntangledState:
    """Apply H on every search qubit; the data register is untouched."""
    src = state.coeffs.copy()  # the state's table is read-only
    return _wrap(state, _hadamard_rows(src, np.empty_like(src))[0])


def reflect_zero(state: EntangledState) -> EntangledState:
    """Negate row 0 (the reflection I - 2|0><0|)."""
    c = state.coeffs.copy()
    c[0] = -c[0]
    return _wrap(state, c)


def grover_step(state: EntangledState, good: GoodSet) -> EntangledState:
    """One amplification step: -W S0 W S_H, global sign included."""
    gmask = good.mask(state.n_states)
    c = state.coeffs
    out, scratch = np.empty_like(c, order="C"), np.empty_like(c, order="C")
    return _wrap(state, _step_rows(c, gmask, out, scratch)[0])


def grover_iterate(state: EntangledState, good: GoodSet, n: int) -> EntangledState:
    """n amplification steps; n=0 returns the input state unchanged."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if n == 0:
        return state
    for _, c in trajectory_tables(state.coeffs, good.mask(state.n_states), n):
        pass
    return _wrap(state, c)


def trajectory_tables(table: np.ndarray, gmask: np.ndarray, n_max: int):
    """Yield (n, table after n steps) for n = 0 .. n_max on bare arrays.

    ``table`` is one (N, D) table or a stack (B, N, D) of same-shape tables
    stepped in lock step, with ``gmask`` of shape (N,) or (B, N).  Each
    stacked table gets the bits it would get alone.  n = 0 yields ``table``
    itself; each later step gets a fresh output table, so a yielded table is
    never written again, and the buffer a step leaves over is the next step's
    scratch.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    yield 0, table
    c, spare = table, np.empty_like(table, order="C")
    for n in range(1, n_max + 1):
        c, spare = _step_rows(c, gmask, np.empty_like(c, order="C"), spare)
        yield n, c


def grover_trajectory(state: EntangledState, good: GoodSet, n_max: int):
    """Yield (n, state after n steps) for n = 0 .. n_max, reusing each step."""
    for n, c in trajectory_tables(state.coeffs, good.mask(state.n_states), n_max):
        yield n, state if n == 0 else _wrap(state, c)
