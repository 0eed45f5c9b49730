"""Exact application of the search-register operators to an entangled state.

The iteration operator is the composition  -W S0 W S_H : the marked-row
phase flip S_H, the Walsh-Hadamard transform W on the search register,
the |0> reflection S0, W again, and a global sign.  The global sign is
kept (not dropped as an unobservable phase) so iterated rows can be
compared amplitude-by-amplitude, including the (-1)^n alternation of the
unmarked rows, against closed-form predictions.

W is log2(N) butterfly passes.  Since W|0> is the uniform vector |u>, the
diffusion -W S0 W also equals 2|u><u| - I, each row x_a becoming
2*mean(x) - x_a; the counting circuit steps in that form
(``counting._doubled_means``).  Every butterfly pass scales by the rounded
1/sqrt(2), so this gate form drifts the norm by the same few 1e-14 for
every state of a given shape, and the unitarity headroom of a find report
depends on the shape only, not on the random state.

W's butterfly passes run on cache-sized blocks of rows (``_BLOCK_BYTES``)
while a pass pairs rows inside a block, and over the whole table after
that.  Only the order in which elements are visited changes: every element
gets (a +- b) * (1/sqrt(2)) in the same pass order, so the bits are those
of unblocked passes, which the tests keep as a reference.

A low pass h pairs runs of only 2hD floats (128 at h = 1, D = 64), and numpy
copies such strided operands through its ufunc buffer.  At the default 8192
elements that is 3 x 64 KiB per call, more than a 48 KiB L1 data cache, and
memory the cap does not charge.  So the block loop runs with the buffer at
``_PASS_BUFFER`` = 256 elements (``small_buffer``, which gives the caller's
size back on the way out), and so do the trajectory audit's broadcast
elementwise ops.  The step's signs (the phase flip, S0 and the global sign)
negate the table's float64 view: numpy's complex negative is an
unvectorized loop, 0.87 ms per 4 MiB table against 0.18 ms.  Both are
elementwise, so every amplitude gets the same operations in the same order
and no bit changes (timings in ``BENCH_14.json``).

The row operators act on the rows axis (-2) of any leading batch shape.
``trajectory_tables`` steps a stack of same-shape tables (B, N, D), with
marked-row masks (B, N), in lock step; every operation is elementwise, so
each table gets the bits it gets alone.  ``grover_trajectory`` wraps the same
generator for one state, without stacking it, and ``grover_iterate`` keeps
its last table.

There is one step code path, ``_step_rows``, which writes the step into the
output buffer its caller passes, using a second as scratch, and allocates no
table.  The public functions pass a fresh C-ordered output table for every
step, whatever the input's layout, and one scratch table for the whole
trajectory, so each table they return is new and never written again.  The
trajectory audit (``audit._audit_stack``) steps through ``_step_rows``
directly, into chunks of tables it allocates once per call.

Everything here acts on the search index only; the data register rides
along untouched.  The public functions are pure and numerically exact up
to double rounding (no N x N matrix is ever materialized).  Their inputs were
validated where they entered the package, and each operator is unitary, so
results are wrapped through ``EntangledState._trusted`` without a copy or a
second norm check; the accumulated drift of the norm is what the trajectory
audit (``audit.audit_trajectory``) measures instead.
"""
from __future__ import annotations

import contextlib
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

# Elements of numpy's ufunc buffer in ``small_buffer``.  Of 16, 64, 256, 1024
# and 8192, 256 was the fastest or within noise of it for one step at each of
# 4096 x 64, 2^16 x 4, 2^18 x 1, 2^18 x 4 and 2^20 x 1; 16 slowed 2^20 x 1 by
# 8-25% against 8192, and 1024 lost up to half the gain at 4096 x 64 (best of
# 7, two processes each, same machine).
_PASS_BUFFER = 256


@contextlib.contextmanager
def small_buffer():
    """Run the block with numpy's ufunc buffer at ``_PASS_BUFFER`` elements, then
    restore the caller's size, also when the block raises.  Only elementwise
    ufuncs belong in it: their bits do not depend on the buffer, while a
    buffered reduction groups its pairwise sums by it."""
    caller = np.setbufsize(_PASS_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(caller)


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
    with small_buffer():
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


def _step_rows(
    src: np.ndarray, gmask: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """-W S0 W S_H on the rows, composed operator by operator, written into ``out``.

    ``src`` is (..., N, D) and ``gmask`` the matching (..., N) marked-row mask.
    The phase flip writes into ``out`` (``src`` itself flips in place) and both
    transforms run in ``out`` and ``scratch``, two C-contiguous tables of
    ``src``'s shape.  The two transforms make 2*log2(N) butterfly passes, an
    even count, so the step ends in ``out``, which is returned; ``scratch`` is
    left overwritten.  Nothing the size of a table is allocated.
    """
    if out is not src:
        np.copyto(out, src)
    # The signs go on the float64 view, which negates both parts as the
    # complex negative does, bit for bit, but in a vectorized loop.
    parts = out.view(np.float64)
    np.negative(parts, out=parts, where=gmask[..., None])
    out, scratch = _hadamard_rows(out, scratch)
    row0 = out.view(np.float64)[..., 0, :]
    np.negative(row0, out=row0)
    out, scratch = _hadamard_rows(out, scratch)
    parts = out.view(np.float64)
    np.negative(parts, out=parts)
    return out


def _wrap(state: EntangledState, coeffs: np.ndarray) -> EntangledState:
    return EntangledState._trusted(state.n_qubits, state.data_dim, coeffs)


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
    never written again, and every step shares one scratch table.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    yield 0, table
    c, scratch = table, np.empty_like(table, order="C")
    for n in range(1, n_max + 1):
        c = _step_rows(c, gmask, np.empty_like(c, order="C"), scratch)
        yield n, c


def grover_trajectory(state: EntangledState, good: GoodSet, n_max: int):
    """Yield (n, state after n steps) for n = 0 .. n_max, reusing each step."""
    for n, c in trajectory_tables(state.coeffs, good.mask(state.n_states), n_max):
        yield n, state if n == 0 else _wrap(state, c)
