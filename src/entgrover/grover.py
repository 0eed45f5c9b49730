"""Exact application of the search-register operators to an entangled state.

The iteration operator is -W S0 W S_H: the marked-row phase flip S_H, then
the Walsh-Hadamard transform W on the search register, the |0> reflection
S0, W again, and a global sign.  Since W|0> is the uniform vector |u>, the
diffusion -W S0 W is 2|u><u| - I, the inversion about the average: each
column of the table is reflected about its own mean, row a becoming
2*mu - x_a.  That is the form the step takes here, as the counting circuit
does (``counting._doubled_means``); W itself is never applied.  The global
sign is kept (not dropped as an unobservable phase) so iterated rows can be
compared amplitude-by-amplitude, including the (-1)^n alternation of the
unmarked rows, against closed-form predictions.

A step is four elementwise passes inside one ``small_buffer``: the phase
flip, which negates the marked rows of the table's float64 view (numpy's
complex negative is an unvectorized loop, and both negate both parts bit
for bit); the column sums, by halving the rows log2(N) times into the
scratch table, each half added onto the other; the sums times 2/N, exact
for N a power of two; and 2*mu minus the table, in place.  The column sums
halve the rows rather than call ``np.add.reduce``: numpy sums an (N, 1)
column pairwise but a wide (N, W) table row by row, while the halving makes
the same adds in the same order whatever the layout, so every column gets
the bits it gets alone.

The row operators act on the rows axis (-2) of any leading batch shape,
and on each column alike.  ``trajectory_tables`` steps a stack of
same-shape tables (B, N, D), with marked-row masks (B, N), in lock step;
the trajectory audit steps every state of one N as a column block of one
wide (N, W) table, each block flipped by its own marked rows.  Every
operation is elementwise per column, so each table gets the bits it gets
alone.  ``grover_trajectory`` wraps the same generator for one state,
without stacking it, and ``grover_iterate`` keeps its last table.

There is one step code path, ``_step_rows``, which writes the step into the
output buffer its caller passes, using a second as scratch, and allocates no
table.  The public functions pass a fresh C-ordered output table for every
step, whatever the input's layout, and one scratch table for the whole
trajectory, so each table they return is new and never written again.  The
trajectory audit (``audit._audit_n``) steps through ``_step_rows``
directly, into chunks of wide tables it allocates once per N.

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

import numpy as np

from .qstate import EntangledState, GoodSet

# Elements of numpy's ufunc buffer in ``small_buffer``.  A broadcast or masked
# elementwise op over short rows copies an operand through the buffer: at the
# default 8192 elements that is 64 KiB for the step's subtract, memory the cap
# does not charge, and 2 KiB at 256.  One step in it took 2.99 ms against 2.76
# ms in the default buffer at 4096 x 64, 5.7 against 3.7 ms at 2^16 x 4, 23.2
# against 21.0 ms at 2^18 x 4 and 37.8 against 35.2 ms at 2^20 x 1 (best of 7,
# 2 cores, numpy 2.4.6).
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


def _step_rows(
    src: np.ndarray, flip: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """(2|u><u| - I) S_H on the rows, the step -W S0 W S_H, written into ``out``.

    ``src`` is (..., N, D) and ``flip`` the marked-row mask as it broadcasts to
    the float64 view (..., N, 2D): (..., N, 1) when every column of a table
    shares its marked rows, or (N, 2D) when the columns are blocks of states
    with marked rows of their own (the audit's wide tables).
    The phase flip writes into ``out`` (``src`` itself flips in place), and
    the column sums halve its rows into the first half of ``scratch``; both
    are C-contiguous tables of ``src``'s shape.  Each column becomes twice its
    mean minus itself in ``out``, which is returned; ``scratch`` is left
    overwritten.  Nothing the size of a table is allocated.
    """
    if out is not src:
        np.copyto(out, src)
    n = out.shape[-2]
    half = n // 2
    parts, sums = out.view(np.float64), scratch.view(np.float64)
    with small_buffer():
        np.negative(parts, out=parts, where=flip)
        np.add(parts[..., :half, :], parts[..., half:, :], out=sums[..., :half, :])
        while half > 1:
            half //= 2
            np.add(sums[..., :half, :], sums[..., half : 2 * half, :], out=sums[..., :half, :])
        two_mu = scratch[..., :1, :]
        two_mu *= 2.0 / n
        np.subtract(two_mu.view(np.float64), parts, out=parts)
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
    c, scratch, flip = table, np.empty_like(table, order="C"), gmask[..., None]
    for n in range(1, n_max + 1):
        c = _step_rows(c, flip, np.empty_like(c, order="C"), scratch)
        yield n, c


def grover_trajectory(state: EntangledState, good: GoodSet, n_max: int):
    """Yield (n, state after n steps) for n = 0 .. n_max, reusing each step."""
    for n, c in trajectory_tables(state.coeffs, good.mask(state.n_states), n_max):
        yield n, state if n == 0 else _wrap(state, c)
