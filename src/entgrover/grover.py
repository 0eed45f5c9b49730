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
that form in O(N*D) for the counting circuit, whose many powers of a small
state would be dominated by per-pass overhead.  The two agree to last-place
rounding but round differently: every butterfly pass scales by the rounded
1/sqrt(2), so the composed step drifts the norm by the same few 1e-14 for
every state of a given shape, while the mean form leaves a few ulps that
change from state to state.  ``grover_step``, ``grover_iterate`` and
``grover_trajectory`` compose the operators, so the unitarity headroom of
a find report depends on the shape only, not on the random state.

The row operators act on the rows axis (-2) of any leading batch shape.
``trajectory_tables`` steps a stack of same-shape tables (B, N, D), with
marked-row masks (B, N), in lock step; every operation is elementwise, so
each table gets the bits it gets alone.  ``grover_trajectory`` wraps the same
generator for one state, without stacking it.

Everything here acts on the search index only; the data register rides
along untouched.  All functions are pure and numerically exact up to
double rounding (no N x N matrix is ever materialized).  Their inputs were
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


def _hadamard_rows(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n-qubit Hadamard along the rows axis (-2) via log2(N) butterfly passes.

    ``src`` and ``dst`` are two C-contiguous complex tables of one shape, and
    both are overwritten; returns (result, the other buffer).  Leading axes are
    a batch of independent tables; each entry sees the same elementwise
    operations as it would alone, so the bits do not depend on the batch.
    """
    *lead, n, d = src.shape
    h = 1
    while h < n:
        a = src.reshape(*lead, n // (2 * h), 2, h * d)
        b = dst.reshape(*lead, n // (2 * h), 2, h * d)
        np.add(a[..., 0, :], a[..., 1, :], out=b[..., 0, :])
        np.subtract(a[..., 0, :], a[..., 1, :], out=b[..., 1, :])
        dst *= _INV_SQRT2
        src, dst = dst, src
        h *= 2
    return src, dst


def _flip_good(table: np.ndarray, gmask: np.ndarray) -> np.ndarray:
    out = table.copy()
    out[gmask] = -out[gmask]
    return out


def _step_rows(table: np.ndarray, gmask: np.ndarray) -> np.ndarray:
    """-W S0 W S_H on the rows, composed operator by operator.

    ``table`` is (..., N, D) and ``gmask`` the matching (..., N) marked-row mask.
    Both transforms run in two buffers: the phase flip's fresh table and one
    scratch table.
    """
    out = _flip_good(table, gmask)
    out, scratch = _hadamard_rows(out, np.empty_like(out))
    np.negative(out[..., 0, :], out=out[..., 0, :])
    out, _ = _hadamard_rows(out, scratch)
    return np.negative(out, out=out)


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
    return _wrap(state, _step_rows(state.coeffs, gmask))


def grover_iterate(state: EntangledState, good: GoodSet, n: int) -> EntangledState:
    """n amplification steps; n=0 returns the input state unchanged."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if n == 0:
        return state
    gmask = good.mask(state.n_states)
    c = state.coeffs
    for _ in range(n):
        c = _step_rows(c, gmask)
    return _wrap(state, c)


def trajectory_tables(table: np.ndarray, gmask: np.ndarray, n_max: int):
    """Yield (n, table after n steps) for n = 0 .. n_max on bare arrays.

    ``table`` is one (N, D) table or a stack (B, N, D) of same-shape tables
    stepped in lock step, with ``gmask`` of shape (N,) or (B, N).  Each
    stacked table gets the bits it would get alone.  n = 0 yields ``table``
    itself; later tables are fresh arrays.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    yield 0, table
    c = table
    for n in range(1, n_max + 1):
        c = _step_rows(c, gmask)
        yield n, c


def grover_trajectory(state: EntangledState, good: GoodSet, n_max: int):
    """Yield (n, state after n steps) for n = 0 .. n_max, reusing each step."""
    for n, c in trajectory_tables(state.coeffs, good.mask(state.n_states), n_max):
        yield n, state if n == 0 else _wrap(state, c)
