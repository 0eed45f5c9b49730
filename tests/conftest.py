"""Shared fixtures and the independent dense-matrix oracles.

The oracles here deliberately avoid the package's fast code paths (the
reflection about the mean, numpy's FFT, the Hadamard butterflies):
operators are materialized as explicit (N*D x N*D) matrices built from
Kronecker products, and transforms as explicit DFT matrices, so every fast
implementation is checked against a slow, obviously-correct one.
"""
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from entgrover import EntangledState, GoodSet, from_amplitudes  # noqa: E402


def hadamard_matrix(n_qubits: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    h = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n_qubits):
        h = np.kron(h, h1)
    return h


def grover_matrix(n_qubits: int, good_indices) -> np.ndarray:
    """Dense -W S0 W S_H on the search register."""
    n = 1 << n_qubits
    w = hadamard_matrix(n_qubits)
    s0 = np.eye(n, dtype=np.complex128)
    s0[0, 0] = -1.0
    sh = np.eye(n, dtype=np.complex128)
    for g in good_indices:
        sh[g, g] = -1.0
    return -(w @ s0 @ w @ sh)


def apply_search_operator(op: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply an N x N search-register operator to an N x D table."""
    return op @ coeffs


def dft_matrix(p: int, sign: int = 1) -> np.ndarray:
    a = np.arange(p)
    return np.exp(sign * 2j * np.pi * np.outer(a, a) / p) / math.sqrt(p)


def random_table(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def random_state(n_qubits: int, d: int, seed: int) -> EntangledState:
    return from_amplitudes(random_table(1 << n_qubits, d, seed), renormalize=True)


def random_marked(n: int, t: int, seed: int) -> GoodSet:
    rng = np.random.default_rng(seed)
    return GoodSet(tuple(int(i) for i in rng.choice(n, size=t, replace=False)))


def brute_force_count_amplitudes(state: EntangledState, good: GoodSet, p: int) -> np.ndarray:
    """P x N x D counting-circuit amplitudes from dense matrices only."""
    n = state.n_states
    g = grover_matrix(state.n_qubits, good.indices)
    branches = np.empty((p, n, state.data_dim), dtype=np.complex128)
    cur = state.coeffs / math.sqrt(n)
    for m in range(p):
        branches[m] = cur / math.sqrt(p)
        cur = g @ cur
    f = dft_matrix(p, +1)
    return np.einsum("nm,mad->nad", f, branches)


def brute_force_count_distribution(state: EntangledState, good: GoodSet, p: int) -> np.ndarray:
    """Ancilla distribution from dense matrices only."""
    mixed = brute_force_count_amplitudes(state, good, p)
    return np.sum(np.abs(mixed) ** 2, axis=(1, 2))


@pytest.fixture
def flat4():
    from entgrover import new_flat

    return new_flat(2, 1)


@pytest.fixture
def good0():
    return GoodSet((0,))
