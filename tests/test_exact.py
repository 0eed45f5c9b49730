"""The float paths against the exact referee: the trajectory, the closed form
and the two-block recurrence in rational arithmetic (``exact_trajectory``,
``exact_closed_form`` and ``exact_recurrence``).

Each bound below was set from a measurement over ten seeds of these four
shapes, before the test was written, and catches a planted perturbation of
the path it bounds (see the docstrings).
"""
import math

import numpy as np
import pytest

from conftest import (
    apply_search_operator,
    exact_closed_form,
    exact_error,
    exact_recurrence,
    exact_table,
    exact_trajectory,
    grover_matrix,
    random_table,
)
from entgrover import analytic, from_amplitudes, grover, moments, random_good_set

# (N, t, D): t in {1, N/2 - 1, N/2 + 1, N - 1}, D in {1, 3}
SHAPES = [(64, 1, 1), (64, 31, 3), (32, 17, 3), (16, 15, 1)]
N_MAX = 24
EPS = np.finfo(np.float64).eps
# 1/sqrt(2) rounds to a double 8.87e-17 (relative) below it, and every step
# scales by it in 2 log2 N butterfly passes.
INV_SQRT2_BIAS = 8.87e-17


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: "N%d-t%d-D%d" % s)
def case(request):
    n, t, d = request.param
    state = from_amplitudes(random_table(n, d, n + t), renormalize=True)
    good = random_good_set(n, t, seed=t)
    gmask = good.mask(n)
    return state, good, gmask, exact_trajectory(state.coeffs, gmask, N_MAX)


def test_exact_trajectory_equals_the_exact_closed_form(case):
    state, good, gmask, exact = case
    for n in range(N_MAX + 1):
        assert np.array_equal(exact[n], exact_closed_form(state.coeffs, gmask, n))
    # The same operator as the dense -W S0 W S_H.
    op = grover_matrix(state.n_qubits, good.indices)
    dense = state.coeffs
    for _ in range(N_MAX):
        dense = apply_search_operator(op, dense)
    assert exact_error(dense, exact[N_MAX]) < 1e-12


def test_closed_form_table_error_is_within_the_phase_model(case):
    """err_n <= 0.5 * eps * max|x_n| * (1 + 4 n theta / sin(2 theta)).

    Rounding the table arithmetic costs about eps * |x|; the phase 2n*theta
    carries a relative error of order eps, which the coefficients scale by
    tan(theta) + cot(theta) = 2 / sin(2 theta).  Measured at most 0.30 of the
    model (40 states); the table scaled by (1 + 1e-15) reads 1.35-1.84 on
    three of the four shapes.
    """
    state, good, gmask, exact = case
    m = moments(state, good)
    phase = 4.0 * m.theta / math.sin(2.0 * m.theta)
    for n in range(1, N_MAX + 1):
        table = analytic.closed_form_table(state.coeffs[None], gmask[None], [m], n)[0]
        model = EPS * float(np.max(np.abs(exact[n]))) * (1.0 + n * phase)
        assert exact_error(table, exact[n]) <= 0.5 * model


def test_composed_step_error_is_within_the_bias_model(case):
    """err_n <= 1.5 * max|x_n| * 2 log2 N * n * 8.87e-17.

    The composed step's error is the rounded 1/sqrt(2)'s bias: measured
    0.84-1.33 of the model (40 states).  A step scaled by (1 - 1e-15) reads
    2.13-2.76.  One scaled by (1 + 1e-15) cancels most of the bias and is not
    caught here.
    """
    state, good, gmask, exact = case
    rate = 2.0 * math.log2(state.n_states) * INV_SQRT2_BIAS
    for n, table in grover.trajectory_tables(state.coeffs, gmask, N_MAX):
        if n:
            model = n * rate * float(np.max(np.abs(exact[n])))
            assert exact_error(table, exact[n]) <= 1.5 * model


def test_exact_recurrence_rebuilds_the_exact_trajectory(case):
    """f_g(n) = f_g - (2/N) X_n and f_b(n) = (-1)^n f_b - (2/N) Y_n, exactly."""
    state, good, gmask, exact = case
    x0, half_n = exact_table(state.coeffs), state.n_states // 2
    for n, (big_x, big_y) in enumerate(exact_recurrence(state.coeffs, gmask, N_MAX), start=1):
        assert np.array_equal(exact[n][:, gmask], x0[:, gmask] - big_x[:, None] / half_n)
        bad = (-1) ** n * x0[:, ~gmask] - big_y[:, None] / half_n
        assert np.array_equal(exact[n][:, ~gmask], bad)


def test_recurrence_error_is_within_the_phase_model(case):
    """err_n <= 2.5 * eps * max_{k<=n} |Z_k| * (1 + 4 n theta / sin(2 theta)).

    Z_k is the exact pair (X_k, Y_k).  An error made at step k is carried by
    the later steps, so the scale is the largest pair so far; the phase term
    is the closed form's.  Measured 0.06-2.01 of the model (160 states, ten
    times the seeds of these four shapes); a recurrence that scales each step
    by (1 +- 1e-14) reads 4.0-21.7.
    """
    state, good, gmask, _ = case
    m = moments(state, good)
    phase = 4.0 * m.theta / math.sin(2.0 * m.theta)
    scale = 0.0
    exact = exact_recurrence(state.coeffs, gmask, N_MAX)
    for (n, x, y), (big_x, big_y) in zip(analytic.recurrence_sequence([m], N_MAX), exact):
        scale = max(scale, float(np.max(np.abs(big_x))), float(np.max(np.abs(big_y))))
        err = max(exact_error(x[0], big_x), exact_error(y[0], big_y))
        assert err <= 2.5 * EPS * scale * (1.0 + n * phase)
