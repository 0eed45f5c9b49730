"""The float paths against the exact referee: the trajectory, the closed form
and its sector offsets, the two-block recurrence, the oscillation law and the counting circuit's
doubled means in rational arithmetic (``exact_trajectory``,
``exact_closed_form``, ``exact_recurrence``, ``exact_marked_mass`` and
``exact_doubled_means``), and the circuit's offset transforms and spectrum
at 50 digits (``exact_offsets``, ``precise_transform`` and ``precise_spectrum``).

Each bound below was set from a measurement over ten seeds of these four
shapes, before the test was written, and catches a planted perturbation of
the path it bounds (see the docstrings).
"""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    apply_search_operator,
    exact_closed_form,
    exact_doubled_means,
    exact_error,
    exact_marked_mass,
    exact_offsets,
    exact_recurrence,
    exact_table,
    exact_trajectory,
    grover_matrix,
    planted,
    precise_error,
    precise_spectrum,
    precise_transform,
    random_table,
    rounded,
)
from entgrover import analytic, counting, from_amplitudes, grover, moments, random_good_set

# (N, t, D): t in {1, N/2 - 1, N/2 + 1, N - 1}, D in {1, 3}
SHAPES = [(64, 1, 1), (64, 31, 3), (32, 17, 3), (16, 15, 1)]
N_MAX = 24
EPS = np.finfo(np.float64).eps


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


def _exact_offsets(case) -> list[tuple]:
    """The exact (marked, unmarked) offsets after n = 0 .. N_MAX steps, each a
    (2, D) object array: every marked row minus its initial row, and every
    unmarked row minus (-1)^n times its initial row, which are one vector per
    sector."""
    state, good, gmask, exact = case
    out = []
    for n, x in enumerate(exact):
        marked = x[:, gmask] - exact[0][:, gmask]
        unmarked = x[:, ~gmask] - (-1) ** n * exact[0][:, ~gmask]
        assert (marked == marked[:, :1]).all() and (unmarked == unmarked[:, :1]).all()
        out.append((marked[:, 0], unmarked[:, 0]))
    return out


def _offsets_error(case, offsets=analytic._closed_form_offsets):
    """Largest error of ``offsets`` at n = 0 .. N_MAX against the exact offsets,
    over eps * max|x_n| * (1 + 4 n theta / sin(2 theta))."""
    state, good, gmask, exact = case
    m = moments(state, good)
    phase = 4.0 * m.theta / math.sin(2.0 * m.theta)
    marked, unmarked = offsets([m], 0, N_MAX + 1)
    worst = 0.0
    for n, (want_g, want_b) in enumerate(_exact_offsets(case)):
        err = max(exact_error(marked[n, 0], want_g), exact_error(unmarked[n, 0], want_b))
        worst = max(worst, err / (EPS * float(np.max(np.abs(exact[n]))) * (1.0 + n * phase)))
    return worst


def test_closed_form_offsets_error_is_within_the_phase_model(case):
    """err_n <= 0.5 * eps * max|x_n| * (1 + 4 n theta / sin(2 theta)).

    The closed form's model, on the offsets alone.  Measured 0.03-0.30 of the
    model (40 states, ten seeds of these four shapes); any one of the four
    per-state factors scaled by (1 + 1e-13) reads 2.71-20.7 on these four.
    """
    assert _offsets_error(case) <= 0.5


@pytest.mark.parametrize(
    "factor",
    ["1.0 - c2n", "s2n / tan_t", "tan_t * s2n", "c2n - sign"],
    ids=["one-minus-cos", "cot-sin", "tan-sin", "cos-minus-sign"],
)
def test_offsets_bound_catches_a_planted_factor(case, factor):
    offsets = planted(analytic._closed_form_offsets, factor, f"({factor}) * (1.0 + 1e-13)")
    assert _offsets_error(case, offsets) > 0.5


def _step_error(case) -> float:
    """Largest error of the stepped trajectory (``grover.trajectory_tables``) at
    n = 1 .. N_MAX against the exact one, over eps * max|x_n| * sqrt(n)."""
    state, good, gmask, exact = case
    worst = 0.0
    for n, table in grover.trajectory_tables(state.coeffs, gmask, N_MAX):
        if n:
            scale = EPS * float(np.max(np.abs(exact[n]))) * math.sqrt(n)
            worst = max(worst, exact_error(table, exact[n]) / scale)
    return worst


def test_step_error_is_within_the_rounding_model(case):
    """err_n <= 2 * eps * max|x_n| * sqrt(n).

    Each step rounds every amplitude a few times without bias, so the errors
    add as a random walk.  Measured 0.33-0.91 of the model (40 states, ten
    seeds of these four shapes); a step scaled by (1 + 1e-15) reads
    23.9-25.6 and one scaled by (1 - 1e-15) 20.8-23.1.
    """
    assert _step_error(case) <= 2.0


def _sorted_step_errors(case) -> tuple[float, float]:
    """Largest error of the audit's step, on the table in sector order with the
    flip a leading slice, at n = 1 .. N_MAX against the exact trajectory, and
    largest difference from the step in row order, both over eps * max|x_n| *
    sqrt(n)."""
    state, good, gmask, exact = case
    order = counting._sector_order(gmask)
    c = state.coeffs[order]
    scratch = np.empty_like(c)
    worst = [0.0, 0.0]
    for n, natural in grover.trajectory_tables(state.coeffs, gmask, N_MAX):
        if n:
            c = grover._step_rows(c, good.t, np.empty_like(c), scratch)
            scale = EPS * float(np.max(np.abs(exact[n]))) * math.sqrt(n)
            worst[0] = max(worst[0], exact_error(c, exact[n][:, order]) / scale)
            worst[1] = max(worst[1], float(np.max(np.abs(c - natural[order]))) / scale)
    return worst[0], worst[1]


def test_sorted_and_row_order_trajectories_agree_within_the_rounding_model(case):
    """The trajectory the audit steps, in sector order, is within the rounding
    model of the step (``test_step_error_is_within_the_rounding_model``) of the
    exact one, and so within twice it of the trajectory in row order, which is
    within the model too: the sort reorders the halving sums only.  Measured
    at most 1.29 and 1.99 of the model (40 states, ten seeds of these four
    shapes)."""
    to_exact, to_natural = _sorted_step_errors(case)
    assert to_exact <= 2.0 and to_natural <= 4.0


@pytest.mark.parametrize("factor", ["1.0 + 1e-15", "1.0 - 1e-15"], ids=["up", "down"])
def test_step_bound_catches_a_planted_scale(case, monkeypatch, factor):
    step = planted(grover._step_rows, "    return out", f"    out *= {factor}\n    return out")
    monkeypatch.setattr(grover, "_step_rows", step)
    assert _step_error(case) > 2.0


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


def _law_error(case, plant=None):
    """Largest error of ``analytic.success_probability`` against the exact marked
    mass over eps * (1 + 4 n theta), with the law's parameters passed through ``plant``.
    A double minus a Fraction is exact, so the error is rounded to a float once."""
    state, good, gmask, exact = case
    m = moments(state, good)
    params = analytic.oscillation_params(m)
    if plant is not None:
        params = plant(params)
    worst = 0.0
    for n in range(N_MAX + 1):
        p_n = Fraction(analytic.success_probability(params, n))
        err = float(abs(p_n - exact_marked_mass(exact[n], gmask)))
        worst = max(worst, err / (EPS * (1.0 + 4.0 * n * m.theta)))
    return worst


def test_law_error_is_within_the_phase_model(case):
    """err_n <= 2 * eps * (1 + 4 n theta).

    P(n) = p_av - delta_p e^(-2 phi_i) cos(4 n theta - 2 phi_r) is at most 1,
    so rounding its terms costs about eps, and the phase 4n*theta carries an
    error of about eps per radian.  Measured 0.00-1.69 of the model (40
    states, ten seeds of these four shapes); on these four states delta_p
    scaled by (1 +- 1e-13) reads 3.09-9.97, and phi_r moved by +-1e-13 reads
    6.15-43.5.
    """
    assert _law_error(case) <= 2.0


@pytest.mark.parametrize(
    "plant",
    [
        lambda p: dataclasses.replace(p, delta_p=p.delta_p * (1.0 + 1e-13)),
        lambda p: dataclasses.replace(p, delta_p=p.delta_p * (1.0 - 1e-13)),
        lambda p: dataclasses.replace(p, phi_r=p.phi_r + 1e-13),
        lambda p: dataclasses.replace(p, phi_r=p.phi_r - 1e-13),
    ],
    ids=["delta_p-up", "delta_p-down", "phi_r-up", "phi_r-down"],
)
def test_law_bound_catches_a_planted_parameter(case, plant):
    assert _law_error(case, plant) > 2.0


@pytest.fixture(scope="module")
def means_case(case):
    state, _, gmask, exact = case
    return state, gmask, exact, exact_doubled_means(state.coeffs, gmask, N_MAX)


def _doubled_means_error(means_case, scale=1.0, stacked=False):
    """Largest error of ``counting._doubled_means`` over eps * max_{k<=m} max|x_k| * (m + 1),
    its means scaled by scale^m as a circuit scaling each step by ``scale`` would be.
    ``stacked`` steps the table second in a stack with t = 0, t = N and t = 1 tables."""
    state, gmask, exact, exact_means = means_case
    cur = state.coeffs[counting._sector_order(gmask)]
    t = int(np.count_nonzero(gmask))
    if stacked:
        stack = np.stack([cur[::-1], cur, -cur, cur[::-1] * 1j])
        two_mu = counting._doubled_means(stack, [0, t, len(cur), 1], N_MAX)[1]
    else:
        two_mu = counting._doubled_means(cur, t, N_MAX)
    two_mu *= scale ** np.arange(N_MAX)[:, None]
    worst = size = 0.0
    for m in range(N_MAX):
        size = max(size, float(np.max(np.abs(exact[m]))))
        worst = max(worst, exact_error(two_mu[m], exact_means[m]) / (EPS * size * (m + 1)))
    return worst


def test_doubled_means_error_is_within_the_step_model(means_case):
    """err_m <= 0.5 * eps * max_{k<=m} max|x_k| * (m + 1).

    Each mean-form step rounds every amplitude about once, and the reflection
    about the mean does not amplify what earlier steps left, so the error of
    2*mu_m grows with the steps taken.  Measured 0.06-0.33 of the model (40
    states, ten seeds of these four shapes); a first pass that scales each
    step by (1 +- 1e-14) reads 2.33-21.2, and one by (1 + 1e-15) 0.28-2.32.
    """
    assert _doubled_means_error(means_case) <= 0.5


@pytest.mark.parametrize("scale", [1.0 + 1e-14, 1.0 - 1e-14])
def test_doubled_means_bound_catches_a_scaled_step(means_case, scale):
    assert _doubled_means_error(means_case, scale) > 0.5


def test_stacked_doubled_means_error_is_within_the_step_model(means_case):
    """The kernel's stack of four tables with mixed t keeps the table's means
    within the same bound (it keeps their bits), and the bound still catches a
    scaled step there."""
    assert _doubled_means_error(means_case, stacked=True) <= 0.5
    assert _doubled_means_error(means_case, 1.0 + 1e-14, stacked=True) > 0.5


# The ancilla of the circuit referee below: 15 doubled means, within N_MAX.
P_SIZE = 16


@pytest.fixture(scope="module")
def circuit_case(means_case):
    state, gmask, _, exact_means = means_case
    means = exact_means[: P_SIZE - 1]
    return state, gmask, means, precise_transform(exact_offsets(means))


def _transforms_error(circuit_case, transforms=counting._offset_transforms):
    """Largest error of ``transforms`` of the rounded exact doubled means against
    the precise transforms of the exact offsets, over eps * max ||O||_2, the
    largest 2-norm of an offset sequence over the P branches."""
    _, _, means, lines = circuit_case
    scale = float(np.max(np.linalg.norm(rounded(exact_offsets(means)), axis=1)))
    return precise_error(transforms(rounded(means)), lines) / (EPS * scale)


def test_offset_transforms_error_is_within_the_norm_model(circuit_case):
    """err <= 2 * eps * max ||O||_2.

    The cumulative sums round each offset about once per mean summed and the
    unitary FFT spreads its rounding over the sequence's norm.  Measured
    0.21-1.33 of the model (40 states, ten seeds of these four shapes); the
    G or B offsets scaled by (1 + 1e-13) read 23-387 on three seeds of each.
    """
    assert _transforms_error(circuit_case) <= 2.0


@pytest.mark.parametrize(
    "old, new",
    [("np.cumsum(two_mu, axis=0", "np.cumsum(two_mu * (1.0 + 1e-13), axis=0"),
     ("offsets[1, 1:] *= alt", "offsets[1, 1:] *= alt * (1.0 + 1e-13)")],
    ids=["G-scaled", "B-scaled"],
)
def test_transforms_bound_catches_a_scaled_offset(circuit_case, old, new):
    transforms = planted(counting._offset_transforms, old, new)
    assert _transforms_error(circuit_case, transforms) > 2.0


def _spectrum_error(circuit_case, spectrum=counting._spectrum):
    """Largest error of ``spectrum`` of the rounded precise transforms and sector
    sums against ``precise_spectrum``, each outcome's over eps times the sum of
    the magnitudes of its terms: r*|l_k|^2 per sector of r rows, and
    P*M + 2*sqrt(P)*|S|.|l_k| at the sector's line."""
    state, gmask, _, lines = circuit_case
    x = exact_table(state.coeffs)
    near = np.vectorize(complex, otypes=[np.complex128])(lines)
    sectors = [(int(np.count_nonzero(rows)), rounded(x[:, rows].sum(axis=1)),
                float((x[:, rows] ** 2).sum())) for rows in (gmask, ~gmask)]
    got = spectrum(near, sectors)
    want = precise_spectrum(state.coeffs, gmask, lines)
    worst = 0.0
    for k in range(P_SIZE):
        scale = sum(r * float(np.vdot(l[k], l[k]).real) for (r, _, _), l in zip(sectors, near))
        for line_at, (_, total, norm2), l in zip((0, P_SIZE // 2), sectors, near):
            if k == line_at:
                scale += P_SIZE * norm2 + 2.0 * math.sqrt(P_SIZE) * float(np.abs(total) @ np.abs(l[k]))
        worst = max(worst, precise_error(got[k], want[k]) / (EPS * scale))
    return worst


def test_spectrum_error_is_within_the_term_model(circuit_case):
    """err_k <= 2 * eps * (sum of the magnitudes of outcome k's terms).

    Each term rounds about once, and its rounded inputs carry half an eps
    each.  Measured 0.55-1.34 of the model (40 states, ten seeds of these
    four shapes); on three seeds of each, the cross term without its factor
    2 reads 1.3e14-1.1e15, and either line term scaled by (1 + 1e-13) 36.8-432.
    """
    assert _spectrum_error(circuit_case) <= 2.0


_LINE = "p_size * norm2 + 2.0 * math.sqrt(p_size) * np.vdot(total, line[k]).real"


@pytest.mark.parametrize(
    "old, new",
    [("2.0 * math.sqrt(p_size)", "math.sqrt(p_size)"),
     (_LINE, f"({_LINE}) * (1.0 + 1e-13 * (k == 0))"),
     (_LINE, f"({_LINE}) * (1.0 + 1e-13 * (k > 0))")],
    ids=["cross-term-halved", "marked-line-scaled", "unmarked-line-scaled"],
)
def test_spectrum_bound_catches_a_planted_line_term(circuit_case, old, new):
    assert _spectrum_error(circuit_case, planted(counting._spectrum, old, new)) > 2.0
