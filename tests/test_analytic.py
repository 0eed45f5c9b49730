"""Closed-form predictions against brute-force simulation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_marked, random_state
from entgrover import (
    DegenerateCaseError,
    GoodSet,
    best_integer_time,
    closed_form_rows,
    f_plus_minus,
    from_amplitudes,
    good_mass,
    grover_iterate,
    grover_trajectory,
    moments,
    new_flat,
    optimal_times,
    oscillation_params,
    p_max,
    recurrence_sequence,
    recurrence_vectors,
    state_at_optimal,
    success_probability,
)


def params_for(state, good):
    return oscillation_params(moments(state, good))


class TestFPlusMinus:
    def test_flat_n4(self):
        fp, fm = f_plus_minus(moments(new_flat(2, 1), GoodSet((0,))))
        tan = math.tan(math.pi / 6)
        np.testing.assert_allclose(fp, [1 + 1j * tan], atol=1e-15)
        np.testing.assert_allclose(fm, [1 - 1j * tan], atol=1e-15)

    def test_one_to_one_n2(self):
        fp, fm = f_plus_minus(moments(from_amplitudes(np.eye(2)), GoodSet((0,))))
        np.testing.assert_allclose(fp, [1j, 1.0], atol=1e-15)
        np.testing.assert_allclose(fm, [-1j, 1.0], atol=1e-15)
        assert complex(np.vdot(fp, fm)) == pytest.approx(0j, abs=1e-15)

    def test_degenerate_sectors_rejected(self):
        with pytest.raises(DegenerateCaseError):
            f_plus_minus(moments(new_flat(2, 1), GoodSet(())))


class TestOscillationParams:
    @pytest.mark.parametrize("nq,t", [(2, 1), (3, 2), (4, 5), (6, 9)])
    def test_flat_states(self, nq, t):
        p = params_for(new_flat(nq, 1), GoodSet(tuple(range(t))))
        theta = math.asin(math.sqrt(t / (1 << nq)))
        assert not p.degenerate
        assert p.phi_r == pytest.approx(-theta, abs=1e-12)
        assert p.phi_i == pytest.approx(0.0, abs=1e-12)
        assert p.delta_p == pytest.approx(0.5, abs=1e-12)
        assert p.p_av == pytest.approx(0.5, abs=1e-12)

    def test_one_to_one_degenerate(self):
        p = params_for(from_amplitudes(np.eye(2)), GoodSet((0,)))
        assert p.degenerate
        assert p.p_av == pytest.approx(0.5, abs=1e-12)
        for n in range(8):
            assert success_probability(p, n) == pytest.approx(0.5, abs=1e-12)

    def test_random_state_tracks_simulation_two_periods(self):
        state = random_state(4, 2, seed=42)
        good = random_marked(16, 5, seed=420)
        m = moments(state, good)
        p = oscillation_params(m)
        n_max = math.ceil(math.pi / m.theta) + 1
        for n, sim in grover_trajectory(state, good, n_max):
            assert success_probability(p, n) == pytest.approx(
                good_mass(sim, good), abs=1e-9
            )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_damping_and_range_invariants(self, seed):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 5))
        n = 1 << nq
        t = int(rng.integers(1, n))
        state = random_state(nq, int(rng.integers(1, 4)), seed)
        p = params_for(state, GoodSet(tuple(int(i) for i in rng.choice(n, t, replace=False))))
        if not p.degenerate:
            assert p.phi_i >= 0.0  # exp(-2 phi_i) <= 1
            assert -math.pi / 2 < p.phi_r <= math.pi / 2
        amp = 0.0 if p.degenerate else p.delta_p * math.exp(-2 * p.phi_i)
        assert p.p_av - amp >= -1e-9
        assert p.p_av + amp <= 1 + 1e-9

    def test_undamped_iff_parallel_equal_norms(self):
        # real positive scalar averages make F+ and F- complex conjugates of
        # equal modulus: no damping
        from entgrover import random_with_moments

        good = GoodSet((0, 1))
        n, t = 8, 2
        sin2, cos2 = t / n, 1 - t / n
        g2, b2, var_g = 0.9, 0.85, 0.1
        var_b = (1 - sin2 * (var_g + g2) - cos2 * b2) / cos2
        state = random_with_moments(3, 1, good, var_g, var_b,
                                    [math.sqrt(g2)], [math.sqrt(b2)], seed=5)
        p = params_for(state, good)
        assert p.phi_i == pytest.approx(0.0, abs=1e-12)


class TestSuccessProbability:
    def test_flat_n4_one_step(self, flat4, good0):
        assert success_probability(params_for(flat4, good0), 1) == pytest.approx(1.0, abs=1e-12)

    def test_flat_n64_six_steps(self):
        state = new_flat(6, 1)
        good = GoodSet((0,))
        p = params_for(state, good)
        expected = math.sin(13 * math.asin(1 / 8)) ** 2
        assert expected == pytest.approx(0.9966, abs=2e-4)
        assert success_probability(p, 6) == pytest.approx(expected, abs=1e-12)
        sim = good_mass(grover_iterate(state, good, 6), good)
        assert sim == pytest.approx(expected, abs=1e-12)

    def test_degenerate_returns_constant(self):
        p = params_for(from_amplitudes(np.eye(2)), GoodSet((0,)))
        assert [success_probability(p, n) for n in range(3)] == [0.5, 0.5, 0.5]


class TestOptimalTimes:
    def test_flat_n4_exact(self, flat4, good0):
        p = params_for(flat4, good0)
        assert optimal_times(p, 0) == pytest.approx(1.0, abs=1e-12)
        assert optimal_times(p, 1) == pytest.approx(4.0, abs=1e-12)
        assert best_integer_time(p) == 1
        assert success_probability(p, 4) == pytest.approx(1.0, abs=1e-12)

    def test_flat_n64_best_integer_matches_brute_argmax(self):
        state = new_flat(6, 1)
        good = GoodSet((0,))
        p = params_for(state, good)
        assert optimal_times(p, 0) == pytest.approx(5.7667, abs=1e-3)
        assert best_integer_time(p) == 6
        probs = [good_mass(s, good) for _, s in grover_trajectory(state, good, 13)]
        assert int(np.argmax(probs)) == 6

    def test_degenerate_has_no_optimum(self):
        p = params_for(from_amplitudes(np.eye(2)), GoodSet((0,)))
        with pytest.raises(DegenerateCaseError):
            optimal_times(p, 0)


class TestPMax:
    def test_flat_is_certain(self, flat4, good0):
        assert p_max(params_for(flat4, good0)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_returns_p_av(self):
        p = params_for(from_amplitudes(np.eye(2)), GoodSet((0,)))
        assert p_max(p) == pytest.approx(p.p_av, abs=1e-15)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1])
    def test_small_bad_variance_epsilon(self, eps):
        from entgrover import random_with_moments

        n, t = 16, 4
        sin2, cos2 = t / n, 1 - t / n
        var_b = eps / cos2
        b2, var_g = 0.81, 0.2
        g2 = (1 - eps - cos2 * b2 - sin2 * var_g) / sin2
        good = GoodSet(tuple(range(t)))
        state = random_with_moments(4, 1, good, var_g, var_b,
                                    [math.sqrt(g2)], [math.sqrt(b2)], seed=17)
        p = params_for(state, good)
        assert p_max(p) == pytest.approx(1.0 - eps, abs=1e-9)
        n_star = best_integer_time(p)
        sim = good_mass(grover_iterate(state, good, n_star), good)
        assert sim == pytest.approx(success_probability(p, n_star), abs=1e-9)


class TestClosedFormRows:
    def test_zero_steps_bit_exact(self):
        state = random_state(3, 2, seed=21)
        good = GoodSet((1, 6))
        out = closed_form_rows(state, good, 0)
        assert np.array_equal(out.coeffs, state.coeffs)

    def test_flat_n4_good_row_carries_all_mass(self, flat4, good0):
        out = closed_form_rows(flat4, good0, 1)
        assert float(np.abs(out.coeffs[0, 0]) ** 2) == pytest.approx(4.0, abs=1e-12)

    def test_matches_simulation_seed42(self):
        state = random_state(4, 2, seed=42)
        good = random_marked(16, 3, seed=424)
        for n, sim in grover_trajectory(state, good, 20):
            pred = closed_form_rows(state, good, n)
            np.testing.assert_allclose(pred.coeffs, sim.coeffs, atol=1e-9)

    def test_precomputed_moments_bit_exact(self):
        state = random_state(4, 2, seed=43)
        good = random_marked(16, 3, seed=434)
        m = moments(state, good)
        for n in range(6):
            assert np.array_equal(
                closed_form_rows(state, good, n, m).coeffs, closed_form_rows(state, good, n).coeffs
            )

    def test_degenerate_sectors_rejected(self):
        with pytest.raises(DegenerateCaseError):
            closed_form_rows(new_flat(2, 1), GoodSet(()), 1)
        with pytest.raises(DegenerateCaseError):
            closed_form_rows(new_flat(2, 1), GoodSet((0, 1, 2, 3)), 1)

    def test_parity_split_equals_literal_power_form(self):
        # the odd-step branch is an algebraic simplification of the
        # (tan n*theta)^(+-1) expression; check both branches against it
        state = random_state(3, 2, seed=33)
        good = GoodSet((0, 5, 6))
        m = moments(state, good)
        theta = m.theta
        gmask = good.mask(8)
        for n in range(1, 16):
            if min(abs(math.sin(n * theta)), abs(math.cos(n * theta))) < 0.1:
                continue  # literal form is numerically singular there
            ratio = math.sin(2 * n * theta) / math.sin(2 * theta)
            tan_pow = math.tan(n * theta) ** ((-1) ** n)
            literal = np.empty_like(state.coeffs)
            literal[gmask] = state.coeffs[gmask] - ratio * (
                math.tan(n * theta) * math.sin(2 * theta) * m.g_avg
                - 2 * math.cos(theta) ** 2 * m.b_avg
            )
            literal[~gmask] = (-1) ** n * state.coeffs[~gmask] - ratio * (
                2 * math.sin(theta) ** 2 * m.g_avg
                + (-1) ** n * math.sin(2 * theta) * tan_pow * m.b_avg
            )
            pred = closed_form_rows(state, good, n)
            np.testing.assert_allclose(pred.coeffs, literal, atol=1e-9)


def scalar_recurrence(m, n_max):
    """The recurrence for one state with Python-number coefficients, as it was first written."""
    zero = np.zeros_like(m.g_avg if m.g_avg is not None else m.b_avg)
    g_avg = m.g_avg if m.g_avg is not None else zero
    b_avg = m.b_avg if m.b_avg is not None else zero
    t, big_n = m.t, m.n_states
    c2t = math.cos(2.0 * m.theta)
    x = t * g_avg - (big_n - t) * b_avg
    y = x.copy()
    for k in range(1, n_max + 1):
        if k > 1:
            drive = t * g_avg + (-1) ** k * (big_n - t) * b_avg
            x, y = c2t * x + (c2t + 1.0) * y + drive, (c2t - 1.0) * x + c2t * y + drive
        yield k, x, y


class TestRecurrenceVectors:
    def test_first_step_value(self):
        m = moments(new_flat(2, 1), GoodSet((0,)))
        x, y = recurrence_vectors(m, 1)
        np.testing.assert_allclose(x, [1.0 - 3.0], atol=1e-15)
        assert np.array_equal(x, y)

    def test_flat_n4_reconstruction_gives_certainty(self, flat4, good0):
        m = moments(flat4, good0)
        x, _ = recurrence_vectors(m, 1)
        f_good = flat4.coeffs[0] - (2 / 4) * x
        np.testing.assert_allclose(f_good, [2.0], atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 25))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_matches_closed_form(self, seed, n):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(2, 5))
        big_n = 1 << nq
        t = int(rng.integers(1, big_n))
        state = random_state(nq, int(rng.integers(1, 4)), seed)
        good = GoodSet(tuple(int(i) for i in rng.choice(big_n, t, replace=False)))
        m = moments(state, good)
        x, y = recurrence_vectors(m, n)
        gmask = good.mask(big_n)
        rebuilt = np.empty_like(state.coeffs)
        rebuilt[gmask] = state.coeffs[gmask] - (2 / big_n) * x
        rebuilt[~gmask] = (-1) ** n * state.coeffs[~gmask] - (2 / big_n) * y
        pred = closed_form_rows(state, good, n)
        np.testing.assert_allclose(rebuilt, pred.coeffs, atol=1e-9)

    def test_sequence_equals_restarted_recurrence(self):
        state = random_state(4, 2, seed=31)
        m = moments(state, random_marked(16, 5, seed=311))
        seen = []
        for k, x, y in recurrence_sequence([m], 12):
            seen.append(k)
            x_k, y_k = recurrence_vectors(m, k)
            assert np.array_equal(x[0], x_k) and np.array_equal(y[0], y_k)
        assert seen == list(range(1, 13))
        assert list(recurrence_sequence([m], 0)) == []

    def test_stack_equals_each_states_stack_of_one(self):
        # one D, interior t beside the empty-sector cases t = 0 and t = N
        ms = [
            moments(random_state(4, 3, seed=40 + i), GoodSet(tuple(range(t))))
            for i, t in enumerate((5, 0, 16, 1, 15))
        ]
        alone = [list(recurrence_sequence([m], 20)) for m in ms]
        scalar = [list(scalar_recurrence(m, 20)) for m in ms]
        for k, x, y in recurrence_sequence(ms, 20):
            assert (x.shape, y.shape) == ((5, 3), (5, 3))
            for i in range(len(ms)):
                for k_i, x_i, y_i in (alone[i][k - 1], scalar[i][k - 1]):
                    assert k_i == k
                    assert np.array_equal(x[i].view(np.int64), x_i.reshape(3).view(np.int64))
                    assert np.array_equal(y[i].view(np.int64), y_i.reshape(3).view(np.int64))


class TestStateAtOptimal:
    def test_flat_n4_leaves_no_bad_mass(self, flat4, good0):
        opt = state_at_optimal(flat4, good0, 0)
        assert opt.n == 1
        assert opt.bad_sector_mass == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(opt.state.coeffs[0], [2.0], atol=1e-12)

    def test_flat_n4_matches_reported_combination(self, flat4, good0):
        opt = state_at_optimal(flat4, good0, 0)
        phi_r = -math.pi / 6
        expected = 1.0 - (1 + math.sin(phi_r)) * 1.0 + math.cos(phi_r) * (
            1 / math.tan(math.pi / 6)
        ) * 1.0
        assert opt.state.coeffs[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_j1_same_distribution(self, flat4, good0):
        a = state_at_optimal(flat4, good0, 0)
        b = state_at_optimal(flat4, good0, 1)
        assert b.n == 4
        np.testing.assert_allclose(
            np.abs(a.state.coeffs) ** 2, np.abs(b.state.coeffs) ** 2, atol=1e-9
        )

    def test_non_integer_time_rejected(self):
        state = random_state(4, 2, seed=55)
        good = random_marked(16, 3, seed=551)
        p = params_for(state, good)
        n0 = optimal_times(p, 0)
        assert abs(n0 - round(n0)) > 1e-6  # generic state: irrational optimum
        with pytest.raises(DegenerateCaseError):
            state_at_optimal(state, good, 0)


class TestDegenerateFamilies:
    def test_fine_tuned_total_failure(self):
        # marked rows identically zero, unmarked rows zero-mean: the marked
        # sector never acquires probability
        table = np.array([[0.0], [0.0], [math.sqrt(2)], [-math.sqrt(2)]], dtype=complex)
        state = from_amplitudes(table)
        good = GoodSet((0, 1))
        p = params_for(state, good)
        assert p.degenerate
        assert p.p_av == pytest.approx(0.0, abs=1e-12)
        for n, sim in grover_trajectory(state, good, 30):
            assert good_mass(sim, good) == pytest.approx(0.0, abs=1e-9)

    def test_one_to_one_constant_probability(self):
        for nq, t in ((2, 1), (3, 3)):
            n = 1 << nq
            state = from_amplitudes(np.eye(n))
            good = GoodSet(tuple(range(t)))
            p = params_for(state, good)
            assert p.degenerate
            for _, sim in grover_trajectory(state, good, 12):
                assert good_mass(sim, good) == pytest.approx(t / n, abs=1e-9)


class TestScalarAmplitudeReduction:
    """D=1 with unit-modulus rows is the arbitrary-complex-amplitude model."""

    def test_random_phases_track_simulation(self):
        rng = np.random.default_rng(88)
        n, t = 16, 3
        phases = np.exp(2j * np.pi * rng.random(n))[:, None]
        state = from_amplitudes(phases)
        good = random_marked(n, t, seed=881)
        m = moments(state, good)
        p = oscillation_params(m)
        n_max = math.ceil(math.pi / m.theta) + 1
        for nn, sim in grover_trajectory(state, good, n_max):
            assert success_probability(p, nn) == pytest.approx(
                good_mass(sim, good), abs=1e-9
            )

    def test_flat_phases_reduce_to_original_law(self):
        n, t = 16, 2
        state = from_amplitudes(np.ones((n, 1)))
        good = GoodSet((3, 9))
        theta = math.asin(math.sqrt(t / n))
        p = params_for(state, good)
        for nn in range(14):
            assert success_probability(p, nn) == pytest.approx(
                math.sin((2 * nn + 1) * theta) ** 2, abs=1e-12
            )
