"""Operator correctness against dense-matrix application."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grover_matrix, hadamard_matrix, random_marked, random_state
from entgrover import (
    GoodSet,
    grover,
    from_amplitudes,
    good_mass,
    grover_iterate,
    grover_step,
    grover_trajectory,
    moments,
    new_flat,
    oracle_phase_flip,
    reflect_zero,
    search_distribution,
    walsh_hadamard,
)


class TestOraclePhaseFlip:
    def test_flat_n2(self):
        out = oracle_phase_flip(new_flat(1, 1), GoodSet((0,)))
        np.testing.assert_array_equal(out.coeffs, [[-1.0], [1.0]])

    def test_empty_good_is_identity(self):
        state = random_state(2, 2, seed=5)
        out = oracle_phase_flip(state, GoodSet(()))
        assert np.array_equal(out.coeffs, state.coeffs)

    def test_involution(self):
        state = random_state(3, 1, seed=6)
        good = GoodSet((1, 4))
        twice = oracle_phase_flip(oracle_phase_flip(state, good), good)
        assert np.array_equal(twice.coeffs, state.coeffs)


class TestWalshHadamard:
    def test_basis_row_to_flat(self):
        table = np.zeros((8, 1), dtype=complex)
        table[0, 0] = math.sqrt(8)
        out = walsh_hadamard(from_amplitudes(table))
        np.testing.assert_allclose(out.coeffs, np.ones((8, 1)), atol=1e-14)

    def test_square_is_identity(self):
        state = random_state(4, 2, seed=8)
        twice = walsh_hadamard(walsh_hadamard(state))
        np.testing.assert_allclose(twice.coeffs, state.coeffs, atol=1e-12)

    def test_n2_example(self):
        out = walsh_hadamard(from_amplitudes(np.array([[math.sqrt(2)], [0.0]])))
        np.testing.assert_allclose(out.coeffs, [[1.0], [1.0]], atol=1e-15)

    def test_matches_dense_matrix(self):
        for nq, d in ((1, 1), (2, 3), (3, 2), (4, 1)):
            state = random_state(nq, d, seed=nq * 10 + d)
            expected = hadamard_matrix(nq) @ state.coeffs
            np.testing.assert_allclose(walsh_hadamard(state).coeffs, expected, atol=1e-12)

    def test_norm_preserved(self):
        state = random_state(5, 2, seed=9)
        assert walsh_hadamard(state).physical_norm() == pytest.approx(1.0, abs=1e-12)


class TestReflectZero:
    def test_flat_n2(self):
        out = reflect_zero(new_flat(1, 1))
        np.testing.assert_array_equal(out.coeffs, [[-1.0], [1.0]])

    def test_involution(self):
        state = random_state(3, 2, seed=2)
        assert np.array_equal(reflect_zero(reflect_zero(state)).coeffs, state.coeffs)

    def test_basis_one_unchanged(self):
        table = np.zeros((2, 1), dtype=complex)
        table[1, 0] = math.sqrt(2)
        state = from_amplitudes(table)
        assert np.array_equal(reflect_zero(state).coeffs, state.coeffs)


class TestGroverStep:
    def test_flat_n4_single_step_finds_item(self, flat4, good0):
        out = grover_step(flat4, good0)
        np.testing.assert_allclose(search_distribution(out), [1, 0, 0, 0], atol=1e-12)

    def test_empty_good_fixes_flat(self):
        flat = new_flat(3, 1)
        out = grover_step(flat, GoodSet(()))
        np.testing.assert_allclose(out.coeffs, flat.coeffs, atol=1e-12)

    def test_flat_n2_probability_half(self):
        out = grover_step(new_flat(1, 1), GoodSet((0,)))
        assert good_mass(out, GoodSet((0,))) == pytest.approx(0.5, abs=1e-12)
        assert good_mass(out, GoodSet((0,))) == pytest.approx(
            math.sin(3 * math.pi / 4) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize(
        "nq,d,t,seed",
        [(1, 1, 1, 0), (2, 2, 1, 1), (3, 1, 3, 2), (4, 2, 5, 3), (6, 3, 0, 4), (6, 3, 64, 5)],
    )
    def test_matches_dense_matrix(self, nq, d, t, seed):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 100)
        expected = grover_matrix(nq, good.indices) @ state.coeffs
        np.testing.assert_allclose(grover_step(state, good).coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("nq,d,t,seed", [(1, 1, 1, 0), (4, 3, 5, 1), (6, 2, 64, 2)])
    def test_equals_the_operator_composition_bit_for_bit(self, nq, d, t, seed):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 100)
        composed = walsh_hadamard(reflect_zero(walsh_hadamard(oracle_phase_flip(state, good))))
        assert np.array_equal(grover_step(state, good).coeffs, -composed.coeffs)

    def test_works_in_two_owned_buffers(self):
        """The phase flip's copy and one scratch table, plus numpy's fixed 384 KiB
        ufunc buffer (1.5 tables here), peak at 3.51 tables; with a copy per
        Hadamard transform the step peaked at 4.51 (numpy 2.4)."""
        rng = np.random.default_rng(3)
        n, d = 1 << 10, 16
        state = from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
        good = random_marked(n, 100, seed=4)
        grover_step(state, good)
        tracemalloc.start()
        try:
            grover_step(state, good)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6 * n * d * 16


class TestGroverIterate:
    def test_zero_steps_identity(self):
        state = random_state(3, 1, seed=4)
        assert grover_iterate(state, GoodSet((0,)), 0) is state

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            grover_iterate(new_flat(2, 1), GoodSet((0,)), -1)

    def test_distribution_period_six(self, flat4, good0):
        # sin^2(theta) = 1/4 gives period pi/theta = 6 in the distribution
        d1 = search_distribution(grover_iterate(flat4, good0, 1))
        d7 = search_distribution(grover_iterate(flat4, good0, 7))
        np.testing.assert_allclose(d1, d7, atol=1e-9)

    def test_iterate_equals_repeated_dense(self):
        state = random_state(3, 2, seed=12)
        good = GoodSet((2, 5))
        g = grover_matrix(3, good.indices)
        expected = state.coeffs
        for _ in range(5):
            expected = g @ expected
        np.testing.assert_allclose(grover_iterate(state, good, 5).coeffs, expected, atol=1e-11)

    def test_trajectory_matches_iterate(self):
        state = random_state(2, 1, seed=13)
        good = GoodSet((1,))
        for n, step_state in grover_trajectory(state, good, 6):
            assert np.array_equal(step_state.coeffs, grover_iterate(state, good, n).coeffs)

    def test_stacked_trajectory_equals_each_state_alone(self):
        states = [random_state(3, 2, seed=s) for s in (14, 15, 16)]
        goods = [random_marked(8, 3, seed=17), GoodSet(()), GoodSet(tuple(range(8)))]
        stack = np.stack([s.coeffs for s in states])
        masks = np.stack([g.mask(8) for g in goods])
        alone = [list(grover_trajectory(s, g, 9)) for s, g in zip(states, goods)]
        for n, tables in grover.trajectory_tables(stack, masks, 9):
            for table, steps in zip(tables, alone):
                assert np.array_equal(table, steps[n][1].coeffs)


class TestInvariants:
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 12))
    @settings(max_examples=30, deadline=None)
    def test_unitarity_and_variance_conservation(self, seed, steps):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 5))
        n = 1 << nq
        t = int(rng.integers(0, n + 1))
        state = random_state(nq, int(rng.integers(1, 4)), seed)
        good = GoodSet(tuple(int(i) for i in rng.choice(n, t, replace=False)))
        m0 = moments(state, good)
        out = grover_iterate(state, good, steps)
        assert out.physical_norm() == pytest.approx(1.0, abs=1e-9)
        mn = moments(out, good)
        assert mn.var_g == pytest.approx(m0.var_g, abs=1e-9)
        assert mn.var_b == pytest.approx(m0.var_b, abs=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_flat_distribution_periodicity(self, t):
        # integer periods pi/theta: t=1 -> 6, t=2 -> 4, t=3 -> 3
        flat = new_flat(2, 1)
        good = GoodSet(tuple(range(t)))
        theta = math.asin(math.sqrt(t / 4))
        period = round(math.pi / theta)
        assert math.pi / theta == pytest.approx(period, abs=1e-12)
        for n in range(4):
            a = search_distribution(grover_iterate(flat, good, n))
            b = search_distribution(grover_iterate(flat, good, n + period))
            np.testing.assert_allclose(a, b, atol=1e-6)
