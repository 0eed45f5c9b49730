"""Operator correctness against dense-matrix application."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    butterfly_hadamard,
    grover_matrix,
    hadamard_matrix,
    random_marked,
    random_state,
)
from entgrover import (
    GoodSet,
    grover,
    from_amplitudes,
    good_mass,
    grover_iterate,
    grover_trajectory,
    moments,
    new_flat,
    search_distribution,
)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _kernel(table):
    src = np.array(table, dtype=np.complex128)
    return grover._hadamard_rows(src, np.empty_like(src))[0]


def _table(shape, seed):
    """Random complex entries, save a first column of real part +0 and a last of imaginary part -0.

    Those zeros stay zero through every pass, and the complex scaling keeps
    their sign, which a scaling of the float64 view would not.
    """
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    table.real[..., 0] = 0.0
    table.imag[..., -1] = -0.0
    return table


class TestWalshHadamard:
    """W, the n-qubit Hadamard on the search register (``grover._hadamard_rows``)."""

    def test_basis_row_to_flat(self):
        table = np.zeros((8, 1), dtype=complex)
        table[0, 0] = math.sqrt(8)
        np.testing.assert_allclose(_kernel(table), np.ones((8, 1)), atol=1e-14)

    def test_square_is_identity(self):
        table = random_state(4, 2, seed=8).coeffs
        np.testing.assert_allclose(_kernel(_kernel(table)), table, atol=1e-12)

    def test_n2_example(self):
        out = _kernel(np.array([[math.sqrt(2)], [0.0]]))
        np.testing.assert_allclose(out, [[1.0], [1.0]], atol=1e-15)

    def test_matches_dense_matrix(self):
        for nq, d in ((1, 1), (2, 3), (3, 2), (4, 1)):
            table = random_state(nq, d, seed=nq * 10 + d).coeffs
            np.testing.assert_allclose(_kernel(table), hadamard_matrix(nq) @ table, atol=1e-12)

    def test_norm_preserved(self):
        out = from_amplitudes(_kernel(random_state(5, 2, seed=9).coeffs))
        assert out.physical_norm() == pytest.approx(1.0, abs=1e-12)


class TestHadamardKernel:
    # The block is 512 KiB: 512 rows of D = 64 amplitudes (9 low passes), 1024
    # rows of D = 32 (10), 2^15 rows of D = 1 (15) and 2^14 of D = 2 (14).  The
    # tables sit below, at and above it, with 0 to 3 high passes.  The stacks
    # hold tables above a block, whole tables eight to a block, and tables
    # that share one block.
    @pytest.mark.parametrize(
        "shape",
        [
            (256, 64), (512, 64), (1024, 64), (2048, 64), (4096, 64),
            (2048, 32), (4096, 32),
            (1 << 15, 1), (1 << 16, 1), (1 << 17, 1), (1 << 16, 2),
            (3, 1024, 64), (40, 64, 64), (7, 16, 3),
            (0, 4), (0, 16, 2), (1, 5),
        ],
    )
    def test_equals_the_unblocked_passes_bit_for_bit(self, shape):
        table = _table(shape, seed=sum(shape))
        assert np.array_equal(_bits(_kernel(table)), _bits(butterfly_hadamard(table)))

    @pytest.mark.parametrize("block_bytes", [16, 64, 256, 1024])
    @pytest.mark.parametrize("shape", [(64, 1), (32, 2), (16, 3), (4, 8, 2), (5, 16, 1)])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, block_bytes, shape):
        monkeypatch.setattr(grover, "_BLOCK_BYTES", block_bytes)
        table = _table(shape, seed=block_bytes)
        assert np.array_equal(_bits(_kernel(table)), _bits(butterfly_hadamard(table)))

    @pytest.mark.parametrize("nq,d", [(1, 1), (6, 64), (9, 4), (10, 1)])
    def test_matches_the_dense_kronecker_product(self, monkeypatch, nq, d):
        monkeypatch.setattr(grover, "_BLOCK_BYTES", 1024)  # blocks of 64, 16 and 1 rows
        table = _table((1 << nq, d), seed=nq)
        np.testing.assert_allclose(_kernel(table), hadamard_matrix(nq) @ table, atol=1e-12)


def _zeros_table(shape, seed):
    """``_table`` with exact zeros of both signs in both parts: column 1 is
    -0 - 0j, every third row +0 - 0j, and column 2 of the next rows -0 + 0j."""
    table = _table(shape, seed)
    table[..., 1] = complex(-0.0, -0.0)
    table.real[..., ::3, :] = 0.0
    table.imag[..., ::3, :] = -0.0
    table[..., 1::3, 2] = complex(-0.0, 0.0)
    return table


def _reference_step(table, gmask):
    """-W S0 W S_H operator by operator, each sign by complex np.negative."""
    x = np.array(table, dtype=np.complex128)
    np.negative(x, out=x, where=gmask[..., None])
    x = butterfly_hadamard(x)
    np.negative(x[..., 0, :], out=x[..., 0, :])
    return np.negative(butterfly_hadamard(x))


class TestStepSignsAndBuffer:
    """The step negates on the float64 view and runs the low passes, those
    within a block, in a ``_PASS_BUFFER``-element ufunc buffer; neither
    changes a bit, down to the sign of a zero, and the caller's buffer size is
    back after every call."""

    @pytest.mark.parametrize("shape", [(8, 3), (4, 16, 3), (4096, 64)])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_equals_complex_negation_bit_for_bit(self, shape, in_place):
        table = _zeros_table(shape, seed=shape[-2])
        gmask = np.random.default_rng(shape[-1]).random(shape[:-1]) < 0.3
        gmask[..., :2] = True  # rows of zeros among the marked rows
        src = table.copy()
        out = src if in_place else np.empty_like(src)
        result = grover._step_rows(src, gmask[..., None], out, np.empty_like(src))
        assert result is out
        assert np.array_equal(_bits(result), _bits(_reference_step(table, gmask)))
        assert (result.view(np.float64) == 0).any()  # whose sign the bits compare

    @pytest.fixture
    def caller_buffer(self):
        caller = np.setbufsize(1024)
        yield 1024
        np.setbufsize(caller)

    def test_low_passes_run_in_the_small_buffer(self, monkeypatch, caller_buffer):
        seen = []
        passes = grover._passes

        def spy(src, dst, h, stop):
            seen.append((h, np.getbufsize()))
            return passes(src, dst, h, stop)

        monkeypatch.setattr(grover, "_passes", spy)
        _kernel(_table((4096, 64), seed=1))
        _kernel(_table((64, 4), seed=2))
        *low, high, small = seen  # eight blocks of 512 rows, then the high passes
        assert [h for h, _ in low] == [1] * 8 and high[0] == 512
        # a table within one block makes low passes only, all in the small buffer
        assert all(size == grover._PASS_BUFFER for _, size in low + [small])
        assert high[1] == caller_buffer
        assert np.getbufsize() == caller_buffer

    def test_caller_buffer_restored_when_a_pass_raises(self, caller_buffer):
        src = _table((4096, 64), seed=3)
        dst = np.empty_like(src)
        dst.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            grover._hadamard_rows(src, dst)
        assert np.getbufsize() == caller_buffer


class TestGroverStep:
    def test_flat_n4_single_step_finds_item(self, flat4, good0):
        out = grover_iterate(flat4, good0, 1)
        np.testing.assert_allclose(search_distribution(out), [1, 0, 0, 0], atol=1e-12)

    def test_empty_good_fixes_flat(self):
        flat = new_flat(3, 1)
        out = grover_iterate(flat, GoodSet(()), 1)
        np.testing.assert_allclose(out.coeffs, flat.coeffs, atol=1e-12)

    def test_flat_n2_probability_half(self):
        out = grover_iterate(new_flat(1, 1), GoodSet((0,)), 1)
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
        np.testing.assert_allclose(grover_iterate(state, good, 1).coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("nq,d,t,seed", [(1, 1, 1, 0), (4, 3, 5, 1), (6, 2, 64, 2), (11, 64, 300, 3)])
    def test_equals_the_unblocked_composition_bit_for_bit(self, nq, d, t, seed):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 100)
        x = state.coeffs.copy()
        gmask = good.mask(1 << nq)
        x[gmask] = -x[gmask]
        x = butterfly_hadamard(x)
        x[0] = -x[0]
        x = -butterfly_hadamard(x)
        assert np.array_equal(_bits(grover_iterate(state, good, 1).coeffs), _bits(x))

    def test_works_in_two_owned_buffers(self):
        """The phase flip's copy and one scratch table, plus numpy's fixed 384 KiB
        ufunc buffer (1.5 tables here), peak at 3.51 tables; with a copy per
        Hadamard transform the step peaked at 4.51 (numpy 2.4)."""
        rng = np.random.default_rng(3)
        n, d = 1 << 10, 16
        state = from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
        good = random_marked(n, 100, seed=4)
        grover_iterate(state, good, 1)
        tracemalloc.start()
        try:
            grover_iterate(state, good, 1)
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

    # Even and odd log2 N, below and above the cache block: an odd pass count
    # leaves a step's result in its scratch buffer.
    @pytest.mark.parametrize("nq,d", [(4, 3), (5, 2), (10, 64), (11, 64)])
    def test_trajectory_yields_independent_read_only_tables(self, nq, d):
        """Buffers a step reuses must never surface in a yielded state."""
        state = random_state(nq, d, seed=nq)
        good = random_marked(1 << nq, 3, seed=nq + 1)
        trajectory = list(grover_trajectory(state, good, 9))
        assert [n for n, _ in trajectory] == list(range(10))
        assert trajectory[0][1] is state
        for n, step_state in trajectory:
            assert not step_state.coeffs.flags.writeable
            want = grover_iterate(state, good, n).coeffs
            assert np.array_equal(_bits(step_state.coeffs), _bits(want))
        for (_, a), (_, b) in itertools.combinations(trajectory, 2):
            assert not np.may_share_memory(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("nq,d", [(4, 3), (5, 2), (10, 64), (11, 64)])
    def test_iterate_equals_composed_steps_bit_for_bit(self, nq, d):
        state = random_state(nq, d, seed=nq + 2)
        good = random_marked(1 << nq, 5, seed=nq + 3)
        stepped = state
        for n in range(1, 6):
            stepped = grover_iterate(stepped, good, 1)
            assert np.array_equal(_bits(grover_iterate(state, good, n).coeffs), _bits(stepped.coeffs))

    # A Fortran-ordered table's last axis is strided; the butterflies view it
    # as floats, so the step buffers must be C-ordered whatever the input.
    @pytest.mark.parametrize("nq,d", [(4, 3), (11, 64)])
    def test_fortran_ordered_table_steps_like_the_c_ordered_one(self, nq, d):
        state = random_state(nq, d, seed=nq + 4)
        fortran = from_amplitudes(np.asfortranarray(state.coeffs))
        assert fortran.coeffs.flags.f_contiguous and not fortran.coeffs.flags.c_contiguous
        good = random_marked(1 << nq, 5, seed=nq + 5)
        pairs = [(grover_iterate(fortran, good, 1), grover_iterate(state, good, 1)),
                 (grover_iterate(fortran, good, 4), grover_iterate(state, good, 4))]
        pairs += [(a, b) for (_, a), (_, b) in
                  zip(grover_trajectory(fortran, good, 4), grover_trajectory(state, good, 4))]
        for got, want in pairs:
            assert np.array_equal(_bits(got.coeffs), _bits(want.coeffs))

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
