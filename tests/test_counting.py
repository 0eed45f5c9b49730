"""Counting circuit, kernels, window formulas, and the t estimator."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_count_amplitudes,
    brute_force_count_distribution,
    dft_matrix,
    planted,
    random_marked,
    random_state,
    random_table,
)
from entgrover import counting, from_amplitudes, memory
from entgrover import (
    CountState,
    DegenerateCaseError,
    GoodSet,
    MemoryLimitError,
    ancilla_distribution,
    build_count_state,
    circuit_distribution,
    error_bound,
    estimate_from_outcome,
    kernel_s,
    moments,
    new_flat,
    run_count,
    window_probability,
)

SIGMA_LOW = 8.0 / math.pi**2


class TestQft:
    """The ancilla transform is numpy's FFT with unitary scaling: ifft is the
    positive-phase DFT, fft its inverse."""

    def test_basis_vector_to_uniform(self):
        out = np.fft.ifft(np.array([1, 0, 0, 0], dtype=complex), norm="ortho")
        np.testing.assert_allclose(out, [0.5] * 4, atol=1e-14)

    def test_uniform_to_basis(self):
        out = np.fft.ifft(np.full(4, 0.5, dtype=complex), norm="ortho")
        np.testing.assert_allclose(out, [1, 0, 0, 0], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        back = np.fft.fft(np.fft.ifft(v, norm="ortho"), norm="ortho")
        np.testing.assert_allclose(back, v, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 32, 64])
    def test_matches_dft_matrix(self, p):
        rng = np.random.default_rng(p)
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        np.testing.assert_allclose(
            np.fft.ifft(v, norm="ortho"), dft_matrix(p, +1) @ v, atol=1e-12
        )

    def test_unitary(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        out = np.fft.ifft(v, norm="ortho")
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v), abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16, 32, 64])
    def test_inverse_matches_dft_matrix(self, p):
        rng = np.random.default_rng(100 + p)
        v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        np.testing.assert_allclose(
            np.fft.fft(v, norm="ortho"), dft_matrix(p, -1) @ v, atol=1e-12
        )

    def test_non_power_of_two_rejected(self):
        # the transform has no entry point of its own; the circuit checks P
        with pytest.raises(ValueError, match="power of two"):
            circuit_distribution(new_flat(2, 1), GoodSet((0,)), 3)

    def test_inverse_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            circuit_distribution(new_flat(2, 1), GoodSet((0,)), 6)


# (nq, d, t, P, seed): the referee rows, then t = 0, t = N, P = 1 and P = 2.
CIRCUIT_CASES = [
    (2, 1, 1, 8, 0),
    (3, 2, 3, 16, 1),
    (4, 3, 7, 8, 2),
    (4, 2, 0, 16, 3),
    (3, 2, 8, 16, 4),
    (4, 2, 5, 1, 5),
    (4, 2, 5, 2, 6),
]
# Long ancillas, where the offsets sum thousands of means.
LONG_ANCILLA_CASES = [(6, 3, 60, 4096, 7), (8, 2, 7, 2048, 8)]


def _count_case(nq, d, t, seed):
    return random_state(nq, d, seed), random_marked(1 << nq, t, seed + 50)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _tensor_branches(state, good, p):
    """The referee tensor's branches before scaling and transform, with the
    marked rows first and each sector in row order, and their 2*mu_m.

    The step is written out here, apart from the package's kernel: sort the
    table, then per step copy it, negate the leading t rows, take twice the
    column mean, subtract.
    """
    gmask = good.mask(state.n_states)
    branches, two_mu = [np.concatenate([state.coeffs[gmask], state.coeffs[~gmask]])], []
    for _ in range(p - 1):
        x = branches[-1].copy()
        x[: good.t] = -x[: good.t]
        two_mu.append(2.0 * x.mean(axis=0))
        branches.append(two_mu[-1] - x)
    return branches, np.array(two_mu, dtype=np.complex128).reshape(p - 1, state.data_dim)


class TestCircuitDistribution:
    @pytest.mark.parametrize("nq,d,t,p,seed", CIRCUIT_CASES)
    def test_matches_dense_oracle(self, nq, d, t, p, seed):
        state, good = _count_case(nq, d, t, seed)
        dist = circuit_distribution(state, good, p)
        oracle = brute_force_count_distribution(state, good, p)
        np.testing.assert_allclose(dist, oracle, atol=1e-12)

    @pytest.mark.parametrize("nq,d,t,p,seed", CIRCUIT_CASES + LONG_ANCILLA_CASES)
    def test_one_block_gives_the_tensor_bits(self, nq, d, t, p, seed):
        # one pass over the whole sorted table keeps the tensor's doubled means, bit for bit
        state, good = _count_case(nq, d, t, seed)
        branches, want = _tensor_branches(state, good, p)
        cur = state.coeffs[counting._sector_order(good.mask(1 << nq))]
        assert np.array_equal(_bits(cur), _bits(branches[0]))
        got = counting._doubled_means(cur, t, p - 1)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("block_steps", [1, 3])
    @pytest.mark.parametrize("nq,d,t,p,seed", CIRCUIT_CASES + LONG_ANCILLA_CASES)
    def test_blocks_equal_the_tensor_bit_for_bit(self, block_steps, nq, d, t, p, seed):
        # the pass split after a first block of steps, resumed from the tensor's
        # branch there, continues the whole pass's means bit for bit
        state, good = _count_case(nq, d, t, seed)
        branches, want = _tensor_branches(state, good, p)
        k = min(block_steps, p - 1)
        head = counting._doubled_means(branches[0].copy(), t, k)
        tail = counting._doubled_means(branches[k].copy(), t, p - 1 - k)
        assert np.array_equal(_bits(np.concatenate([head, tail])), _bits(want))

    @pytest.mark.parametrize("nq,d,t,p,seed", CIRCUIT_CASES + LONG_ANCILLA_CASES)
    def test_sector_form_matches_the_tensor(self, nq, d, t, p, seed):
        # the offsets and their transforms round differently from the replayed rows
        state, good = _count_case(nq, d, t, seed)
        ref = ancilla_distribution(build_count_state(state, good, p))
        np.testing.assert_allclose(circuit_distribution(state, good, p), ref, rtol=0, atol=1e-15)

    def test_streams_the_count_workload_in_a_fraction_of_the_tensor(self):
        state, good = random_state(12, 1, seed=61), random_marked(1 << 12, 100, seed=62)
        tracemalloc.start()
        try:
            dist = circuit_distribution(state, good, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        # the P x N x D tensor alone is 64 MiB; building it peaked at 128 MiB
        assert peak <= 2**20

    def test_first_pass_holds_no_step_buffer(self):
        # the sorted copy of the table, its row order and the P x D means; a step
        # buffer would add a whole table (262,144 bytes), and the broadcast
        # subtract in numpy's default ufunc buffer 131,072, far past the 16 KiB
        # of slack that holds its 256-element one
        n, d, p = 1 << 12, 4, 1024
        state, good = random_state(12, d, seed=63), random_marked(n, 100, seed=64)
        gmask = good.mask(n)
        tracemalloc.start()
        try:
            cur = state.coeffs[counting._sector_order(gmask)]
            counting._doubled_means(cur, good.t, p - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 16 * n * d
        assert peak <= table + 8 * n + 16 * (p - 1) * d + 2**14

    @pytest.mark.parametrize("nq,d", [(4, 3), (6, 2)])
    def test_fortran_ordered_table_counts_like_the_c_ordered_one(self, nq, d):
        state, good = _count_case(nq, d, 5, seed=nq)
        fortran = from_amplitudes(np.asfortranarray(state.coeffs))
        assert not fortran.coeffs.flags.c_contiguous
        for run in (circuit_distribution, lambda *a: build_count_state(*a).amps):
            assert np.array_equal(_bits(run(fortran, good, 16)), _bits(run(state, good, 16)))

    def test_memory_cap_covers_the_working_set(self, monkeypatch):
        # the circuit's working set, not P*N*D
        charge = memory.circuit(16, 1, 64).bytes
        assert charge < 16 * 64 * 16
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge - 1))
        with pytest.raises(MemoryLimitError):
            circuit_distribution(new_flat(4, 1), GoodSet((0,)), 64)
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge))
        assert circuit_distribution(new_flat(4, 1), GoodSet((0,)), 64).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "nq,d,t,p",
        [(12, 1, 100, 1024), (12, 4, 100, 1024), (10, 4, 1, 4096), (12, 4, 2000, 64),
         (4, 1, 1, 4096), (2, 2, 1, 2), (10, 1, 3, 1)],
    )
    def test_memory_charge_covers_the_traced_peak(self, monkeypatch, nq, d, t, p):
        state, good = random_state(nq, d, seed=63), random_marked(1 << nq, t, seed=64)
        circuit_distribution(state, good, p)
        tracemalloc.start()
        try:
            circuit_distribution(state, good, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= memory.circuit(1 << nq, d, p).bytes


# (N, D, steps) of the stacked kernel's cases; each stack holds t in
# {0, 1, N/3, N - 1, N}.
STACK_CASES = [(1 << 15, 1, 8), (4096, 3, 16), (256, 64, 16), (16, 1, 63), (4, 2, 15)]


def _stack_case(n, d, seed):
    ts = [0, 1, n // 3, n - 1, n]
    tables = np.stack([random_table(n, d, seed + i) for i in range(len(ts))])
    return tables, ts


def _written_out_means(table, t, steps):
    """One table's 2*mu_m, the step written out apart from the package's kernel."""
    x, two_mu = table.copy(), []
    for _ in range(steps):
        x[:t] = -x[:t]
        two_mu.append(2.0 * x.mean(axis=0))
        x = two_mu[-1] - x
    return np.array(two_mu, dtype=np.complex128).reshape(steps, table.shape[1])


class TestStackedKernel:
    """``_doubled_means`` steps a (B, N, D) stack whose table b has its first t_b rows
    marked; each table gets the bits it gets alone."""

    @pytest.mark.parametrize("n,d,steps", STACK_CASES)
    def test_stack_equals_each_table_alone_bit_for_bit(self, n, d, steps):
        tables, ts = _stack_case(n, d, seed=n + d)
        got = counting._doubled_means(tables.copy(), ts, steps)
        assert got.shape == (len(ts), steps, d)
        for i, (table, t) in enumerate(zip(tables, ts)):
            alone = counting._doubled_means(table.copy(), t, steps)
            assert np.array_equal(_bits(got[i]), _bits(alone))
            assert np.array_equal(_bits(alone), _bits(_written_out_means(table, t, steps)))

    def test_equal_t_stack_equals_each_table_alone(self):
        tables = np.stack([random_table(64, 3, 70 + i) for i in range(4)])
        got = counting._doubled_means(tables.copy(), [21] * 4, 31)
        for i, table in enumerate(tables):
            assert np.array_equal(_bits(got[i]), _bits(_written_out_means(table, 21, 31)))

    def test_an_off_by_one_mask_fails_the_bit_test(self):
        # the mask marks one row too many in the second table only
        fault = planted(counting._doubled_means, "zip(marked, ts)",
                        "zip(marked, ts + (np.arange(len(ts)) == 1))")
        tables, ts = _stack_case(256, 3, seed=5)
        got = fault(tables.copy(), ts, 8)
        alone = [counting._doubled_means(t.copy(), k, 8) for t, k in zip(tables, ts)]
        assert np.array_equal(_bits(got[0]), _bits(alone[0]))
        assert not np.array_equal(_bits(got[1]), _bits(alone[1]))

    @pytest.mark.parametrize("p", [1, 2, 16, 64])
    def test_stacked_distributions_equal_each_alone(self, p):
        # five states of one shape with mixed marked sets, one pass
        cases = [(random_state(5, 3, seed=80 + i), random_marked(32, t, seed=90 + t))
                 for i, t in enumerate([0, 1, 10, 31, 32])]
        dists = counting.circuit_distributions(cases, p)
        for (state, good), dist in zip(cases, dists):
            assert np.array_equal(_bits(dist), _bits(circuit_distribution(state, good, p)))

    def test_memory_cap_charges_every_table_of_the_stack(self, monkeypatch):
        # three tables' share of the pass, over one table's
        cases = [(new_flat(4, 1), GoodSet(tuple(range(t)))) for t in (1, 2, 3)]
        charge = memory.circuit(16, 1, 64, 3).bytes
        assert charge > memory.circuit(16, 1, 64).bytes
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge - 1))
        with pytest.raises(MemoryLimitError):
            counting.circuit_distributions(cases, 64)
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(charge))
        assert len(counting.circuit_distributions(cases, 64)) == 3

    @pytest.mark.parametrize(
        "n,d,p,b,spread", [(64, 1, 64, 16, 1), (1024, 4, 256, 8, 1), (16, 1, 4096, 4, 1),
                           (256, 2, 4096, 4, 1), (16, 2, 2, 16, 1), (1024, 2, 2, 16, 64)],
    )
    def test_stack_charge_covers_the_traced_peak(self, monkeypatch, n, d, p, b, spread):
        # table i marks (i + 1) * spread rows; at spread 64 the marked-row mask
        # is 16 x 1024, over the 8192 elements of numpy's default ufunc buffer
        cases = [(random_state(n.bit_length() - 1, d, seed=i),
                  random_marked(n, (i + 1) * spread, seed=i)) for i in range(b)]
        counting.circuit_distributions(cases, p)
        tracemalloc.start()
        try:
            counting.circuit_distributions(cases, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= memory.circuit(n, d, p, b).bytes


class TestKernelSquares:
    """``kernel_s2`` is ``kernel_s(...)**2`` over arrays, as criterion 8 reads it."""

    def test_agrees_with_the_scalar_kernel_on_random_draws(self):
        rng = np.random.default_rng(11)
        p = rng.choice((8, 16, 32, 64), size=10_000)
        f = rng.uniform(0.0, p / 2)
        m = rng.integers(0, p)
        got = counting.kernel_s2(m, f, p)
        want = [kernel_s(int(a), float(b), int(c)) ** 2 for a, b, c in zip(m, f, p)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", [4, 8, 64])
    def test_agrees_at_the_removable_singular_points(self, p):
        # m + f at multiples of P, exactly and within the 1e-12 that kernel_s rounds
        # to one; then just outside it, where both evaluate the quotient
        m = np.array([0, p, 2, p - 1, 0, p // 2, 1, p - 1])
        f = np.array([0.0, 0.0, p - 2.0, 1.0 + 5e-13, 2.0 * p - 3e-13, p / 2,
                      p - 1.0 + 1e-9, 1.0 - 2e-12])
        got = counting.kernel_s2(m, f, p)
        want = [kernel_s(int(a), float(b), p) ** 2 for a, b in zip(m, f)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert np.all(got[:6] == 1.0)


class TestBuildCountState:
    def test_p1_trivial_ancilla(self):
        cs = build_count_state(new_flat(2, 1), GoodSet((0,)), 1)
        np.testing.assert_allclose(ancilla_distribution(cs), [1.0])

    def test_total_norm_one(self):
        state = random_state(4, 2, seed=14)
        cs = build_count_state(state, random_marked(16, 5, seed=141), 16)
        assert ancilla_distribution(cs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_flat_spectrum_symmetric(self):
        cs = build_count_state(new_flat(4, 1), GoodSet((0, 1, 2, 3)), 16)
        dist = ancilla_distribution(cs)
        for m in range(1, 16):
            assert dist[m] == pytest.approx(dist[16 - m], abs=1e-9)

    @pytest.mark.parametrize("nq,d,t,p,seed", [(2, 1, 1, 8, 0), (3, 2, 3, 16, 1), (4, 3, 7, 8, 2)])
    def test_matches_dense_oracle(self, nq, d, t, p, seed):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 50)
        dist = ancilla_distribution(build_count_state(state, good, p))
        oracle = brute_force_count_distribution(state, good, p)
        np.testing.assert_allclose(dist, oracle, atol=1e-12)

    @pytest.mark.parametrize("nq,d,t,p,seed", [(2, 1, 1, 8, 0), (3, 2, 3, 16, 1), (4, 3, 7, 8, 2)])
    def test_amplitudes_match_dense_oracle(self, nq, d, t, p, seed):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 50)
        amps = build_count_state(state, good, p).amps
        np.testing.assert_allclose(amps, brute_force_count_amplitudes(state, good, p), atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, bad):
        amps = np.full((2, 2, 1), 0.5, dtype=complex)
        amps[0, 1, 0] = bad
        with pytest.raises(ValueError, match="squared norm"):
            CountState(p_size=2, n_qubits=1, data_dim=1, amps=amps)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            build_count_state(new_flat(2, 1), GoodSet((0,)), 3)


class TestAncillaDistribution:
    def test_peaks_near_line(self):
        # N=4, t=1: f = P*theta/pi = 4/3, peaks at 1 and 7
        dist = ancilla_distribution(build_count_state(new_flat(2, 1), GoodSet((0,)), 8))
        assert int(np.argmax(dist)) in {1, 2, 6, 7}

    def test_window_mass_majority(self):
        dist = ancilla_distribution(
            build_count_state(new_flat(4, 1), GoodSet((0, 1, 2, 3)), 16)
        )
        assert sum(dist[m] for m in (2, 3, 13, 14)) > 0.5


class TestKernel:
    def test_limit_at_zero(self):
        assert kernel_s(0, 0.0, 8, +1) == 1.0
        assert kernel_s(2, 2.0, 8, -1) == 1.0

    def test_integer_offsets_vanish(self):
        assert kernel_s(3, 1.0, 16, +1) == pytest.approx(0.0, abs=1e-15)
        assert kernel_s(5, 2.0, 16, -1) == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            p = int(rng.choice([4, 8, 16, 32]))
            f = float(rng.uniform(0, p / 2))
            m = int(rng.integers(0, p))
            assert abs(kernel_s(m, f, p, +1)) <= 1.0 + 1e-12
            assert abs(kernel_s(m, f, p, -1)) <= 1.0 + 1e-12

    def test_per_outcome_law_against_circuit(self):
        # for real coefficient tables (Im <G|B> = 0) each outcome away from
        # 0 and P/2 carries exactly [sin^2 <G|G> + cos^2 <B|B>] (s+^2 + s-^2)/2
        from entgrover import from_amplitudes

        rng = np.random.default_rng(5)
        state = from_amplitudes(rng.standard_normal((16, 2)), renormalize=True)
        good = random_marked(16, 4, seed=771)
        p_size = 16
        m = moments(state, good)
        f = p_size * m.theta / math.pi
        mix = math.sin(m.theta) ** 2 * m.g_norm2 + math.cos(m.theta) ** 2 * m.b_norm2
        dist = ancilla_distribution(build_count_state(state, good, p_size))
        for outcome in range(p_size):
            if outcome in (0, p_size // 2):
                continue
            ks = kernel_s(outcome, f, p_size, +1) ** 2 + kernel_s(outcome, f, p_size, -1) ** 2
            assert dist[outcome] == pytest.approx(mix * ks / 2.0, abs=1e-9)

    def test_mirror_pair_law_for_complex_states(self):
        # complex tables shift mass between m and P-m; the pair sum still
        # follows the kernel law exactly
        state = random_state(4, 2, seed=77)
        good = random_marked(16, 4, seed=771)
        p_size = 16
        m = moments(state, good)
        f = p_size * m.theta / math.pi
        mix = math.sin(m.theta) ** 2 * m.g_norm2 + math.cos(m.theta) ** 2 * m.b_norm2
        dist = ancilla_distribution(build_count_state(state, good, p_size))
        for outcome in range(1, p_size // 2):
            ks = sum(
                kernel_s(o, f, p_size, sign) ** 2
                for o in (outcome, p_size - outcome)
                for sign in (+1, -1)
            )
            pair = float(dist[outcome] + dist[p_size - outcome])
            assert pair == pytest.approx(mix * ks / 2.0, abs=1e-9)


class TestWindowProbability:
    def test_flat_interior_case(self):
        pred = window_probability(moments(new_flat(4, 1), GoodSet((0, 1, 2, 3))), 16)
        assert pred.case == "interior"
        assert pred.outcomes == (2, 3, 13, 14)
        assert pred.mass > 0.5
        assert SIGMA_LOW < pred.sigma <= 1.0

    @pytest.mark.parametrize(
        "nq,d,t,p,seed,case",
        [
            (4, 3, 4, 16, 1, "interior"),
            (6, 1, 1, 8, 2, "low"),
            (4, 2, 15, 8, 3, "high"),
            (3, 1, 4, 8, 4, "exact"),
            (4, 4, 3, 32, 5, "interior"),
            (5, 2, 7, 16, 6, "interior"),
            (6, 2, 3, 16, 7, "interior"),
        ],
    )
    def test_all_cases_match_circuit(self, nq, d, t, p, seed, case):
        state = random_state(nq, d, seed)
        good = random_marked(1 << nq, t, seed + 30)
        pred = window_probability(moments(state, good), p)
        assert pred.case == case
        dist = brute_force_count_distribution(state, good, p)
        mass = float(sum(dist[m] for m in pred.outcomes))
        assert pred.mass == pytest.approx(mass, abs=1e-9)

    def test_degenerate_sector_rejected(self):
        with pytest.raises(DegenerateCaseError):
            window_probability(moments(new_flat(2, 1), GoodSet(())), 8)

    def test_small_p_rejected(self):
        with pytest.raises(ValueError, match="P"):
            window_probability(moments(new_flat(2, 1), GoodSet((0,))), 2)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sigma_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.choice([8, 16, 32, 64]))
        f_int = float(rng.uniform(1, p / 2 - 1))
        f_low = float(rng.uniform(1e-9, 1 - 1e-9))
        f_high = float(rng.uniform(p / 2 - 1 + 1e-9, p / 2 - 1e-9))
        fl = math.floor(f_int)
        s1 = sum(kernel_s(m, f_int, p, +1) ** 2 for m in (fl, fl + 1, p - fl - 1, p - fl))
        s2 = sum(kernel_s(m, f_low, p, +1) ** 2 for m in (0, 1, p - 1))
        s3 = sum(kernel_s(m, f_high, p, +1) ** 2 for m in (p // 2, p // 2 - 1, p // 2 + 1))
        for s in (s1, s2, s3):
            assert SIGMA_LOW < s <= 1.0 + 1e-12


class TestEstimate:
    def test_zero_outcome(self):
        est = estimate_from_outcome(0, 16, 16)
        assert est.t_tilde == 0.0
        assert est.case_label == "low"

    def test_half_p_outcome(self):
        est = estimate_from_outcome(8, 16, 16)
        assert est.t_tilde == pytest.approx(16.0, abs=1e-12)
        assert est.case_label == "high"

    def test_window_values_n16_p16(self):
        t_for = {m: estimate_from_outcome(m, 16, 16).t_tilde for m in (2, 3, 13, 14)}
        assert t_for[2] == pytest.approx(16 * math.sin(math.pi * 2 / 16) ** 2, abs=1e-12)
        assert t_for[2] == pytest.approx(2.3431, abs=1e-4)
        assert t_for[3] == pytest.approx(4.9385, abs=1e-4)
        assert t_for[13] == t_for[3] and t_for[14] == t_for[2]
        bound = error_bound(4, 16, 16)
        for v in t_for.values():
            assert abs(v - 4) <= bound

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_from_outcome(16, 16, 16)


class TestErrorBound:
    def test_reference_value(self):
        expected = math.pi * 16 * (math.pi / 16 + 2 * math.sqrt(4 / 16)) / 16
        assert expected == pytest.approx(3.7584, abs=1e-4)
        assert error_bound(4, 16, 16) == pytest.approx(expected, abs=1e-15)

    def test_t_zero(self):
        assert error_bound(0, 8, 16) == pytest.approx(math.pi**2 * 16 / 64, abs=1e-12)

    def test_monotone_in_p(self):
        for t in (0, 1, 4, 16):
            bounds = [error_bound(t, p, 64) for p in (8, 16, 32, 64, 128)]
            assert bounds == sorted(bounds, reverse=True)

    def test_doubling_p_tightens_window_spread(self):
        # on the uniform family the worst window decode error shrinks with P
        good = GoodSet((0, 1, 2, 3))
        m = moments(new_flat(4, 1), good)
        spreads = []
        for p in (16, 32, 64):
            pred = window_probability(m, p)
            spreads.append(
                max(abs(estimate_from_outcome(o, p, 16).t_tilde - 4) for o in pred.outcomes)
            )
        assert spreads[0] >= spreads[1] >= spreads[2]


class TestRunCount:
    def test_deterministic(self):
        a = run_count(new_flat(3, 1), GoodSet((0,)), 8, 25, seed=5)
        b = run_count(new_flat(3, 1), GoodSet((0,)), 8, 25, seed=5)
        assert a == b

    def test_single_repetition(self):
        report = run_count(new_flat(3, 1), GoodSet((0,)), 8, 1, seed=5)
        assert len(report.outcomes) == 1

    def test_flat_n16_majority_in_window(self):
        report = run_count(new_flat(4, 1), GoodSet((0, 1, 2, 3)), 16, 101, seed=7)
        assert report.case == "interior"
        assert report.majority_m in (2, 3, 13, 14)
        assert report.w_empirical > 0.5
        assert report.bound_satisfied
        assert report.bound == pytest.approx(3.7584, abs=1e-4)

    def test_t_zero_stays_at_origin(self):
        report = run_count(new_flat(4, 1), GoodSet(()), 8, 11, seed=3)
        assert report.case == "degenerate"
        assert report.majority_m == 0
        assert report.majority_t == 0.0
        assert set(report.outcomes) == {0}

    def test_t_full_lands_at_half_p(self):
        report = run_count(new_flat(2, 1), GoodSet((0, 1, 2, 3)), 8, 11, seed=3)
        assert report.majority_m == 4
        assert report.majority_t == pytest.approx(4.0, abs=1e-12)

    def test_json_schema_keys(self):
        report = run_count(new_flat(3, 1), GoodSet((0,)), 8, 5, seed=1)
        obj = report.to_json_obj()
        for key in ("P", "N", "t_true", "case", "W_predicted", "W_empirical",
                    "outcomes", "majority_t", "bound", "bound_satisfied"):
            assert key in obj

    def test_estimator_sound_on_window_outcomes(self):
        # every possible window outcome decodes within the stated bound
        for nq in (4, 5):
            n = 1 << nq
            flat = new_flat(nq, 1)
            for t in (1, 2, n // 4):
                good = GoodSet(tuple(range(t)))
                for p in (16, 32):
                    pred = window_probability(moments(flat, good), p)
                    bound = error_bound(t, p, n)
                    for outcome in pred.outcomes:
                        est = estimate_from_outcome(outcome, p, n)
                        assert abs(est.t_tilde - t) <= bound
