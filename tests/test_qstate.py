"""State construction, moments, and serialization."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from entgrover import (
    EntangledState,
    GoodSet,
    MemoryLimitError,
    from_amplitudes,
    good_mass,
    moments,
    new_flat,
    random_good_set,
    random_with_moments,
    search_distribution,
)
from entgrover.harness import ScenarioError, build_state


class TestConstruction:
    def test_flat_is_all_ones(self):
        state = new_flat(2, 1)
        np.testing.assert_array_equal(state.coeffs, np.ones((4, 1)))
        assert state.n_states == 4

    def test_flat_multidim_rows_are_e0(self):
        state = new_flat(1, 2)
        np.testing.assert_array_equal(state.coeffs, [[1.0, 0.0], [1.0, 0.0]])

    def test_flat_good_mass_is_uniform(self):
        assert good_mass(new_flat(2, 1), GoodSet((0,))) == pytest.approx(0.25, abs=1e-15)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            new_flat(0, 1)
        with pytest.raises(ValueError):
            new_flat(2, 0)

    def test_from_amplitudes_rejects_wrong_norm(self):
        table = np.array([[math.sqrt(2), 0.0], [0.0, math.sqrt(2)]])
        with pytest.raises(ValueError, match="squared norm"):
            from_amplitudes(table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match="squared norm"):
            EntangledState(2, 1, [[bad], [1.0], [1.0], [1.0]])

    def test_from_amplitudes_one_to_one(self):
        state = from_amplitudes(np.eye(2))
        assert state.n_states == 2
        assert state.data_dim == 2

    def test_from_amplitudes_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            from_amplitudes(np.ones((3, 1)) / math.sqrt(3) * math.sqrt(3))

    def test_from_amplitudes_zero_table_renormalize(self):
        with pytest.raises(ValueError, match="zero"):
            from_amplitudes(np.zeros((4, 1)), renormalize=True)

    def test_renormalize_scales_globally(self):
        state = from_amplitudes(2.0 * np.ones((4, 1)), renormalize=True)
        np.testing.assert_allclose(state.coeffs, np.ones((4, 1)))

    def test_coeffs_immutable(self):
        state = new_flat(2, 1)
        with pytest.raises(ValueError):
            state.coeffs[0, 0] = 5.0

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setenv("ENTGROVER_MEMORY_CAP", "64")
        with pytest.raises(MemoryLimitError):
            new_flat(4, 1)


class TestGoodSet:
    def test_sorted_and_sized(self):
        good = GoodSet((3, 1))
        assert good.indices == (1, 3)
        assert good.t == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            GoodSet((1, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            GoodSet((-1,))

    def test_range_check_at_use(self):
        with pytest.raises(ValueError, match="out of range"):
            GoodSet((7,)).mask(4)

    def test_random_good_set_deterministic(self):
        assert random_good_set(16, 4, 9).indices == random_good_set(16, 4, 9).indices


class TestMoments:
    def test_flat_n4_t1(self):
        m = moments(new_flat(2, 1), GoodSet((0,)))
        np.testing.assert_allclose(m.g_avg, [1.0])
        np.testing.assert_allclose(m.b_avg, [1.0])
        assert m.var_g == 0.0
        assert m.var_b == 0.0
        assert m.theta == pytest.approx(math.pi / 6, abs=1e-15)
        assert m.n_good_mass == pytest.approx(1.0, abs=1e-15)

    def test_one_to_one_n2(self):
        m = moments(from_amplitudes(np.eye(2)), GoodSet((0,)))
        np.testing.assert_allclose(m.g_avg, [1.0, 0.0])
        np.testing.assert_allclose(m.b_avg, [0.0, 1.0])
        assert m.cross == 0j
        assert m.var_g == 0.0 and m.var_b == 0.0
        assert m.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_against_direct_summation(self):
        state = random_state(4, 4, seed=7)
        good = GoodSet((0, 3, 5, 9, 12))
        m = moments(state, good)
        rows = state.coeffs
        g_rows = [rows[i] for i in good.indices]
        b_rows = [rows[i] for i in range(16) if i not in good.indices]
        g_avg = sum(g_rows) / len(g_rows)
        b_avg = sum(b_rows) / len(b_rows)
        var_g = math.fsum(float(np.sum(np.abs(r - g_avg) ** 2)) for r in g_rows) / len(g_rows)
        var_b = math.fsum(float(np.sum(np.abs(r - b_avg) ** 2)) for r in b_rows) / len(b_rows)
        np.testing.assert_allclose(m.g_avg, g_avg, atol=1e-12)
        np.testing.assert_allclose(m.b_avg, b_avg, atol=1e-12)
        assert m.var_g == pytest.approx(var_g, abs=1e-12)
        assert m.var_b == pytest.approx(var_b, abs=1e-12)
        assert complex(np.vdot(g_avg, b_avg)) == pytest.approx(m.cross, abs=1e-12)

    def test_degenerate_t0(self):
        m = moments(new_flat(2, 1), GoodSet(()))
        assert m.g_avg is None
        assert m.theta == 0.0
        assert m.n_good_mass == 0.0

    def test_degenerate_tN(self):
        m = moments(new_flat(2, 1), GoodSet((0, 1, 2, 3)))
        assert m.b_avg is None
        assert m.theta == pytest.approx(math.pi / 2, abs=1e-15)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization_identity(self, seed):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 5))
        d = int(rng.integers(1, 4))
        n = 1 << nq
        t = int(rng.integers(1, n))
        state = random_state(nq, d, seed)
        m = moments(state, GoodSet(tuple(int(i) for i in rng.choice(n, t, replace=False))))
        sin2 = math.sin(m.theta) ** 2
        total = sin2 * (m.var_g + m.g_norm2) + (1 - sin2) * (m.var_b + m.b_norm2)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert abs(m.cross) ** 2 <= m.g_norm2 * m.b_norm2 + 1e-12


class TestRandomWithMoments:
    def test_zero_targets_give_flat(self):
        good = GoodSet((0,))
        state = random_with_moments(2, 1, good, 0.0, 0.0, [1.0], [1.0], seed=1)
        np.testing.assert_allclose(state.coeffs, np.ones((4, 1)), atol=1e-15)

    def test_t1_nonzero_var_rejected(self):
        with pytest.raises(ValueError, match="var_g"):
            random_with_moments(2, 1, GoodSet((0,)), 0.1, 0.0, [1.0], [1.0], seed=1)

    def test_deterministic(self):
        good = GoodSet((0, 2))
        kwargs = dict(target_var_g=0.2, target_var_b=0.1, g_avg=[1.0], b_avg=[0.9], seed=42)
        a = random_with_moments(3, 1, good, **kwargs)
        b = random_with_moments(3, 1, good, **kwargs)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_identity_satisfying_targets_hit_exactly(self):
        # sin2*(var_g + g2) + cos2*(var_b + b2) = 1 by construction
        n, t = 16, 4
        sin2, cos2 = t / n, 1 - t / n
        g2, var_g, b2 = 1.1, 0.3, 0.8
        var_b = (1.0 - sin2 * (var_g + g2) - cos2 * b2) / cos2
        good = GoodSet((1, 5, 8, 13))
        state = random_with_moments(
            4, 2, good, var_g, var_b, [math.sqrt(g2), 0], [0, math.sqrt(b2)], seed=7
        )
        m = moments(state, good)
        assert m.var_g == pytest.approx(var_g, abs=1e-12)
        assert m.var_b == pytest.approx(var_b, abs=1e-12)
        assert m.g_norm2 == pytest.approx(g2, abs=1e-12)
        assert m.b_norm2 == pytest.approx(b2, abs=1e-12)

    def test_generic_targets_preserve_ratios(self):
        good = GoodSet((0, 3))
        state = random_with_moments(3, 2, good, 0.5, 0.25, [2.0, 0], [0, 1.0], seed=3)
        m = moments(state, good)
        assert m.var_g / m.g_norm2 == pytest.approx(0.5 / 4.0, rel=1e-9)
        assert m.var_b / m.b_norm2 == pytest.approx(0.25 / 1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "target, name",
        [({"target_var_g": 1e308}, "target_var_g"), ({"target_var_b": math.inf}, "target_var_b"),
         ({"target_var_g": math.nan}, "target_var_g"), ({"target_var_b": -0.1}, "target_var_b"),
         ({"g_avg": [1e200]}, "g_avg"), ({"b_avg": [math.nan]}, "b_avg")],
    )
    def test_target_out_of_range_rejected_by_name(self, target, name):
        # 1e308 overflowed the construction, which then failed its norm gate with "got nan"
        args = {"target_var_g": 0.0, "target_var_b": 0.0, "g_avg": [1.0], "b_avg": [1.0], **target}
        with pytest.raises(ValueError, match=name):
            random_with_moments(3, 1, GoodSet((0, 1)), **args, seed=0)

    def test_zero_everything_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            random_with_moments(2, 1, GoodSet((0,)), 0.0, 0.0, [0.0], [0.0], seed=1)


class TestDistributions:
    def test_flat_distribution(self):
        np.testing.assert_allclose(search_distribution(new_flat(2, 1)), [0.25] * 4)

    def test_one_to_one_distribution(self):
        np.testing.assert_allclose(search_distribution(from_amplitudes(np.eye(2))), [0.5, 0.5])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sums_to_one(self, seed):
        state = random_state(3, 2, seed)
        assert search_distribution(state).sum() == pytest.approx(1.0, abs=1e-9)


def read_file_state(tmp_path, obj, n_qubits, data_dim):
    """``obj`` written as a state file and read back as a scenario's file state."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    return build_state({"type": "file", "path": str(path)}, n_qubits, data_dim)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        # the writer's format through the scenario's reader
        state = random_state(3, 3, seed=11)
        obj = state.to_json_obj()
        back = read_file_state(tmp_path, obj, 3, 3)
        assert np.array_equal(state.coeffs, back.coeffs)
        assert json.dumps(back.to_json_obj()) == json.dumps(obj)

    def test_schema_fields(self):
        obj = new_flat(1, 1).to_json_obj()
        assert set(obj) == {"n_qubits", "data_dim", "rows"}
        assert obj["rows"] == [[[1.0, 0.0]], [[1.0, 0.0]]]

    def test_missing_field_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="'state.path:data_dim' is required"):
            read_file_state(tmp_path, {"n_qubits": 1, "rows": []}, 1, 1)
