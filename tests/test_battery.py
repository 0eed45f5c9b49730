"""The battery's stacked and array paths: criteria 2, 7, 8 and 10 read as the
per-state loops they replaced did, pass for pass.

The pinned readings were taken from the per-state loops (one recurrence pass
per corpus stack, one audit per state, scalar kernel sums and one circuit per
cell) before those loops were replaced; every reading keeps its bits.
"""
import tracemalloc
from dataclasses import replace

import pytest

from entgrover import analytic, audit, checks, counting, memory
from entgrover.checks import VerifyConfig, build_corpus

FULL = VerifyConfig()
# Criterion 11's reduced battery (``check_determinism``).
REDUCED = replace(FULL, corpus_count=8, max_steps=10, sweep_n_qubits=(4,), sweep_p_sizes=(16,),
                  sigma_samples=50, averages_cases=8)

# (criterion, config) -> (max_deviation, detail)
PINNED = {
    ("recurrence_consistency", "full"): (1.737064466987443e-14, ""),
    ("recurrence_consistency", "reduced"): (2.0380985511143445e-15, ""),
    ("p_max_claim", "full"): (
        1.1102230246251565e-16, "simulated P at best integer time within 1.44e-15 of analytic"),
    ("p_max_claim", "reduced"): (
        1.1102230246251565e-16, "simulated P at best integer time within 1.44e-15 of analytic"),
    ("counting_window", "full"): (
        1.5543122344752192e-15,
        "W1=0.865152 on (2, 3, 13, 14); kernel-sum bounds held over 1000 samples/case"),
    ("counting_window", "reduced"): (
        1.5543122344752192e-15,
        "W1=0.865152 on (2, 3, 13, 14); kernel-sum bounds held over 50 samples/case"),
    ("estimator_bound", "full"): (
        -0.08300912231084184, "max (|t~-t| - bound) over 60 cells; majority rule held"),
    ("estimator_bound", "reduced"): (
        -0.8445008513553613, "max (|t~-t| - bound) over 4 cells; majority rule held"),
}
CONFIGS = {"full": FULL, "reduced": REDUCED}


@pytest.fixture(scope="module")
def corpora():
    return {name: build_corpus(cfg) for name, cfg in CONFIGS.items()}


def _run(criterion, name, corpora):
    fn = getattr(checks, f"check_{criterion}")
    cfg = CONFIGS[name]
    corpus_read = criterion in {"recurrence_consistency", "p_max_claim"}
    return fn(cfg, corpora[name]) if corpus_read else fn(cfg)


@pytest.mark.parametrize("criterion,name", sorted(PINNED))
def test_reading_is_pinned(criterion, name, corpora):
    result = _run(criterion, name, corpora)
    assert result.passed
    assert (result.max_deviation, result.detail) == PINNED[criterion, name]


def _counted(monkeypatch, module, attr):
    calls = []
    fn = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


class TestRecurrenceConsistency:
    def test_one_recurrence_pass_per_corpus(self, monkeypatch, corpora):
        calls = _counted(monkeypatch, analytic, "recurrence_sequence")
        checks.check_recurrence_consistency(FULL, corpora["full"])
        assert len(calls) == 1
        assert len(calls[0][0]) == FULL.corpus_count

    @pytest.mark.parametrize("chunk", [1, 64 * 100 * 4 * 7])
    def test_any_chunk_of_steps_reads_the_same(self, monkeypatch, corpora, chunk):
        # one step at a time, and seven steps of the padded (100, 4) offsets at a time
        monkeypatch.setattr(memory, "_CHUNK_BYTES", chunk)
        result = checks.check_recurrence_consistency(FULL, corpora["full"])
        assert result.max_deviation == PINNED["recurrence_consistency", "full"][0]

    def test_no_steps_read_zero(self, corpora):
        result = checks.check_recurrence_consistency(replace(FULL, max_steps=0), corpora["full"])
        assert (result.passed, result.max_deviation) == (True, 0.0)


def test_p_max_claim_reads_its_audits_from_the_corpus(monkeypatch, corpora):
    calls = _counted(monkeypatch, audit, "_audit_n")
    assert checks.check_p_max_claim(FULL, corpora["full"]).passed
    assert calls == []
    audits = corpora["full"].fixed["p_max_claim"]
    params = [analytic.oscillation_params(a.moments) for a in audits]
    assert [(a.moments.n_states, len(a.p_sim) - 1) for a in audits] == [
        (16, analytic.best_integer_time(p)) for p in params]


class TestCountingWindow:
    def test_a_raised_lower_bound_fails(self, monkeypatch):
        # the interior sums reach down to about 0.82 at P = 64 and f near a half
        # integer, so a bound of 0.9 lies above the true minimum of the draws
        monkeypatch.setattr(checks, "SIGMA_LOW", 0.9)
        result = checks.check_counting_window(FULL)
        assert not result.passed
        assert "VIOLATED over 1000 samples/case" in result.detail

    def test_samples_are_read_in_chunks_of_bounded_memory(self):
        # 40,000 samples a case hold about 11 MB at once; a chunk holds at most
        # _CHUNK_BYTES, on top of what the window check holds without samples
        def peak(samples):
            cfg = replace(FULL, sigma_samples=samples)
            tracemalloc.start()
            try:
                assert checks.check_counting_window(cfg).passed
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40_000) <= peak(0) + memory._CHUNK_BYTES + 2**14

    def test_no_samples_pass(self):
        result = checks.check_counting_window(replace(FULL, sigma_samples=0))
        assert result.passed and "held over 0 samples/case" in result.detail


class TestEstimatorBound:
    def test_one_circuit_pass_per_n_and_p(self, monkeypatch):
        calls = _counted(monkeypatch, counting, "circuit_distributions")
        checks.check_estimator_bound(FULL)
        assert [(len(cases), p) for cases, p in calls] == [
            (n // 4, p) for n in (16, 64) for p in FULL.sweep_p_sizes
        ]

    @pytest.mark.parametrize("tables", [1, 3])
    def test_chunks_hold_at_most_the_chunk_bytes(self, monkeypatch, tables):
        # chunks of one and of three tables of 64 rows, each adding to the pass what
        # it adds at the largest P
        per_table = memory._table_bytes(64, 1, max(FULL.sweep_p_sizes))
        monkeypatch.setattr(memory, "_CHUNK_BYTES", tables * per_table)
        charged = _counted(monkeypatch, memory, "circuit")
        calls = _counted(monkeypatch, counting, "circuit_distributions")
        result = checks.check_estimator_bound(FULL)
        # N = 16 takes t = 1 .. 4 and N = 64 t = 1 .. 16, in chunks of as many
        # tables as fit
        per_chunk = {n: memory._CHUNK_BYTES // memory._table_bytes(n, 1, 64) for n in (16, 64)}
        assert per_chunk[64] == tables
        sizes = [
            min(per_chunk[n], n // 4 - lo)
            for n in (16, 64)
            for lo in range(0, n // 4, per_chunk[n])
            for _ in FULL.sweep_p_sizes
        ]
        assert [len(cases) for cases, _ in calls] == sizes
        assert [c[3] for c in charged] == sizes
        assert (result.max_deviation, result.detail) == PINNED["estimator_bound", "full"]

    def test_a_pass_charges_at_most_the_chunk_bytes_over_one_table(self, monkeypatch):
        # at P = 2^13 a table adds more to the pass than the 1 KiB of its amplitudes
        # (16 rows of 16 bytes): its 8,191 doubled means and its distribution, so
        # every t gets a pass of its own
        cfg = replace(REDUCED, sweep_p_sizes=(1 << 13,))
        circuit = memory.circuit
        passes = _counted(monkeypatch, memory, "circuit")
        assert checks.check_estimator_bound(cfg).passed
        assert [p[3] for p in passes] == [1] * 4
        alone = circuit(16, 1, 1 << 13).bytes
        assert max(circuit(*p).bytes for p in passes) <= memory._CHUNK_BYTES + alone


@pytest.mark.parametrize("name", ["full", "reduced"])
def test_the_plan_charges_the_fixed_trajectories_the_battery_audits(name, corpora):
    fixed = checks._fixed_trajectories(CONFIGS[name])
    assert tuple((state.n_states, state.data_dim, horizon) for named in fixed.values()
                 for state, _, _, horizon in named) == memory.FIXED_TRAJECTORIES
    assert [len(corpora[name].fixed[key]) for key in fixed] == [len(named) for named in fixed.values()]
