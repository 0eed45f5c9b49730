"""The trajectory audit against the per-step loop it replaced, and the trusted steps."""
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import holds_at_its_plan, masked_closed_form_table, planted
from entgrover import (
    EntangledState,
    GoodSet,
    analytic,
    audit,
    checks,
    cli,
    closed_form_rows,
    from_amplitudes,
    good_mass,
    grover,
    grover_iterate,
    grover_trajectory,
    memory,
    moments,
    new_flat,
    qstate,
    random_good_set,
)
from entgrover.audit import audit_trajectory
from entgrover.checks import VerifyConfig, build_corpus, corpus_states
from entgrover.harness import parse_scenario, run_find

SMALL = replace(
    VerifyConfig(),
    corpus_count=12,
    max_steps=12,
    sweep_n_qubits=(4,),
    sweep_p_sizes=(16,),
    sigma_samples=20,
    averages_cases=4,
)


def per_step_loop(state, good, n_max):
    """The loop each runner and check used to write out: one reading per step."""
    m0 = moments(state, good)
    interior = 0 < good.t < state.n_states
    p_sim, amp_dev, var_drift, norm_dev = [], [], [], []
    for n, sim in grover_trajectory(state, good, n_max):
        p_sim.append(good_mass(sim, good))
        if interior:
            pred = closed_form_rows(state, good, n, m0)
            amp_dev.append(float(np.max(np.abs(pred.coeffs - sim.coeffs))))
        mn = moments(sim, good)
        var_drift.append(max(abs(mn.var_g - m0.var_g), abs(mn.var_b - m0.var_b)))
        norm_dev.append(abs(sim.physical_norm() - 1.0))
    return p_sim, amp_dev, var_drift, norm_dev


def cases():
    yield from corpus_states(SMALL)
    yield new_flat(3, 2), GoodSet(())
    yield new_flat(3, 2), GoodSet(tuple(range(8)))


@pytest.mark.parametrize("case", range(SMALL.corpus_count + 2))
def test_audit_equals_the_per_step_loop(case):
    state, good = list(cases())[case]
    n_max = 2 * SMALL.max_steps
    audit = audit_trajectory(state, good, n_max)
    p_sim, amp_dev, var_drift, norm_dev = per_step_loop(state, good, n_max)
    assert audit.p_sim == tuple(p_sim)
    assert audit.amp_dev == tuple(amp_dev)
    assert audit.var_drift == tuple(var_drift)
    assert len(audit.norm_dev) == n_max + 1
    assert max(abs(a - b) for a, b in zip(audit.norm_dev, norm_dev)) <= 1e-15


def readings(audit):
    return audit.p_sim, audit.amp_dev, audit.var_drift, audit.norm_dev


# Six table shapes: 7 states give one group of two and five of one, 27 give
# groups of four and five.  With max_steps = 4 the law horizons set most
# audit lengths, so they differ inside a group (4 and 7 in the first).
@pytest.mark.parametrize("count", [7, 27])
def test_batched_corpus_audits_equal_single_state_audits(count):
    cfg = replace(
        SMALL, corpus_count=count, max_steps=4, n_qubits_list=(2, 3, 4), data_dims=(1, 3)
    )
    batched = build_corpus(cfg).audits
    alone = []
    for state, good in corpus_states(cfg):
        m = moments(state, good)
        horizon = max(cfg.max_steps, memory.law_horizon(m.t, m.n_states))
        alone.append(audit_trajectory(state, good, horizon, m))
    assert (len(batched[0].p_sim), len(batched[6].p_sim)) == (5, 8)
    assert [readings(a) for a in batched] == [readings(a) for a in alone]


def test_batch_with_empty_sectors_equals_single_state_audits():
    rng = np.random.default_rng(5)
    states = [
        from_amplitudes(rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)), True)
        for _ in range(4)
    ]
    goods = [random_good_set(16, 5, seed=6), GoodSet(()), GoodSet(tuple(range(16))),
             random_good_set(16, 1, seed=7)]
    horizons = [9, 4, 12, 7]
    ms = [moments(s, g) for s, g in zip(states, goods)]
    stack = np.stack([s.coeffs for s in states])
    masks = np.stack([g.mask(16) for g in goods])
    batched = stack_audit(stack, masks, ms, horizons)
    for a, state, good, h in zip(batched, states, goods, horizons):
        assert readings(a) == readings(audit_trajectory(state, good, h))
    assert [len(a.amp_dev) for a in batched] == [10, 0, 0, 8]


@pytest.mark.parametrize("nq,d", [(4, 3), (11, 64)])
def test_fortran_ordered_state_audits_like_the_c_ordered_one(nq, d):
    rng = np.random.default_rng(nq)
    state = from_amplitudes(rng.standard_normal((1 << nq, d)) + 1j * rng.standard_normal((1 << nq, d)), True)
    fortran = from_amplitudes(np.asfortranarray(state.coeffs))
    assert fortran.coeffs.flags.f_contiguous and not fortran.coeffs.flags.c_contiguous
    good = random_good_set(1 << nq, 5, seed=nq)
    assert readings(audit_trajectory(fortran, good, 6)) == readings(audit_trajectory(state, good, 6))


def stack_audit(c0, gmask, ms, horizons):
    """The audit of a (B, N, D) stack of initial tables with (B, N) marked-row
    masks, its states the column blocks of one wide table."""
    return audit._audit_n(list(c0), list(gmask), ms, horizons)


def wide_cases():
    """(state, good, moments, horizon) of mixed N, D, t (0 and N among them) and
    horizons; every third table is Fortran-ordered."""
    rng = np.random.default_rng(11)
    spec = [(16, 2, 5, 9), (16, 1, 0, 4), (16, 3, 16, 12), (16, 2, 1, 7), (16, 1, 15, 10),
            (8, 4, 3, 6), (8, 1, 1, 11), (8, 4, 8, 3), (4, 2, 2, 30), (64, 1, 20, 5)]
    cases = []
    for i, (n, d, t, horizon) in enumerate(spec):
        state = from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
        if i % 3 == 0:
            state = from_amplitudes(np.asfortranarray(state.coeffs))
            assert d == 1 or not state.coeffs.flags.c_contiguous
        good = random_good_set(n, t, seed=i)
        cases.append((state, good, moments(state, good), horizon))
    return cases


def assert_wide_equals_lone(cases):
    """The audits of ``cases`` in one call equal each state's lone
    ``audit_trajectory`` and the per-step referee, bit for bit.  The referee
    reads a C-ordered copy: it sums the norm of step 0 over the table as given."""
    got = [readings(a) for a in audit.audit_trajectories(cases)]
    lone = [readings(audit_trajectory(state, good, horizon, m))
            for state, good, m, horizon in cases]
    referee = [readings(masked_audit_stack(np.ascontiguousarray(state.coeffs)[None],
                                           good.mask(state.n_states)[None], [m], [horizon])[0])
               for state, good, m, horizon in cases]
    assert [len(p_sim) for p_sim, *_ in got] == [horizon + 1 for *_, horizon in cases]
    assert got == lone == referee


@pytest.mark.parametrize("chunk", [None, 1, 2048], ids=["default", "one-step", "two-steps"])
def test_wide_tables_give_every_state_its_lone_audit(monkeypatch, chunk):
    """States of each N step as column blocks of one wide table, and each (N, D)
    group is read from its copied columns; at 2048 chunk bytes N = 16 reads two
    steps a chunk, so chunks start on odd steps."""
    if chunk is not None:
        monkeypatch.setattr(memory, "_CHUNK_BYTES", chunk)
    assert_wide_equals_lone(wide_cases())


def test_a_column_block_flipped_with_its_neighbours_mask_fails(monkeypatch):
    planted_audit = planted(audit._audit_n, "np.stack([masks[i] for i in order], axis=1)",
                            "np.stack([masks[order[1]]] + [masks[i] for i in order[1:]], axis=1)")
    monkeypatch.setattr(audit, "_audit_n", planted_audit)
    with pytest.raises(AssertionError):
        assert_wide_equals_lone(wide_cases())


def abs2(z):
    return np.square(z.real) + np.square(z.imag)


def masked_audit_stack(c0, gmask, ms, horizons):
    """The stack audit as it read each step before the sector gathers.

    The steps are the fresh tables of ``grover.trajectory_tables``.  The
    closed form and the variance deviations are formed over the whole
    (B, N, D) stack through ``where=`` masks, and the marked mass from the
    whole-table squares; the audit on gathered sectors must give its bits.
    """
    n_big = c0.shape[1]
    ts = [m.t for m in ms]
    g_spans = audit._spans(ts)
    b_spans = audit._spans([n_big - t for t in ts])
    interior = [i for i, t in enumerate(ts) if 0 < t < n_big]
    pick = slice(None) if len(interior) == len(ms) else interior
    ms_in = [ms[i] for i in interior]
    good = gmask[..., None]
    avg = np.zeros((2,) + c0.shape[::2], dtype=np.complex128)
    readings = [([], [], [], []) for _ in ms]
    for n, c in grover.trajectory_tables(c0, gmask, max(horizons)):
        sq = abs2(c)
        norms = np.add.reduce(sq, axis=(1, 2)).tolist()
        masses = audit._span_sums(sq[gmask], g_spans)
        amp_dev = [None] * len(ms)
        if interior:
            pred = masked_closed_form_table(c0[pick], gmask[pick], ms_in, n)
            devs = np.max(np.abs(pred - c[pick]), axis=(1, 2)).tolist()
            for i, dev in zip(interior, devs):
                amp_dev[i] = dev
        audit._span_means(c[gmask], g_spans, avg[0])
        audit._span_means(c[~gmask], b_spans, avg[1])
        diff = np.empty_like(c)
        np.subtract(c, avg[0][:, None], out=diff, where=good)
        np.subtract(c, avg[1][:, None], out=diff, where=~good)
        spread = abs2(diff)
        var_g = audit._span_sums(spread[gmask], g_spans)
        var_b = audit._span_sums(spread[~gmask], b_spans)
        for i, m in enumerate(ms):
            if n > horizons[i]:
                continue
            drift_g = abs(var_g[i] / ts[i] - m.var_g) if ts[i] else 0.0
            drift_b = abs(var_b[i] / (n_big - ts[i]) - m.var_b) if ts[i] < n_big else 0.0
            reading = (masses[i] / n_big, amp_dev[i], max(drift_g, drift_b),
                       abs(math.sqrt(norms[i] / n_big) - 1.0))
            for series, value in zip(readings[i], reading):
                if value is not None:
                    series.append(value)
    return [audit.TrajectoryAudit(m, *map(tuple, r)) for m, r in zip(ms, readings)]


def _stack_audits(states, goods, horizons, audit):
    ms = [moments(s, g) for s, g in zip(states, goods)]
    stack = np.stack([s.coeffs for s in states])
    masks = np.stack([g.mask(stack.shape[1]) for g in goods])
    return audit(stack, masks, ms, horizons)


@pytest.mark.parametrize(
    "n,d,ts,horizons",
    [
        (1024, 64, [300], [5]),  # one table above the 512 KiB block
        (16, 2, [5, 0, 16, 1], [9, 4, 12, 7]),
        (64, 3, [16, 64, 0, 63, 1, 40], [6, 3, 8, 2, 7, 5]),
        (2048, 64, [300], [5]),  # odd log2 N above the block: the result buffer swaps
        (1 << 16, 1, [3000], [4]),  # D = 1: the complex-view pass
        (256, 64, [0, 77, 256, 200], [3, 4, 2, 5]),  # mixed stack above the block
    ],
)
def test_gathered_read_equals_the_masked_read(n, d, ts, horizons):
    rng = np.random.default_rng(n + d)
    states = [from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
              for _ in ts]
    goods = [random_good_set(n, t, seed=i) for i, t in enumerate(ts)]
    new = _stack_audits(states, goods, horizons, stack_audit)
    old = _stack_audits(states, goods, horizons, masked_audit_stack)
    assert [len(a.p_sim) for a in new] == [h + 1 for h in horizons]
    assert [readings(a) for a in new] == [readings(a) for a in old]


def _chunk_stacks(case):
    """(c0, gmask, ms, horizons) stacks of one chunk-invariance case."""
    if case == "corpus":
        cfg = SMALL
        for c0, gmask, ms in build_corpus(cfg).stacks:
            yield c0, gmask, ms, [max(cfg.max_steps, memory.law_horizon(m.t, m.n_states))
                                  for m in ms]
        return
    n, d, ts, horizons = {
        "mixed": (16, 2, [5, 0, 16, 1, 15], [9, 4, 12, 7, 10]),
        "d1": (64, 1, [1, 30, 63], [11, 8, 13]),
        "wide": (1 << 11, 64, [300], [6]),
    }[case]
    rng = np.random.default_rng(n + d)
    states = [from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
              for _ in ts]
    goods = [random_good_set(n, t, seed=i) for i, t in enumerate(ts)]
    c0 = np.stack([s.coeffs for s in states])
    yield (c0, np.stack([g.mask(n) for g in goods]), [moments(s, g) for s, g in zip(states, goods)],
           horizons)


@pytest.mark.parametrize("case", ["corpus", "mixed", "d1", "wide"])
def test_every_chunk_size_keeps_the_per_step_bits(case, monkeypatch):
    """Chunks of 1, 2 and 3 steps and of the whole horizon give the per-step
    referee's bits; with 2 and 3 steps a chunk, some chunks start on odd n."""
    for c0, gmask, ms, horizons in _chunk_stacks(case):
        want = [readings(a) for a in masked_audit_stack(c0, gmask, ms, horizons)]
        for steps in (1, 2, 3, max(horizons) + 1):
            monkeypatch.setattr(memory, "_CHUNK_BYTES", steps * c0.nbytes)
            assert memory.audit_steps([c0.shape], max(horizons) + 1) == steps
            got = stack_audit(c0, gmask, ms, horizons)
            assert [readings(a) for a in got] == want


def test_closed_form_table_keeps_the_masked_bits():
    rng = np.random.default_rng(8)
    states = [from_amplitudes(rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3)), True)
              for _ in range(3)]
    goods = [random_good_set(32, t, seed=t) for t in (1, 9, 31)]
    c0 = np.stack([s.coeffs for s in states])
    gmask = np.stack([g.mask(32) for g in goods])
    ms = [moments(s, g) for s, g in zip(states, goods)]
    for n in range(7):
        got = analytic.closed_form_table(c0, gmask, ms, n)
        want = masked_closed_form_table(c0, gmask, ms, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_find_sized_audit_allocates_no_more_than_before():
    """The audit owns a fixed arena of two tables, so its peak does not grow with
    the step count.  Besides the arena, numpy's fixed ufunc buffering and the
    row indices (8 bytes a row) stay under 256 KiB.  Reading each step over the
    whole table, this audit peaked at 4.005 tables, on fresh step tables at
    3.467 and with a third chunk at 3.058; it peaks at 2.013 (numpy 2.4.6)."""
    rng = np.random.default_rng(3)
    n, d = 1 << 12, 64
    state = from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
    good = random_good_set(n, 300, seed=4)
    m = moments(state, good)
    audit_trajectory(state, good, 2, m)
    peaks = []
    for steps in (6, 24):
        tracemalloc.start()
        try:
            audit_trajectory(state, good, steps, m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    table = n * d * 16
    # The readings add four floats a step; nothing else may grow with the steps.
    assert peaks[1] - peaks[0] <= 4096
    assert max(peaks) <= 2 * table + 256 * 1024


@pytest.mark.parametrize("shape", [(1, 1 << 12, 64), (16, 2, 4, 3)])
def test_audit_chunks_start_on_a_cache_line(shape):
    """Wherever malloc puts them, the step's chunks start on a cache line, so
    the step runs alike in every process."""
    chunks = audit._arena([shape] * 3)
    assert all(c.shape == shape and c.flags.c_contiguous for c in chunks)
    assert [c.ctypes.data % audit._ALIGN for c in chunks] == [0, 0, 0]
    assert not any(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))


def test_single_state_audit_allocates_no_more_than_before():
    """Before the corpus was audited in batches this audit peaked at 5.623 tables (numpy 2.4)."""
    rng = np.random.default_rng(3)
    n, d = 1 << 10, 16
    state = from_amplitudes(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)), True)
    good = random_good_set(n, 100, seed=4)
    m = moments(state, good)
    audit_trajectory(state, good, 2, m)
    tracemalloc.start()
    try:
        audit_trajectory(state, good, 8, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.63 * n * d * 16


# What the memory cap does not charge, whatever the table's size: numpy's
# ufunc buffers (at most three operands of np.getbufsize() complex items) and
# 128 KiB of interpreter objects (the readings, the report, the closed form's
# factors).  Beside the charge, the audits below read 150-475 KB.
UNCHARGED = 3 * np.getbufsize() * 16 + (128 << 10)


@pytest.mark.parametrize("nq,d,t,iterations", [(12, 64, 300, 4), (6, 4, 3, None)])
def test_audit_charge_covers_a_finds_traced_peak(nq, d, t, iterations):
    """A find holds its state and its audit at once, and the audit's charge
    counts both, with the chunk of steps it reads at a time.  At 4096 x 64
    the chunk is one table; at a verify-sized 64 x 4 it holds every step."""
    s = parse_scenario({"kind": "find", "n_qubits": nq, "data_dim": d, "iterations": iterations,
                        "state": {"type": "random", "seed": 1, "var_b": 0.05},
                        "good": {"t": t, "seed": 2}})
    run_find(s)
    tracemalloc.start()
    try:
        steps = len(run_find(s).payload["table"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = memory.audit_steps([(1, 1 << nq, d)], steps)
    assert k == (1 if nq == 12 else steps)
    assert peak <= memory._audit_bytes([(1, 1 << nq, d)], k) + UNCHARGED


def test_a_find_at_a_cap_equal_to_its_charge_peaks_within_it(tmp_path, monkeypatch):
    """The find above at a cap of exactly its plan, the audit at one step a
    chunk and 1,280 bytes a reading for the 5 readings of its steps 0 .. 4,
    peaks over it by the plan's slack only (``holds_at_its_plan``): its
    broadcast and strided elementwise ops run in a 256-element ufunc buffer
    (``grover.small_buffer``).  It peaked 223 KB over when they ran in numpy's
    8192-element buffer."""
    scenario = {"kind": "find", "n_qubits": 12, "data_dim": 64, "iterations": 4,
                "state": {"type": "random", "seed": 1, "var_b": 0.05},
                "good": {"t": 300, "seed": 2}}
    caller = np.getbufsize()
    assert "5 readings" in holds_at_its_plan(scenario, tmp_path)
    monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(run_find(parse_scenario(scenario)).planned))
    assert memory.audit_steps([(1, 1 << 12, 64)], 5) == 1
    assert np.getbufsize() == caller


def test_chunks_leave_the_readings_their_room(tmp_path, monkeypatch):
    """N = 2^10, t = 1 at a cap of its plan: the audit's chunks are sized from
    what the cap leaves beside the audit and its 203 readings, so the run peaks
    within the plan and the slack of fixed objects.  Sized from the cap less the
    audit alone, the chunks took the readings' room and the run read 70.4 KB over
    the plan."""
    scenario = {"kind": "find", "n_qubits": 10, "good": {"t": 1, "seed": 0}}
    assert "203 readings" in holds_at_its_plan(scenario, tmp_path)
    s = parse_scenario(scenario)
    monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(run_find(s).planned))
    groups, steps = [(1, 1 << 10, 1)], 203
    k = memory.audit_steps(groups, steps)
    assert memory._audit_bytes(groups, k) + steps * memory._STEP_BYTES <= run_find(s).planned


@pytest.mark.parametrize("shape", [(3796, 64), (1 << 18, 4), (1 << 20, 1), (50, 2)])
def test_squares_in_place_allocate_no_table(shape):
    """|z|^2 formed over a table's own real parts, and the sums over that strided
    view, allocate nothing the size of the table, only numpy's ufunc buffer of
    floats for a strided reduction, and keep the bits of the squares formed
    apart and summed contiguous.  A numpy that copied the overlapping operands
    would show here as half a table or more."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.square(z.real) + np.square(z.imag)
    tracemalloc.start()
    try:
        got = qstate._abs2_into_real(z)
        total = np.add.reduce(got, axis=(-2, -1))
        halves = [np.add.reduce(got[:, span], axis=(-2, -1))
                  for span in (slice(0, shape[1] // 2), slice(shape[1] // 2, None))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * np.getbufsize() + 4096
    assert np.array_equal(got, want)
    assert total == np.add.reduce(want, axis=(-2, -1))
    assert halves == [np.add.reduce(want[:, span], axis=(-2, -1))
                      for span in (slice(0, shape[1] // 2), slice(shape[1] // 2, None))]


def battery_cases(cfg):
    """(state, good, moments, horizon) of every trajectory ``build_corpus`` audits."""
    cases = []
    for state, good in corpus_states(cfg):
        m = moments(state, good)
        cases.append((state, good, m, max(cfg.max_steps, memory.law_horizon(m.t, m.n_states))))
    return cases + [case for named in checks._fixed_trajectories(cfg).values() for case in named]


def test_audit_charge_covers_a_verify_stacks_traced_peak():
    """The battery's widest N, 64, audited over its horizons: the corpus's 8 x 64
    x D stacks for D = 1, 2 and 4 and criterion 5's flat state, as one wide table
    of 57 columns, each group's stack read a chunk of 8 steps at a time."""
    cases = [case for case in battery_cases(VerifyConfig()) if case[0].n_states == 64]
    tables = [state.coeffs for state, *_ in cases]
    masks = [good.mask(64) for _, good, *_ in cases]
    ms, horizons = [m for *_, m, _ in cases], [h for *_, h in cases]
    audit._audit_n(tables, masks, ms, horizons)
    tracemalloc.start()
    try:
        audit._audit_n(tables, masks, ms, horizons)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    groups = [(9, 64, 1), (8, 64, 2), (8, 64, 4)]
    assert sorted(Counter(t.shape[1] for t in tables).items()) == [(1, 9), (2, 8), (4, 8)]
    k = memory.audit_steps(groups, max(horizons) + 1)
    assert k == 8
    assert peak <= memory._audit_bytes(groups, k) + UNCHARGED


def test_the_battery_sizes_its_chunks_at_its_own_reading_charge(monkeypatch):
    """At the default battery's plan as the cap, the N = 64 audit above still
    reads 8 steps a chunk: its 25 states' 51 readings are charged at the
    corpus's 160 bytes a state and step, as ``memory.corpus`` plans them.
    Charged at a find's 1,280, they left room for 3."""
    planned = max(term.bytes for term in memory.plan(parse_scenario({"kind": "verify"}),
                                                     VerifyConfig()))
    monkeypatch.setenv("ENTGROVER_MEMORY_CAP", str(planned))
    assert memory.audit_steps([(9, 64, 1), (8, 64, 2), (8, 64, 4)], 51) == 8


@pytest.mark.slow
@pytest.mark.parametrize("n_qubits", [12, 14, 16, 18])
def test_closed_form_drift_stays_far_below_the_tolerance_as_n_grows(n_qubits):
    """Closed form vs simulation over a quarter period of the rotation, D = 1, t = N/64."""
    n = 1 << n_qubits
    rng = np.random.default_rng(n_qubits)
    state = from_amplitudes(rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)), True)
    good = random_good_set(n, n // 64, seed=n_qubits)
    m = moments(state, good)
    audit = audit_trajectory(state, good, math.ceil(math.pi / (4.0 * m.theta)), m)
    drift = max(audit.amp_dev)
    print(f"N = 2^{n_qubits}: max amp_dev {drift:.2e}, headroom {1e-9 / drift:,.0f}x")
    assert drift < 1e-9


def test_run_checks_builds_the_corpus_once(monkeypatch):
    """Each battery, the main one and criterion 11's three reduced ones, builds
    its corpus once and makes one audit call per N: the corpus's N = 4, 8 and 16
    (and 64 in the main one) and criterion 5's flat N = 64 state."""
    calls, audited = [], []
    states, audit_n = checks.corpus_states, audit._audit_n
    monkeypatch.setattr(checks, "corpus_states", lambda cfg: calls.append(1) or states(cfg))
    monkeypatch.setattr(audit, "_audit_n", lambda *a: audited.append(len(a[1][0])) or audit_n(*a))
    results = checks.run_checks(SMALL)
    assert calls == [1] * 4
    assert audited == [4, 8, 16, 64] * 4
    assert len(results) == len(checks.CHECKS) + 1 and all(r.passed for r in results)


def test_recurrence_check_is_bit_identical_to_wrapped_closed_forms():
    """Criterion 2 compares each corpus stack at every step at once; its reading
    equals the largest deviation of each state alone, one step at a time,
    through the single-state recurrence and the closed form's offsets."""
    worst = 0.0
    for state, good in corpus_states(SMALL):
        m = moments(state, good)
        scale = -2.0 / state.n_states
        for n in range(1, SMALL.max_steps + 1):
            x, y = analytic.recurrence_vectors(m, n)
            marked, unmarked = analytic._closed_form_offsets([m], n, 1)
            worst = max(worst, float(np.max(np.abs(scale * x - marked[0, 0]))),
                        float(np.max(np.abs(scale * y - unmarked[0, 0]))))
    assert checks.check_recurrence_consistency(SMALL, build_corpus(SMALL)).max_deviation == worst


@pytest.fixture(scope="module")
def full_corpus():
    return build_corpus(VerifyConfig())


@pytest.mark.parametrize(
    "fn, old, new",
    [
        (analytic.recurrence_sequence, "(-1) ** k", "(-1) ** (k + 1)"),
        (analytic._closed_form_offsets, "s2n / tan_t", "s2n * tan_t"),
    ],
    ids=["drive-sign", "tan-for-cot"],
)
def test_recurrence_check_fails_on_a_planted_fault(full_corpus, monkeypatch, fn, old, new):
    """The recurrence's drive with the wrong (-1)^k sign, or tan(theta) in place
    of cot(theta) in the marked offset, fails criterion 2 on the full corpus."""
    cfg = VerifyConfig()
    assert checks.check_recurrence_consistency(cfg, full_corpus).passed
    monkeypatch.setattr(analytic, fn.__name__, planted(fn, old, new))
    assert not checks.check_recurrence_consistency(cfg, full_corpus).passed


def test_steps_are_not_revalidated(monkeypatch):
    state = new_flat(4, 2)
    good = GoodSet((1, 5))
    calls = []
    validate = EntangledState.__post_init__
    monkeypatch.setattr(
        EntangledState, "__post_init__", lambda self: calls.append(1) or validate(self)
    )
    last = None
    for _, last in grover_trajectory(state, good, 6):
        pass
    step = grover_iterate(state, good, 1)
    assert calls == []
    for out in (last, step):
        assert not out.coeffs.flags.writeable
        assert (out.n_qubits, out.data_dim, out.n_states) == (4, 2, 16)


def test_find_tall_shape_exits_0(tmp_path):
    """N = 2**16, D = 4: the per-step absolute norm gate used to abort this on rounding."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "find", "n_qubits": 16, "data_dim": 4, "iterations": 3,
        "state": {"type": "random", "seed": 1, "var_g": 0.1, "var_b": 0.05,
                  "g_avg": [1.0, 0.0, 0.0, 0.0], "b_avg": [0.0, 1.0, 0.0, 0.0]},
        "good": {"t": 4000, "seed": 2},
    }))
    out = tmp_path / "r.json"
    assert cli.main(["find", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [row["n"] for row in report["table"]] == [0, 1, 2, 3]
    unitarity = next(c for c in report["checks"] if c["name"] == "unitarity")
    assert unitarity["passed"] and math.isfinite(unitarity["value"])


def test_long_default_horizon_passes_every_check(tmp_path):
    """N = 2^13, D = 1, t = 1: the default horizon is 569 steps."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "kind": "find", "n_qubits": 13, "data_dim": 1,
        "state": {"type": "random", "seed": 1, "var_b": 0.05},
        "good": {"t": 1, "seed": 2},
    }))
    out = tmp_path / "r.json"
    code = cli.main(["find", "--config", str(cfg), "--out", str(out)])
    report = json.loads(out.read_text())
    assert len(report["table"]) == 570
    assert code == 0 and all(c["passed"] for c in report["checks"])


@pytest.mark.slow
def test_headroom_of_a_find_as_n_grows(tmp_path):
    """Tolerance over value of ``unitarity`` and ``closed_form_agreement`` in a
    find at N = 2^10 .. 2^13 (D = 1, t = 1, a random state, the default
    horizon).  Measured 346-450 and 3,235-20,105 (CPython 3.11, numpy
    2.4.6): every norm deviation (600-1,126 as a margin) sits below the
    reading's rounding floor eps*log2(N*D), which the check reports instead.
    The composed Walsh-Hadamard step read 2.79 down to 0.76 and 102 down to
    9.8, its norm bias growing with the horizon."""
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    rows = []
    for n_qubits in (10, 11, 12, 13):
        cfg.write_text(json.dumps({
            "kind": "find", "n_qubits": n_qubits, "data_dim": 1,
            "state": {"type": "random", "seed": 1, "var_b": 0.05},
            "good": {"t": 1, "seed": 2},
        }))
        assert cli.main(["find", "--config", str(cfg), "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        margins = [checks[name]["tolerance"] / checks[name]["value"]
                   for name in ("unitarity", "closed_form_agreement")]
        rows.append(margins)
        print(f"N = 2^{n_qubits}: unitarity {margins[0]:,.0f}x, "
              f"closed_form_agreement {margins[1]:,.0f}x")
    for unitarity, agreement in rows:
        assert unitarity >= 200 and agreement >= 1000
