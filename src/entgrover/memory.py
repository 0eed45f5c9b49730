"""The memory plan: every byte a run charges against the memory cap.

A run's plan is an ordered list of terms ``(bytes, what, field)``, worked
out from the scenario's numbers (N, D, t, the readings, P, the repetitions,
the verify config and a state file's size) before anything of size N is
allocated.  Each term is a working set the run holds at one time, with
everything held beside it, so the terms are not summed: the planned peak is
the largest.  ``check`` refuses the first term over the cap
(``qstate.memory_cap_bytes``), naming its field; the order is the order in
which the run would reach them.

The library entries a script may call directly (the ``EntangledState``
constructor and ``new_flat``, ``checks.corpus_states``,
``counting.circuit_distributions`` and ``counting.run_count``) check their
own term here.  Every chunk count the audit and the battery take is worked
out here too (``_chunk``), from the same formulas, so each is stated once.
The constants are peaks that tracemalloc read, each written beside its
reading.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from typing import NamedTuple

from . import qstate

# Bytes of the k consecutive step tables the audit holds at once, and of each
# chunk the battery reads at a time.  Small stacks are then read a chunk of steps
# a call; a table this size or larger is read one step at a time.
_CHUNK_BYTES = 1 << 18

# Bytes of a read block of the audit, in which it forms its closed form and its
# centred rows a block of rows at a time, in cache: a 4096 x 64 audit of 24
# readings took 110, 84, 80 and 95 ms at blocks of 64 KiB, 256 KiB, 512 KiB and
# 1 MiB, and 228 ms at 16 KiB (best of 10, 2 cores, numpy 2.4.6).
_BLOCK_BYTES = 1 << 18

# Peak bytes of building a state with its marked set and reading its moments
# (``harness._setup``, then ``qstate.moments``): ``_BUILD_TABLES`` tables (the
# state, a random state's sector draw and its squares; a flat state holds two,
# and moments a sector's copy beside the state), ``_ROW_BYTES`` a row (the
# marked-row masks) and ``_MARK_BYTES`` a marked index (the marked set's tuple
# of ints and the sorted list it is checked on, 61-65 read).  Over N = 2^5 to
# 2^18, D = 1 to 64 and t from 0 to N, flat and random states, tracemalloc read
# at most 4.8 KB over the sum at N*D <= 2^10, where fixed objects dominate, and
# under it from N*D = 2^12 on (CPython 3.11, numpy 2.4.6).
_BUILD_TABLES = 3
_ROW_BYTES = 4
_MARK_BYTES = 64

# Peak bytes of a find's readings a step (the audit's series, the report's row
# and its JSON text), and of the corpus's a state and step: tracemalloc read
# 1,244-1,274 and 125-130 over 10^4 to 4 x 10^4 steps (CPython 3.11, numpy 2.4.6).
_STEP_BYTES = 1280
_CORPUS_STEP_BYTES = 160

# Peak bytes of criterion 2's comparison a step, state and column of its chunk,
# the recurrence's own state charged as one step more: the recurrence's pairs,
# the closed form's offsets, their angles as floats and the deviations.
# tracemalloc read 184-212 at 10 to 40 steps a chunk and up to 412 at one or two
# (the fixed objects), over 100 and 300 states of D = 1 and 4 (CPython 3.11,
# numpy 2.4.6).
_RECURRENCE_BYTES = 256

# Bytes an audit chunk holds a step beyond its tables, for each of the stack's
# B x D columns: the sector averages and the closed form's two offsets, with
# their temporaries, six complex128 rows.  tracemalloc read 6.1-6.3 rows a step
# at 16 steps a chunk (N = 2 to 8, D = 128 to 512; CPython 3.11, numpy 2.4.6).
_OFFSET_BYTES = 96

# Criteria 4-7's fixed trajectories, which the battery audits with its corpus
# (``checks._fixed_trajectories``, held to this by a test): (N, D, last step) of
# each.
FIXED_TRAJECTORIES = ((4, 1, 6), (4, 1, 7), (8, 1, 10), (16, 1, 9), (64, 1, 27), (4, 4, 30),
                      (8, 8, 30), (4, 1, 30), (16, 1, 1), (16, 1, 1), (16, 1, 1))

# Peak bytes of one of criterion 8's kernel-sum samples, its draws and the squared
# kernels of its ten outcomes: tracemalloc read 277-283 a sample over 10^4 to
# 4 x 10^4 samples (CPython 3.11, numpy 2.4.6).
_SIGMA_SAMPLE_BYTES = 320

# Peak bytes per repetition of a count run, from the int64 draws to the report's
# outcome tuple, list and JSON text: tracemalloc read 83-103 at P = 2 to 4096 and
# 123 at P = 2^16, where the outcome tally grows too (CPython 3.11, numpy 2.4.6).
_SAMPLE_BYTES = 128

# Peak bytes per ancilla outcome of a count report: the distribution, its list of
# floats and their JSON text.  tracemalloc read 144.6-146.9 at P = 2^12 to 2^16
# (CPython 3.11, numpy 2.4.6).
_OUTCOME_BYTES = 160

# Bytes a circuit pass holds beyond its arrays' data: array headers, the sector
# sums and the list of distributions.  tracemalloc read at most 6.0 KB over the
# charged arrays at one table, and up to 0.95 KB more a table (N = 2 to 2^10,
# D = 1 to 5, P = 1 to 4096, 1 to 16 tables of mixed t; CPython 3.11, numpy 2.4.6);
# these two cover every case with 2.2 KB to spare.
_TABLE_BYTES = 512
_PASS_BYTES = 8192

# Peak bytes of reading a state file, per byte of the file: the parsed JSON and
# the state's table, filled row by row.  tracemalloc read at most 32.2 over files
# of 2^8 to 2^18 rows and D = 1, 2, 4 and 64, at one bare integer a row without
# spaces (``[1],``), the densest text that parses to the most objects; 25.8 with
# json's default separators, and 4.2-6.1 for the files that
# ``EntangledState.to_json_obj`` writes (CPython 3.11, numpy 2.4.6).  40 leaves
# that worst case 24%.
_FILE_BYTES = 40


class Term(NamedTuple):
    """``bytes`` held at once, ``what`` holds them, and the scenario field a
    refusal blames (None for a library call, which has no scenario)."""

    bytes: int
    what: str
    field: str | None = None


def check(terms: list[Term]) -> int:
    """Raise ``qstate.MemoryLimitError`` for the first term over the cap; else
    return the planned peak, the largest term."""
    cap = qstate.memory_cap_bytes()
    for term in terms:
        if term.bytes > cap:
            blame = "" if term.field is None else f"{term.field} is too large: "
            raise qstate.MemoryLimitError(f"{blame}{term.what} needs {term.bytes} bytes, "
                                          f"cap is {cap}")
    return max(term.bytes for term in terms)


def table(n_states: int, data_dim: int, field: str | None = None) -> Term:
    """One N x D table of complex128."""
    n = n_states * data_dim
    return Term(16 * n, f"state of {n} amplitudes", field)


def build(n_states: int, data_dim: int, t: int, field: str | None = None) -> Term:
    """Building an N x D state and its marked set of t indices, and reading its
    moments."""
    needed = (16 * _BUILD_TABLES * n_states * data_dim + _ROW_BYTES * n_states
              + _MARK_BYTES * t)
    return Term(needed, f"building a state of {n_states * data_dim} amplitudes (t = {t}) "
                        f"and reading its moments", field)


def _widest(groups: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """The (B, N, D) group of most columns, B*D."""
    return max(groups, key=lambda group: group[0] * group[2])


def audit_block_rows(b: int, n: int, d: int) -> int:
    """Rows of a read block of the audit's (B, N, D) group: as many as
    ``_BLOCK_BYTES`` holds of the B states' rows, at least one and at most N."""
    return min(n, max(1, _BLOCK_BYTES // (16 * b * d)))


def _audit_bytes(groups: list[tuple[int, int, int]], k: int) -> int:
    """Bytes the audit of one N holds at k steps a chunk, its states in the
    (B, N, D) ``groups``, of W columns in all: the groups' stacks of initial
    tables and a chunk of k wide (N, W) tables; for the group of most columns,
    k stacks of floats (the squares) and its read blocks, k + 1 blocks of
    ``audit_block_rows`` rows, with ``_OFFSET_BYTES`` a step and column; and
    each state's sector row index (8 bytes a row) and marked-row mask (1 byte a
    row).  More than one state also holds the wide table's half-table scratch
    (a lone state's is its squares) and its flip mask (at most 2 bytes a row
    and column)."""
    b, n, d = _widest(groups)
    width = sum(group[0] * group[2] for group in groups)
    states = sum(group[0] for group in groups)
    block = 16 * b * audit_block_rows(b, n, d) * d
    fixed = 16 * n * width + 9 * states * n + block
    step = 16 * n * width + 8 * b * n * d + block + _OFFSET_BYTES * b * d
    if states > 1:
        fixed += 10 * n * width
    return fixed + k * step


def audit(n_states: int, data_dim: int, readings: int, field: str | None = None) -> Term:
    """A state, its trajectory audit at one step a chunk and ``readings`` readings
    (one a step, steps 0 .. horizon); ``audit_steps`` takes longer chunks where
    the cap leaves room."""
    needed = _audit_bytes([(1, n_states, data_dim)], 1) + readings * _STEP_BYTES
    return Term(needed, f"trajectory audit working set ({n_states} x {data_dim}, "
                        f"{readings} readings)", field)


def _table_bytes(n_states: int, data_dim: int, p_size: int) -> int:
    """What each table adds to a circuit pass's working set: the sorted table, its
    P x D doubled means, its row of the stack's marked-row mask (a byte a row), its
    distribution, and ``_TABLE_BYTES`` of small objects."""
    return 16 * (n_states + p_size) * data_dim + n_states + 8 * p_size + _TABLE_BYTES


def circuit(n_states: int, data_dim: int, p_size: int, n_tables: int = 1,
            field: str | None = None) -> Term:
    """A circuit pass over ``n_tables`` tables: each table's ``_table_bytes``, a
    table's row order and two masks while the stack is sorted (10 bytes a row),
    four P x D sequences that one table's transforms hold at most once the tables
    are released, and ``_PASS_BYTES`` of small objects."""
    needed = (n_tables * _table_bytes(n_states, data_dim, p_size) + 64 * p_size * data_dim
              + 10 * n_states + _PASS_BYTES)
    return Term(needed, f"counting circuit working set (P = {p_size})", field)


def samples(repetitions: int, field: str | None = None) -> Term:
    return Term(repetitions * _SAMPLE_BYTES, f"{repetitions} repetitions", field)


def report(p_size: int, repetitions: int, field: str | None = None) -> Term:
    """A count report and its JSON text: its distribution and its samples."""
    return Term(p_size * _OUTCOME_BYTES + repetitions * _SAMPLE_BYTES,
                f"count report of {p_size} outcomes and {repetitions} samples", field)


def _chunk(most: int, item_bytes: int) -> int:
    """Items of ``item_bytes`` a chunk holds: as many as ``_CHUNK_BYTES`` holds,
    at most ``most`` and at least one."""
    return max(1, min(most, _CHUNK_BYTES // item_bytes))


def audit_steps(groups: list[tuple[int, int, int]], steps: int) -> int:
    """Steps the audit of one N's (B, N, D) ``groups`` holds at once, at most
    ``steps``: as many as the cap leaves room for beside the audit's readings,
    and as many stacks of the group of most columns as a chunk holds.  A lone
    state's readings are charged at a find's ``_STEP_BYTES`` a step, as
    ``audit`` charges them; more states are the battery's, at its
    ``_CORPUS_STEP_BYTES`` a state and step, as ``corpus`` charges them."""
    fixed = _audit_bytes(groups, 0)
    states = sum(group[0] for group in groups)
    reading = _STEP_BYTES if states == 1 else _CORPUS_STEP_BYTES
    room = qstate.memory_cap_bytes() - fixed - states * steps * reading
    b, n, d = _widest(groups)
    return _chunk(min(steps, room // (_audit_bytes(groups, 1) - fixed)), 16 * b * n * d)


def recurrence_steps(n_states: int, data_dim: int, max_steps: int) -> int:
    """Steps a chunk of criterion 2's comparison holds for ``n_states`` states of
    width ``data_dim``."""
    return _chunk(max_steps, _RECURRENCE_BYTES * n_states * data_dim)


def kernel_samples(samples: int) -> int:
    """Samples a chunk of criterion 8's kernel sums holds."""
    return _chunk(samples, _SIGMA_SAMPLE_BYTES)


def circuit_tables(n_states: int, data_dim: int, p_size: int, tables: int) -> int:
    """Tables a chunk of criterion 10's circuit passes stacks, at ``p_size``."""
    return _chunk(tables, _table_bytes(n_states, data_dim, p_size))


def corpus(cfg, field: str | None = None) -> Term:
    """The battery's trajectories (``cfg``, a ``checks.VerifyConfig``): the
    corpus's states, each read over steps 0 .. max(max_steps, law horizon), the
    law horizon charged at t = 1, where it is longest, and criteria 4-7's
    ``FIXED_TRAJECTORIES``; every corpus table in its shape's (B, N, D) stack;
    and the larger of two working sets beside them.  While the trajectories are
    audited each table is held as a state too, with the audit of one N at a
    time (``_audit_bytes``), at as many steps a chunk as ``_CHUNK_BYTES`` holds
    stacks of its group of most columns; criterion 2 then holds a chunk of its
    comparison (``recurrence_steps``) over every state at the widest D."""
    combos = [(1 << nq, d) for nq in cfg.n_qubits_list for d in cfg.data_dims]
    rounds, rest = divmod(cfg.corpus_count, len(combos))
    counts = Counter(combos[:rest]) + Counter({c: rounds * combos.count(c) for c in combos})
    stacks = sum(16 * b * n * d for (n, d), b in counts.items())
    # (N, D, states, readings) of the corpus's stacks and the fixed trajectories
    trajectories = [(n, d, b, max(cfg.max_steps, law_horizon(1, n)) + 1)
                    for (n, d), b in counts.items()]
    trajectories += [(n, d, 1, horizon + 1) for n, d, horizon in FIXED_TRAJECTORIES]
    audits = {}
    for n in {n for n, *_ in trajectories}:
        columns = Counter()
        for _, d, b, _ in (t for t in trajectories if t[0] == n):
            columns[d] += b
        groups = [(b, n, d) for d, b in columns.items()]
        b, _, d = _widest(groups)
        readings = max(r for m, *_, r in trajectories if m == n)
        audits[n] = _audit_bytes(groups, _chunk(readings, 16 * b * n * d))
    widest = max(d for _, d in combos)
    k2 = recurrence_steps(cfg.corpus_count, widest, cfg.max_steps)
    working = max(sum(16 * b * n * d for n, d, b, _ in trajectories) + max(audits.values()),
                  _RECURRENCE_BYTES * cfg.corpus_count * widest * (k2 + 1))
    readings = sum(b * r for *_, b, r in trajectories)
    needed = stacks + working + readings * _CORPUS_STEP_BYTES
    n = max(audits, key=audits.get)
    return Term(needed, f"corpus with the wide tables of N = {n} and {cfg.max_steps} steps",
                field)


def state_file(path: str) -> Term:
    """Reading the state file at ``path``, at ``_FILE_BYTES`` a byte of it; a path
    that cannot be read is left to the reader, which names it."""
    try:
        size = os.stat(path).st_size
    except OSError:
        size = 0
    return Term(size * _FILE_BYTES, f"state file of {size} bytes", "field 'state.path'")


def default_horizon(t: int, n_states: int) -> int:
    """A find's default last step: ceil(2*pi/theta), four periods of the law
    sin^2((2n+1)*theta), or 16 when a sector is empty."""
    if 0 < t < n_states:
        return math.ceil(2.0 * math.pi / qstate.rotation_angle(t, n_states))
    return 16


def law_horizon(t: int, n_states: int) -> int:
    """Last step of the two periods over which criterion 4 checks the law, at 0 < t."""
    return math.ceil(math.pi / qstate.rotation_angle(t, n_states)) + 1


def plan(s, cfg=None) -> list[Term]:
    """The plan of the parsed scenario ``s`` (``cfg``, a verify's battery), or of
    one sweep cell, a scenario of kind ``sweep`` holding the cell's sizes.

    A find builds its state, then holds its audit, then the audit with its
    readings; a count builds its state, then holds its circuit pass, its
    samples and its report; a sweep cell is the find of its cell, audited
    only at 0 < t < N, with the circuit pass first when P >= 4 there too.  A
    state file comes last: it is read once those fit.  t is read off the
    ``good`` spec, so no marked set is built before the plan passes."""
    if s.kind == "verify":
        kind = "field 'kind' = 'verify' (a battery of fixed sizes)"
        return [samples(cfg.majority_repetitions, kind), corpus(cfg, kind)]
    n, d = 1 << s.n_qubits, s.data_dim
    size = f"field 'n_qubits' = {s.n_qubits} (with data_dim = {d})"
    t = len(s.good["indices"]) if "indices" in s.good else s.good["t"]
    audited = s.kind == "find" or (s.kind == "sweep" and 0 < t < n)
    terms = [build(n, d, t, size)]
    if s.kind == "count" or (audited and s.kind == "sweep" and (s.p_size or 0) >= 4):
        terms.append(circuit(n, d, s.p_size, field=f"field 'P' = {s.p_size} (with n_qubits = "
                                                    f"{s.n_qubits}, data_dim = {d})"))
    if audited:
        if s.iterations is None:
            horizon = default_horizon(t, n)
            blame = (f"field 'n_qubits' = {s.n_qubits} (with data_dim = {d} and the default "
                     f"horizon at t = {t})")
        else:
            horizon, blame = s.iterations, f"field 'iterations' = {s.iterations}"
        terms += [audit(n, d, 0, size), audit(n, d, horizon + 1, blame)]
    if s.kind == "count":
        terms += [samples(s.repetitions, f"field 'repetitions' = {s.repetitions}"),
                  report(s.p_size, s.repetitions, f"field 'P' = {s.p_size} (with repetitions "
                                                  f"= {s.repetitions})")]
    if s.state["type"] == "file":
        terms.append(state_file(s.state["path"]))
    return terms
