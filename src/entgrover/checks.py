"""End-to-end verification criteria: closed forms vs the exact simulator.

Each check pits an analytic prediction against brute-force state-vector
simulation (or an independently stated bound) at a pinned tolerance and
returns a CheckResult.  The same battery backs the ``verify`` CLI command
and the acceptance test suite, so a criterion is stated exactly once.  Only
``verify`` loads this module (``harness.run_verify`` imports it when it
runs); ``find``, ``count`` and ``sweep`` never do.  The criteria that
simulate a trajectory read it through the trajectory audit (``audit``).

The battery audits its trajectories once (``build_corpus``) for criteria
1-7: the corpus and criteria 4-7's fixed trajectories in one call
(``audit.audit_trajectories``), which steps one wide table per N, each
state a column block of it.  Criterion 2 runs the recurrence once over the
whole corpus, its averages zero-padded to the widest D, and compares its
offsets with the closed form's a chunk of steps at a time, without a table.
Criterion 8 reads its kernel sums as arrays, and criterion 10 makes one
circuit pass per (N, P) over every t; ``memory`` sizes every chunk.  Every
reading stays bit for bit what the state gives alone: elementwise work, the
norms and the per-state maxima run on whole chunks or on their gathered
sectors, while sums over a state's rows are formed one state at a time over
all k steps.
The battery runs sequentially: its work is small arrays under the
interpreter lock.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analytic, audit, counting, grover, memory, qstate
from .harness import Tolerances

SIGMA_LOW = counting.SIGMA_LOWER_BOUND
AVG_THRESHOLD = math.pi**2 / (8.0 * math.sqrt(2.0))
# Criterion 7's bad-sector variances.
P_MAX_EPSILONS = (0.01, 0.05, 0.1)


@dataclass(frozen=True)
class VerifyConfig:
    """Sizes and seeds for the verification battery; defaults are the full battery."""

    corpus_count: int = 100
    n_qubits_list: tuple[int, ...] = (2, 3, 4, 6)
    data_dims: tuple[int, ...] = (1, 2, 4)
    max_steps: int = 50
    base_seed: int = 20260808
    sweep_n_qubits: tuple[int, ...] = (4, 6)
    sweep_p_sizes: tuple[int, ...] = (16, 32, 64)
    majority_repetitions: int = 101
    sigma_samples: int = 1000
    averages_cases: int = 50
    tolerances: Tolerances = field(default_factory=Tolerances)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def corpus_states(cfg: VerifyConfig) -> list[tuple[qstate.EntangledState, qstate.GoodSet]]:
    """Seeded corpus of random entangled states with random marked sets."""
    combos = [(nq, d) for nq in cfg.n_qubits_list for d in cfg.data_dims]
    out = []
    for i in range(cfg.corpus_count):
        nq, d = combos[i % len(combos)]
        n = 1 << nq
        memory.check([memory.table(n, d)])
        rng = np.random.default_rng(cfg.base_seed + i)
        t = int(rng.integers(1, n))
        table = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        state = qstate.from_amplitudes(table, renormalize=True)
        good = qstate.random_good_set(n, t, seed=cfg.base_seed + 100_000 + i)
        out.append((state, good))
    return out


@dataclass(frozen=True)
class Corpus:
    """The battery's trajectories, audited once for criteria 1-7: ``stacks``
    holds the corpus's (B, N, D) initial tables, (B, N) marked-row masks and B
    moment summaries of each table shape, ``audits`` one audit per corpus
    state, in corpus order, and ``fixed`` the audits of criteria 4-7's fixed
    trajectories (``_fixed_trajectories``), by criterion."""

    stacks: tuple[tuple[np.ndarray, np.ndarray, tuple[qstate.MomentSummary, ...]], ...]
    audits: tuple[audit.TrajectoryAudit, ...]
    fixed: dict[str, tuple[audit.TrajectoryAudit, ...]]


def build_corpus(cfg: VerifyConfig) -> Corpus:
    """Audit the corpus, each state to its own horizon, and criteria 4-7's fixed
    trajectories in one call: the states of each N step as one wide table."""
    states = corpus_states(cfg)
    ms = [qstate.moments(*case) for case in states]
    cases = [(state, good, m, max(cfg.max_steps, memory.law_horizon(m.t, m.n_states)))
             for (state, good), m in zip(states, ms)]
    fixed = _fixed_trajectories(cfg)
    audits = audit.audit_trajectories(cases + [case for named in fixed.values() for case in named])
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (state, _) in enumerate(states):
        groups.setdefault(state.coeffs.shape, []).append(i)
    stacks = tuple((np.stack([states[i][0].coeffs for i in idx]),
                    np.stack([states[i][1].mask(states[i][0].n_states) for i in idx]),
                    tuple(ms[i] for i in idx)) for idx in groups.values())
    rest = iter(audits[len(cases):])
    return Corpus(stacks, tuple(audits[: len(cases)]),
                  {name: tuple(itertools.islice(rest, len(named)))
                   for name, named in fixed.items()})


def _fixed_trajectories(cfg: VerifyConfig) -> dict[str, list[tuple]]:
    """Criteria 4-7's trajectories, by criterion, each as (state, good, moments,
    last step audited): criterion 4's N = 4 control, criterion 5's four flat
    states over two periods of the law, criterion 6's two one-to-one states
    and its fine-tuned zero-mean state over 30 steps, and criterion 7's three
    states of set bad-sector variance to their best integer times.
    ``memory.FIXED_TRAJECTORIES`` charges their shapes."""
    def case(state, good, horizon=None):
        m = qstate.moments(state, good)
        if horizon is None:
            horizon = analytic.best_integer_time(analytic.oscillation_params(m))
        return state, good, m, horizon

    flats = [(qstate.new_flat(nq, 1), qstate.GoodSet(tuple(range(t))))
             for nq, t in ((2, 1), (3, 1), (4, 3), (6, 1))]
    # marked rows all zero, unmarked rows zero-mean: the iteration never
    # moves any mass onto the marked sector
    fine_tuned = np.array([[0.0], [0.0], [math.sqrt(2.0)], [-math.sqrt(2.0)]],
                          dtype=np.complex128)
    return {
        "probability_law": [case(qstate.new_flat(2, 1), qstate.GoodSet((0,)), 6)],
        "grover_reduction": [case(flat, good, memory.law_horizon(good.t, flat.n_states))
                             for flat, good in flats],
        "degenerate_cases": [
            *(case(qstate.from_amplitudes(np.eye(1 << nq, dtype=np.complex128)),
                   qstate.GoodSet(tuple(range(t))), 30) for nq, t in ((2, 1), (3, 3))),
            case(qstate.from_amplitudes(fine_tuned), qstate.GoodSet((0, 1)), 30),
        ],
        "p_max_claim": [case(*_state_with_bad_variance(eps, seed=cfg.base_seed + 777 + i))
                        for i, eps in enumerate(P_MAX_EPSILONS)],
    }


def check_closed_form_fidelity(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """Predicted rows equal simulated rows, amplitude by amplitude, for n up to max_steps."""
    tol = cfg.tolerances.amplitude
    worst = max([0.0, *(max(a.amp_dev[: cfg.max_steps + 1]) for a in corpus.audits)])
    return CheckResult("closed_form_fidelity", worst < tol, worst, tol)


def check_recurrence_consistency(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """The two-block recurrence's offsets -(2/N) X_n and -(2/N) Y_n equal the
    closed form's marked and unmarked offsets, for n up to max_steps.  One
    recurrence pass runs over the whole corpus, its averages zero-padded to
    the widest D, and is compared a chunk of steps at a time
    (``memory.recurrence_steps``), each state with its own bits."""
    tol = cfg.tolerances.amplitude
    worst = 0.0
    ms = [m for _, _, stack in corpus.stacks for m in stack]
    if ms and cfg.max_steps:
        scale = np.array([[-2.0 / m.n_states] for m in ms])
        steps = analytic.recurrence_sequence(ms, cfg.max_steps)
        widest = max(c0.shape[2] for c0, _, _ in corpus.stacks)
        k = memory.recurrence_steps(len(ms), widest, cfg.max_steps)
        for n0 in range(1, cfg.max_steps + 1, k):
            size = min(k, cfg.max_steps + 1 - n0)
            xy = np.array([(x, y) for _, x, y in itertools.islice(steps, size)])
            offsets = analytic._closed_form_offsets(ms, n0, size)
            for z, offset in zip(np.moveaxis(xy, 1, 0), offsets):  # X_n, then Y_n
                with grover.small_buffer():  # z is strided and scale broadcast
                    dev = np.abs(scale * z - offset)
                worst = max(worst, float(np.max(dev)))
    return CheckResult("recurrence_consistency", worst < tol, worst, tol)


def check_variance_conservation(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """Sector variances of the iterated rows never drift from their initial values."""
    tol = cfg.tolerances.probability
    worst = max([0.0, *(max(a.var_drift[: cfg.max_steps + 1]) for a in corpus.audits)])
    return CheckResult("variance_conservation", worst < tol, worst, tol)


def check_probability_law(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """The damped-cosine law tracks simulation over two periods; the N-scaled
    coefficient variant must demonstrably fail on the uniform N=4 case."""
    tol = cfg.tolerances.probability
    worst = 0.0
    for a in corpus.audits:
        p = analytic.oscillation_params(a.moments)
        for n in range(memory.law_horizon(a.moments.t, a.moments.n_states) + 1):
            worst = max(worst, abs(analytic.success_probability(p, n) - a.p_sim[n]))

    # negative control: coefficients scaled by N/2 and N overshoot immediately
    (control,) = corpus.fixed["probability_law"]
    m = control.moments
    n_big = m.n_states
    cos2 = math.cos(m.theta) ** 2
    tan2 = math.tan(m.theta) ** 2
    dp_scaled = (n_big / 2.0) * cos2 * (m.b_norm2 + tan2 * m.g_norm2)
    pav_scaled = 1.0 - dp_scaled - n_big * m.var_b * cos2
    control_dev = 0.0
    for n, p_sim in enumerate(control.p_sim):
        scaled = pav_scaled - dp_scaled * math.cos(2.0 * (2.0 * n * m.theta + m.theta))
        control_dev = max(control_dev, abs(scaled - p_sim))
    passed = worst < tol and control_dev > 0.5
    return CheckResult(
        "probability_law",
        passed,
        worst,
        tol,
        detail=f"N-scaled control deviates by {control_dev:.3f} (must exceed 0.5)",
    )


def check_grover_reduction(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """Uniform states give P(n) = sin^2((2n+1) theta); N=4, t=1 peaks at n0 = 1."""
    tol = 1e-12
    worst = 0.0
    for a in corpus.fixed["grover_reduction"]:
        m = a.moments
        p = analytic.oscillation_params(m)
        for n, p_sim in enumerate(a.p_sim):
            expected = math.sin((2 * n + 1) * m.theta) ** 2
            worst = max(
                worst,
                abs(analytic.success_probability(p, n) - expected),
                abs(p_sim - expected),
            )
    # the first flat state is N=4, t=1
    p = analytic.oscillation_params(corpus.fixed["grover_reduction"][0].moments)
    worst = max(worst, abs(analytic.success_probability(p, 1) - 1.0))
    worst = max(worst, abs(analytic.optimal_times(p, 0) - 1.0))
    return CheckResult("grover_reduction", worst < tol, worst, tol)


def check_degenerate_cases(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """One-to-one data maps give constant P = t/N; the fine-tuned zero-mean
    construction gives P identically zero."""
    tol = cfg.tolerances.probability
    worst = 0.0
    *one_to_one, fine_tuned = corpus.fixed["degenerate_cases"]
    for a in one_to_one:
        m = a.moments
        p = analytic.oscillation_params(m)
        if not p.degenerate:
            return CheckResult(
                "degenerate_cases", False, math.inf, tol, detail="one-to-one not flagged"
            )
        for n, p_sim in enumerate(a.p_sim):
            worst = max(worst, abs(p_sim - m.t / m.n_states))
            worst = max(worst, abs(analytic.success_probability(p, n) - m.t / m.n_states))

    p = analytic.oscillation_params(fine_tuned.moments)
    worst = max(worst, abs(analytic.success_probability(p, 0) - 0.0))
    worst = max(worst, *fine_tuned.p_sim)
    return CheckResult("degenerate_cases", worst < tol, worst, tol)


def _state_with_bad_variance(epsilon: float, seed: int) -> tuple[qstate.EntangledState, qstate.GoodSet]:
    """N=16, t=4 state with var_b*cos^2(theta) = epsilon and undamped oscillation."""
    nq, t = 4, 4
    n_big = 1 << nq
    sin2 = t / n_big
    cos2 = 1.0 - sin2
    var_g = 0.2
    b2 = 0.81
    var_b = epsilon / cos2
    g2 = (1.0 - epsilon - cos2 * b2 - sin2 * var_g) / sin2
    if g2 <= 0:
        raise ValueError("infeasible epsilon")
    good = qstate.GoodSet(tuple(range(t)))
    state = qstate.random_with_moments(
        nq, 1, good, var_g, var_b, [math.sqrt(g2)], [math.sqrt(b2)], seed=seed
    )
    return state, good


def check_p_max_claim(cfg: VerifyConfig, corpus: Corpus) -> CheckResult:
    """With bad-sector variance epsilon (and no damping) the peak probability is 1 - epsilon;
    each of the three states is audited to its best integer time."""
    tol = 1e-6
    audits = corpus.fixed["p_max_claim"]
    params = [analytic.oscillation_params(a.moments) for a in audits]
    worst = max(abs(analytic.p_max(p) - (1.0 - eps)) for p, eps in zip(params, P_MAX_EPSILONS))
    sim_dev = max(abs(a.p_sim[-1] - analytic.success_probability(p, len(a.p_sim) - 1))
                  for a, p in zip(audits, params))
    passed = worst < tol and sim_dev < cfg.tolerances.probability
    return CheckResult(
        "p_max_claim",
        passed,
        worst,
        tol,
        detail=f"simulated P at best integer time within {sim_dev:.2e} of analytic",
    )


def check_counting_window(cfg: VerifyConfig) -> CheckResult:
    """Window formula equals circuit mass on the uniform N=16, t=4, P=16 case and
    exceeds 1/2; all three kernel sums stay in (8/pi^2, 1].

    The sums are read at ``sigma_samples`` random (P, f) per case, drawn as
    arrays from one seeded generator a chunk at a time (``memory.kernel_samples``),
    and the ten squared kernels of a sample are array operations
    (``counting.kernel_s2``)."""
    tol = cfg.tolerances.probability
    flat = qstate.new_flat(4, 1)
    good = qstate.GoodSet((0, 1, 2, 3))
    pred = counting.window_probability(qstate.moments(flat, good), 16)
    dist = counting.circuit_distribution(flat, good, 16)
    circuit_mass = float(sum(dist[m] for m in pred.outcomes))
    worst = abs(pred.mass - circuit_mass)
    ok = (
        pred.outcomes == (2, 3, 13, 14)
        and pred.mass > 0.5
        and worst < tol
    )

    rng = np.random.default_rng(cfg.base_seed + 55)
    per_chunk = memory.kernel_samples(cfg.sigma_samples)
    sigma_ok = True
    for lo in range(0, cfg.sigma_samples, per_chunk):
        sigma_ok &= _kernel_sums_hold(rng, min(per_chunk, cfg.sigma_samples - lo))
    return CheckResult(
        "counting_window",
        ok and sigma_ok,
        worst,
        tol,
        detail=f"W1={pred.mass:.6f} on {pred.outcomes}; kernel-sum bounds "
        f"{'held' if sigma_ok else 'VIOLATED'} over {cfg.sigma_samples} samples/case",
    )


def _kernel_sums_hold(rng: np.random.Generator, size: int) -> bool:
    """Draw ``size`` samples of (P, f) for each case and read whether every sample's
    kernel sum lies in (SIGMA_LOW, 1], from an (offsets, samples) array of outcomes."""
    p_size = rng.choice((8, 16, 32, 64), size=size)
    half = p_size // 2
    f_int = rng.uniform(1.0, half - 1.0)
    f_low = rng.uniform(1e-6, 1.0 - 1e-6, size=size)
    f_high = rng.uniform(half - 1.0 + 1e-6, half - 1e-6)
    lo = np.floor(f_int)
    sums = [
        np.sum(counting.kernel_s2(np.array(outcomes), f, p_size), axis=0)
        for outcomes, f in (
            ((lo, lo + 1, p_size - lo - 1, p_size - lo), f_int),
            ((np.zeros_like(p_size), np.ones_like(p_size), p_size - 1), f_low),
            ((half, half - 1, half + 1), f_high),
        )
    ]
    return all(bool(np.all((SIGMA_LOW < s) & (s <= 1.0 + 1e-12))) for s in sums)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def check_sufficient_averages(cfg: VerifyConfig) -> CheckResult:
    """Sector averages both above pi^2/(8*sqrt(2)) guarantee window mass above 1/2."""
    rng = np.random.default_rng(cfg.base_seed + 99)
    min_w = 1.0
    for _ in range(cfg.averages_cases):
        nq = int(rng.choice((3, 4, 5)))
        n_big = 1 << nq
        d = int(rng.integers(1, 5))
        t = int(rng.integers(1, n_big - 1))
        p_size = int(rng.choice((8, 16, 32)))
        # both norms below 1 keep the variance budget positive for every t
        b2 = rng.uniform(AVG_THRESHOLD + 0.005, 0.95)
        g2 = rng.uniform(b2 + 1e-6, 0.99)
        sin2 = t / n_big
        cos2 = 1.0 - sin2
        budget = 1.0 - sin2 * g2 - cos2 * b2
        share = 0.0 if t == 1 else (1.0 if n_big - t == 1 else rng.uniform(0.0, 1.0))
        var_g = share * budget / sin2
        var_b = (1.0 - share) * budget / cos2
        good = qstate.random_good_set(n_big, t, seed=int(rng.integers(1 << 31)))
        state = qstate.random_with_moments(
            nq,
            d,
            good,
            var_g,
            var_b,
            math.sqrt(g2) * _random_unit(rng, d),
            math.sqrt(b2) * _random_unit(rng, d),
            seed=int(rng.integers(1 << 31)),
        )
        m = qstate.moments(state, good)
        if not (m.g_norm2 >= m.b_norm2 > AVG_THRESHOLD):
            return CheckResult(
                "sufficient_averages", False, math.inf, 0.5, detail="generator missed targets"
            )
        pred = counting.window_probability(m, p_size)
        min_w = min(min_w, pred.mass)
    return CheckResult(
        "sufficient_averages",
        min_w > 0.5,
        min_w,
        0.5,
        detail=f"minimum window mass over {cfg.averages_cases} cases",
    )


def check_estimator_bound(cfg: VerifyConfig) -> CheckResult:
    """Every window outcome decodes within the stated error bound; the majority
    of 101 samples lands in the window whenever its mass exceeds 1/2.

    Cell c of the (N, t, P) grid, in that order, samples with seed base_seed + c.
    One circuit pass per (N, P) covers every t: the flat tables marked 1 .. N/4
    are stacked (``counting.circuit_distributions``) a chunk at a time
    (``memory.circuit_tables`` at the largest P), and each cell gets its
    distribution and moments through ``counting.run_count(dist=, m=)``."""
    worst_slack = -math.inf
    majority_ok = True
    cells = 0
    n_p = len(cfg.sweep_p_sizes)
    for nq in cfg.sweep_n_qubits:
        n_big = 1 << nq
        flat = qstate.new_flat(nq, 1)
        per_chunk = memory.circuit_tables(n_big, 1, max(cfg.sweep_p_sizes), n_big // 4)
        for lo in range(1, n_big // 4 + 1, per_chunk):
            ts = range(lo, min(lo + per_chunk, n_big // 4 + 1))
            goods = [qstate.GoodSet(tuple(range(t))) for t in ts]
            ms = [qstate.moments(flat, good) for good in goods]
            for j, p_size in enumerate(cfg.sweep_p_sizes):
                dists = counting.circuit_distributions([(flat, good) for good in goods], p_size)
                for t, good, m, dist in zip(ts, goods, ms, dists):
                    report = counting.run_count(
                        flat,
                        good,
                        p_size,
                        repetitions=cfg.majority_repetitions,
                        seed=cfg.base_seed + cells + (t - 1) * n_p + j + 1,
                        dist=dist,
                        m=m,
                    )
                    for outcome in report.window:
                        est = counting.estimate_from_outcome(outcome, p_size, n_big)
                        worst_slack = max(worst_slack, abs(est.t_tilde - t) - report.bound)
                    if report.w_predicted > 0.5 and (
                        report.majority_m not in report.window or report.w_empirical <= 0.5
                    ):
                        majority_ok = False
        cells += n_big // 4 * n_p
    return CheckResult(
        "estimator_bound",
        worst_slack <= 0.0 and majority_ok,
        worst_slack,
        0.0,
        detail=f"max (|t~-t| - bound) over {cells} cells; majority rule "
        f"{'held' if majority_ok else 'FAILED'}",
    )


def check_determinism(cfg: VerifyConfig) -> CheckResult:
    """The reduced battery, run three times, serializes identically each time."""
    small = replace(
        cfg,
        corpus_count=8,
        max_steps=10,
        sweep_n_qubits=(4,),
        sweep_p_sizes=(16,),
        sigma_samples=50,
        averages_cases=8,
    )
    blobs = []
    for _ in range(3):
        results = run_checks(small, include_determinism=False)
        blobs.append(json.dumps([asdict(r) for r in results], sort_keys=True))
    passed = blobs[0] == blobs[1] == blobs[2]
    return CheckResult(
        "determinism",
        passed,
        0.0 if passed else math.inf,
        0.0,
        detail="reduced battery, 3 runs, byte-compared",
    )


CHECKS = (
    check_closed_form_fidelity,
    check_recurrence_consistency,
    check_variance_conservation,
    check_probability_law,
    check_grover_reduction,
    check_degenerate_cases,
    check_p_max_claim,
    check_counting_window,
    check_sufficient_averages,
    check_estimator_bound,
)


def run_checks(cfg: VerifyConfig, include_determinism: bool = True) -> list[CheckResult]:
    """Run the battery in declaration order; criteria 1-7 read one shared corpus."""
    corpus = build_corpus(cfg)
    results = [fn(cfg, corpus) for fn in CHECKS[:7]] + [fn(cfg) for fn in CHECKS[7:]]
    if include_determinism:
        results.append(check_determinism(cfg))
    return results
