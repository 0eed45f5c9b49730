"""Counting marked items by phase estimation over the amplification operator.

A P-outcome ancilla register (P a power of two) is prepared uniform, each
branch |m> applies m amplification steps to the entangled search state, and
a Fourier transform over the ancilla concentrates probability near the two
spectral lines m = +-f, where f = P*theta/pi encodes the marked count t
through sin^2(theta) = t/N.  The transform has positive phases and
unitary scaling, so it is numpy's inverse FFT, ``np.fft.ifft(...,
norm="ortho")``, along the ancilla axis.  Measuring the ancilla and inverting
t~ = N*sin^2(pi*f~/P) estimates t within a bound that shrinks as 1/P.

The step here is the inversion about the average, x_{m+1}(a) =
2*mu_m - s_a*x_m(a) with s_a = -1 on marked rows, taken in place on a copy
of the table sorted by sector, marked rows first: the reflection reads only
the column mean, so it commutes with the sort, and s_a negates a leading
slice.  One kernel, ``_doubled_means``, takes every step, on a (B, N, D)
stack of such tables with table b's first t_b rows marked: three ufunc calls
a step, each elementwise per (table, column) or a sum over one table's rows,
so every table gets the bits it gets alone.  ``circuit_distributions``
simulates the circuit for a stack of same-shape (state, marked set) pairs
without holding a P x N x D amplitude tensor: every branch is +-x_0(a) plus
one offset per sector, so one pass keeps each table's P x D doubled means,
and the transforms of its two offset sequences give its distribution in
O(P*D).  ``circuit_distribution`` is the stack of one, and criterion 10 of
the battery stacks every t of an (N, P) cell grid.  ``build_count_state``
still builds the whole tensor, one kernel step at a time; it is the referee
the tests hold the circuit to.  A pass, the samples and the tensor are each
checked against the memory cap by their term of the memory plan
(``memory.circuit``, ``memory.samples``, ``memory.table``).

The probability mass captured by the peak window admits exact closed
forms built from the Dirichlet-style kernel

    s(x) = sin(pi*x) / (P*sin(pi*x/P)),

evaluated at the window offsets.  Window endpoints for non-integer f are
taken as floor(f) and floor(f)+1 (the two straddling ancilla outcomes) and
their mirror images P - floor(f) - 1, P - floor(f); integer f concentrates
on the exact pair {f, P-f}.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import memory
from .analytic import DegenerateCaseError
from .grover import small_buffer
from .qstate import EntangledState, GoodSet, MomentSummary, _norm_sq, _squares, moments

SIGMA_LOWER_BOUND = 8.0 / math.pi**2


def circuit_distribution(state: EntangledState, good: GoodSet, p_size: int) -> np.ndarray:
    """Ancilla distribution of the counting circuit: ``circuit_distributions``' stack of one."""
    return circuit_distributions([(state, good)], p_size)[0]


def circuit_distributions(
    cases: list[tuple[EntangledState, GoodSet]], p_size: int
) -> list[np.ndarray]:
    """Ancilla distributions of the counting circuit for same-shape (state, marked set)
    pairs, from the simulated column means of one pass over their stacked tables.

    The pass steps a stack of sector-sorted copies of the tables P - 1 times in
    place (``_doubled_means``) and keeps each table's doubled column means 2*mu_m.
    Branch m then holds x_0(a) + G_m on marked rows and (-1)^m*x_0(a) + B_m on
    unmarked rows, with offsets G_{m+1} = G_m + 2*mu_m and B_{m+1} = 2*mu_m - B_m
    from zero.  With g and b their transforms, outcome k has
    (t*|g_k|^2 + (N - t)*|b_k|^2) / (P*N), save that x_0 adds sqrt(P)*x_0(a) to the
    marked rows' g_0 and to the unmarked rows' b_{P/2} (``_spectrum``, from sector
    sums read before the pass): the tensor's distribution to last-place rounding.
    Every pair gets the bits it gets alone.

    The memory cap applies to the working set of the whole stack
    (``memory.circuit``), the tensor's norm gate to each total.
    """
    if p_size < 1 or p_size & (p_size - 1) != 0:
        raise ValueError(f"ancilla size must be a power of two, got {p_size}")
    n, d = cases[0][0].coeffs.shape
    memory.check([memory.circuit(n, d, p_size, len(cases))])
    cur = np.empty((len(cases), n, d), dtype=np.complex128)
    for i, (state, good) in enumerate(cases):
        np.take(state.coeffs, _sector_order(good.mask(n)), axis=0, out=cur[i], mode="clip")
    ts = [good.t for _, good in cases]
    sectors = [[(len(x), np.add.reduce(x, 0), np.vdot(x, x).real) for x in (c[:t], c[t:])]
               for c, t in zip(cur, ts)]
    two_mu = _doubled_means(cur, ts, p_size - 1)
    del cur  # the transforms run without the tables (memory.circuit)
    dists = []
    for i, sector in enumerate(sectors):
        dist = _spectrum(_offset_transforms(two_mu[i]), sector)
        dist /= p_size * n
        total = float(np.sum(dist))
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"total squared norm must be 1 within 1e-9, got {total!r}")
        dists.append(dist)
    return dists


def _sector_order(gmask: np.ndarray) -> np.ndarray:
    """Row order of the sector-sorted table: the marked rows first, each sector in row order."""
    return np.argsort(~gmask, kind="stable")


def _doubled_means(cur: np.ndarray, t, steps: int) -> np.ndarray:
    """2*mu_m for m < ``steps``, stepping in place a (B, N, D) stack of tables whose
    first t_b rows of table b are marked: a (B, steps, D) array, each table's means
    contiguous.  An (N, D) table with an int ``t`` is the stack of one, and gives
    (steps, D).

    A step is three ufunc calls: the leading max(t) rows negated on the float64 view
    (through a ``where=`` mask when the t differ), the column sums times 2/N (exact, N
    being a power of two) into the step's slot, and the subtraction in place.  Each is
    elementwise per (state, column) or a sum over one state's rows, so every state
    gets the bits it gets alone.  Nothing the size of a table is allocated.  The loop
    runs in a small ufunc buffer, for the broadcast subtract at D > 1; the column sums
    are unbuffered and keep the default buffer's bits (checked at N up to 2^15, D
    from 1 to 64)."""
    stack = cur if cur.ndim == 3 else cur[None]
    ts = np.atleast_1d(t)
    b, n, d = stack.shape
    head = stack[:, : int(ts.max())].view(np.float64)
    marked = True
    if np.any(ts != ts[0]):
        # filled row by row: a broadcast comparison would take a ufunc buffer of
        # up to 128 KiB, which memory.circuit does not charge
        marked = np.zeros((b, head.shape[1], 1), dtype=bool)
        for row, t_b in zip(marked, ts):
            row[:t_b] = True
    scale = 2.0 / n
    two_mu = np.empty((b, steps, d), dtype=np.complex128)
    with small_buffer():
        for m in range(steps):
            slot = two_mu[:, m : m + 1]
            np.negative(head, out=head, where=marked)
            np.multiply(np.add.reduce(stack, 1, keepdims=True), scale, out=slot)
            np.subtract(slot, stack, out=stack)
    return two_mu if cur.ndim == 3 else two_mu[0]


def _offset_transforms(two_mu: np.ndarray) -> np.ndarray:
    """Transforms of the offsets G_m and B_m over the P branches, from the P - 1 doubled means."""
    steps, d = two_mu.shape
    # B_m = (-1)^(m-1) * sum_{j<m} (-1)^j * 2*mu_j has the recurrence's bits:
    # negation commutes with rounding.
    alt = np.where(np.arange(steps) % 2, -1.0, 1.0)[:, None]
    offsets = np.zeros((2, steps + 1, d), dtype=np.complex128)
    np.cumsum(two_mu, axis=0, out=offsets[0, 1:])
    np.multiply(alt, two_mu, out=offsets[1, 1:])
    np.cumsum(offsets[1, 1:], axis=0, out=offsets[1, 1:])
    offsets[1, 1:] *= alt
    del alt
    return np.fft.ifft(offsets, axis=1, norm="ortho")


def _spectrum(lines: np.ndarray, sectors: list) -> np.ndarray:
    """P*N times the distribution, from the transforms l of the offsets and each sector's
    (rows r, sum S, squared norm M): r*|l_k|^2, and at the sector's line k (0, then P/2)
    P*M + 2*sqrt(P)*Re<S, l_k> more, which sum_a ||sqrt(P)*x_0(a) + l_k||^2 adds."""
    p_size = lines.shape[1]
    out = np.zeros(p_size)
    for k, line, (rows, total, norm2) in zip((0, p_size // 2), lines, sectors):
        out += rows * np.sum(_squares(line), axis=1)
        out[k] += p_size * norm2 + 2.0 * math.sqrt(p_size) * np.vdot(total, line[k]).real
    return out


@dataclass(frozen=True)
class CountState:
    """Joint ancilla x search x data amplitude tensor, physically normalized.

    No runner builds it: it is the tensor referee that the tests hold
    ``circuit_distribution`` to; it steps through the circuit's own kernel
    (``_doubled_means``), and the tests write the step out once more on their
    own.  It stays in the package, with
    ``build_count_state`` and ``ancilla_distribution``, only because the
    benchmark's tracer (``perfbench/tracer.py``) rebinds those names; the
    three move to ``tests/conftest.py`` once the tracer no longer does.
    """

    p_size: int
    n_qubits: int
    data_dim: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.p_size < 1 or self.p_size & (self.p_size - 1) != 0:
            raise ValueError(f"ancilla size must be a power of two, got {self.p_size}")
        a = np.array(self.amps, dtype=np.complex128, copy=True)
        if a.shape != (self.p_size, self.n_states, self.data_dim):
            raise ValueError(
                f"amplitude tensor must be {self.p_size}x{self.n_states}x{self.data_dim}, "
                f"got {a.shape}"
            )
        total = _norm_sq(a)
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"total squared norm must be 1 within 1e-9, got {total!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits


def build_count_state(state: EntangledState, good: GoodSet, p_size: int) -> CountState:
    """The counting circuit's whole P x N x D tensor: the referee, not a runner path.

    Branch m holds (1/sqrt(P)) times the m-times-amplified state; powers are
    computed incrementally in one sector-sorted table, P - 1 single steps of
    the circuit's kernel ``_doubled_means``, and scattered back to row order.  The
    ancilla transform is numpy's FFT along axis 0.  Runners call
    ``circuit_distribution``, which reads the same distribution off the
    column means; see ``CountState`` for why this stays in the package.
    """
    if p_size < 1 or p_size & (p_size - 1) != 0:
        raise ValueError(f"ancilla size must be a power of two, got {p_size}")
    n, d = state.n_states, state.data_dim
    memory.check([memory.table(p_size * n, d)])
    order = _sector_order(good.mask(n))
    cur = state.coeffs[order]
    amps = np.empty((p_size, n, d), dtype=np.complex128)
    scale = 1.0 / math.sqrt(p_size * n)  # physical rows carry 1/sqrt(N) as well
    for m in range(p_size):
        amps[m, order] = cur * scale
        if m + 1 < p_size:
            _doubled_means(cur, good.t, 1)
    amps = np.fft.ifft(amps, axis=0, norm="ortho")
    return CountState(p_size, state.n_qubits, d, amps)


def ancilla_distribution(cs: CountState) -> np.ndarray:
    """Measurement distribution of the ancilla register of a referee tensor; sums to 1."""
    return np.sum(_squares(cs.amps), axis=(1, 2))


def kernel_s(m: int, f: float, p_size: int, sign: int = 1) -> float:
    """Peak envelope s(m +- f) = sin(pi*(m+-f)) / (P*sin(pi*(m+-f)/P)).

    The singularities at (m +- f) = 0 mod P are removable; the continuous
    extension is +1 at 0 and, for even P, alternates sign at successive
    multiples of P (only its square matters downstream).
    """
    if p_size < 2:
        raise ValueError(f"kernel needs P >= 2, got {p_size}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = m + sign * f
    k = round(x / p_size)
    if abs(x - k * p_size) < 1e-12:
        return float((-1) ** (k * (p_size - 1)))
    return math.sin(math.pi * x) / (p_size * math.sin(math.pi * x / p_size))


def kernel_s2(m: np.ndarray, f: np.ndarray, p_size: np.ndarray) -> np.ndarray:
    """kernel_s(m, f, P)**2 elementwise over broadcast arrays: 1 at the removable
    singularities, where m + f is within 1e-12 of a multiple of P, as ``kernel_s``
    decides them; numpy's sine may differ from ``math.sin`` in the last place."""
    x = m + f
    singular = np.abs(x - np.round(x / p_size) * p_size) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(np.pi * x) / (p_size * np.sin(np.pi * x / p_size))
    return np.where(singular, 1.0, np.square(s))


@dataclass(frozen=True)
class WindowPrediction:
    """Closed-form probability that the ancilla lands in the peak window."""

    case: str  # interior | low | high | exact
    mass: float
    outcomes: tuple[int, ...]
    sigma: float
    f: float


def window_probability(m: MomentSummary, p_size: int) -> WindowPrediction:
    """Exact peak-window mass from the initial moments, by case of f = P*theta/pi.

    interior (1 < f < P/2-1): outcomes {floor(f), floor(f)+1} and mirrors,
        mass = [sin^2 <G|G> + cos^2 <B|B>] * Sigma_1;
    low (0 < f < 1): outcomes {0, 1, P-1},
        mass = {N_1 + N[(Sigma_2 - 1) sin^2 <G|G> + Sigma_2 cos^2 <B|B>]} / N;
    high (P/2-1 < f < P/2): outcomes {P/2 - 1, P/2, P/2 + 1},
        mass = 1 - {N_1 - N[Sigma_3 sin^2 <G|G> + (Sigma_3 - 1) cos^2 <B|B>]} / N;
    exact (integer f): outcomes {f, P-f} capture the full oscillating mass.

    Each Sigma is the sum of squared s-kernels over the case's offsets and
    lies in (8/pi^2, 1].  Requires P >= 4 so the three windows have distinct
    outcomes; smaller P is still simulable through circuit_distribution.
    """
    if not 0 < m.t < m.n_states:
        raise DegenerateCaseError(f"need 0 < t < N, got t={m.t}, N={m.n_states}")
    if p_size < 4 or p_size & (p_size - 1) != 0:
        raise ValueError(f"window analysis needs P a power of two >= 4, got {p_size}")
    theta = m.theta
    f = p_size * theta / math.pi
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    mix = sin2 * m.g_norm2 + cos2 * m.b_norm2
    n = m.n_states
    half = p_size // 2

    def s2(outcome: int) -> float:
        return kernel_s(outcome, f, p_size, +1) ** 2

    f_int = round(f)
    if abs(f - f_int) < 1e-9 and 0 < f_int < half:
        sigma = kernel_s(f_int, f, p_size, -1) ** 2 + s2(f_int)
        outcomes = tuple(sorted({f_int, p_size - f_int}))
        return WindowPrediction(case="exact", mass=mix * sigma, outcomes=outcomes, sigma=sigma, f=f)
    if f < 1.0:
        sigma = s2(0) + s2(1) + s2(p_size - 1)
        mass = (m.n_good_mass + n * ((sigma - 1.0) * sin2 * m.g_norm2 + sigma * cos2 * m.b_norm2)) / n
        return WindowPrediction(
            case="low", mass=mass, outcomes=(0, 1, p_size - 1), sigma=sigma, f=f
        )
    if f > half - 1.0:
        sigma = s2(half) + s2(half - 1) + s2(half + 1)
        mass = 1.0 - (
            m.n_good_mass - n * (sigma * sin2 * m.g_norm2 + (sigma - 1.0) * cos2 * m.b_norm2)
        ) / n
        return WindowPrediction(
            case="high", mass=mass, outcomes=(half - 1, half, half + 1), sigma=sigma, f=f
        )
    f_lo = math.floor(f)
    f_hi = f_lo + 1
    sigma = s2(f_hi) + s2(f_lo) + s2(p_size - f_hi) + s2(p_size - f_lo)
    outcomes = (f_lo, f_hi, p_size - f_hi, p_size - f_lo)
    return WindowPrediction(case="interior", mass=mix * sigma, outcomes=outcomes, sigma=sigma, f=f)


@dataclass(frozen=True)
class CountEstimate:
    """t estimate decoded from one ancilla outcome."""

    measured_m: int
    f_tilde: float
    theta_tilde: float
    t_tilde: float
    error_bound: float
    case_label: str

    def __post_init__(self) -> None:
        if self.f_tilde < 0:
            raise ValueError("f_tilde must be >= 0")
        if not 0 <= self.t_tilde:
            raise ValueError("t_tilde must be >= 0")


def error_bound(t: float, p_size: int, n_states: int) -> float:
    """Worst-case |t~ - t| for a window outcome: pi*N*(pi/P + 2*sqrt(t/N))/P."""
    if p_size < 2:
        raise ValueError(f"bound needs P >= 2, got {p_size}")
    if not 0 <= t <= n_states:
        raise ValueError(f"need 0 <= t <= N, got t={t}, N={n_states}")
    return math.pi * n_states * (math.pi / p_size + 2.0 * math.sqrt(t / n_states)) / p_size


def estimate_from_outcome(measured_m: int, p_size: int, n_states: int) -> CountEstimate:
    """Decode an ancilla outcome: fold by the spectrum symmetry, invert theta = pi*f/P.

    The attached error bound is evaluated at the estimate itself (the true t
    is unknown to the estimator); the decoded f~ is an integer, so the case
    label uses f~ <= 1 for low, f~ >= P/2 - 1 for high, interior otherwise.
    """
    if not 0 <= measured_m < p_size:
        raise ValueError(f"outcome must lie in [0, {p_size}), got {measured_m}")
    f_tilde = float(measured_m if measured_m <= p_size / 2 else p_size - measured_m)
    theta_tilde = math.pi * f_tilde / p_size
    t_tilde = n_states * math.sin(theta_tilde) ** 2
    if f_tilde <= 1.0:
        label = "low"
    elif f_tilde >= p_size / 2 - 1.0:
        label = "high"
    else:
        label = "interior"
    return CountEstimate(
        measured_m=measured_m,
        f_tilde=f_tilde,
        theta_tilde=theta_tilde,
        t_tilde=t_tilde,
        error_bound=error_bound(t_tilde, p_size, n_states),
        case_label=label,
    )


@dataclass(frozen=True)
class CountReport:
    """Outcome of one counting experiment: prediction, samples, estimate, bound check."""

    p_size: int
    n_states: int
    t_true: int
    case: str
    w_predicted: float | None
    w_empirical: float
    window: tuple[int, ...]
    seed: int
    outcomes: tuple[int, ...]
    majority_m: int
    majority_t: float
    bound: float
    bound_satisfied: bool

    def to_json_obj(self) -> dict:
        return {
            "P": self.p_size,
            "N": self.n_states,
            "t_true": self.t_true,
            "case": self.case,
            "W_predicted": self.w_predicted,
            "W_empirical": self.w_empirical,
            "window": list(self.window),
            "seed": self.seed,
            "outcomes": list(self.outcomes),
            "majority_m": self.majority_m,
            "majority_t": self.majority_t,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
        }


def run_count(
    state: EntangledState,
    good: GoodSet,
    p_size: int,
    repetitions: int,
    seed: int,
    dist: np.ndarray | None = None,
    m: MomentSummary | None = None,
) -> CountReport:
    """Simulate the circuit once, sample the ancilla, and decode by majority rule.

    ``dist`` is the circuit's ancilla distribution, for a caller that has
    already simulated it; without it the circuit is simulated here.  ``m`` is
    moments(state, good) when the caller already has it.  The report records
    ``seed``, the sampling seed.

    The majority outcome is the most frequent sample (ties to the smallest
    outcome).  ``w_empirical`` is the fraction of samples inside the
    predicted window; ``bound_satisfied`` checks the majority estimate
    against the true-t error bound.  Degenerate marked sets (t = 0 or
    t = N) have no oscillation line: the window collapses to {0} or {P/2}
    and no closed-form mass is predicted.  The samples are charged against
    the memory cap before they are drawn (``memory.samples``).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    memory.check([memory.samples(repetitions)])
    n = state.n_states
    t = good.t
    if dist is None:
        dist = circuit_distribution(state, good, p_size)

    if 0 < t < n and p_size >= 4:
        pred = window_probability(moments(state, good) if m is None else m, p_size)
        case, w_predicted, window = pred.case, pred.mass, pred.outcomes
    elif 0 < t < n:
        case, w_predicted = "small-P", None
        window = tuple(sorted({int(np.argmax(dist)), int(p_size - np.argmax(dist)) % p_size}))
    else:
        case, w_predicted = "degenerate", None
        window = (0,) if t == 0 else (p_size // 2,)

    rng = np.random.default_rng(seed)
    probs = np.maximum(dist, 0.0)
    probs = probs / probs.sum()
    samples = rng.choice(p_size, size=repetitions, p=probs).tolist()
    counts = Counter(samples)
    majority_m = min(counts, key=lambda m: (-counts[m], m))
    in_window = sum(counts[m] for m in window if m in counts)
    estimate = estimate_from_outcome(majority_m, p_size, n)
    bound = error_bound(t, p_size, n)
    return CountReport(
        p_size=p_size,
        n_states=n,
        t_true=t,
        case=case,
        w_predicted=w_predicted,
        w_empirical=in_window / repetitions,
        window=tuple(window),
        seed=seed,
        outcomes=tuple(samples),
        majority_m=majority_m,
        majority_t=estimate.t_tilde,
        bound=bound,
        bound_satisfied=abs(estimate.t_tilde - t) <= bound,
    )
