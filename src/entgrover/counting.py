"""Counting marked items by phase estimation over the amplification operator.

A P-outcome ancilla register (P a power of two) is prepared uniform, each
branch |m> applies m amplification steps to the entangled search state, and
a Fourier transform over the ancilla concentrates probability near the two
spectral lines m = +-f, where f = P*theta/pi encodes the marked count t
through sin^2(theta) = t/N.  The transform has positive phases and
unitary scaling, so it is numpy's inverse FFT, ``np.fft.ifft(...,
norm="ortho")``, along the ancilla axis.  Measuring the ancilla and inverting
t~ = N*sin^2(pi*f~/P) estimates t within a bound that shrinks as 1/P.

``circuit_distribution`` simulates the circuit without holding its
P x N x D amplitude tensor.  A row's branches depend only on its initial
value, its mark and the column means, x_{m+1}(a) = 2*mu_m - s_a*x_m(a), so
one pass over the table keeps the P x D doubled means and the rows are then
replayed, transformed and measured a block at a time.  ``build_count_state``
still builds the whole tensor; it is the referee the tests hold the
streamed circuit to.

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

from .analytic import DegenerateCaseError
from .grover import _reflect_rows
from .qstate import EntangledState, GoodSet, MomentSummary, check_memory, moments

SIGMA_LOWER_BOUND = 8.0 / math.pi**2

# Amplitudes in one block of rows: 8 MiB of complex128.  At N = 2^12, D = 1,
# P = 1024 half this block made the circuit 30-45% slower, in per-step calls,
# for 6 MiB less peak memory (measurements in CHANGES.md).
_BLOCK_AMPS = 1 << 19


def check_circuit_memory(n_states: int, data_dim: int, p_size: int) -> int:
    """Rows per block of the circuit, once the table, the P x D means and one block fit the cap."""
    rows = min(n_states, max(1, _BLOCK_AMPS // (p_size * data_dim)))
    amps = (n_states + p_size + p_size * rows) * data_dim
    check_memory(amps, f"counting circuit working set (P = {p_size})")
    return rows


def circuit_distribution(state: EntangledState, good: GoodSet, p_size: int) -> np.ndarray:
    """Ancilla distribution of the counting circuit, streamed in blocks of rows.

    A first pass steps the whole table P - 1 times as ``_reflect_rows``
    does, keeping only the doubled column means 2*mu_m of the phase-flipped
    tables and writing the first block's rows as it goes.  Each later block
    is replayed from those means with the same element operations, times
    s_a (-1 on marked rows), then 2*mu_m - x.  Every block is scaled by
    1/sqrt(P*N), transformed along the step axis and its |.|^2 added per
    outcome.  A block's transformed amplitudes are those of
    ``build_count_state`` bit for bit; only the order of the per-outcome sum
    differs, and a table that fits in one block gives the tensor's bits.

    The memory cap applies to the working set (``check_circuit_memory``).
    The tensor's norm gate applies to the total.
    """
    if p_size < 1 or p_size & (p_size - 1) != 0:
        raise ValueError(f"ancilla size must be a power of two, got {p_size}")
    n, d = state.n_states, state.data_dim
    rows = check_circuit_memory(n, d, p_size)
    scale = 1.0 / math.sqrt(p_size * n)  # physical rows carry 1/sqrt(N) as well
    # s_a for each float of the table's float64 view, so that times s_a is
    # one contiguous multiply: the bits of negating the marked rows.
    sign = np.repeat(np.where(good.mask(n), -1.0, 1.0), 2 * d)

    two_mu = np.empty((p_size - 1, d), dtype=np.complex128)
    block = np.empty((p_size, rows, d), dtype=np.complex128)
    cur = np.array(state.coeffs)
    x = np.empty_like(cur)
    cur_f, x_f = (a.reshape(-1).view(np.float64) for a in (cur, x))
    for m in range(p_size):
        block[m] = cur[:rows]
        if m + 1 < p_size:
            np.multiply(cur_f, sign, out=x_f)
            np.multiply(2.0, x.mean(axis=0), out=two_mu[m])
            np.subtract(two_mu[m], x, out=cur)

    dist = np.zeros(p_size)
    for lo in range(0, n, rows):
        blk = block[:, : min(rows, n - lo)]
        if lo:  # replay the block's rows from the means
            blk[0] = state.coeffs[lo : lo + rows]
            f = blk.reshape(p_size, -1, copy=False).view(np.float64)
            s = sign[2 * d * lo : 2 * d * (lo + rows)]
            for m in range(p_size - 1):
                np.multiply(f[m], s, out=f[m + 1])
                np.subtract(two_mu[m], blk[m + 1], out=blk[m + 1])
        sq = _transform(blk, scale).view(np.float64)
        np.square(sq, out=sq)
        dist += np.sum(sq[..., 0::2] + sq[..., 1::2], axis=(1, 2))

    total = float(np.sum(dist))
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise ValueError(f"total squared norm must be 1 within 1e-9, got {total!r}")
    return dist


def _transform(block: np.ndarray, scale: float) -> np.ndarray:
    """A block of rows scaled and put through the ancilla transform, in place."""
    block *= scale
    return np.fft.ifft(block, axis=0, norm="ortho", out=block)


@dataclass(frozen=True)
class CountState:
    """Joint ancilla x search x data amplitude tensor, physically normalized.

    No runner builds it: it is the tensor referee that the tests hold
    ``circuit_distribution`` to.  It stays in the package, with
    ``build_count_state`` and ``ancilla_distribution``, only because the
    benchmark's tracer (``perfbench/tracer.py``) rebinds those names; the
    three move to ``tests/conftest.py`` once the tracer no longer does.
    """

    p_size: int
    n_qubits: int
    data_dim: int
    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self._admit(np.array(self.amps, dtype=np.complex128, copy=True))

    @classmethod
    def _trusted(cls, p_size: int, n_qubits: int, data_dim: int, amps: np.ndarray) -> "CountState":
        """Take over a complex128 tensor the counting circuit has just built.

        Skips the public constructor's copy, not its checks: the shape and
        the norm gate still run.  The tensor is made read-only, so the caller
        must not keep writing to it.
        """
        cs = object.__new__(cls)
        object.__setattr__(cs, "p_size", p_size)
        object.__setattr__(cs, "n_qubits", n_qubits)
        object.__setattr__(cs, "data_dim", data_dim)
        cs._admit(amps)
        return cs

    def _admit(self, a: np.ndarray) -> None:
        if self.p_size < 1 or self.p_size & (self.p_size - 1) != 0:
            raise ValueError(f"ancilla size must be a power of two, got {self.p_size}")
        n = 1 << self.n_qubits
        if a.shape != (self.p_size, n, self.data_dim):
            raise ValueError(
                f"amplitude tensor must be {self.p_size}x{n}x{self.data_dim}, got {a.shape}"
            )
        total = float(np.sum(np.square(a.real) + np.square(a.imag)))
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
    computed incrementally, so the whole circuit costs P amplification steps,
    each one reflection about the column mean.
    The ancilla transform is numpy's FFT along axis 0.  Runners call
    ``circuit_distribution``, which streams the same amplitudes in blocks of
    rows; see ``CountState`` for why this stays in the package.
    """
    if p_size < 1 or p_size & (p_size - 1) != 0:
        raise ValueError(f"ancilla size must be a power of two, got {p_size}")
    n = state.n_states
    check_memory(p_size * n * state.data_dim)
    gmask = good.mask(n)
    amps = np.empty((p_size, n, state.data_dim), dtype=np.complex128)
    scale = 1.0 / math.sqrt(p_size * n)  # physical rows carry 1/sqrt(N) as well
    cur = state.coeffs
    for m in range(p_size):
        amps[m] = cur * scale
        if m + 1 < p_size:
            cur = _reflect_rows(cur, gmask)
    amps = np.fft.ifft(amps, axis=0, norm="ortho")
    return CountState._trusted(p_size, state.n_qubits, state.data_dim, amps)


def ancilla_distribution(cs: CountState) -> np.ndarray:
    """Measurement distribution of the ancilla register of a referee tensor; sums to 1."""
    return np.sum(np.square(cs.amps.real) + np.square(cs.amps.imag), axis=(1, 2))


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
) -> CountReport:
    """Simulate the circuit once, sample the ancilla, and decode by majority rule.

    ``dist`` is the circuit's ancilla distribution, for a caller that has
    already simulated it; without it the circuit is simulated here.  The
    report records ``seed``, the sampling seed.

    The majority outcome is the most frequent sample (ties to the smallest
    outcome).  ``w_empirical`` is the fraction of samples inside the
    predicted window; ``bound_satisfied`` checks the majority estimate
    against the true-t error bound.  Degenerate marked sets (t = 0 or
    t = N) have no oscillation line: the window collapses to {0} or {P/2}
    and no closed-form mass is predicted.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    n = state.n_states
    t = good.t
    if dist is None:
        dist = circuit_distribution(state, good, p_size)

    if 0 < t < n and p_size >= 4:
        pred = window_probability(moments(state, good), p_size)
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
    samples = rng.choice(p_size, size=repetitions, p=probs)
    counts = Counter(int(s) for s in samples)
    majority_m = min(sorted(counts), key=lambda m: (-counts[m], m))
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
        outcomes=tuple(int(s) for s in samples),
        majority_m=majority_m,
        majority_t=estimate.t_tilde,
        bound=bound,
        bound_satisfied=abs(estimate.t_tilde - t) <= bound,
    )
