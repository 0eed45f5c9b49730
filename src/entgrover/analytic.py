"""Closed-form predictions for the amplified state and its success probability.

Everything observable about the iteration depends on the initial state only
through a handful of moment statistics: the sector averages Gbar, Bbar,
their norms, the bad-sector variance and the angle theta with
sin^2(theta) = t/N.  The success probability after n steps follows a
damped cosine

    P(n) = P_av - dP * cos(2*(2*n*theta - phi_r)) * exp(-2*phi_i)

with

    dP   = cos^2(theta)/2 * (<Bbar|Bbar> + tan^2(theta) <Gbar|Gbar>)
    P_av = 1 - dP - var_b * cos^2(theta)

and the complex angle phi = phi_r + i*phi_i defined through

    exp(2i*phi) = 2 <F+|F-> / (<F+|F+> + <F->|F->),   F+- = Bbar +- i*tan(theta)*Gbar.

A caution on coefficients: the oscillation law is sometimes quoted with dP
scaled by N/2 and the variance term by N.  Under the row normalization
used throughout this package (sum ||f_a||^2 = N, probabilities carry an
explicit 1/N) those factors are inconsistent -- they push P above 1
already for the uniform state.  The coefficients above are the
self-consistent ones; the test suite checks them amplitude-by-amplitude
against the exact simulator and keeps the N-scaled variant as a negative
control.

When <F+|F-> = 0 the oscillation amplitude vanishes identically and
P(n) = P_av for every n; this is a physical regime (e.g. any one-to-one
row mapping), reported through the ``degenerate`` flag rather than an
exception.

After n steps every marked row is its initial row plus one vector, and
every unmarked row (-1)^n times its initial row plus another: the sector
offsets (``_closed_form_offsets``), combinations of Gbar and Bbar, which
the two-block recurrence gives as -(2/N) X_n and -(2/N) Y_n.  The one
evaluator of the tables, ``closed_form_table``, adds them to the initial
rows; the trajectory audit does so a chunk of steps at once
(``_closed_form_into``), and criterion 2 compares them with the recurrence's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grover import small_buffer
from .qstate import EntangledState, GoodSet, MomentSummary, _norm_sq, moments

DEGENERATE_RTOL = 1e-12


class DegenerateCaseError(ValueError):
    """Raised where a closed form is singular (t in {0, N}) or an optimum undefined."""


@dataclass(frozen=True)
class OscillationParams:
    """Coefficients of the success-probability law; phi_* are NaN when degenerate."""

    p_av: float
    delta_p: float
    phi_r: float
    phi_i: float
    theta: float
    degenerate: bool

    def __post_init__(self) -> None:
        if self.delta_p < 0:
            raise ValueError("delta_p must be >= 0")
        amp = 0.0 if self.degenerate else self.delta_p * math.exp(-2.0 * self.phi_i)
        if self.p_av - amp < -1e-9 or self.p_av + amp > 1 + 1e-9:
            raise ValueError(
                f"oscillation range [{self.p_av - amp}, {self.p_av + amp}] is not a probability"
            )
        if not self.degenerate:
            if self.phi_i < 0:
                raise ValueError("phi_i must be >= 0")
            if not (-math.pi / 2 < self.phi_r <= math.pi / 2):
                raise ValueError("phi_r must lie in (-pi/2, pi/2]")


@dataclass(frozen=True)
class OptimalState:
    """Closed-form state at an optimal measurement time, with its leftover bad mass."""

    n: int
    state: EntangledState
    bad_sector_mass: float


def _require_interior(m: MomentSummary) -> None:
    if not 0 < m.t < m.n_states:
        raise DegenerateCaseError(f"need 0 < t < N, got t={m.t}, N={m.n_states}")


def f_plus_minus(m: MomentSummary) -> tuple[np.ndarray, np.ndarray]:
    """The pair F+- = Bbar +- i*tan(theta)*Gbar driving the oscillation phase."""
    _require_interior(m)
    tan_t = math.tan(m.theta)
    f_plus = m.b_avg + 1j * tan_t * m.g_avg
    f_minus = m.b_avg - 1j * tan_t * m.g_avg
    return f_plus, f_minus


def oscillation_params(m: MomentSummary) -> OscillationParams:
    """Fit-free oscillation coefficients from the initial moments.

    phi_r is the principal half-argument in (-pi/2, pi/2]; phi_i >= 0 damps
    the oscillation and vanishes exactly when F+ and F- are parallel with
    equal norms.
    """
    _require_interior(m)
    f_plus, f_minus = f_plus_minus(m)
    num = complex(np.vdot(f_plus, f_minus))
    den = float(np.vdot(f_plus, f_plus).real + np.vdot(f_minus, f_minus).real)
    cos2 = math.cos(m.theta) ** 2
    tan2 = math.tan(m.theta) ** 2
    delta_p = 0.5 * cos2 * (m.b_norm2 + tan2 * m.g_norm2)
    p_av = 1.0 - delta_p - m.var_b * cos2
    if den <= 0.0 or abs(num) <= DEGENERATE_RTOL * den:
        return OscillationParams(
            p_av=p_av,
            delta_p=delta_p,
            phi_r=math.nan,
            phi_i=math.nan,
            theta=m.theta,
            degenerate=True,
        )
    z = 2.0 * num / den
    modulus = min(abs(z), 1.0)  # Cauchy-Schwarz bound, clipped against rounding
    phi_r = 0.5 * math.atan2(z.imag, z.real)
    phi_i = 0.0 if modulus == 1.0 else -0.5 * math.log(modulus)
    return OscillationParams(
        p_av=p_av, delta_p=delta_p, phi_r=phi_r, phi_i=phi_i, theta=m.theta, degenerate=False
    )


def success_probability(p: OscillationParams, n: int) -> float:
    """P(n): probability of measuring a marked index after n steps, clamped to [0, 1]."""
    if p.degenerate:
        value = p.p_av
    else:
        value = p.p_av - p.delta_p * math.cos(2.0 * (2.0 * n * p.theta - p.phi_r)) * math.exp(
            -2.0 * p.phi_i
        )
    return min(1.0, max(0.0, value))


def optimal_times(p: OscillationParams, j: int = 0) -> float:
    """The (generally non-integer) time n_j = [pi(2j+1)/2 + phi_r] / (2*theta)."""
    if j < 0:
        raise ValueError(f"maximum index j must be >= 0, got {j}")
    if p.degenerate:
        raise DegenerateCaseError("constant success probability has no optimal time")
    return (math.pi * (2 * j + 1) / 2.0 + p.phi_r) / (2.0 * p.theta)


def best_integer_time(p: OscillationParams) -> int:
    """Integer step count maximizing P near n_0; ties go to the smaller count."""
    n0 = optimal_times(p, 0)
    lo = max(0, math.floor(n0))
    hi = math.ceil(n0)
    if hi == lo:
        return lo
    return lo if success_probability(p, lo) >= success_probability(p, hi) else hi


def p_max(p: OscillationParams) -> float:
    """Peak of the oscillation law, P_av + dP * exp(-2*phi_i); P_av when degenerate."""
    if p.degenerate:
        return min(1.0, max(0.0, p.p_av))
    return min(1.0, max(0.0, p.p_av + p.delta_p * math.exp(-2.0 * p.phi_i)))


def closed_form_table(
    c0: np.ndarray, gmask: np.ndarray, ms: Sequence[MomentSummary], n: int
) -> np.ndarray:
    """Predicted coefficient tables after n steps, for a stack of same-shape states.

    Marked rows:    f_g - (1 - cos(2n*theta)) Gbar + cot(theta) sin(2n*theta) Bbar
    Unmarked rows:  (-1)^n f_b - tan(theta) sin(2n*theta) Gbar + (cos(2n*theta) - (-1)^n) Bbar

    ``c0`` is a (B, N, D) stack of initial tables, ``gmask`` their (B, N)
    marked-row masks and ``ms`` their B moment summaries; each state gets the
    bits it gets alone.  Singular at t in {0, N} (the construction divides
    by sin(2*theta)).  n = 0 returns ``c0`` itself, not a copy.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    for m in ms:
        _require_interior(m)
    if n == 0:
        return c0
    out = np.empty((1,) + c0.shape, dtype=np.complex128)
    return _closed_form_into(c0, gmask, _closed_form_offsets(ms, n, 1), n, out)[0]


def _closed_form_offsets(
    ms: Sequence[MomentSummary], n0: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (k, B, D) marked and unmarked offsets of interior states at steps
    n0 .. n0 + k - 1, the rows of ``closed_form_table`` less f_g and (-1)^n f_b:

        o_g(n) = cot(theta) sin(2n*theta) Bbar - (1 - cos(2n*theta)) Gbar
        o_b(n) = (cos(2n*theta) - (-1)^n) Bbar - tan(theta) sin(2n*theta) Gbar

    The angles 2n*theta are formed elementwise and their sines and cosines
    taken with ``math``, so each state and step gets the bits it gets alone.
    The averages are ``_averages``': states of several D come zero-padded to
    the widest."""
    tan_t = np.array([math.tan(m.theta) for m in ms])
    n = np.arange(n0, n0 + k)[:, None]
    angles = (2.0 * n * np.array([m.theta for m in ms])).ravel().tolist()
    c2n, s2n = (np.array(list(map(fn, angles))).reshape(k, len(ms)) for fn in (math.cos, math.sin))
    sign = np.where(n % 2, -1.0, 1.0)
    good_g, good_b, bad_g, bad_b = (
        x[..., None] for x in (1.0 - c2n, s2n / tan_t, tan_t * s2n, c2n - sign)
    )
    g_avg, b_avg = _averages(ms)
    return good_b * b_avg - good_g * g_avg, bad_b * b_avg - bad_g * g_avg


def _averages(ms: Sequence[MomentSummary]) -> tuple[np.ndarray, np.ndarray]:
    """The (B, D) sector averages Gbar and Bbar of ``ms``, D the widest data dimension
    among them: a narrower state's columns are zero-padded, and an empty sector's
    average is a zero row.  Padding and stacking copy values, so no bit changes."""
    d = max(len(m.b_avg if m.g_avg is None else m.g_avg) for m in ms)
    zero = np.zeros(d, dtype=np.complex128)

    def stacked(avgs: list) -> np.ndarray:
        parts = [zero if a is None else a for a in avgs]
        if any(len(a) < d for a in parts):
            parts = [x for a in parts for x in (a, zero[len(a):])]
        return np.concatenate(parts).reshape(len(ms), d)

    return stacked([m.g_avg for m in ms]), stacked([m.b_avg for m in ms])


def _closed_form_into(
    c0: np.ndarray, gmask: np.ndarray, offsets: tuple[np.ndarray, np.ndarray], n0: int,
    out: np.ndarray,
) -> np.ndarray:
    """``closed_form_table`` for interior states at steps n0 .. n0 + k - 1,
    written into the (k, B, N, D) buffer ``out`` (n = 0 gives ``c0`` up to
    the sign of a zero), from their ``_closed_form_offsets`` (o_g, o_b): every
    row gets c0 + o_b on even steps and o_b - c0 on odd ones, then the marked
    rows c0 + o_g through a ``where=`` mask.  Any rows of the states may be
    passed, as ``c0``, ``gmask`` and ``out`` of fewer than N rows."""
    good, bad = (o[:, :, None] for o in offsets)
    even, odd = slice(n0 % 2, None, 2), slice(1 - n0 % 2, None, 2)
    with small_buffer():  # the broadcast operands go through numpy's ufunc buffer
        np.add(c0, bad[even], out=out[even])
        np.subtract(bad[odd], c0, out=out[odd])
        np.add(c0, good, out=out, where=gmask[..., None])
    return out


def closed_form_rows(
    state0: EntangledState, good: GoodSet, n: int, m: MomentSummary | None = None
) -> EntangledState:
    """Predicted state after n steps, without simulating them (see closed_form_table).

    Singular at t in {0, N}; use the simulator there instead.  ``m`` is
    moments(state0, good), for a caller that predicts many n from one
    state; it is computed when omitted.
    """
    if m is None:
        m = moments(state0, good)
    table = closed_form_table(state0.coeffs[None], good.mask(state0.n_states)[None], (m,), n)
    return EntangledState(n_qubits=state0.n_qubits, data_dim=state0.data_dim, coeffs=table[0])


def recurrence_sequence(ms: Sequence[MomentSummary], n_max: int):
    """Yield (k, X_k, Y_k) of the two-block recurrence Z_k = M Z_{k-1} + C_k, k = 1 .. n_max.

    M mixes the pair with weights cos(2*theta) -+ 1; the drive is
    C_k = t*Gbar + (-1)^k (N-t)*Bbar, and X_1 = Y_1 = C_1.  The iterated
    table is recovered as

        f_g(n) = f_g - (2/N) X_n,    f_b(n) = (-1)^n f_b - (2/N) Y_n.

    X_k, Y_k are (B, D) stacks for the B states summarised in ``ms``, of any
    shapes: t, N - t and cos(2*theta) are (B, 1) columns, and the averages are
    ``_averages``', zero-padded to the widest D with an empty sector's a zero
    row.  A padded column stays zero, and every step is elementwise per
    (state, column), so each row gets the bits of its state's stack of one.
    One pass costs n_max steps, however many states and shapes it holds.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    g_avg, b_avg = _averages(ms)
    t = np.array([[m.t] for m in ms])
    n_bad = np.array([[m.n_states - m.t] for m in ms])
    c2t = np.array([[math.cos(2.0 * m.theta)] for m in ms])
    x = t * g_avg - n_bad * b_avg
    y = x.copy()
    for k in range(1, n_max + 1):
        if k > 1:
            drive = t * g_avg + (-1) ** k * n_bad * b_avg
            x, y = c2t * x + (c2t + 1.0) * y + drive, (c2t - 1.0) * x + c2t * y + drive
        yield k, x, y


def recurrence_vectors(m: MomentSummary, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(X_n, Y_n) of the two-block recurrence for one state; see recurrence_sequence."""
    if n < 1:
        raise ValueError(f"recurrence index must be >= 1, got {n}")
    for _, x, y in recurrence_sequence([m], n):
        pass
    return x[0], y[0]


def state_at_optimal(state0: EntangledState, good: GoodSet, j: int = 0) -> OptimalState:
    """Closed-form state at the exact optimal time n_j, which must be an integer.

    Also reports the residual probability mass left on the unmarked sector;
    it vanishes when the bad-sector variance is zero and the oscillation is
    undamped (phi_i = 0).
    """
    m = moments(state0, good)
    p = oscillation_params(m)
    n_j = optimal_times(p, j)
    n_int = round(n_j)
    if abs(n_j - n_int) > 1e-9 or n_int < 0:
        raise DegenerateCaseError(
            f"optimal time n_{j} = {n_j!r} is not a non-negative integer"
        )
    predicted = closed_form_rows(state0, good, n_int)
    bad = predicted.coeffs[~good.mask(state0.n_states)]
    bad_mass = _norm_sq(bad) / state0.n_states
    return OptimalState(n=n_int, state=predicted, bad_sector_mass=bad_mass)
