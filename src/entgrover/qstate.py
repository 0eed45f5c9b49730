"""Entangled register states and their moment statistics.

A state couples an n-qubit search register (N = 2**n_qubits basis indices)
to a D-dimensional data register.  It is stored as an N x D complex table
whose row ``a`` is the un-normalized data vector attached to search index
``a``; the physical state is the table scaled by 1/sqrt(N), so the
normalization convention is

    sum_a ||f_a||^2 = N.

All probabilities downstream therefore carry an explicit 1/N.  Rows need
not be unit vectors, orthogonal, or distinct: the mapping from search
index to data vector is arbitrary.

States are immutable; every operation returns a fresh value.  A table is
validated once, where it enters the package: the public constructor,
``from_amplitudes``, ``new_flat``, ``random_with_moments`` and the state
file's reader (``harness``), the last four through
``EntangledState._owned``.  The simulator's own unitary
steps wrap their output through ``EntangledState._trusted``, which neither
copies nor re-checks it.  ``EntangledState.to_json_obj`` writes the state
file's format.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import memory  # memory imports qstate too: each reads the other only when called

NORM_ATOL = 1e-9
# Row indices are int64, so a search register has at most 62 qubits.
MAX_QUBITS = 62
# A random state's targets are rescaled together to unit norm, so only their
# ratios matter; much larger ones overflow its construction.
TARGET_MAX = 1e150

_MEMORY_CAP_ENV = "ENTGROVER_MEMORY_CAP"
_DEFAULT_MEMORY_CAP = 1 << 30  # bytes of amplitude and sample storage


class MemoryLimitError(RuntimeError):
    """Requested amplitude table or sample storage exceeds the configured memory cap."""


def memory_cap_bytes() -> int:
    """Current storage cap in bytes (env ENTGROVER_MEMORY_CAP overrides)."""
    raw = os.environ.get(_MEMORY_CAP_ENV)
    if raw is None:
        return _DEFAULT_MEMORY_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_MEMORY_CAP_ENV} must be an integer byte count, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{_MEMORY_CAP_ENV} must be positive, got {cap}")
    return cap


def _norm_sq_total(coeffs: np.ndarray) -> float:
    """Exactly-rounded sum of squared magnitudes, for physical_norm and renormalization.

    The construction gate uses ``_norm_sq`` instead, and the trajectory audit
    sums the same way.
    """
    return math.fsum(_squares(coeffs).ravel().tolist())


def _norm_sq(coeffs: np.ndarray) -> float:
    """Sum of squared magnitudes by numpy's pairwise sum.

    Its error, O(log(N*D) * u) relative, sits far inside the 1e-9 norm gate
    and costs a fraction of the exactly-rounded ``_norm_sq_total``.
    """
    return float(np.sum(_squares(coeffs)))


def _squares(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a complex array as a new float array, the sum added in
    place, so that one temporary of its size is held whether or not numpy
    elides the temporaries of ``a + b`` (it does above 256 KiB only)."""
    sq = np.square(z.real)
    sq += np.square(z.imag)
    return sq


@dataclass(frozen=True)
class EntangledState:
    """Immutable N x D coefficient table under the sum ||f_a||^2 = N convention."""

    n_qubits: int
    data_dim: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = _dims(self.n_qubits, self.data_dim)
        c = np.array(self.coeffs, dtype=np.complex128, copy=True)
        _gate(c, n, self.data_dim)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _owned(cls, n_qubits: int, data_dim: int, coeffs: np.ndarray) -> "EntangledState":
        """A state of a complex128 table built in the package and handed over:
        the public constructor's checks, without its copy."""
        _gate(coeffs, _dims(n_qubits, data_dim), data_dim)
        return cls._trusted(n_qubits, data_dim, coeffs)

    @classmethod
    def _trusted(cls, n_qubits: int, data_dim: int, coeffs: np.ndarray) -> "EntangledState":
        """Wrap a complex128 table that a unitary step made from a valid state.

        Skips the copy and the norm gate of the public constructor: the table
        is taken as is and made read-only, so the caller must not keep
        writing to it.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "data_dim", data_dim)
        coeffs.setflags(write=False)
        object.__setattr__(state, "coeffs", coeffs)
        return state

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    def physical_norm(self) -> float:
        """Norm of the physical (1/sqrt(N)-scaled) state; 1.0 for any valid state."""
        return math.sqrt(_norm_sq_total(self.coeffs) / self.n_states)

    def to_json_obj(self) -> dict:
        """Schema: {"n_qubits": int, "data_dim": int, "rows": [[[re, im], ...], ...]}."""
        rows = [[[z.real, z.imag] for z in row] for row in self.coeffs]
        return {"n_qubits": self.n_qubits, "data_dim": self.data_dim, "rows": rows}


def _dims(n_qubits: int, data_dim: int) -> int:
    """N, once the dimensions are valid and a table of them fits the memory cap."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    if data_dim < 1:
        raise ValueError(f"data_dim must be >= 1, got {data_dim}")
    n = 1 << n_qubits
    memory.check([memory.table(n, data_dim)])
    return n


def _gate(c: np.ndarray, n: int, data_dim: int) -> None:
    """The norm gate: ``c`` is N x D with sum ||f_a||^2 = N within ``NORM_ATOL``."""
    if c.shape != (n, data_dim):
        raise ValueError(f"coefficient table must be {n}x{data_dim}, got {c.shape}")
    total = _norm_sq(c)
    if not math.isfinite(total) or abs(total - n) > NORM_ATOL:
        raise ValueError(f"total squared norm must equal N={n} within {NORM_ATOL}, got {total!r}")


@dataclass(frozen=True)
class GoodSet:
    """The marked search indices, kept strictly increasing."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        # Checked on the sorted list, without a set: a large marked set then
        # costs its tuple and one list beside it.
        idx = sorted(int(i) for i in self.indices)
        if idx and idx[0] < 0:
            raise ValueError("marked indices must be non-negative")
        if any(a == b for a, b in itertools.pairwise(idx)):
            raise ValueError("marked indices must be unique")
        object.__setattr__(self, "indices", tuple(idx))

    @property
    def t(self) -> int:
        return len(self.indices)

    def mask(self, n_states: int) -> np.ndarray:
        if self.indices and self.indices[-1] >= n_states:
            raise ValueError(
                f"marked index {self.indices[-1]} out of range for N={n_states}"
            )
        m = np.zeros(n_states, dtype=bool)
        if self.indices:
            m[list(self.indices)] = True
        return m


def random_good_set(n_states: int, t: int, seed: int) -> GoodSet:
    if not 0 <= t <= n_states:
        raise ValueError(f"need 0 <= t <= N, got t={t}, N={n_states}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_states, size=t, replace=False)
    return GoodSet(tuple(int(i) for i in picks))


@dataclass(frozen=True)
class MomentSummary:
    """Sector averages and variances of the data-vector distribution.

    The good/bad averages are None for the degenerate sectors t=0 / t=N.
    theta is the rotation angle with sin^2(theta) = t/N.
    """

    n_states: int
    t: int
    g_avg: np.ndarray | None
    b_avg: np.ndarray | None
    g_norm2: float
    b_norm2: float
    cross: complex
    var_g: float
    var_b: float
    theta: float
    n_good_mass: float

    def __post_init__(self) -> None:
        for name in ("g_avg", "b_avg"):
            v = getattr(self, name)
            if v is not None:
                v = np.array(v, dtype=np.complex128, copy=True)
                v.setflags(write=False)
                object.__setattr__(self, name, v)
        if self.var_g < 0 or self.var_b < 0:
            raise ValueError("sector variances cannot be negative")


def _abs2_into_real(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of a C-contiguous complex array, written over its real parts
    and returned as that strided view.  Each part is squared in place and the
    sum added into the real parts: an array and its own view are one operand,
    and the real and imaginary parts share no byte, so numpy makes no
    temporary copy (it does copy the operands of a strided slice's parts)."""
    re, im = z.real, z.imag
    np.square(re, out=re)
    np.square(im, out=im)
    return np.add(re, im, out=re)


def _sector_stats(rows: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Mean, its squared norm and the sample variance of a sector's rows, a copy
    the caller hands over: it is centred and squared in place."""
    avg = rows.mean(axis=0)
    rows -= avg
    var = float(np.sum(_abs2_into_real(rows))) / rows.shape[0]
    norm2 = float(np.vdot(avg, avg).real)
    return avg, norm2, var


def rotation_angle(t: int, n_states: int) -> float:
    """theta = asin(sqrt(t/N)), the angle each amplification step turns by."""
    return math.asin(math.sqrt(t / n_states))


def moments(state: EntangledState, good: GoodSet) -> MomentSummary:
    """Sector means, variances and the rotation angle of a marked-set split.

    For t=0 (t=N) the good (bad) sector is empty: its average is None, its
    variance and norm are zero, and theta is 0 (pi/2).
    """
    n = state.n_states
    gmask = good.mask(n)
    t = good.t
    c = state.coeffs
    g_avg = b_avg = None
    g_norm2 = b_norm2 = var_g = var_b = 0.0
    if t > 0:
        g_avg, g_norm2, var_g = _sector_stats(c[gmask])
    if t < n:
        b_avg, b_norm2, var_b = _sector_stats(c[~gmask])
    cross = complex(np.vdot(g_avg, b_avg)) if t > 0 and t < n else 0j
    n_good_mass = float(np.sum(_abs2_into_real(c[gmask])))
    return MomentSummary(
        n_states=n,
        t=t,
        g_avg=g_avg,
        b_avg=b_avg,
        g_norm2=g_norm2,
        b_norm2=b_norm2,
        cross=cross,
        var_g=var_g,
        var_b=var_b,
        theta=rotation_angle(t, n),
        n_good_mass=n_good_mass,
    )


def new_flat(n_qubits: int, data_dim: int) -> EntangledState:
    """Uniform state: every row is the first data basis vector."""
    if n_qubits < 1 or data_dim < 1:
        raise ValueError("n_qubits and data_dim must be >= 1")
    n = 1 << n_qubits
    memory.check([memory.table(n, data_dim)])
    c = np.zeros((n, data_dim), dtype=np.complex128)
    c[:, 0] = 1.0
    return EntangledState._owned(n_qubits, data_dim, c)


def from_amplitudes(coeffs: Sequence | np.ndarray, renormalize: bool = False) -> EntangledState:
    """Build a state from an explicit N x D table.

    With renormalize off the table must already satisfy sum ||f_a||^2 = N
    to within 1e-9; with it on, a single global factor rescales the table.
    """
    c = np.array(coeffs, dtype=np.complex128)
    if c.ndim == 1:
        c = c[:, None]
    if c.ndim != 2:
        raise ValueError(f"coefficient table must be 2-D, got shape {c.shape}")
    n, d = c.shape
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"row count must be a power of two >= 2, got {n}")
    n_qubits = n.bit_length() - 1
    if renormalize:
        total = _norm_sq_total(c)
        if total <= 0.0:
            raise ValueError("cannot renormalize a zero table")
        c *= math.sqrt(n / total)
    return EntangledState._owned(n_qubits, d, c)


def _zero_sum_perturbations(
    rng: np.random.Generator, count: int, dim: int, target_var: float
) -> np.ndarray:
    """Rows summing to zero whose sample variance equals target_var exactly."""
    if target_var == 0.0:
        return np.zeros((count, dim), dtype=np.complex128)
    if count < 2:
        raise ValueError("a single-row sector has zero sample variance; target must be 0")
    d = np.empty((count, dim), dtype=np.complex128)
    d.real = rng.standard_normal((count, dim))
    d.imag = rng.standard_normal((count, dim))
    d -= d.mean(axis=0)
    s2 = float(np.sum(_squares(d))) / count
    if s2 <= 0.0:
        raise ValueError("degenerate perturbation draw")
    d *= math.sqrt(target_var / s2)
    return d


def random_with_moments(
    n_qubits: int,
    data_dim: int,
    good: GoodSet,
    target_var_g: float,
    target_var_b: float,
    g_avg: Sequence | np.ndarray,
    b_avg: Sequence | np.ndarray,
    seed: int,
) -> EntangledState:
    """Pseudo-random state with prescribed sector averages and variances.

    Rows are mean + zero-sum perturbation, with perturbations scaled so the
    sample variances hit the targets exactly; one global rescale then
    enforces sum ||f_a||^2 = N.  The rescale multiplies averages by c and
    variances by c^2, so ratios var/||avg||^2 are preserved; targets that
    already satisfy

        sin^2(theta) * (var_g + ||g_avg||^2) + cos^2(theta) * (var_b + ||b_avg||^2) = 1

    are reproduced verbatim.  Deterministic in the seed.
    """
    if n_qubits < 1 or data_dim < 1:
        raise ValueError("n_qubits and data_dim must be >= 1")
    n = 1 << n_qubits
    t = good.t
    good.mask(n)  # range check
    ga = np.asarray(g_avg, dtype=np.complex128).reshape(data_dim)
    ba = np.asarray(b_avg, dtype=np.complex128).reshape(data_dim)
    g2, b2 = float(np.vdot(ga, ga).real), float(np.vdot(ba, ba).real)
    for name, target in (("target_var_g", target_var_g), ("target_var_b", target_var_b),
                         ("squared norm of g_avg", g2), ("squared norm of b_avg", b2)):
        if not 0 <= target <= TARGET_MAX:
            raise ValueError(f"{name} must lie in [0, {TARGET_MAX:g}], got {target!r}")
    if t == 1 and target_var_g > 0:
        raise ValueError("t=1 forces var_g=0; nonzero target is unsatisfiable")
    if n - t == 1 and target_var_b > 0:
        raise ValueError("a single bad row forces var_b=0; nonzero target is unsatisfiable")

    sin2 = t / n
    cos2 = 1.0 - sin2
    total = sin2 * (target_var_g + g2) + cos2 * (target_var_b + b2)
    if total <= 0.0:
        raise ValueError("targets produce a zero state; total norm must be positive")
    scale = 1.0 / math.sqrt(total)

    rng = np.random.default_rng(seed)
    c = np.zeros((n, data_dim), dtype=np.complex128)
    gmask = good.mask(n)
    for rows, count, avg, target in ((gmask, t, ga, target_var_g),
                                     (~gmask, n - t, ba, target_var_b)):
        if count:  # scale * (avg + perturbation), formed in place
            d = _zero_sum_perturbations(rng, count, data_dim, target)
            d += avg
            d *= scale
            c[rows] = d
            del d
    return EntangledState._owned(n_qubits, data_dim, c)


def search_distribution(state: EntangledState) -> np.ndarray:
    """Probability of measuring each search index: ||f_a||^2 / N."""
    return np.sum(_squares(state.coeffs), axis=1) / state.n_states


def good_mass(state: EntangledState, good: GoodSet) -> float:
    """Probability of measuring a marked index."""
    gmask = good.mask(state.n_states)
    return float(np.sum(_abs2_into_real(state.coeffs[gmask]))) / state.n_states
