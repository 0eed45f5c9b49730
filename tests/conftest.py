"""Shared fixtures, the independent dense-matrix oracles, and the check that
holds a run to its memory plan (``holds_at_its_plan``).

The oracles here deliberately avoid the package's fast code paths (the
reflection about the mean, numpy's FFT): operators are materialized as
explicit (N*D x N*D) matrices built from Kronecker products, and transforms
as explicit DFT matrices, so every fast implementation is checked against a
slow, obviously-correct one.  The gate form of the step, -W S0 W S_H with W
as butterfly passes, is kept here too, for the step to be held to.  Where a
fast path must keep the bits of a simpler one (the closed form's masked
evaluation), the simpler one is kept here as well.
The exact referee computes the trajectory and the closed form in rational
arithmetic, and the counting circuit's transforms at 50 digits, so a float
path's own error can be measured.
"""
import contextlib
import inspect
import io
import json
import math
import os
import sys
import textwrap
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from entgrover import EntangledState, GoodSet, cli, from_amplitudes, memory  # noqa: E402
from entgrover.analytic import (  # noqa: E402
    DegenerateCaseError,
    closed_form_rows,
    optimal_times,
    oscillation_params,
)
from entgrover.qstate import _norm_sq, moments  # noqa: E402
from entgrover.checks import VerifyConfig  # noqa: E402
from entgrover.harness import parse_scenario, run_scenario  # noqa: E402


def hadamard_matrix(n_qubits: int) -> np.ndarray:
    h1 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
    h = np.array([[1.0]], dtype=np.complex128)
    for _ in range(n_qubits):
        h = np.kron(h, h1)
    return h


def butterfly_hadamard(table: np.ndarray) -> np.ndarray:
    """Hadamard along the rows axis (-2) by butterfly passes: the W of the
    step's gate form.  Pass h = 1, 2, 4, ... turns each row pair (a, b), h
    rows apart, into ((a + b) / sqrt(2), (a - b) / sqrt(2)), over the whole
    table and in complex arithmetic.
    """
    src = np.array(table, dtype=np.complex128)
    dst = np.empty_like(src)
    *lead, n, d = src.shape
    h = 1
    while h < n:
        a = src.reshape(*lead, n // (2 * h), 2, h * d)
        b = dst.reshape(*lead, n // (2 * h), 2, h * d)
        np.add(a[..., 0, :], a[..., 1, :], out=b[..., 0, :])
        np.subtract(a[..., 0, :], a[..., 1, :], out=b[..., 1, :])
        dst *= 1.0 / math.sqrt(2.0)
        src, dst = dst, src
        h *= 2
    return src


@dataclass(frozen=True)
class OptimalState:
    """Closed-form state at an optimal measurement time, with its leftover bad mass."""

    n: int
    state: EntangledState
    bad_sector_mass: float


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


def masked_closed_form_table(c0: np.ndarray, gmask: np.ndarray, ms, n: int) -> np.ndarray:
    """The closed-form tables, each sector written through a ufunc ``where=``
    mask over the whole (B, N, D) stack: the marked rows c0 + o_g and the
    unmarked rows (-1)^n c0 + o_b, with the offsets

        o_g = cot(theta) sin(2n theta) Bbar - (1 - cos(2n theta)) Gbar
        o_b = (cos(2n theta) - (-1)^n) Bbar - tan(theta) sin(2n theta) Gbar

    ``analytic.closed_form_table`` must give its bits.
    """
    if n == 0:
        return c0
    factors = []
    for m in ms:
        c2n = math.cos(2.0 * n * m.theta)
        s2n = math.sin(2.0 * n * m.theta)
        tan_t = math.tan(m.theta)
        bad_b = c2n - 1.0 if n % 2 == 0 else c2n + 1.0
        factors.append((1.0 - c2n, s2n / tan_t, tan_t * s2n, bad_b))
    good_g, good_b, bad_g, bad_b = np.array(factors).T[..., None]
    g_avg = np.array([m.g_avg for m in ms])
    b_avg = np.array([m.b_avg for m in ms])
    offset_g = (good_b * b_avg - good_g * g_avg)[:, None]
    offset_b = (bad_b * b_avg - bad_g * g_avg)[:, None]
    good = gmask[..., None]
    out = np.empty_like(c0)
    np.add(c0, offset_g, out=out, where=good)
    if n % 2 == 0:
        np.add(c0, offset_b, out=out, where=~good)
    else:
        np.subtract(offset_b, c0, out=out, where=~good)
    return out


def planted(fn, old: str, new: str):
    """A copy of the module-level function ``fn`` with the one occurrence of
    ``old`` in its source replaced by ``new``, defined in ``fn``'s module
    namespace: a planted fault for a check that must catch it."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} must occur once in {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(textwrap.dedent(source.replace(old, new)), namespace)
    return namespace[fn.__name__]


# What a run holds beyond its plan: fixed objects, that is interpreter objects
# (the scenario, the report's fixed part) and numpy's small arrays and ufunc
# buffers.  Over 1,500 draws tracemalloc read at most 32.4 KB over the plan, and
# the verify battery 24 KB (CPython 3.11, numpy 2.4.6).
SLACK = 64 << 10
# A csv report's writer holds a record buffer of 32,768 characters from its
# first row (the csv module's MEM_INCR), 128 KiB of UCS-4.
CSV_WRITER = 128 << 10


def run_cli(argv):
    """(exit code, stderr) of one cli.main call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


def capped(cap):
    return mock.patch.dict(os.environ, {"ENTGROVER_MEMORY_CAP": str(cap)})


def traced_peak(s):
    """Bytes a run and its report's text hold at most, by tracemalloc."""
    tracemalloc.start()
    try:
        report = run_scenario(s)
        report.to_csv() if s.output_format == "csv" else report.to_json()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def holds_at_its_plan(scenario, work):
    """Run ``scenario`` at a cap of its planned peak, where it must end as it does
    under the default cap and trace at most ``SLACK`` bytes over the plan (and
    ``CSV_WRITER`` more for csv), and at one byte less, where it must exit 1
    naming the field of the plan's first term over the cap, or for a one-cell
    sweep mark the cell skipped.  Returns that message, or the cell's error."""
    s = parse_scenario(scenario)
    report = run_scenario(s)
    peak = report.planned
    cfg = work / "c.json"
    cfg.write_text(json.dumps(scenario))
    argv = [s.kind, "--config", str(cfg), "--out", str(work / "r")]
    with capped(peak):
        assert run_cli(argv)[0] == (0 if report.passed else 2)
        over = traced_peak(s) - peak
    slack = SLACK + (CSV_WRITER if s.output_format == "csv" else 0)
    assert over <= slack, f"traced {over} bytes over the plan of {peak}"
    with capped(peak - 1):
        if s.kind == "sweep":
            (row,) = run_scenario(s).payload["rows"]
            assert (row["status"], row["passed"]) == ("skipped", None)
            return row["error"]
        code, err = run_cli(argv)
    terms = memory.plan(s, VerifyConfig()) if s.kind == "verify" else memory.plan(s)
    field = next(term.field for term in terms if term.bytes >= peak)
    assert code == 1 and f"{field} is too large" in err, err
    return err


def exact_table(table: np.ndarray) -> np.ndarray:
    """A complex table as an object array (2, N, D) of its real and imaginary
    parts in ``fractions.Fraction``; every double is a dyadic rational."""
    exact = np.vectorize(Fraction, otypes=[object])
    return np.array([exact(table.real), exact(table.imag)])


def exact_trajectory(table: np.ndarray, gmask: np.ndarray, n_max: int) -> list[np.ndarray]:
    """Exact tables after n = 0 .. n_max steps, from the float (N, D) ``table``.

    A step is the phase flip on the marked rows ``gmask``, then the
    reflection about the column mean, 2*mean - x; the operator is real, so
    both parts step alike.  For N a power of two every value stays a dyadic
    rational, so no operation rounds.
    """
    x = exact_table(table)
    out = [x]
    for _ in range(n_max):
        x = x.copy()
        x[:, gmask] = -x[:, gmask]
        x = 2 * (x.sum(axis=1, keepdims=True) / x.shape[1]) - x
        out.append(x)
    return out


def exact_doubled_means(table: np.ndarray, gmask: np.ndarray, steps: int) -> np.ndarray:
    """Exact 2*mu_m for m = 0 .. steps - 1, a (steps, 2, D) object array: twice
    the row mean of ``exact_trajectory``'s m-th table with its marked rows
    negated, the doubled means of the counting circuit's first pass."""
    out = []
    for x in exact_trajectory(table, gmask, steps - 1):
        flipped = x.copy()
        flipped[:, gmask] = -flipped[:, gmask]
        out.append(2 * flipped.sum(axis=1) / x.shape[1])
    return np.array(out)


def exact_offsets(means: np.ndarray) -> np.ndarray:
    """The counting circuit's exact offsets from its exact doubled means
    (``exact_doubled_means``, (steps, 2, D)), a (2, steps + 1, 2, D) object
    array: G_0 = B_0 = 0, G_{m+1} = G_m + 2*mu_m and B_{m+1} = 2*mu_m - B_m,
    sums of dyadic rationals."""
    g, b = [means[0] * 0], [means[0] * 0]
    for two_mu in means:
        g.append(g[-1] + two_mu)
        b.append(two_mu - b[-1])
    return np.array([g, b])


def rounded(parts: np.ndarray) -> np.ndarray:
    """The complex doubles nearest an exact array whose axis -2 holds the real
    and imaginary parts."""
    to_float = np.vectorize(float, otypes=[np.float64])
    return to_float(parts[..., 0, :]) + 1j * to_float(parts[..., 1, :])


def _mpc(re: Fraction, im: Fraction) -> mpmath.mpc:
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator)


PRECISE_DIGITS = 50


def precise_transform(offsets: np.ndarray) -> np.ndarray:
    """The unitary positive-phase DFT over the P branches of exact (2, P, 2, D)
    offsets, as numpy's ``ifft(..., norm="ortho")`` forms it: a (2, P, D) object
    array of ``mpmath.mpc`` at ``PRECISE_DIGITS`` digits, 34 orders below a
    double's rounding (the twiddles are irrational, so no rational is exact)."""
    p = offsets.shape[1]
    with mpmath.workdps(PRECISE_DIGITS):
        z = np.vectorize(_mpc, otypes=[object])(offsets[..., 0, :], offsets[..., 1, :])
        w = [mpmath.expjpi(mpmath.mpf(2 * j) / p) / mpmath.sqrt(p) for j in range(p)]
        dft = np.array(w, dtype=object)[np.outer(np.arange(p), np.arange(p)) % p]
        return np.array([dft @ seq for seq in z])


def precise_spectrum(table: np.ndarray, gmask: np.ndarray, lines: np.ndarray) -> list:
    """P*N times the counting circuit's ancilla distribution by its definition,
    from the float (N, D) ``table`` and the precise transforms ``lines`` (2, P, D)
    of the marked and unmarked offsets: at outcome k, the sum over rows a of
    ||l_k + sqrt(P)*x_0(a)||^2, the x_0 term only on a marked row at k = 0 and
    an unmarked row at k = P/2."""
    p = lines.shape[1]
    x = exact_table(table)
    with mpmath.workdps(PRECISE_DIGITS):
        rows = np.vectorize(_mpc, otypes=[object])(x[0], x[1]) * mpmath.sqrt(p)
        out = []
        for k in range(p):
            total = mpmath.mpf(0)
            for row, marked in zip(rows, gmask):
                line = lines[0 if marked else 1, k]
                if k == (0 if marked else p // 2):
                    line = line + row
                total += sum(abs(z) ** 2 for z in line)
            out.append(total)
        return out


def precise_error(values: np.ndarray, precise) -> float:
    """Largest |value - precise| over an array of doubles and its precise
    counterpart, rounded to a float once."""
    with mpmath.workdps(PRECISE_DIGITS):
        return float(max(abs(mpmath.mpmathify(complex(v)) - w)
                         for v, w in zip(np.ravel(values), np.ravel(np.array(precise, dtype=object)))))


def exact_marked_mass(exact: np.ndarray, gmask: np.ndarray) -> Fraction:
    """The probability of a marked index, sum over marked rows of |x_a|^2 / N,
    of one exact (2, N, D) table: a rational number."""
    marked = exact[:, gmask]
    return (marked * marked).sum() / exact.shape[1]


def exact_closed_form(table: np.ndarray, gmask: np.ndarray, n: int) -> np.ndarray:
    """The paper's closed-form table after n steps, exactly, from the float (N, D) ``table``.

    With c = cos(2*theta) = 1 - 2t/N, cos(2n*theta) = T_n(c),
    cot(theta) sin(2n*theta) = (1 + c) U_{n-1}(c) and
    tan(theta) sin(2n*theta) = (1 - c) U_{n-1}(c), Chebyshev polynomials of
    the first and second kind, so every coefficient is rational:

        marked:   f_g - (1 - T_n) Gbar + (1 + c) U_{n-1} Bbar
        unmarked: (-1)^n f_b - (1 - c) U_{n-1} Gbar + (T_n - (-1)^n) Bbar
    """
    x = exact_table(table)
    n_big, t = len(gmask), int(np.count_nonzero(gmask))
    c = 1 - Fraction(2 * t, n_big)
    t_n, t_prev, u_prev, u_prev2 = Fraction(1), c, Fraction(0), Fraction(-1)
    for _ in range(n):  # T_{-1} = c and U_{-2} = -1 run the recurrences back one step
        t_n, t_prev = 2 * c * t_n - t_prev, t_n
        u_prev, u_prev2 = 2 * c * u_prev - u_prev2, u_prev
    g_avg = x[:, gmask].sum(axis=1) / t
    b_avg = x[:, ~gmask].sum(axis=1) / (n_big - t)
    sign = (-1) ** n
    out = sign * x - (1 - c) * u_prev * g_avg[:, None] + (t_n - sign) * b_avg[:, None]
    out[:, gmask] = (x[:, gmask] - (1 - t_n) * g_avg[:, None] + (1 + c) * u_prev * b_avg[:, None])
    return out


def exact_recurrence(table: np.ndarray, gmask: np.ndarray, n_max: int) -> list[tuple]:
    """Exact (X_n, Y_n) of the two-block recurrence for n = 1 .. n_max, each a
    (2, D) object array of real and imaginary parts, from the float (N, D) ``table``.

    X_1 = Y_1 = t Gbar - (N - t) Bbar, then with c = cos(2 theta) = 1 - 2t/N
    and C_k = t Gbar + (-1)^k (N - t) Bbar,

        X_k = c X_{k-1} + (c + 1) Y_{k-1} + C_k,   Y_k = (c - 1) X_{k-1} + c Y_{k-1} + C_k,

    so that f_g(n) = f_g - (2/N) X_n and f_b(n) = (-1)^n f_b - (2/N) Y_n.
    """
    x = exact_table(table)
    n_big, t = len(gmask), int(np.count_nonzero(gmask))
    c = 1 - Fraction(2 * t, n_big)
    g_sum = x[:, gmask].sum(axis=1)
    b_sum = x[:, ~gmask].sum(axis=1)
    big_x = big_y = g_sum - b_sum
    out = [(big_x, big_y)]
    for k in range(2, n_max + 1):
        drive = g_sum + (-1) ** k * b_sum
        big_x, big_y = (c * big_x + (c + 1) * big_y + drive,
                        (c - 1) * big_x + c * big_y + drive)
        out.append((big_x, big_y))
    return out


def exact_error(table: np.ndarray, exact: np.ndarray) -> float:
    """Largest |table - exact| over both parts, rounded to a float once."""
    return float(np.max(np.abs(exact_table(table) - exact)))


def grover_matrix(n_qubits: int, good_indices) -> np.ndarray:
    """Dense -W S0 W S_H on the search register."""
    n = 1 << n_qubits
    w = hadamard_matrix(n_qubits)
    s0 = np.eye(n, dtype=np.complex128)
    s0[0, 0] = -1.0
    sh = np.eye(n, dtype=np.complex128)
    for g in good_indices:
        sh[g, g] = -1.0
    return -(w @ s0 @ w @ sh)


def apply_search_operator(op: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply an N x N search-register operator to an N x D table."""
    return op @ coeffs


def dft_matrix(p: int, sign: int = 1) -> np.ndarray:
    a = np.arange(p)
    return np.exp(sign * 2j * np.pi * np.outer(a, a) / p) / math.sqrt(p)


def random_table(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


def random_state(n_qubits: int, d: int, seed: int) -> EntangledState:
    return from_amplitudes(random_table(1 << n_qubits, d, seed), renormalize=True)


def random_marked(n: int, t: int, seed: int) -> GoodSet:
    rng = np.random.default_rng(seed)
    return GoodSet(tuple(int(i) for i in rng.choice(n, size=t, replace=False)))


def brute_force_count_amplitudes(state: EntangledState, good: GoodSet, p: int) -> np.ndarray:
    """P x N x D counting-circuit amplitudes from dense matrices only."""
    n = state.n_states
    g = grover_matrix(state.n_qubits, good.indices)
    branches = np.empty((p, n, state.data_dim), dtype=np.complex128)
    cur = state.coeffs / math.sqrt(n)
    for m in range(p):
        branches[m] = cur / math.sqrt(p)
        cur = g @ cur
    f = dft_matrix(p, +1)
    return np.einsum("nm,mad->nad", f, branches)


def brute_force_count_distribution(state: EntangledState, good: GoodSet, p: int) -> np.ndarray:
    """Ancilla distribution from dense matrices only."""
    mixed = brute_force_count_amplitudes(state, good, p)
    return np.sum(np.abs(mixed) ** 2, axis=(1, 2))


@pytest.fixture
def flat4():
    from entgrover import new_flat

    return new_flat(2, 1)


@pytest.fixture
def good0():
    return GoodSet((0,))
