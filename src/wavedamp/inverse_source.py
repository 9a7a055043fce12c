"""Convolution machinery for the inverse source problem.

The forward map sends a time-independent source with known modulation
profile to the observed boundary signal; its time structure is the causal
convolution S with the modulation.  This module provides S, its
anticausal adjoint, the Gronwall-type stability factor that controls the
inversion, and the end-to-end bound check pairing the dual norm of a
source against the boundary trace it generates.

All quadrature is composite trapezoid on a uniform step grid, so the
discrete adjoint identity <S h, g> = <h, S* g> holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ObservabilityFailure
from .forward import SourceSpec, solve, stiffness_dual_norm
from .grid import Grid2D
from .spectral import DampingPair, integrate, trapezoid_weights

__all__ = [
    "Modulation",
    "TimeSignal",
    "convolve_causal",
    "convolve_anticausal",
    "stability_factor",
    "GronwallCheck",
    "gronwall_bound_check",
    "gronwall_column_checks",
    "SourceBoundCheck",
    "source_bound_check",
]

VANISHING_NORM = 1e-12  # dual and trace norms at or below this count as zero
PANEL = 128  # rows or columns of the convolution matrix formed at a time


def _check_samples(v: np.ndarray, ndim: int, tau: float, what: str):
    """Raise ValueError unless v has ndim axes and at least 3 finite samples, and 0 < tau < inf."""
    if v.ndim != ndim or v.shape[0] < 3:
        raise ValueError(f"{what} needs at least 3 samples")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} samples must be finite")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")


@dataclass(frozen=True)
class Modulation:
    """Known time modulation of the source, sampled on [0, tau].

    All stability statements require a nonzero initial value.
    """

    values: np.ndarray
    tau: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        _check_samples(v, 1, self.tau, "modulation")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn, tau: float, steps: int) -> "Modulation":
        t = np.linspace(0.0, tau, steps + 1)
        return cls(np.asarray(fn(t), dtype=float), tau)

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.tau / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @property
    def initial_value(self) -> float:
        return float(self.values[0])

    def derivative_l2(self) -> float:
        """L2(0, tau) norm of the time derivative, finite differences."""
        d = np.gradient(self.values, self.dt, edge_order=2)
        return math.sqrt(integrate(d * d, self.dt))


@dataclass(frozen=True)
class TimeSignal:
    """Vector-valued signal on the uniform time grid of [0, tau].

    values has shape (steps + 1,) or (steps + 1, dim); each row is one
    instant of the discrete observation space.  The signal holds a
    read-only copy of values, or, with copy=False, takes values over
    (for an array its caller made and no one else holds).
    """

    values: np.ndarray
    tau: float
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        _check_samples(v, 2, self.tau, "signal")
        if copy:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.tau / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    def l2_norm(self) -> float:
        """Norm in L2((0, tau); Y), trapezoid in time."""
        return math.sqrt(integrate((self.values ** 2).sum(axis=1), self.dt))

    def inner(self, other: "TimeSignal") -> float:
        if self.values.shape != other.values.shape:
            raise ValueError("signals must share shape")
        w = trapezoid_weights(self.steps + 1)
        return float(self.dt * (w * (self.values * other.values).sum(axis=1)).sum())


def _check_aligned(lam: Modulation, sig: TimeSignal):
    if lam.steps != sig.steps or not math.isclose(lam.tau, sig.tau, rel_tol=1e-12):
        raise ValueError("modulation and signal must share the time grid")


def _kernel_panels(lam: Modulation, by_columns: bool):
    """Yield (start, stop, panel): K's row panels, or its column panels, in order.

    K is the trapezoid quadrature of the causal convolution: entry [t, s] is
    lam(t - s) dt for s <= t, halved on the diagonal and in column 0 (the
    trapezoid end weights of each row), with [0, 0] zero and every entry
    above the diagonal an exact zero.  Row panel t0:t1 is K[t0:t1, :t1] and
    column panel s0:s1 is K[s0:, s0:s1]: each holds every nonzero of its rows
    or columns, so the zero triangle past it is never formed.  A panel is
    dt times a strided view of the zero-padded samples, written into one
    buffer that the next panel reuses.
    """
    m = lam.steps
    padded = np.concatenate([lam.values[::-1], np.zeros(m)])
    # row t of the windows in reverse order reads padded[m - t + s] = lam(t - s), zero for s > t
    windows = sliding_window_view(padded, m + 1)[::-1]
    buf = np.empty(min(PANEL, m + 1) * (m + 1))
    for start in range(0, m + 1, PANEL):
        stop = min(start + PANEL, m + 1)
        r0, r1, c0, c1 = (start, m + 1, start, stop) if by_columns else (start, stop, 0, stop)
        panel = buf[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
        np.multiply(windows[r0:r1, c0:c1], lam.dt, out=panel)
        # the panel's diagonal entries [t, t] run from [0, start - c0] with stride c1 - c0 + 1
        panel.reshape(-1)[start - c0::c1 - c0 + 1][: stop - start] *= 0.5
        if c0 == 0:
            panel[:, 0] *= 0.5
        if r0 == 0:
            panel[0, 0] = 0.0
        yield start, stop, panel


def _causal_rows(lam: Modulation, x: np.ndarray):
    """Yield (t0, t1, rows): rows t0:t1 of K x, that is K[t0:t1, :t1] @ x[:t1], in order.

    x is (steps + 1, cols).  rows is one buffer that the next block
    overwrites, so a caller reduces or copies each block before it asks
    for the next.
    """
    buf = np.empty((min(PANEL, lam.steps + 1), x.shape[1]))
    for t0, t1, panel in _kernel_panels(lam, by_columns=False):
        rows = buf[: t1 - t0]
        np.matmul(panel, x[:t1], out=rows)
        yield t0, t1, rows


def _anticausal_rows(lam: Modulation, weighted: np.ndarray):
    """Yield (s0, s1, rows): rows s0:s1 of K^T weighted, that is K[s0:, s0:s1]^T @ weighted[s0:].

    weighted is (steps + 1, cols), the signal already scaled by the
    trapezoid weights.  rows is reused as in _causal_rows.
    """
    buf = np.empty((min(PANEL, lam.steps + 1), weighted.shape[1]))
    for s0, s1, panel in _kernel_panels(lam, by_columns=True):
        rows = buf[: s1 - s0]
        np.matmul(panel.T, weighted[s0:], out=rows)
        yield s0, s1, rows


def convolve_causal(lam: Modulation, sig: TimeSignal) -> TimeSignal:
    """(S h)(t) = int_0^t lam(t - s) h(s) ds; output vanishes at t = 0.

    Computed as K h, one row block at a time (_causal_rows).  Row t of the
    output is one dot product of K's row t with the samples up to the
    block's end, and every entry of that row past t is an exact zero, so
    causality holds bit-exactly.
    """
    _check_aligned(lam, sig)
    out = np.empty_like(sig.values)
    for t0, t1, rows in _causal_rows(lam, sig.values):
        out[t0:t1] = rows
    return TimeSignal(out, sig.tau, copy=False)


def convolve_anticausal(lam: Modulation, sig: TimeSignal) -> TimeSignal:
    """(S* h)(t) = int_t^tau lam(s - t) h(s) ds.

    Computed as (K^T (w h)) / w with K the causal matrix of convolve_causal
    and w the trapezoid weights, one row block of K^T at a time
    (_anticausal_rows): the exact discrete adjoint of convolve_causal under
    the trapezoid inner product of L2((0, tau); Y), so the adjoint identity
    holds to roundoff.  Column t of K holds exact zeros at s < t, so the
    output at t only touches samples at s >= t (anticausality is
    bit-exact).  Every interior sample matches the trapezoid quadrature of
    the defining integral; the two end samples carry O(dt) quadrature
    defects (the value at tau keeps its trapezoid end-weight instead of
    being an exact zero, and the value at 0 misses the h(0) end-weight that
    the causal operator's pinned first row never sees).
    """
    _check_aligned(lam, sig)
    w = trapezoid_weights(lam.steps + 1)[:, None]
    weighted = w * sig.values
    out = np.empty_like(weighted)
    for s0, s1, rows in _anticausal_rows(lam, weighted):
        out[s0:s1] = rows
    out /= w
    return TimeSignal(out, sig.tau, copy=False)


def stability_factor(lam: Modulation) -> float:
    """Gronwall constant sqrt(2)/|lam(0)| * exp(||lam'||^2 tau / lam(0)^2)."""
    lam0 = abs(lam.initial_value)
    if lam0 == 0.0:
        raise ValueError("modulation must have a nonzero initial value")
    dl2 = lam.derivative_l2()
    return math.sqrt(2.0) / lam0 * math.exp(dl2 * dl2 * lam.tau / lam0 ** 2)


@dataclass(frozen=True)
class GronwallCheck:
    lhs: float
    rhs: float
    holds: bool


def _gronwall_sq(lam: Modulation, sig: TimeSignal):
    """Per column of sig: the squared L2(0, tau) norms of h and of (S* h)', from one convolution."""
    k = convolve_anticausal(lam, sig)
    kp = np.gradient(k.values, k.dt, axis=0, edge_order=2)
    w = k.dt * trapezoid_weights(k.steps + 1)
    return np.einsum("t,tc->c", w, sig.values ** 2), np.einsum("t,tc->c", w, kp ** 2)


def _gronwall_verdict(factor: float, h_sq: float, kp_sq: float) -> GronwallCheck:
    lhs = math.sqrt(h_sq)
    rhs = factor * math.sqrt(kp_sq)
    return GronwallCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-9))


def gronwall_bound_check(lam: Modulation, sig: TimeSignal) -> GronwallCheck:
    """Check ||h|| <= stability_factor * ||(S* h)'|| in L2((0, tau); Y)."""
    h_sq, kp_sq = _gronwall_sq(lam, sig)
    return _gronwall_verdict(stability_factor(lam), float(h_sq.sum()), float(kp_sq.sum()))


def gronwall_column_checks(lam: Modulation, sig: TimeSignal) -> list[GronwallCheck]:
    """gronwall_bound_check of each column of sig as a scalar signal of its own.

    All columns share one anticausal convolution, and each check reads
    its lhs and rhs off its own column.
    """
    h_sq, kp_sq = _gronwall_sq(lam, sig)
    factor = stability_factor(lam)
    return [_gronwall_verdict(factor, float(a), float(b)) for a, b in zip(h_sq, kp_sq)]


@dataclass(frozen=True)
class SourceBoundCheck:
    """Dual-norm-versus-trace bound for one source configuration.

    ratio = wnorm / trace_norm; c_emp strips the Gronwall factor off the
    ratio, leaving the empirical constant of the bound.
    """

    wnorm: float
    trace_norm: float
    ratio: float
    c_emp: float


def source_bound_check(a: DampingPair, source: SourceSpec, tau: float,
                       grid: Grid2D) -> SourceBoundCheck:
    """Drive the zero-data problem with the source and compare norms.

    Runs the forward solver from rest, measures the boundary trace norm,
    computes the dual norm of the source load (forward.stiffness_dual_norm),
    and reports the ratio together with the Gronwall-normalized constant
    of the source's own modulation profile.
    """
    if a.minimum() <= 0:
        raise ValueError("source bound check needs a strictly positive damping")
    zeros = np.zeros((grid.n, grid.n))
    result = solve(zeros, zeros, a, grid, tau, source=source)
    wnorm = stiffness_dual_norm(source.load, grid)
    trace_norm = result.trace.l2_norm()
    if wnorm <= VANISHING_NORM and trace_norm <= VANISHING_NORM:
        return SourceBoundCheck(wnorm=wnorm, trace_norm=trace_norm, ratio=0.0, c_emp=0.0)
    if trace_norm <= VANISHING_NORM:
        raise ObservabilityFailure("nonzero source produced a vanishing boundary trace")
    steps = result.times.shape[0] - 1
    modulation = Modulation.from_callable(np.vectorize(source.profile), tau, steps)
    ratio = wnorm / trace_norm
    return SourceBoundCheck(wnorm=wnorm, trace_norm=trace_norm, ratio=ratio,
                            c_emp=ratio / stability_factor(modulation))
