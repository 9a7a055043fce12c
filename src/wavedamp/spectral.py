"""Spectral objects of the mixed-boundary Laplacian on the unit square.

The square carries homogeneous Dirichlet conditions on the far sides
(x = 1 and y = 1) and reflecting conditions on the near sides (y = 0 and
x = 0).  Separation of variables gives eigenvalues
((k + 1/2)^2 + (l + 1/2)^2) * pi^2 with product-cosine eigenfunctions;
the restriction to a damped side induces the orthonormal interval modes
sqrt(2) * cos((k + 1/2) pi s).

This module also owns the 1-D sampled-function machinery used everywhere
else: trapezoid quadrature, the least-squares line, cosine-mode
analysis/synthesis, discrete Sobolev and Hoelder norms, and the
multiplier bound for Hoelder coefficients on the half-order Sobolev space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ResolutionError

__all__ = [
    "ModeIndex",
    "Eigenpair",
    "SampledFunction1D",
    "DampingPair",
    "FourierCoeffs",
    "SobolevNorms",
    "MultiplierBound",
    "trapezoid_weights",
    "integrate",
    "fit_line",
    "eigenpair",
    "mode_shape",
    "boundary_mode",
    "check_mode_resolution",
    "check_probe_resolution",
    "project_onto_modes",
    "synthesize_from_modes",
    "sobolev_norms",
    "holder_seminorm",
    "multiplier_bound_check",
]


# ---------------------------------------------------------------------------
# quadrature helpers

def trapezoid_weights(n: int) -> np.ndarray:
    """Composite trapezoid weights on n uniform nodes (spacing excluded)."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def integrate(values: np.ndarray, dx: float) -> float:
    """Composite trapezoid rule on uniformly spaced samples."""
    values = np.asarray(values)
    return float(dx * (trapezoid_weights(values.shape[0]) * values).sum())


def fit_line(x, y) -> tuple[float, float]:
    """Least-squares line y ~ slope * x + intercept, as (slope, intercept).

    The normal equations about the means xm and ym of x and y decouple,
    so slope = sum (x - xm)(y - ym) / sum (x - xm)^2 and intercept =
    ym - slope * xm need no matrix solve: the sums are numpy's own, with
    no BLAS or LAPACK call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.shape[0] < 2:
        raise ValueError("a line fit needs two 1-D arrays of one length, at least 2")
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    spread = float((dx * dx).sum())
    if not spread > 0.0:
        raise ValueError("a line fit needs at least two distinct abscissae")
    slope = float((dx * (y - y_mean)).sum()) / spread
    return slope, float(y_mean - slope * x_mean)


# ---------------------------------------------------------------------------
# modes

@dataclass(frozen=True)
class ModeIndex:
    """Nonnegative separation indices (k, l) of a square eigenfunction.

    Negative indices are redundant: cos((-k - 1/2) pi s) = cos((k + 1/2) pi s),
    so restricting to k, l >= 0 enumerates the spectrum without double
    counting.
    """

    k: int
    l: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise ValueError(f"mode indices must be nonnegative, got {(self.k, self.l)}")


@dataclass(frozen=True)
class Eigenpair:
    mode: ModeIndex
    eigenvalue: float
    omega: float


def eigenpair(mode: ModeIndex) -> Eigenpair:
    """Eigenvalue ((k+1/2)^2 + (l+1/2)^2) pi^2 and its temporal frequency."""
    lam = ((mode.k + 0.5) ** 2 + (mode.l + 0.5) ** 2) * math.pi ** 2
    return Eigenpair(mode=mode, eigenvalue=lam, omega=math.sqrt(lam))


def mode_shape(mode: ModeIndex, x, y):
    """Eigenfunction 2 cos((k+1/2) pi x) cos((l+1/2) pi y), unit L2 norm.

    Vanishes on x = 1 and y = 1; its normal derivative vanishes on x = 0
    and y = 0.
    """
    tx = (mode.k + 0.5) * math.pi
    ty = (mode.l + 0.5) * math.pi
    return 2.0 * np.cos(tx * np.asarray(x)) * np.cos(ty * np.asarray(y))


def boundary_mode(k: int, s):
    """Orthonormal interval mode sqrt(2) cos((k+1/2) pi s) on (0, 1)."""
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    return math.sqrt(2.0) * np.cos((k + 0.5) * math.pi * np.asarray(s))


# ---------------------------------------------------------------------------
# sampled functions on the unit interval

@dataclass(frozen=True)
class SampledFunction1D:
    """Real samples on the uniform nodes s_i = i/(n-1) of [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 3:
            raise ValueError("need at least 3 samples on a 1-D uniform grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, fn, n: int) -> "SampledFunction1D":
        return cls(np.asarray(fn(np.linspace(0.0, 1.0, n)), dtype=float))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)

    def at(self, s) -> np.ndarray:
        """Piecewise-linear interpolation at arbitrary points of [0, 1]."""
        return np.interp(np.asarray(s, dtype=float), self.nodes, self.values)


@dataclass(frozen=True)
class FourierCoeffs:
    """Cosine-mode coefficients of a damped-side profile, orders 0..N."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.shape[0] < 1:
            raise ValueError("need at least one coefficient")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def check_mode_resolution(n: int, order: int):
    """Raise ResolutionError unless n samples resolve the interval modes 0..order.

    project_onto_modes runs this check, and a caller can run it before it
    solves anything; it asks for at least 8 samples per period of the
    highest retained mode.
    """
    if n - 1 < 4 * order + 2:
        raise ResolutionError(
            f"{n} samples cannot resolve mode order {order}; need n >= {4 * order + 3}"
        )


def check_probe_resolution(n: int, mode: ModeIndex):
    """Raise ResolutionError unless n >= 8 (max(k, l) + 1/2) + 1: 8 nodes per half-period.

    reconstruct._probe, the one probe path, runs this check before any solve.
    """
    need = 8 * (max(mode.k, mode.l) + 0.5) + 1
    if n < need:
        raise ResolutionError(f"grid n = {n} cannot resolve probe mode "
                              f"({mode.k},{mode.l}); need n >= {math.ceil(need)}")


def project_onto_modes(f: SampledFunction1D, order: int) -> FourierCoeffs:
    """Trapezoid quadrature of f against the interval modes 0..order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    check_mode_resolution(f.n, order)
    s = f.nodes
    w = trapezoid_weights(f.n) * f.dx
    coeffs = np.array([float((w * f.values * boundary_mode(k, s)).sum()) for k in range(order + 1)])
    return FourierCoeffs(coeffs)


def synthesize_from_modes(coeffs: FourierCoeffs, n: int) -> SampledFunction1D:
    """Finite cosine sum sum_k c_k sqrt(2) cos((k+1/2) pi s) on n nodes."""
    s = np.linspace(0.0, 1.0, n)
    out = np.zeros(n)
    for k, c in enumerate(coeffs.coeffs):
        out += c * boundary_mode(k, s)
    return SampledFunction1D(out)


# ---------------------------------------------------------------------------
# norms

@dataclass(frozen=True)
class SobolevNorms:
    l2: float
    h1: float
    h_half: float


@lru_cache(maxsize=8)
def _masked_inverse_distance(n: int) -> tuple[np.ndarray, np.ndarray]:
    """K[i, j] = |x_i - x_j|^-2 off the diagonal and 0 on it, and K's row sums.

    The points x are the n - 1 cell midpoints of the n uniform nodes of
    [0, 1].  Both arrays are built once per sample count and read-only.
    """
    s = np.linspace(0.0, 1.0, n)
    s = 0.5 * (s[1:] + s[:-1])
    dist = np.abs(s[:, None] - s[None, :])
    np.fill_diagonal(dist, np.inf)
    inverse = dist ** -2
    row_sums = inverse.sum(axis=1)
    inverse.flags.writeable = False
    row_sums.flags.writeable = False
    return inverse, row_sums


def _unit_scaled(values) -> tuple[np.ndarray, int]:
    """values times 2^-e, the power of two that brings the largest |value| into [1/2, 1), and e.

    Every norm of samples squares the scaled values and scales the norm back
    by 2^e, so squares of tiny samples do not underflow, nor squares of huge
    ones overflow (Blue, ACM TOMS 4 (1978) 15-23).  Samples whose squares do
    neither get the bits they would get unscaled.
    """
    values = np.asarray(values, dtype=float)
    exponent = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -exponent), exponent


def _norm_from(sq: float, exponent: int) -> float:
    """2^exponent sqrt(sq), a norm from its square sq at _unit_scaled's scale.

    inf past the largest double, where math.ldexp raises.
    """
    try:
        return math.ldexp(math.sqrt(sq), exponent)
    except OverflowError:
        return math.inf


def _scaled_l2_h1_sq(f: SampledFunction1D) -> tuple[np.ndarray, int, float, float]:
    """(v, e, ||v||^2, ||v||_{H1}^2) for v, f's samples scaled by _unit_scaled's 2^-e.

    The discrete L2 and H1 norms of f are _norm_from(each, e), in O(samples).
    """
    v, exponent = _unit_scaled(f.values)
    l2sq = integrate(v * v, f.dx)
    dv = np.gradient(v, f.dx, edge_order=2)
    return v, exponent, l2sq, l2sq + integrate(dv * dv, f.dx)


def sobolev_norms(f: SampledFunction1D) -> SobolevNorms:
    """Discrete L2, H1 and H^{1/2} norms of an interval sample.

    The half-order norm uses the double-integral form
    (||f||_{L2}^2 + iint |f(x)-f(y)|^2 / |x-y|^2 dx dy)^{1/2},
    discretized on the cell-midpoint grid so the diagonal is excluded (its
    inverse squared distance is held as 0).  With m the midpoint values, K
    the inverse squared distances and R = K 1 their row sums, the double
    sum sum_{i != j} (m_i - m_j)^2 K_ij is 2 (m^2 . R - m^T K m): one
    product with the cached (samples - 1)^2 matrix K.  All three are
    computed on the samples scaled by a power of two (_scaled_l2_h1_sq, which
    gives the L2 and H1 norms alone) and scaled back.
    """
    v, exponent, l2sq, h1sq = _scaled_l2_h1_sq(f)
    dx = f.dx
    mid = 0.5 * (v[1:] + v[:-1])
    inverse, row_sums = _masked_inverse_distance(f.n)
    double_sum = 2.0 * (float(np.dot(mid * mid, row_sums)) - float(np.dot(mid, inverse @ mid)))
    # the two terms cancel for a near-constant sample; the sum itself is never negative
    semi_sq = dx * dx * max(double_sum, 0.0)
    return SobolevNorms(
        l2=_norm_from(l2sq, exponent),
        h1=_norm_from(h1sq, exponent),
        h_half=_norm_from(l2sq + semi_sq, exponent),
    )


def holder_seminorm(f: SampledFunction1D, alpha: float) -> float:
    """sup over sample pairs of |f(x) - f(y)| / |x - y|^alpha.

    The sup is taken as the max over lags k of (k dx)^-alpha times the
    largest |f(s_{i+k}) - f(s_i)|.  Those lag maxima do not depend on
    alpha: they come from one pass over the pair differences, and alpha
    enters through n - 1 powers only.
    """
    if not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (1/2, 1]")
    v = f.values
    n = f.n
    # row k - 1 of the windows reads v[i + k], and NaN past the last sample, which fmax skips
    padded = np.concatenate([v, np.full(n - 1, np.nan)])
    diff = sliding_window_view(padded[1:], n) - v
    np.abs(diff, out=diff)
    lag_max = np.fmax.reduce(diff, axis=1)
    return float(np.max(lag_max * (np.arange(1, n) * f.dx) ** -alpha))


@dataclass(frozen=True)
class MultiplierBound:
    lhs: float
    rhs: float
    holds: bool


def multiplier_bound_check(a: SampledFunction1D, f: SampledFunction1D, alpha: float) -> MultiplierBound:
    """Check that multiplication by a Hoelder function is bounded on H^{1/2}.

    Compares ||a f||_{H^{1/2}} against
    (2 alpha - 1)^{-1} (||a||_inf + [a]_alpha) ||f||_{H^{1/2}}.
    """
    if a.n != f.n:
        raise ValueError("a and f must share the sample grid")
    lhs = sobolev_norms(SampledFunction1D(a.values * f.values)).h_half
    c_alpha = float(np.max(np.abs(a.values))) + holder_seminorm(a, alpha)
    rhs = c_alpha * sobolev_norms(f).h_half / (2.0 * alpha - 1.0)
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return MultiplierBound(lhs=lhs, rhs=rhs, holds=holds)


# ---------------------------------------------------------------------------
# damping pairs

@dataclass(frozen=True)
class DampingPair:
    """Damping coefficient on the two damped sides, as a sample pair.

    a1 lives on the bottom side (y = 0, parametrized by x) and a2 on the
    left side (x = 0, parametrized by y); the two parametrizations meet at
    the corner (0, 0), so a1(0) = a2(0) is required.
    """

    a1: SampledFunction1D
    a2: SampledFunction1D

    def __post_init__(self):
        gap = abs(self.a1.values[0] - self.a2.values[0])
        if gap > 1e-12:
            raise ValueError(f"corner mismatch |a1(0) - a2(0)| = {gap:.3e} exceeds tolerance")
        for name, a in (("a1", self.a1), ("a2", self.a2)):
            if a.values.min() < -1e-12:
                raise ValueError(f"{name} must be nonnegative (min {a.values.min():.3e})")

    @classmethod
    def from_callables(cls, f1, f2, n: int = 257) -> "DampingPair":
        return cls(SampledFunction1D.from_callable(f1, n), SampledFunction1D.from_callable(f2, n))

    @classmethod
    def constant(cls, value: float, n: int = 257) -> "DampingPair":
        return cls.from_callables(lambda s: np.full_like(s, value), lambda s: np.full_like(s, value), n)

    @classmethod
    def zero(cls, n: int = 257) -> "DampingPair":
        return cls.constant(0.0, n)

    def scaled(self, factor: float) -> "DampingPair":
        if factor < 0:
            raise ValueError("scaling must be nonnegative")
        return DampingPair(SampledFunction1D(factor * self.a1.values),
                           SampledFunction1D(factor * self.a2.values))

    def minimum(self) -> float:
        return float(min(self.a1.values.min(), self.a2.values.min()))

    def h1_sq_max(self) -> float:
        """Largest squared H1 norm among the two components, sobolev_norms' h1 times itself.

        A square past the largest double is inf.
        """
        norms = [_norm_from(h1sq, e) for _, e, _, h1sq in map(_scaled_l2_h1_sq, (self.a1, self.a2))]
        return max(h1 * h1 for h1 in norms)

    def l2_norm(self) -> float:
        """Norm of the pair in L2((0,1))^2, from sobolev_norms' l2 of each component.

        The two norms are combined under a common power of two, so the pair
        norm keeps its digits at any scale a double holds.
        """
        sides = [_scaled_l2_h1_sq(a)[1:3] for a in (self.a1, self.a2)]  # (e, squared L2 norm)
        top = max((e for e, sq in sides if sq > 0.0), default=0)
        n1, n2 = (_norm_from(sq, e - top) for e, sq in sides)
        return _norm_from(n1 * n1 + n2 * n2, top)
