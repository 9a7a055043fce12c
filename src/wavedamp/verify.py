"""Named invariant checks behind the `verify` command.

Every check reports a measured value and a tolerance; the check passes
when value <= tolerance.  The invariants are computed where their
objects live (`forward.rellich_residual` and `dissipation_residual`,
`spectral.multiplier_bound_check`, `inverse_source.gronwall_column_checks`);
this module is the one registry that names and bounds them.  The
acceptance criteria on dissipation, adjoint and causality, Gronwall,
Rellich and the multiplier bound read their verdicts from `run_checks`.

The 100 adjoint pairs run batched as the columns of two arrays, h and g.
Each block of convolution rows is reduced into the pairs' inner products
as soon as it is formed, so no whole convolution output is held, and the
defect of each pair is read off its own column.  The 50 Gronwall signals
likewise run as the columns of one signal, through one anticausal
convolution.

The seeded groups draw from `SeededStream`, a counter hash built from
numpy core, so `verify` loads neither `numpy.random` nor the OpenSSL
that its seeding reaches through `secrets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .config import ExperimentConfig
from .errors import RegimeError
from .forward import dissipation_residual, rellich_residual, solve_from_mode
from .grid import Grid2D
from .inverse_source import (
    Modulation,
    TimeSignal,
    _anticausal_rows,
    _causal_rows,
    convolve_anticausal,
    convolve_causal,
    gronwall_column_checks,
)
from .reconstruct import select_truncation
from .spectral import (
    DampingPair,
    ModeIndex,
    SampledFunction1D,
    eigenpair,
    mode_shape,
    multiplier_bound_check,
    trapezoid_weights,
)

__all__ = ["CheckResult", "SeededStream", "run_checks"]


@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name, value, tol, detail="") -> CheckResult:
    return CheckResult(name=name, value=float(value), tolerance=float(tol),
                       passed=bool(value <= tol), detail=detail)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter's increment and its finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
# a shorter draw hashes this many values at once, so a scalar draw costs a slice
_AHEAD = 256


def _splitmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array: a bijection of 64-bit words."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class SeededStream:
    """The seeded draws of one check group, from numpy core alone.

    Word c of the stream is the finalizer of x0 + (c + 1) gamma, with
    x0 = mix(seed) xor group: SplitMix64 started at x0.  Its top 53 bits
    make a uniform u on [0, 1).  Value p of every kind takes words 2p and
    2p + 1: a uniform scales the first onto [low, high), and a normal is
    the cosine branch of Box and Muller (1958), sqrt(-2 log1p(-u)) cos(2 pi v),
    finite since u < 1.  So a value depends only on (seed, group, p), and
    a block draw equals any split of it into successive draws, however
    far ahead a short draw has hashed.

    It offers the three draws the checks make of a numpy `Generator`,
    which a test may pass in its place.
    """

    def __init__(self, seed: int, group: int):
        # a one-element array: uint64 scalar arithmetic warns where it wraps
        self._start = _splitmix(np.array([seed], dtype=np.uint64)) ^ np.uint64(group)
        self._drawn = 0
        self._ahead = np.empty((0, 2))  # the hashed pairs of the values after _drawn

    def _hash_pairs(self, first: int, count: int) -> np.ndarray:
        """(count, 2) uniforms on [0, 1): the two words of values first to first + count - 1."""
        words = np.arange(2 * first + 1, 2 * (first + count) + 1, dtype=np.uint64)
        words *= _GAMMA
        words += self._start
        _splitmix(words)
        words >>= np.uint64(11)
        uniforms = words.astype(np.float64)
        uniforms *= 2.0 ** -53
        return uniforms.reshape(count, 2)

    def _uniform_pairs(self, count: int) -> np.ndarray:
        if count > len(self._ahead):
            self._ahead = self._hash_pairs(self._drawn, max(count, _AHEAD))
        pairs, self._ahead = self._ahead[:count], self._ahead[count:]
        self._drawn += count
        return pairs

    def uniform(self, low: float, high: float, size=None):
        u = self._uniform_pairs(1 if size is None else int(np.prod(size)))[:, 0]
        if size is None:
            return float(low + (high - low) * u[0])
        return (low + (high - low) * u).reshape(size)

    def standard_normal(self, size) -> np.ndarray:
        pairs = self._uniform_pairs(int(np.prod(size)))
        radius = np.negative(pairs[:, 0])
        np.log1p(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = pairs[:, 1] * (2.0 * math.pi)
        radius *= np.cos(angle, out=angle)
        return radius.reshape(size)

    normal = standard_normal


@lru_cache(maxsize=1)
def _trig_basis() -> np.ndarray:
    """Rows 2k and 2k + 1: cos((k + 1/2) pi s) and sin((k + 1) pi s) on 257 nodes, k < 6."""
    s = np.linspace(0.0, 1.0, 257)
    basis = np.empty((12, 257))
    for k in range(6):
        basis[2 * k] = np.cos((k + 0.5) * math.pi * s)
        basis[2 * k + 1] = np.sin((k + 1) * math.pi * s)
    basis.flags.writeable = False
    return basis


def _random_trig(rng, offset=0.0):
    """Six-term trigonometric profile on 257 nodes, term k scaled by 1/(k + 1)^2."""
    coeffs = rng.normal(size=12) / np.repeat(np.arange(1, 7) ** 2, 2)
    return SampledFunction1D(offset + coeffs @ _trig_basis())


def _adjoint_checks(rng) -> List[CheckResult]:
    tau, steps, count = 3.0, 2048, 100
    lam = Modulation.from_callable(lambda t: np.cos(2.0 * t), tau, steps)
    # column k of h and of g is pair k, drawn as one (2, steps + 1) block per pair
    h = np.empty((steps + 1, count))
    g = np.empty((steps + 1, count))
    for k in range(count):
        h[:, k], g[:, k] = rng.standard_normal((2, steps + 1))
    weights = trapezoid_weights(steps + 1)
    w = lam.dt * weights
    # <S h, g> = w^T (K h * g) and |h|^2, |g|^2, one block of K h's rows at a time
    lhs, h_sq, g_sq = np.zeros(count), np.zeros(count), np.zeros(count)
    for t0, t1, rows in _causal_rows(lam, h):
        lhs += w[t0:t1] @ (rows * g[t0:t1])
        h_sq += w[t0:t1] @ h[t0:t1] ** 2
        g_sq += w[t0:t1] @ g[t0:t1] ** 2
    # <h, S* g> = w^T (h * K^T (weights g) / weights) = dt 1^T (h * K^T (weights g))
    g *= weights[:, None]
    rhs = np.zeros(count)
    for s0, s1, rows in _anticausal_rows(lam, g):
        rhs += lam.dt * (h[s0:s1] * rows).sum(axis=0)
    worst = float(np.max(np.abs(lhs - rhs) / np.sqrt(h_sq * g_sq)))

    cut = steps // 2
    h0 = rng.standard_normal(steps + 1)
    h1 = h0.copy()
    h1[cut + 1:] += 1.0
    s0 = convolve_causal(lam, TimeSignal(h0, tau)).values
    s1 = convolve_causal(lam, TimeSignal(h1, tau)).values
    mismatches = int(np.count_nonzero(s0[: cut + 1] != s1[: cut + 1]))
    h2 = h0.copy()
    h2[:cut] += 1.0
    k0 = convolve_anticausal(lam, TimeSignal(h0, tau)).values
    k2 = convolve_anticausal(lam, TimeSignal(h2, tau)).values
    mismatches += int(np.count_nonzero(k0[cut:] != k2[cut:]))

    return [
        _result("adjoint.identity", worst, 1e-8, "max relative defect, 100 pairs"),
        _result("adjoint.causality", mismatches, 0.5, "bit-exact prefix/suffix count"),
    ]


def _gronwall_check(rng) -> CheckResult:
    tau, steps, count = 3.0, 512, 50
    lam = Modulation.from_callable(lambda t: np.cos(2.0 * t), tau, steps)
    # column k is signal k: row k of one (count, steps + 1) draw, the same stream as one draw each
    signals = TimeSignal(rng.standard_normal((count, steps + 1)).T, tau)
    violations = sum(not chk.holds for chk in gronwall_column_checks(lam, signals))
    return _result("gronwall.violations", violations, 0.5, "50 seeded signals")


def _dissipation_checks() -> List[CheckResult]:
    a = DampingPair.constant(1.0)
    # each solve is reduced to its residual before the next starts, so they never coexist
    residuals = {n: dissipation_residual(solve_from_mode(a, ModeIndex(0, 0), Grid2D(n), 2.0), a)
                 for n in (65, 129)}
    return [
        _result("dissipation.residual", residuals[65], 1e-2, "a=1, n=65"),
        _result("dissipation.refinement", residuals[129] / residuals[65], 0.30,
                "residual ratio n=129 over n=65"),
    ]


def _rellich_checks() -> List[CheckResult]:
    x0 = (1.25, 1.25)
    grid = Grid2D(65)
    zero = lambda x, y: np.zeros_like(x)  # exact Laplacian of both affine fields
    r_const = rellich_residual(lambda x, y: np.ones_like(x), x0, grid, zero)
    r_lin = rellich_residual(lambda x, y: x, x0, grid, zero)
    mode = ModeIndex(0, 0)
    lam = eigenpair(mode).eigenvalue
    res = {}
    for n in (33, 65, 129):
        res[n] = rellich_residual(lambda x, y: mode_shape(mode, x, y), x0, Grid2D(n),
                                  laplacian=lambda x, y: -lam * mode_shape(mode, x, y))
    worst_ratio = max(res[65] / res[33], res[129] / res[65])
    return [
        _result("rellich.constant", r_const, 1e-8),
        _result("rellich.linear", r_lin, 1e-8),
        _result("rellich.monotone", worst_ratio, 0.95,
                "worst refinement ratio over 33/65/129"),
    ]


def _multiplier_check(rng) -> CheckResult:
    violations = 0
    worst_excess = -math.inf
    for _ in range(50):
        a = _random_trig(rng, offset=float(rng.uniform(0.0, 1.0)))
        f = _random_trig(rng)
        alpha = float(rng.uniform(0.55, 1.0))
        chk = multiplier_bound_check(a, f, alpha)
        worst_excess = max(worst_excess, chk.lhs - chk.rhs)
        if not chk.holds:
            violations += 1
    return _result("multiplier.violations", violations, 0.5,
                   f"50 seeded triples, worst lhs-rhs = {worst_excess:.3e}")


def _truncation_check(rng) -> CheckResult:
    violations = 0
    for _ in range(50):
        m = float(rng.uniform(0.1, 10.0))
        rate = float(rng.uniform(0.5, 4.0))
        c_cal = float(rng.uniform(0.1, 10.0))
        delta = m / c_cal * math.exp(-rate) * float(rng.uniform(0.01, 1.0))
        try:
            n0 = select_truncation(c_cal, m, rate, delta)
        except RegimeError:
            violations += 1
            continue
        ok_n0 = math.log(c_cal / m * delta) + rate * n0 ** 2 <= -2.0 * math.log(n0)
        bad_n1 = math.log(c_cal / m * delta) + rate * (n0 + 1) ** 2 > -2.0 * math.log(n0 + 1)
        if not (ok_n0 and bad_n1):
            violations += 1
    return _result("n0.bracketing", violations, 0.5, "50 seeded valid configs")


def _conservation_check() -> CheckResult:
    res = solve_from_mode(DampingPair.zero(), ModeIndex(0, 0), Grid2D(65), 4.0)
    drift = float(np.abs(res.energies - res.energies[0]).max() / res.energies[0])
    return _result("energy.conservation", drift, 1e-3, "a=0, n=65, tau=4")


def run_checks(config: Optional[ExperimentConfig] = None,
               name_prefix: Optional[str] = None) -> List[CheckResult]:
    """Run the invariant suite, optionally filtered by name prefix.

    Group i draws from SeededStream(config.seed, i), so a filtered run
    sees the same random vectors as a full one.
    """
    config = config or ExperimentConfig()
    groups = [
        ("adjoint", _adjoint_checks),
        ("gronwall", lambda rng: [_gronwall_check(rng)]),
        ("dissipation", lambda rng: _dissipation_checks()),
        ("rellich", lambda rng: _rellich_checks()),
        ("multiplier", lambda rng: [_multiplier_check(rng)]),
        ("n0", lambda rng: [_truncation_check(rng)]),
        ("energy", lambda rng: [_conservation_check()]),
    ]
    wanted = name_prefix.split(".")[0] if name_prefix else None
    checks: List[CheckResult] = []
    for index, (key, runner) in enumerate(groups):
        if wanted is not None and not key.startswith(wanted):
            continue
        checks.extend(runner(SeededStream(config.seed, index)))
    if name_prefix:
        checks = [c for c in checks if c.name.startswith(name_prefix)]
    return checks
