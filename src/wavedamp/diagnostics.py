"""Empirical semigroup diagnostics: decay rates and observability constants.

fit_decay post-processes a forward trajectory's energy log.
estimate_observability measures its probes through the one probe path,
reconstruct._measure, so it runs the solver as every probe does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ObservabilityFailure, ResolutionError
from .forward import _time_step, mode_field, stiffness_energy
from .grid import Grid2D
from .reconstruct import UndampedReference, _measure
from .spectral import DampingPair, ModeIndex, fit_line

__all__ = [
    "DecayFit",
    "ObservabilityReport",
    "fit_decay",
    "estimate_observability",
]

SKIP_FRACTION = 0.1  # leading share of the horizon left out of a decay fit
TRACE_FLOOR_FRAC = 0.02  # smallest observable trace norm, relative to the initial norm


@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope fit amplitude(t) ~ M_fit * exp(-omega_fit t).

    residual is the root-mean-square misfit of log sqrt(2 E(t)) against
    the fitted line over the window; relative_misfit normalizes it by the
    fitted total log drop |omega_fit| * window length.
    """

    M_fit: float
    omega_fit: float
    residual: float
    window: tuple

    @property
    def relative_misfit(self) -> float:
        length = self.window[1] - self.window[0]
        drop = abs(self.omega_fit) * length
        return self.residual / drop if drop > 0 else math.inf


def fit_decay(times: np.ndarray, energies: np.ndarray) -> DecayFit:
    """Least-squares line through log sqrt(2 E(t)).

    The window drops the leading SKIP_FRACTION of the horizon, where the
    prefactor transient lives.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if np.any(energies <= 0.0):
        raise ValueError("decay fit needs strictly positive energies")
    window = (SKIP_FRACTION * times[-1], times[-1])
    keep = (times >= window[0]) & (times <= window[1])
    if keep.sum() < 8:
        raise ResolutionError(f"window too short for a decay fit: {keep.sum()} samples in "
                              f"[{window[0]:.3g}, {window[1]:.3g}], need 8")
    t = times[keep]
    log_amp = 0.5 * np.log(2.0 * energies[keep])
    slope, intercept = fit_line(t, log_amp)
    residual = float(np.sqrt(np.mean((log_amp - (slope * t + intercept)) ** 2)))
    amp0 = math.sqrt(2.0 * energies[0])
    m_fit = math.exp(intercept) / amp0 if amp0 > 0 else math.inf
    return DecayFit(M_fit=float(m_fit), omega_fit=-slope, residual=residual,
                    window=(float(window[0]), float(window[1])))


@dataclass(frozen=True)
class ObservabilityReport:
    """Per-probe energy-to-measurement ratios and their maximum."""

    kappa_est: float
    ratios: tuple


def estimate_observability(a: DampingPair, tau: float, probes: Iterable[ModeIndex],
                           grid: Grid2D) -> ObservabilityReport:
    """Estimate the observability constant from modal probes.

    For each probe mode, solve with initial data (mode shape, 0) and form
    ||(u0, u1)|| / ||trace||; the estimate is the worst ratio.  The probes
    are measured by reconstruct._measure against an all-zero reference, so
    they run the one probe path (reconstruct._probe): a probe the grid does
    not resolve (spectral.check_probe_resolution) fails before any solve,
    and a damping identically zero on the grid gets the closed-form
    undamped trace without stepping.  A probe whose trace norm falls below
    TRACE_FLOOR_FRAC of its initial norm signals an observability failure
    (this is what happens for vanishing damping, where the modal traces sit
    at the discretization floor).
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe mode")
    steps, _ = _time_step(tau, grid.h)
    zero = UndampedReference(np.zeros(steps + 1), np.zeros((2, grid.n)), tau)
    norms = _measure(a, probes, {mode: zero for mode in probes}, tau, grid, keep=()).norms
    ratios = []
    for mode in probes:
        # the data start at rest, so twice the initial energy is the stiffness term
        init_norm = math.sqrt(stiffness_energy(mode_field(mode, grid), grid))
        trace_norm = norms[mode]
        if trace_norm < TRACE_FLOOR_FRAC * init_norm:
            raise ObservabilityFailure(
                f"probe ({mode.k},{mode.l}) trace norm {trace_norm:.3e} below "
                f"{TRACE_FLOOR_FRAC:.2f} of its initial norm {init_norm:.3e}"
            )
        ratios.append((mode, init_norm / trace_norm))
    kappa = max(r for _, r in ratios)
    return ObservabilityReport(kappa_est=float(kappa), ratios=tuple(ratios))
