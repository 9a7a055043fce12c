"""Empirical semigroup diagnostics: decay rates and observability constants.

Post-processing over forward trajectories only; nothing here touches the
solver state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ObservabilityFailure, ResolutionError
from .forward import (
    _time_step,
    mode_field,
    solve_modes,
    step_quadrature,
    stiffness_energy,
    time_quadrature,
)
from .grid import Grid2D
from .spectral import DampingPair, ModeIndex, check_probe_resolution

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
    design = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, log_amp, rcond=None)
    residual = float(np.sqrt(np.mean((log_amp - design @ np.array([slope, intercept])) ** 2)))
    amp0 = math.sqrt(2.0 * energies[0])
    m_fit = math.exp(intercept) / amp0 if amp0 > 0 else math.inf
    return DecayFit(M_fit=float(m_fit), omega_fit=float(-slope), residual=residual,
                    window=(float(window[0]), float(window[1])))


@dataclass(frozen=True)
class ObservabilityReport:
    """Per-probe energy-to-measurement ratios and their maximum."""

    kappa_est: float
    ratios: tuple
    tau: float
    grid_n: int


def estimate_observability(a: DampingPair, tau: float, probes: Iterable[ModeIndex],
                           grid: Grid2D, dt_factor: float = 0.5) -> ObservabilityReport:
    """Estimate the observability constant from modal probes.

    For each probe mode, solve with initial data (mode shape, 0), all
    probes as one reduced batch, and form ||(u0, u1)|| / ||trace|| from
    each window's per-step norms; the estimate is the worst ratio.  A probe
    whose trace norm falls below TRACE_FLOOR_FRAC of its initial norm signals
    an observability failure (this is what happens for vanishing damping,
    where the modal traces sit at the discretization floor).  A probe the
    grid does not resolve (spectral.check_probe_resolution) fails before any solve.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe mode")
    for mode in probes:
        check_probe_resolution(grid.n, mode)
    steps, dt = _time_step(tau, grid.h, dt_factor)
    per_step = np.empty((len(probes), steps + 1))

    def reduce(start: int, first: int, window: np.ndarray):
        for j, sides in enumerate(window, start):
            per_step[j, first:first + sides.shape[1]] = step_quadrature(sides)

    solve_modes([a], probes, grid, tau, dt_factor, reduce=reduce)
    ratios = []
    for mode, row in zip(probes, per_step):
        # the data start at rest, so twice the initial energy is the stiffness term
        init_norm = math.sqrt(stiffness_energy(mode_field(mode, grid), grid))
        trace_norm = time_quadrature(row, dt)
        if trace_norm < TRACE_FLOOR_FRAC * init_norm:
            raise ObservabilityFailure(
                f"probe ({mode.k},{mode.l}) trace norm {trace_norm:.3e} below "
                f"{TRACE_FLOOR_FRAC:.2f} of its initial norm {init_norm:.3e}"
            )
        ratios.append((mode, init_norm / trace_norm))
    kappa = max(r for _, r in ratios)
    return ObservabilityReport(kappa_est=float(kappa), ratios=tuple(ratios),
                               tau=tau, grid_n=grid.n)
