"""Recovery of the boundary damping pair from modal boundary measurements.

Pipeline: probe the initial-to-boundary map with mode-shaped initial
data, project the measured normal-derivative trace onto the modal time
profile, invert the linearized boundary relation pointwise, truncate in
the boundary Fourier basis, and compare the coefficient norm against the
logarithmic stability bound driven by the measurement-operator gap.  A
Gauss-Newton refinement over the truncated Fourier parameters is
available on top of the linearized estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError, RegimeError, ResolutionError
from .forward import (
    BoundaryTrace,
    _fixed_order_dot,
    _time_step,
    solve_modes,
    step_quadrature,
    undamped_mode_trace,
)
from .grid import Grid2D
from .spectral import (
    DampingPair,
    ModeIndex,
    SampledFunction1D,
    _norm_from,
    _unit_scaled,
    boundary_mode,
    check_mode_resolution,
    check_probe_resolution,
    eigenpair,
    fit_line,
    integrate,
    project_onto_modes,
    trapezoid_weights,
)

__all__ = [
    "UndampedReference",
    "ModalMeasurement",
    "GapEstimate",
    "SweepRecord",
    "SweepContext",
    "GaussNewtonInfo",
    "reference_solution",
    "probe_mode",
    "time_project",
    "linearized_recover",
    "check_recovery_mode",
    "estimate_gap",
    "graph_norm",
    "select_truncation",
    "stability_bound_rhs",
    "coefficient_bound_constant",
    "sweep_member_ids",
    "stability_sweep",
    "damping_l2_error",
    "fit_damping_least_squares",
]

PHI_FLOOR = 0.15  # smallest usable |boundary mode| for pointwise inversion
FD_STEP = 1e-3  # relative finite-difference step of the Gauss-Newton Jacobian
GN_RTOL = 1e-3  # smallest predicted relative decrease that earns another Gauss-Newton round


# ---------------------------------------------------------------------------
# probing

@dataclass
class UndampedReference:
    """The undamped trace of one probe mode, held as the rank-one product profile[m] * start[side].

    profile, shaped (steps + 1,), and start, shaped (2, n), are the closed
    form of forward.undamped_mode_trace; a probe subtracts it a window at a time.
    """

    profile: np.ndarray
    start: np.ndarray
    tau: float

    @property
    def dt(self) -> float:
        return self.tau / (self.profile.shape[0] - 1)

    @property
    def sides(self) -> np.ndarray:
        """The trace, materialized and shaped (2, steps + 1, n) like BoundaryTrace.sides."""
        return self.start[:, None, :] * self.profile[:, None]

    def subtract_from(self, sides: np.ndarray, first: int) -> np.ndarray:
        """sides minus steps first to first + k - 1 of the trace, in place; sides is (..., 2, k, n).

        The same bits as subtracting those steps of self.sides, one side at
        a time, without a trace-sized temporary.
        """
        profile = self.profile[first:first + sides.shape[-2]]
        if sides.shape[-3:] != (2,) + profile.shape + self.start.shape[1:]:
            raise ValueError("traces must come from matching discretizations")
        for side, start in enumerate(self.start):
            target = sides[..., side, :, :]
            np.subtract(target, np.multiply.outer(profile, start), out=target)
        return sides

    def l2_norm(self) -> float:
        """Space-time L2 norm over both damped sides, as BoundaryTrace.l2_norm, factor by factor."""
        n = self.start.shape[1]
        in_space = float(((self.start ** 2) @ trapezoid_weights(n)).sum()) / (n - 1)
        in_time = self.dt * float(trapezoid_weights(self.profile.shape[0]) @ self.profile ** 2)
        return math.sqrt(in_space * in_time)


@dataclass
class ModalMeasurement:
    """Normal-derivative trace of one probe: the damped minus the undamped run.

    reference is the undamped trace the damped one was differenced
    against, in closed form.  It is analytically zero: the mode's normal
    derivative vanishes on the damped sides, and what is left is the O(h^2)
    defect of the one-sided trace stencil.  So its norm (noise_floor)
    measures the discretization floor of the probe.
    """

    mode: ModeIndex
    trace: BoundaryTrace
    trace_norm: float
    reference: UndampedReference

    @property
    def noise_floor(self) -> float:
        return self.reference.l2_norm()


def reference_solution(mode: ModeIndex, tau: float, grid: Grid2D) -> UndampedReference:
    """The undamped trace of one probe mode (the measurement reference), in closed form."""
    return UndampedReference(*undamped_mode_trace(mode, grid, tau), tau)


def _probe(dampings: Sequence[DampingPair], modes: Sequence[ModeIndex],
           references: Sequence[Optional[UndampedReference]], tau: float, grid: Grid2D,
           take: Callable[[int, int, int, np.ndarray], None]):
    """Every probe of modes[j] under dampings[i], minus references[j], handed on in runs of steps.

    Checks first that the grid resolves each mode and that each reference
    has the horizon's steps + 1 samples on the grid's nodes; a reference of
    None hands on the raw trace.  Every probe runs in one reduced batch,
    and each of its steps is handed on exactly once, in order, in the
    batch's windows: steps first to first + k - 1 as take(i, j, first,
    sides), with sides shaped (2, k, n) and overwritten after the call returns.
    """
    for mode in modes:
        check_probe_resolution(grid.n, mode)
    steps, _ = _time_step(tau, grid.h)
    if any(ref is not None and (ref.profile.shape, ref.start.shape) != ((steps + 1,), (2, grid.n))
           for ref in references):
        raise ValueError("traces must come from matching discretizations")

    def reduce(start: int, first: int, window: np.ndarray):
        for b, sides in enumerate(window, start):
            i, j = divmod(b, len(modes))
            ref = references[j]
            take(i, j, first, sides if ref is None else ref.subtract_from(sides, first))

    solve_modes(dampings, modes, grid, tau, reduce=reduce)


def _measure(a: DampingPair, modes: Sequence[ModeIndex],
             references: Dict[ModeIndex, Optional[UndampedReference]], tau: float, grid: Grid2D,
             keep: Collection[ModeIndex]) -> GapEstimate:
    """The trace norm of each mode's probe under a, and the whole measurement of each mode in keep.

    Each run of steps is reduced to its per-step quadrature as it is handed
    on, so a norm has the bits of the whole trace's l2_norm.
    """
    steps, dt = _time_step(tau, grid.h)
    kept = {j: np.empty((2, steps + 1, grid.n)) for j, mode in enumerate(modes) if mode in keep}
    per_step = np.empty((len(modes), steps + 1))

    def take(i: int, j: int, first: int, sides: np.ndarray):
        last = first + sides.shape[1]
        if j in kept:
            kept[j][:, first:last] = sides
        per_step[j, first:last] = step_quadrature(sides)

    _probe([a], modes, [references[mode] for mode in modes], tau, grid, take)
    norms = {mode: math.sqrt(integrate(per_step[j], dt)) for j, mode in enumerate(modes)}
    times = dt * np.arange(steps + 1)
    return GapEstimate(norms, {
        modes[j]: ModalMeasurement(mode=modes[j], trace_norm=norms[modes[j]],
                                   trace=BoundaryTrace(times=times, sides=sides, dt=dt),
                                   reference=references[modes[j]])
        for j, sides in kept.items()})


def probe_mode(a: DampingPair, mode: ModeIndex, tau: float, grid: Grid2D) -> ModalMeasurement:
    """Boundary measurement generated by initial data (mode shape, 0).

    The reference is the undamped trace of the same probe, in closed form
    (reference_solution).  The damped probe is a batch of one, differenced
    against the reference a window at a time: the same bits as
    damped.difference(reference).
    """
    references = {mode: reference_solution(mode, tau, grid)}
    return _measure(a, [mode], references, tau, grid, {mode}).measurements[mode]


# ---------------------------------------------------------------------------
# linearized recovery

def _fit_envelope_rate(trace: BoundaryTrace, omega: float) -> float:
    """Decay rate of the measurement envelope from half-period RMS bins."""
    t = trace.times
    bottom, left = trace.sides
    power = (bottom ** 2).sum(axis=1) + (left ** 2).sum(axis=1)
    t_bin = math.pi / omega
    nbin = int(t[-1] / t_bin)
    centers, levels = [], []
    for b in range(nbin):
        sel = (t >= b * t_bin) & (t < (b + 1) * t_bin)
        if sel.sum() > 2:
            mean_power = float(np.mean(power[sel]))
            if mean_power > 0.0:
                centers.append(float(np.mean(t[sel])))
                levels.append(0.5 * math.log(mean_power))
    if len(centers) < 2:
        return 0.0
    slope, _ = fit_line(centers, levels)
    return -slope


def time_project(meas: ModalMeasurement):
    """Per-side spatial profiles of the measurement's modal time content.

    Projects the trace onto env(t) * sin(omega t), where env is an
    exponential envelope fitted from the measurement itself.  To first
    order in the damping the trace is a(s) * omega * sin(omega t) times
    the decaying mode amplitude, so dividing the projection by omega and
    the boundary mode shape recovers a.
    """
    pair = eigenpair(meas.mode)
    t = meas.trace.times
    env = np.exp(-_fit_envelope_rate(meas.trace, pair.omega) * t)
    sin_t = np.sin(pair.omega * t)
    wt = trapezoid_weights(t.shape[0]) * meas.trace.dt
    denom = float((wt * env * env * sin_t * sin_t).sum())
    if denom <= 1e-14 * t[-1]:
        raise ResolutionError(f"degenerate projection window: a horizon of {t[-1]:.3g} cannot "
                              f"resolve the mode's time profile sin({pair.omega:.3g} t)")
    weight = wt * env * sin_t
    bottom, left = meas.trace.sides
    y1 = (weight @ bottom) / denom
    y2 = (weight @ left) / denom
    return SampledFunction1D(y1), SampledFunction1D(y2)


def linearized_recover(y1: SampledFunction1D, y2: SampledFunction1D, mode: ModeIndex,
                       guard: float = 0.2) -> DampingPair:
    """Pointwise inversion of the linearized boundary relation.

    a_hat(s) = Y(s) / (sqrt(2) * omega * boundary mode(s)) away from the
    guard band at s = 1 where the mode shape vanishes; the guard band is
    filled with the last recovered value.  Raises when the mode shape has
    near-zeros inside the unguarded region (higher modes are unusable for
    pointwise inversion).
    """
    if not 0.0 <= guard <= 0.5:
        raise ValueError("guard must lie in [0, 1/2]")
    omega = eigenpair(mode).omega
    estimates = []
    for y, k in ((y1, mode.k), (y2, mode.l)):
        s = y.nodes
        phi = boundary_mode(k, s)
        usable = s <= 1.0 - guard
        if np.min(np.abs(phi[usable])) < PHI_FLOOR:
            raise ResolutionError(
                f"boundary mode {k} nearly vanishes inside the unguarded region; "
                "pointwise inversion unusable"
            )
        a_hat = np.empty_like(y.values)
        a_hat[usable] = y.values[usable] / (math.sqrt(2.0) * omega * phi[usable])
        last = a_hat[usable][-1]
        a_hat[~usable] = last
        estimates.append(a_hat)
    a1, a2 = estimates
    return _joined_pair(a1, a2)


def _joined_pair(a1: np.ndarray, a2: np.ndarray) -> DampingPair:
    """The pair of a1 and a2, in place, with both corners set to their mean and clipped at 0."""
    a1[0] = a2[0] = 0.5 * (a1[0] + a2[0])
    np.clip(a1, 0.0, None, out=a1)
    np.clip(a2, 0.0, None, out=a2)
    return DampingPair(SampledFunction1D(a1), SampledFunction1D(a2))


def check_recovery_mode(mode: ModeIndex, grid: Grid2D, guard: float = 0.2):
    """Raise linearized_recover's ResolutionError for a mode it cannot invert.

    Runs the inversion on zero samples of the grid, so a caller can reject
    the mode before it solves anything.
    """
    zero = SampledFunction1D(np.zeros(grid.n))
    linearized_recover(zero, zero, mode, guard)


def damping_l2_error(estimate: DampingPair, truth: DampingPair, guard: float = 0.2) -> float:
    """Relative L2 error of the pair on the unguarded region [0, 1 - guard].

    The difference and the truth are each scaled by a power of two of their
    own (spectral._unit_scaled) before they are squared, so the ratio of
    their norms is finite at any scale a double holds, and inf past it.  An
    identically zero truth gets the absolute error.
    """
    s = np.linspace(0.0, 1.0 - guard, 257)
    w = trapezoid_weights(s.shape[0]) * (s[1] - s[0])
    sides = ((estimate.a1, truth.a1), (estimate.a2, truth.a2))
    d, d_exponent = _unit_scaled([est.at(s) - ref.at(s) for est, ref in sides])
    r, r_exponent = _unit_scaled([ref.at(s) for _, ref in sides])
    num = float((w * d[0] * d[0]).sum()) + float((w * d[1] * d[1]).sum())
    den = float((w * r[0] * r[0]).sum()) + float((w * r[1] * r[1]).sum())
    if den == 0.0:
        return _norm_from(num, d_exponent)
    return _norm_from(num / den, d_exponent - r_exponent)


# ---------------------------------------------------------------------------
# operator gap and stability bound

def graph_norm(mode: ModeIndex) -> float:
    """Norm of a mode shape in the probing space: (lambda + lambda^2)^(1/2)."""
    lam = eigenpair(mode).eigenvalue
    return math.sqrt(lam + lam * lam)


@dataclass
class GapEstimate:
    """Finite-probe lower bound used as the working operator-gap estimate.

    norms holds each probe mode's trace norm, and measurements the whole
    measurement of each mode the estimate kept, both keyed by mode in
    probing order.
    """

    norms: Dict[ModeIndex, float]
    measurements: Dict[ModeIndex, ModalMeasurement]

    @property
    def value(self) -> float:
        """Largest ratio of trace norm to graph norm among the probes."""
        return max(norm / graph_norm(mode) for mode, norm in self.norms.items())


def estimate_gap(a: DampingPair, probe_budget: int, tau: float, grid: Grid2D,
                 references: Optional[Dict[ModeIndex, UndampedReference]] = None,
                 keep: Optional[Collection[ModeIndex]] = None) -> GapEstimate:
    """Max over probe modes of trace norm over graph norm of the probe.

    The modes {0..probe_budget}^2 are probed as one reduced batch, as
    probe_mode probes one: each window of steps is differenced against its
    reference and reduced to its per-step norms, so no probe's trace is
    held whole unless its mode is in keep (every mode when None), and each
    norm has the bits of probe_mode's trace_norm.  references maps a mode
    to its undamped trace (reference_solution), and the modes it lacks get
    theirs here, in closed form.
    """
    if probe_budget < 0:
        raise ValueError("probe budget must be nonnegative")
    modes = [ModeIndex(k, l) for k in range(probe_budget + 1) for l in range(probe_budget + 1)]
    refs = dict(references or {})
    refs.update({mode: reference_solution(mode, tau, grid) for mode in modes if mode not in refs})
    return _measure(a, modes, refs, tau, grid, modes if keep is None else keep)


def select_truncation(c_cal: float, m: float, trunc_rate: float, delta: float) -> int:
    """Greatest N >= 1 with (c_cal/m) exp(trunc_rate N^2) delta <= 1/N^2.

    The scan works in log space; when even N = 1 fails the gap is too
    large for the truncation rule and a RegimeError asks the caller for
    the large-gap branch of the stability estimate.
    """
    if c_cal <= 0 or m <= 0 or trunc_rate <= 0:
        raise ValueError("c_cal, m and trunc_rate must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    log_margin = math.log(c_cal) - math.log(m) + math.log(delta) + trunc_rate
    return _truncation_order(log_margin, trunc_rate, delta)


def _truncation_order(log_margin: float, trunc_rate: float, delta: float) -> int:
    """select_truncation's scan from log_margin = ln((c_cal/m) exp(trunc_rate) delta).

    N passes when log_margin + trunc_rate (N^2 - 1) <= -2 ln N.  Written
    relative to N = 1, the test never forms exp(-trunc_rate), which
    underflows to 0 past trunc_rate = 745, nor cancels a large rate
    against itself.
    """
    def passes(n: int) -> bool:
        return log_margin + trunc_rate * (n * n - 1) <= -2.0 * math.log(n)

    if not passes(1):
        raise RegimeError(
            f"gap {delta:.3e} too large for truncation selection "
            f"(needs delta <= {delta * math.exp(-log_margin):.3e})"
        )
    n = 1
    while passes(n + 1):
        n += 1
    return n


def stability_bound_rhs(delta: float, m: float, M: float, c_cal: float) -> float:
    """Right side c_cal * M * (|ln(delta/m)|^(-1/2) + delta/m) of the estimate.

    delta = 0 returns +inf (the bound is vacuous); delta = m is the
    logarithmic singularity and is rejected rather than regularized.
    """
    if delta < 0 or m <= 0 or M <= 0 or c_cal <= 0:
        raise ValueError("need delta >= 0 and positive m, M, c_cal")
    if delta == 0.0:
        return math.inf
    if delta == m:
        raise ValueError("delta equal to m sits on the logarithmic singularity")
    ratio = delta / m
    return c_cal * M * (abs(math.log(ratio)) ** -0.5 + ratio)


def coefficient_bound_constant(coeff: float, k: int, m: float, M: float, delta: float,
                               tau: float) -> float:
    """Empirical constant (a_j^k)^2 / [(M^2/m) e^{k^2 (tau^2 pi^2 + 1)} delta].

    Evaluated in log space, with log(M^2/m) taken as 2 log M - log m since
    M^2 overflows once M passes about 1.3e154.  Underflows to zero for
    large k, which is the honest value at double precision.
    """
    if coeff == 0.0:
        return 0.0
    if delta <= 0 or m <= 0 or M <= 0:
        raise ValueError("need positive delta, m, M")
    exponent = k * k * (tau * tau * math.pi ** 2 + 1.0)
    log_gap = (2.0 * math.log(abs(coeff)) - (2.0 * math.log(M) - math.log(m))
               - math.log(delta) - exponent)
    if log_gap < -745.0:
        return 0.0
    return math.exp(log_gap)


# ---------------------------------------------------------------------------
# the sweep

@dataclass
class SweepRecord:
    damping_id: str
    epsilon: float
    delta: float
    a_l2: float
    bound_rhs: float
    n0: int
    recon_error_l2: float
    c_emp: float


@dataclass
class SweepContext:
    """Family-level constants frozen during a sweep."""

    m: float
    M: float
    c_cal: float
    c_trunc: float
    c_emp_cal: float
    trunc_rate: float
    calib_id: str


def sweep_member_ids(epsilons: Sequence[float]) -> List[str]:
    """Each sweep member's damping_id, eps-{eps:g}; ValueError where two name one sweep.csv row."""
    ids = [f"eps-{eps:g}" for eps in epsilons]
    repeated = sorted({member_id for member_id in ids if ids.count(member_id) > 1})
    if repeated:
        raise ValueError(f"sweep epsilons {list(epsilons)} repeat the member ids {repeated}")
    return ids


def stability_sweep(family: Sequence[DampingPair], epsilons: Sequence[float], tau: float,
                    grid: Grid2D, probe_budget: int = 2, recovery_mode: ModeIndex = ModeIndex(0, 0),
                    guard: float = 0.2, trunc_rate: float = 2.0, trunc_order: int = 4,
                    calib_index: Optional[int] = None,
                    ) -> Tuple[List[SweepRecord], SweepContext]:
    """Run the full gap-vs-coefficient-size study over a damping family.

    Per member: operator-gap estimate, coefficient pair norm, linearized
    reconstruction error, truncation order and the stability bound.  The
    constants of the bound and of the truncation rule are calibrated on
    one designated member (largest pair norm by default) and frozen for
    the rest of the sweep.  A family whose constants M or M^2/m a double
    cannot hold is refused with NumericalError before any solve.
    """
    if len(family) != len(epsilons):
        raise ValueError("family and epsilons must align")
    if len(family) < 2:
        raise ValueError("a sweep needs at least two members")
    ids = sweep_member_ids(epsilons)

    # the recovery reuses the gap's measurement: an unusable recovery mode fails before any
    # solve, and so does a truncation order that a member's samples cannot project onto
    check_recovery_mode(recovery_mode, grid, guard)
    for member in family:
        for component in (member.a1, member.a2):
            check_mode_resolution(component.n, trunc_order)
    modes = [ModeIndex(k, l) for k in range(probe_budget + 1) for l in range(probe_budget + 1)]
    if recovery_mode not in modes:
        raise ResolutionError(f"recovery mode ({recovery_mode.k}, {recovery_mode.l}) lies "
                              f"outside the probe set of budget {probe_budget}")
    m = min(member.minimum() for member in family)
    M = max(member.h1_sq_max() for member in family)
    if m <= 0:
        raise ValueError("sweep family must be strictly positive for the stability bound")
    # every C_emp takes log(M^2 / m), and the bound scales by M
    if not (0.0 < M < math.inf and M * M / m > 0.0):
        raise NumericalError(f"a sweep family with smallest damping m = {m:.3e} has bound "
                             f"constants M = {M:.3e} and M^2/m = {M * M / m:.3e}, which a "
                             f"double cannot hold")
    references = {mode: reference_solution(mode, tau, grid) for mode in modes}

    def member_record(eps: float, member: DampingPair) -> dict:
        # only the recovery mode's trace is held whole, and it is released on return
        gap = estimate_gap(member, probe_budget, tau, grid, references=references,
                           keep={recovery_mode})
        y1, y2 = time_project(gap.measurements[recovery_mode])
        estimate = linearized_recover(y1, y2, recovery_mode, guard)
        recon_err = damping_l2_error(estimate, member, guard)
        c_emp = 0.0
        for component in (member.a1, member.a2):
            coeffs = project_onto_modes(component, trunc_order)
            for k, coeff in enumerate(coeffs.coeffs):
                c_emp = max(c_emp, coefficient_bound_constant(coeff, k, m, M, gap.value, tau))
        return {"eps": eps, "member": member, "delta": gap.value,
                "a_l2": member.l2_norm(), "recon": recon_err, "c_emp": c_emp}

    raw = [member_record(eps, member) for eps, member in zip(epsilons, family)]

    if calib_index is None:
        calib_index = max(range(len(raw)), key=lambda i: raw[i]["a_l2"])
    calib = raw[calib_index]
    denom = abs(math.log(calib["delta"] / m)) ** -0.5 + calib["delta"] / m
    c_cal = calib["a_l2"] / (M * denom)
    # truncation constant chosen so the calibration member passes N = 1 with margin 2; it
    # underflows to 0 for a large trunc_rate, so N0 reads its log margin ln(delta / (2 delta_cal))
    c_trunc = m * math.exp(-trunc_rate) / (2.0 * calib["delta"])

    records = []
    for member_id, r in zip(ids, raw):
        records.append(SweepRecord(
            damping_id=member_id,
            epsilon=r["eps"],
            delta=r["delta"],
            a_l2=r["a_l2"],
            bound_rhs=stability_bound_rhs(r["delta"], m, M, c_cal),
            n0=_truncation_order(math.log(r["delta"] / (2.0 * calib["delta"])), trunc_rate,
                                 r["delta"]),
            recon_error_l2=r["recon"],
            c_emp=r["c_emp"],
        ))
    context = SweepContext(m=m, M=M, c_cal=c_cal, c_trunc=c_trunc,
                           c_emp_cal=calib["c_emp"], trunc_rate=trunc_rate,
                           calib_id=records[calib_index].damping_id)
    return records, context


# ---------------------------------------------------------------------------
# nonlinear refinement

@dataclass
class GaussNewtonInfo:
    """Residual norm history of a Gauss-Newton fit and why it stopped.

    termination is one of
    - "zero_residual": the residual reached zero;
    - "stalled": the last round's line search did not improve;
    - "tolerance": the last round's Jacobian predicts that another round
      lowers the residual by less than GN_RTOL relative;
    - "max_iters": the round cap stopped a fit that still predicted a gain.
    """

    residuals: List[float]
    termination: str


def _gram_step(gram: np.ndarray, jtr: np.ndarray, r_sq: float) -> Tuple[np.ndarray, float]:
    """Minimum-norm s minimizing |r + J s|, and the relative decrease of |r| it promises.

    The round reads J only through G = J^T J (gram) and g = J^T r (jtr).
    The normal equations G s = -g share J's null space, so their
    minimum-norm least-squares solution is J's own; solving the small Gram
    system never copies the tall J.  Any solution of them has
    |r + J s|^2 = |r|^2 + s^T g, so with r_sq = |r|^2 the decrease
    1 - sqrt(1 + q), q = s^T g / r_sq, needs no residual-sized product.
    """
    step, *_ = np.linalg.lstsq(gram, -jtr, rcond=None)
    q = max(-1.0, float(step @ jtr) / r_sq)
    return step, -q / (1.0 + math.sqrt(1.0 + q))


def _apply_correction(init: DampingPair, params: np.ndarray, order: int) -> DampingPair:
    """Add a truncated cosine-mode correction to the base pair and project.

    The zero correction reproduces the base pair exactly, so a fit whose
    data came from its own initial guess is a fixed point.
    """
    half = order + 1
    n = init.a1.n
    s = np.linspace(0.0, 1.0, n)
    a1 = init.a1.values.copy()
    a2 = init.a2.values.copy()
    for k in range(half):
        phi = boundary_mode(k, s)
        a1 += params[k] * phi
        a2 += params[half + k] * phi
    return _joined_pair(a1, a2)


def fit_damping_least_squares(measurements: Sequence[ModalMeasurement], init: DampingPair,
                              grid: Grid2D, tau: float, iters: int = 6,
                              fit_order: int = 4) -> Tuple[DampingPair, GaussNewtonInfo]:
    """Gauss-Newton refinement of a damping estimate against trace data.

    The unknowns are boundary Fourier coefficients of a correction to the
    initial pair, up to fit_order per side; every candidate is projected
    back onto the constraint set (nonnegative, matching corner values)
    before simulation.  Every simulated probe is differenced against the
    reference its measurement carries.  After each round that improves,
    the round's J^T J, with J^T r at the accepted residual, predicts the
    next round's decrease without a further solve; the fit stops when that
    prediction falls below GN_RTOL relative.  It also stops at a zero
    residual, at the first round whose line search does not improve, or
    after `iters` rounds, and returns the best iterate seen with the
    reason in `GaussNewtonInfo.termination`.
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    if iters < 0:
        raise ValueError("iters must be nonnegative")

    steps, _ = _time_step(tau, grid.h)
    if any(meas.trace.sides.shape != (2, steps + 1, grid.n) for meas in measurements):
        raise ValueError("measurements must come from matching discretizations")
    modes = [meas.mode for meas in measurements]
    size = sum(meas.trace.sides.size for meas in measurements)

    def residuals(pairs: List[DampingPair], out: np.ndarray) -> np.ndarray:
        """Each pair's residual, simulated minus measured traces, into one row of out.

        A row runs measurement by measurement, the bottom side before the
        left, in out shaped (len(pairs), residual length).  The probes run
        as one batch, and each window, less its reference, has the data
        subtracted into out: it rounds as (damped - reference) - data.
        """
        rows = out.reshape(len(pairs), len(modes), 2, steps + 1, grid.n)

        def take(i: int, j: int, first: int, sides: np.ndarray):
            window = slice(first, first + sides.shape[1])
            np.subtract(sides, measurements[j].trace.sides[:, window], out=rows[i, j, :, window])

        _probe(pairs, modes, [meas.reference for meas in measurements], tau, grid, take)
        return out

    def residual(pair: DampingPair) -> np.ndarray:
        return residuals([pair], np.empty((1, size)))[0]

    def gradient(columns: np.ndarray, r: np.ndarray) -> np.ndarray:
        """J^T r, each row a dot product summed in a fixed order."""
        return np.array([_fixed_order_dot(column, r) for column in columns])

    params = np.zeros(2 * (fit_order + 1))
    r = residual(_apply_correction(init, params, fit_order))
    r_sq = _fixed_order_dot(r, r)
    history = [math.sqrt(r_sq)]
    termination = "zero_residual" if r_sq == 0.0 else "max_iters"

    for _ in range(iters if r_sq > 0.0 else 0):
        # the columns' probes run as one batch, each window written into its Jacobian slice
        steps_h = np.empty(params.shape[0])
        bumped_pairs = []
        for p in range(params.shape[0]):
            steps_h[p] = FD_STEP * max(1.0, abs(params[p]))
            bumped = params.copy()
            bumped[p] += steps_h[p]
            bumped_pairs.append(_apply_correction(init, bumped, fit_order))
        columns = residuals(bumped_pairs, np.empty((params.shape[0], size)))
        np.subtract(columns, r, out=columns)
        np.divide(columns, steps_h[:, None], out=columns)
        gram = columns @ columns.T
        step_vec, _ = _gram_step(gram, gradient(columns, r), r_sq)

        improved = False
        scale = 1.0
        for _ in range(4):
            trial = params + scale * step_vec
            r_trial = residual(_apply_correction(init, trial, fit_order))
            trial_sq = _fixed_order_dot(r_trial, r_trial)
            if trial_sq < r_sq:
                params, r, r_sq = trial, r_trial, trial_sq
                improved = True
                break
            scale *= 0.5
        history.append(math.sqrt(r_sq))
        if not improved:
            # params and r are unchanged, so a further round would repeat this one
            termination = "stalled"
            break
        if r_sq == 0.0:
            termination = "zero_residual"
            break
        if _gram_step(gram, gradient(columns, r), r_sq)[1] < GN_RTOL:
            termination = "tolerance"
            break

    info = GaussNewtonInfo(residuals=history, termination=termination)
    return _apply_correction(init, params, fit_order), info
