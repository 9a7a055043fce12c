"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
values next to their pinned tolerances.
"""

import math
import time

import numpy as np

from wavedamp.cli import main
from wavedamp.config import ExperimentConfig
from wavedamp.diagnostics import estimate_observability, fit_decay
from wavedamp.errors import ObservabilityFailure
from wavedamp.forward import solve, weighted_l2_sq
from wavedamp.grid import Grid2D
from wavedamp.reconstruct import (
    damping_l2_error,
    fit_damping_least_squares,
    linearized_recover,
    probe_mode,
    stability_sweep,
    time_project,
)
from wavedamp.spectral import DampingPair, ModeIndex, eigenpair, mode_shape
from wavedamp.verify import run_checks


def report(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def report_checks(number, prefix, pinned):
    """Criterion verdict from the `wavedamp verify` checks under `prefix`.

    `pinned` maps each expected check name to the loosest tolerance the
    criterion accepts; a missing check or a looser tolerance fails.
    """
    checks = {c.name: c for c in run_checks(ExperimentConfig(), name_prefix=prefix)}
    missing = [name for name in pinned if name not in checks]
    passed = not missing and all(
        checks[name].passed and checks[name].tolerance <= tol for name, tol in pinned.items())
    detail = ", ".join(f"{name} = {checks[name].value:.3g} <= {checks[name].tolerance:g} "
                       f"(pinned {tol:g})" for name, tol in pinned.items() if name in checks)
    if missing:
        detail += f"; missing: {', '.join(missing)}"
    report(number, passed, detail)


def modal_initial(grid, mode):
    return grid.sample(lambda x, y: mode_shape(mode, x, y))


def test_criterion_1_modal_exactness():
    tau = 2.0
    worst_order = math.inf
    worst_err129 = 0.0
    worst_time = 0.0
    for k in (0, 1):
        for l in (0, 1):
            mode = ModeIndex(k, l)
            omega = eigenpair(mode).omega
            errs = []
            for n in (33, 65, 129):
                grid = Grid2D(n)
                u0 = modal_initial(grid, mode)
                t0 = time.perf_counter()
                res = solve(u0, np.zeros_like(u0), DampingPair.zero(), grid, tau)
                worst_time = max(worst_time, time.perf_counter() - t0)
                exact = math.cos(omega * res.final.t) * u0
                errs.append(math.sqrt(weighted_l2_sq(res.final.u - exact, grid)))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            worst_order = min(worst_order, min(orders))
            worst_err129 = max(worst_err129, errs[-1])
    passed = worst_order >= 1.9 and worst_err129 <= 1e-3 and worst_time <= 30.0
    report(1, passed,
           f"order >= {worst_order:.2f}, err(n=129) <= {worst_err129:.2e}, "
           f"slowest run {worst_time:.1f}s")


def test_criterion_2_dissipation_identity():
    report_checks(2, "dissipation", {"dissipation.residual": 1e-2,
                                     "dissipation.refinement": 0.30})


def test_criterion_3_decay_rates():
    details = []
    passed = True
    for a_val in (0.5, 1.0, 2.0):
        grid = Grid2D(65)
        a = DampingPair.constant(a_val)
        u0 = modal_initial(grid, ModeIndex(0, 0))
        res = solve(u0, np.zeros_like(u0), a, grid, 8.0)
        fit = fit_decay(res.times, res.energies)
        ok = fit.omega_fit > 0 and fit.relative_misfit <= 0.05
        passed = passed and ok
        details.append(f"a={a_val}: omega={fit.omega_fit:.3f}, misfit={fit.relative_misfit:.3f}")
    report(3, passed, "; ".join(details) + " (misfit tol 0.05 of fitted drop)")


def test_criterion_4_observability():
    probes = [ModeIndex(k, l) for k in range(3) for l in range(3)]
    kappas = {}
    for n in (65, 129):
        kappas[n] = estimate_observability(DampingPair.constant(1.0), 4.0, probes,
                                           Grid2D(n)).kappa_est
    rel = abs(kappas[65] - kappas[129]) / kappas[129]
    failure_raised = False
    try:
        estimate_observability(DampingPair.zero(), 4.0, [ModeIndex(0, 0)], Grid2D(65))
    except ObservabilityFailure:
        failure_raised = True
    pinned = abs(kappas[65] - 1.41411) <= 1e-4 * 1.41411
    passed = pinned and rel <= 0.05 and failure_raised
    report(4, passed,
           f"kappa(65) = {kappas[65]:.5f} (pinned 1.41411, rel 1e-4), "
           f"kappa(129) = {kappas[129]:.4f}, "
           f"rel diff {rel:.4%} <= 5%, zero-damping failure raised: {failure_raised}")


def test_criterion_5_adjoint_identity():
    report_checks(5, "adjoint", {"adjoint.identity": 1e-8, "adjoint.causality": 0.5})


def test_criterion_6_gronwall_bound():
    report_checks(6, "gronwall", {"gronwall.violations": 0.5})


def test_criterion_7_rellich_identity():
    report_checks(7, "rellich", {"rellich.constant": 1e-8, "rellich.linear": 1e-8,
                                 "rellich.monotone": 0.95})


def test_criterion_8_multiplier_bound():
    report_checks(8, "multiplier", {"multiplier.violations": 0.5})


def test_criterion_9_reconstruction():
    t0 = time.perf_counter()
    grid = Grid2D(129)
    truth = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                       lambda s: 0.1 * np.ones_like(s))
    mode = ModeIndex(0, 0)
    meas = probe_mode(truth, mode, 4.0, grid)
    y1, y2 = time_project(meas)
    estimate = linearized_recover(y1, y2, mode, guard=0.2)
    lin_err = damping_l2_error(estimate, truth, guard=0.2)

    refined, info = fit_damping_least_squares([meas], estimate, grid, 4.0,
                                              iters=6, fit_order=4)
    reduction = 1.0 - info.residuals[-1] / info.residuals[0]
    elapsed = time.perf_counter() - t0
    passed = lin_err <= 0.15 and reduction >= 0.30 and elapsed <= 300.0
    report(9, passed,
           f"linearized rel L2 error {lin_err:.3f} <= 0.15, "
           f"refinement residual reduction {reduction:.1%} >= 30%, "
           f"runtime {elapsed:.0f}s <= 300s")


def test_criterion_10_stability_sweep():
    t0 = time.perf_counter()
    grid = Grid2D(65)
    base = DampingPair.from_callables(lambda s: 0.1 * (1 + s / 2),
                                      lambda s: 0.1 * np.ones_like(s))
    eps = [0.4, 0.2, 0.1, 0.05]
    family = [base.scaled(e) for e in eps]
    records, context = stability_sweep(family, eps, 4.0, grid, probe_budget=2,
                                       calib_index=0)
    elapsed = time.perf_counter() - t0

    bound_ok = all(r.a_l2 <= r.bound_rhs for r in records if r.damping_id != context.calib_id)
    deltas = [r.delta for r in records]
    monotone = all(a > b for a, b in zip(deltas, deltas[1:]))
    bracket_ok = True
    for r in records:
        ln = math.log(context.c_trunc / context.m * r.delta)
        ok_n0 = ln + context.trunc_rate * r.n0 ** 2 <= -2 * math.log(r.n0)
        bad_next = ln + context.trunc_rate * (r.n0 + 1) ** 2 > -2 * math.log(r.n0 + 1)
        bracket_ok = bracket_ok and ok_n0 and bad_next and r.n0 >= 1
    passed = bound_ok and monotone and bracket_ok and elapsed <= 900.0
    report(10, passed,
           f"bound holds below calibration: {bound_ok}, delta monotone: {monotone}, "
           f"N0 bracketing: {bracket_ok}, runtime {elapsed:.0f}s <= 900s")


def test_criterion_11_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n = 33\ntau = 2.0\ndamping_kind = constant\ndamping_base = 0.1\n"
                   "probe_budget = 1\nsweep_epsilons = 0.4,0.2,0.1\nseed = 42\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("sweep.csv", "bound_curve.csv"))
    report(11, identical, "repeated sweep runs produce byte-identical CSV artifacts")
