"""Command-line harness: forward runs, reconstruction, sweeps, verification.

Exit codes: 0 on success, 1 on numerical or check failure, 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, load_config
from .diagnostics import check_decay_horizon, fit_decay
from .errors import ConfigError, WavedampError
from .forward import solve_from_mode
from .grid import Grid2D
from .io import (
    save_damping_csv,
    write_csv,
    write_energy_csv,
    write_manifest,
    write_trace_binary,
)
from .reconstruct import (
    check_recovery_mode,
    damping_l2_error,
    fit_damping_least_squares,
    linearized_recover,
    probe_mode,
    stability_sweep,
    time_project,
)
from .spectral import DampingPair, ModeIndex, check_mode_resolution, project_onto_modes
from .verify import run_checks

__all__ = ["main"]


def _resolve_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig().validate()
    if args.out:
        config.out_dir = args.out
    if args.seed is not None:
        config.seed = args.seed
    return config.validate()


def _prepare_out_dir(path):
    """Create the output directory before any solve; a path that cannot hold it is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError("out_dir", f"output directory {out} is not writable")


def cmd_forward(config: ExperimentConfig) -> int:
    timings = {}
    out = Path(config.out_dir)
    grid = Grid2D(config.n)
    damping = config.build_damping()
    mode = ModeIndex(config.probe_k, config.probe_l)
    decays = damping.minimum() > 0
    if decays:
        check_decay_horizon(config.tau, grid)

    t0 = time.perf_counter()
    result = solve_from_mode(damping, mode, grid, config.tau)
    timings["solve"] = time.perf_counter() - t0

    fit = fit_decay(result.times, result.energies) if decays else None

    t0 = time.perf_counter()
    write_energy_csv(out / "energy.csv", result.times, result.energies)
    write_trace_binary(out / "trace.bin", result.trace)
    if fit is not None:
        (out / "decay.json").write_text(json.dumps(
            dict(dataclasses.asdict(fit), relative_misfit=fit.relative_misfit),
            indent=2, sort_keys=True) + "\n")
    timings["write"] = time.perf_counter() - t0

    write_manifest(out, config.canonical_text(), __version__, timings)
    print(f"forward run complete: {out}")
    return 0


def cmd_reconstruct(config: ExperimentConfig) -> int:
    timings = {}
    out = Path(config.out_dir)
    grid = Grid2D(config.n)
    truth = config.build_damping()
    mode = ModeIndex(config.probe_k, config.probe_l)
    check_recovery_mode(mode, grid, config.guard)
    # the estimate has one sample per grid node, and its projection comes after the probe
    check_mode_resolution(grid.n, config.trunc_order)

    t0 = time.perf_counter()
    meas = probe_mode(truth, mode, config.tau, grid)
    timings["probe"] = time.perf_counter() - t0

    below_floor = meas.trace_norm <= 10.0 * meas.noise_floor
    summary = {
        "trace_norm": meas.trace_norm,
        "noise_floor": meas.noise_floor,
        "below_noise_floor": below_floor,
        "mode": [mode.k, mode.l],
        "grid_n": config.n,
        "tau": config.tau,
    }

    t0 = time.perf_counter()
    y1, y2 = time_project(meas)
    estimate = linearized_recover(y1, y2, mode, guard=config.guard)
    timings["linearized"] = time.perf_counter() - t0
    save_damping_csv(out / "recon_a1.csv", estimate.a1)
    save_damping_csv(out / "recon_a2.csv", estimate.a2)
    summary["linearized_error_l2"] = damping_l2_error(estimate, truth, config.guard)

    rows = []
    for side, comp in (("bottom", estimate.a1), ("left", estimate.a2)):
        coeffs = project_onto_modes(comp, config.trunc_order)
        rows.extend((side, k, float(c)) for k, c in enumerate(coeffs.coeffs))
    write_csv(out / "fourier_coeffs.csv", ["side", "k", "coeff"], rows)

    if config.gn_iters > 0 and not below_floor:
        t0 = time.perf_counter()
        refined, info = fit_damping_least_squares(
            [meas], estimate, grid, config.tau, iters=config.gn_iters,
            fit_order=min(config.trunc_order, 4))
        timings["gauss_newton"] = time.perf_counter() - t0
        save_damping_csv(out / "refined_a1.csv", refined.a1)
        save_damping_csv(out / "refined_a2.csv", refined.a2)
        summary["refined_error_l2"] = damping_l2_error(refined, truth, config.guard)
        summary["gn_residuals"] = info.residuals
        summary["gn_termination"] = info.termination

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    write_manifest(out, config.canonical_text(), __version__, timings)
    flag = " (below noise floor)" if below_floor else ""
    print(f"reconstruction complete{flag}: {out}")
    return 0


def _vanishing_damping_field(config: ExperimentConfig, damping: DampingPair) -> str:
    """The config field that lets a damping reach zero somewhere."""
    if config.damping_kind == "zero":
        return "damping_kind"
    if config.damping_kind == "csv":
        return "damping_csv1" if damping.a1.values.min() <= 0 else "damping_csv2"
    if config.damping_base <= 0:
        return "damping_base"
    # an affine profile with a positive base reaches zero at s = 1
    return "damping_slope1" if damping.a1.values.min() <= 0 else "damping_slope2"


def cmd_sweep(config: ExperimentConfig) -> int:
    if len(config.sweep_epsilons) < 2:
        raise ConfigError("sweep_epsilons", "a sweep needs at least two family members")
    timings = {}
    out = Path(config.out_dir)
    grid = Grid2D(config.n)
    base = config.build_damping()
    if base.minimum() <= 0:
        raise ConfigError(_vanishing_damping_field(config, base),
                          "sweep family must be strictly positive")
    family = [base.scaled(eps) for eps in config.sweep_epsilons]
    calib = None if config.calib_member < 0 else config.calib_member

    t0 = time.perf_counter()
    records, context = stability_sweep(
        family, list(config.sweep_epsilons), config.tau, grid,
        probe_budget=config.probe_budget,
        recovery_mode=ModeIndex(config.probe_k, config.probe_l),
        guard=config.guard, trunc_rate=config.trunc_rate,
        trunc_order=config.trunc_order, calib_index=calib)
    timings["sweep"] = time.perf_counter() - t0

    write_csv(out / "sweep.csv",
              ["damping_id", "epsilon", "delta", "a_l2", "bound_rhs", "N0",
               "recon_error_l2", "C_emp"],
              [dataclasses.astuple(r) for r in records])
    ordered = sorted(records, key=lambda r: r.delta)
    write_csv(out / "bound_curve.csv", ["delta", "a_l2", "bound_rhs"],
              [(r.delta, r.a_l2, r.bound_rhs) for r in ordered])
    (out / "sweep_context.json").write_text(json.dumps(
        dataclasses.asdict(context), indent=2, sort_keys=True) + "\n")
    write_manifest(out, config.canonical_text(), __version__, timings)
    print(f"sweep complete ({len(records)} members): {out}")
    return 0


def cmd_verify(config: ExperimentConfig, name_filter=None, out_dir=None) -> int:
    checks = run_checks(config, name_prefix=name_filter)
    if not checks:
        print(f"no checks match prefix {name_filter!r}")
        return 1
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  value={c.value:.6g}  tol={c.tolerance:.6g}"
              + (f"  [{c.detail}]" if c.detail else ""))
    if out_dir:
        write_csv(Path(out_dir) / "verify.csv",
                  ["name", "value", "tolerance", "passed"],
                  [(c.name, c.value, c.tolerance, int(c.passed)) for c in checks])
    failed = [c.name for c in checks if not c.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavedamp",
        description="Boundary damping identification experiments on the unit square",
    )
    parser.add_argument("--version", action="version", version=f"wavedamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("forward", "run the forward damped-wave problem and dump its artifacts"),
        ("reconstruct", "recover the damping pair from a modal boundary measurement"),
        ("sweep", "run the logarithmic stability sweep over a scaled family"),
        ("verify", "run the named invariant checks"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="random seed (overrides config)")
        if name == "verify":
            p.add_argument("--filter", help="only run checks whose name starts with this prefix")

    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        out_dir = args.out if args.command == "verify" else config.out_dir
        if out_dir:
            _prepare_out_dir(out_dir)
        if args.command == "forward":
            return cmd_forward(config)
        if args.command == "reconstruct":
            return cmd_reconstruct(config)
        if args.command == "sweep":
            return cmd_sweep(config)
        return cmd_verify(config, name_filter=args.filter, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WavedampError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
