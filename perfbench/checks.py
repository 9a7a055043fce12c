"""Correctness checks run on the artifacts of every benchmark operation.

Each check tests a property of the method or a value recomputed here,
never a stored copy of an earlier output.  None of them reads the
long-format trace CSVs or depends on how many Gauss-Newton iterations
ran.  Every `check_*` function returns a list of failure messages; an
empty list means the operation's output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import DT_FACTOR, GUARD, TAU

# Loosest tolerance accepted for each `wavedamp verify` check (README table).
VERIFY_TOLERANCES = {
    "adjoint.identity": 1e-8,
    "adjoint.causality": 0.5,
    "gronwall.violations": 0.5,
    "dissipation.residual": 1e-2,
    "dissipation.refinement": 0.30,
    "rellich.constant": 1e-8,
    "rellich.linear": 1e-8,
    "rellich.monotone": 0.95,
    "multiplier.violations": 0.5,
    "n0.bracketing": 0.5,
    "energy.conservation": 1e-3,
}

RECON_ERROR_BOUND = 0.15  # acceptance criterion 9
GN_REDUCTION_BOUND = 0.7  # last residual over first
ENERGY_ROUNDOFF = 1e-12  # relative energy increase still counted as roundoff
CLOSED_FORM_TOL = 1e-12


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _trapezoid(values: np.ndarray, dx: float) -> float:
    w = np.ones(values.shape[0])
    w[0] = w[-1] = 0.5
    return float(dx * (w * values).sum())


def check_manifest(out: Path) -> list:
    manifest = json.loads((out / "manifest.json").read_text())
    listed = manifest["files"]
    present = {p.relative_to(out).as_posix() for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    errors = []
    if set(listed) != present:
        errors.append(f"manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    for name, entry in listed.items():
        path = out / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            errors.append(f"sha256 of {name} does not match the manifest")
    return errors


def read_trace_bin(path: Path) -> dict:
    """Decode the binary trace dump: four little-endian float64 header
    fields (n, steps, dt, sides), then each side as a (steps+1, n) block."""
    raw = path.read_bytes()
    n, steps, dt, sides = struct.unpack_from("<4d", raw, 0)
    n, steps, sides = int(n), int(steps), int(sides)
    payload = np.frombuffer(raw, dtype="<f8", offset=32)
    if sides != 2 or payload.shape[0] != sides * (steps + 1) * n:
        raise ValueError(f"payload of {payload.shape[0]} values does not fit "
                         f"{sides} sides of ({steps + 1}, {n})")
    block = payload.reshape(sides, steps + 1, n)
    return {"n": n, "steps": steps, "dt": dt, "bottom": block[0], "left": block[1]}


def expected_steps(n: int) -> int:
    h = 1.0 / (n - 1)
    return max(2, math.ceil(TAU / (DT_FACTOR * h / math.sqrt(2.0))))


def check_forward(out: Path, inputs) -> list:
    errors = check_manifest(out)
    n = inputs.workload.n
    h = 1.0 / (n - 1)

    energy = np.array([float(r["energy"]) for r in _rows(out / "energy.csv")])
    # the probe is mode (0,0) with unit L2 norm, started from rest: E(0) = lambda/2
    half_lambda = 0.5 * 2.0 * (0.5 * math.pi) ** 2
    if not abs(energy[0] - half_lambda) <= half_lambda * h * h:
        errors.append(f"E(0) = {energy[0]!r} is not lambda/2 = {half_lambda!r} to O(h^2)")
    rise = float(np.max(np.diff(energy)))
    if rise > ENERGY_ROUNDOFF * energy[0]:
        errors.append(f"energy rises by {rise:.3e} between steps")

    try:
        trace = read_trace_bin(out / "trace.bin")
    except (ValueError, struct.error) as exc:
        return errors + [f"trace.bin: {exc}"]
    steps = expected_steps(n)
    for side in ("bottom", "left"):
        arr = trace[side]
        if arr.shape != (steps + 1, n):
            errors.append(f"trace.bin {side} has shape {arr.shape}, expected {(steps + 1, n)}")
        if not np.all(np.isfinite(arr)):
            errors.append(f"trace.bin {side} holds non-finite values")

    if not json.loads((out / "decay.json").read_text())["omega_fit"] > 0:
        errors.append("decay.json reports omega_fit <= 0")
    return errors


def _l2_parts(csv_path: Path, truth, guard: float = GUARD):
    """Squared L2 norms on [0, 1 - guard] of (recovered - truth) and truth."""
    rows = _rows(csv_path)
    s = np.array([float(r["s"]) for r in rows])
    v = np.array([float(r["value"]) for r in rows])
    x = np.linspace(0.0, 1.0 - guard, 257)
    ref = np.interp(x, np.linspace(0.0, 1.0, truth.shape[0]), truth)
    d = np.interp(x, s, v) - ref
    dx = x[1] - x[0]
    return _trapezoid(d * d, dx), _trapezoid(ref * ref, dx)


def check_reconstruct(out: Path, inputs) -> list:
    errors = check_manifest(out)
    a1, a2 = inputs.truth()
    for label in ("recon", "refined"):
        num1, den1 = _l2_parts(out / f"{label}_a1.csv", a1)
        num2, den2 = _l2_parts(out / f"{label}_a2.csv", a2)
        err = math.sqrt((num1 + num2) / (den1 + den2))
        if not err <= RECON_ERROR_BOUND:
            errors.append(f"{label} L2 error {err:.4f} exceeds {RECON_ERROR_BOUND}")

    summary = json.loads((out / "summary.json").read_text())
    res = summary["gn_residuals"]
    if any(b > a for a, b in zip(res, res[1:])):
        errors.append(f"Gauss-Newton residuals increase: {res}")
    if not res[-1] <= GN_REDUCTION_BOUND * res[0]:
        errors.append(f"Gauss-Newton residual {res[-1]:.4g} is above "
                      f"{GN_REDUCTION_BOUND} of the first {res[0]:.4g}")
    if not summary["trace_norm"] > 10.0 * summary["noise_floor"]:
        errors.append("trace_norm is not above 10 x noise_floor")
    return errors


def check_sweep(out: Path, inputs) -> list:
    errors = check_manifest(out)
    rows = sorted(_rows(out / "sweep.csv"), key=lambda r: -float(r["epsilon"]))
    ctx = json.loads((out / "sweep_context.json").read_text())
    deltas = [float(r["delta"]) for r in rows]
    if not all(a > b for a, b in zip(deltas, deltas[1:])):
        errors.append(f"delta does not strictly decrease with epsilon: {deltas}")

    a1, a2 = inputs.truth()
    dx = 1.0 / (a1.shape[0] - 1)
    for r in rows:
        eps = float(r["epsilon"])
        a_l2 = float(r["a_l2"])
        ours = eps * math.sqrt(_trapezoid(a1 * a1, dx) + _trapezoid(a2 * a2, dx))
        if not abs(a_l2 - ours) <= 1e-12 * ours:
            errors.append(f"{r['damping_id']}: a_l2 {a_l2!r} differs from {ours!r}")
        if r["damping_id"] != ctx["calib_id"] and not a_l2 <= float(r["bound_rhs"]):
            errors.append(f"{r['damping_id']}: a_l2 above the stability bound")

        n0 = int(r["N0"])
        log_lhs = math.log(ctx["c_trunc"] / ctx["m"] * float(r["delta"]))
        rate = ctx["trunc_rate"]
        fits = n0 >= 1 and log_lhs + rate * n0 ** 2 <= -2.0 * math.log(n0)
        next_fails = log_lhs + rate * (n0 + 1) ** 2 > -2.0 * math.log(n0 + 1)
        if not (fits and next_fails):
            errors.append(f"{r['damping_id']}: N0 = {n0} does not bracket the truncation rule")
    return errors


def check_verify(out: Path, inputs) -> list:
    errors = []
    rows = {r["name"]: r for r in _rows(out / "verify.csv")}
    for name, loosest in VERIFY_TOLERANCES.items():
        if name not in rows:
            errors.append(f"verify check {name} did not run")
            continue
        value, tol = float(rows[name]["value"]), float(rows[name]["tolerance"])
        if tol > loosest:
            errors.append(f"{name}: tolerance {tol!r} is looser than {loosest!r}")
        if not value <= tol:
            errors.append(f"{name}: value {value!r} exceeds tolerance {tol!r}")
    for name in rows.keys() - VERIFY_TOLERANCES.keys():
        errors.append(f"verify check {name} has no listed tolerance")
    return errors


def convolve_closed_form_defect(inverse_source, steps: int = 512, tau: float = 3.0) -> float:
    """Largest |S h (t) - t| / tau for a constant modulation and signal of one.

    The causal convolution of 1 against 1 is t exactly, and the trapezoid
    rule integrates constants exactly, so the defect is roundoff.
    """
    lam = inverse_source.Modulation(np.ones(steps + 1), tau)
    out = inverse_source.convolve_causal(lam, inverse_source.TimeSignal(np.ones(steps + 1), tau))
    t = np.linspace(0.0, tau, steps + 1)
    return float(np.max(np.abs(out.values[:, 0] - t))) / tau


CHECKS = {
    "forward": check_forward,
    "reconstruct": check_reconstruct,
    "sweep": check_sweep,
    "verify": check_verify,
}


def check_operation(out: Path, inputs, closed_form_defect=None) -> list:
    errors = CHECKS[inputs.workload.command](out, inputs)
    if inputs.workload.command == "verify":
        if closed_form_defect is None or not closed_form_defect <= CLOSED_FORM_TOL:
            errors.append(f"convolve_causal(1, 1) differs from t by {closed_form_defect}")
    return errors
