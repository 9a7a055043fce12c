"""Experiment configuration: flat key-value files with typed validation.

The format is one `key = value` pair per line, '#' comments, unknown keys
rejected.  Reproducibility beats convenience: a config file plus a seed
pins a run byte for byte.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import numpy as np

from .errors import ConfigError
from .forward import CFL_LIMIT, DT_FACTOR, step_count
from .reconstruct import sweep_member_ids
from .spectral import DampingPair, SampledFunction1D

__all__ = ["ExperimentConfig", "parse_config", "load_config"]

DAMPING_KINDS = ("zero", "constant", "affine", "csv")
# Caps checked before anything is allocated, so an oversized run exits 2
# instead of failing in the allocator.  n^2 * steps bounds the work of one
# solve: 1.9e8 for n = 257 at tau = 4.  n * (steps + 1)
# bounds the memory of one trace, 16 bytes per value for its two sides
# (80 MB at the cap; the largest trace-sized buffer is the Gauss-Newton Jacobian,
# 2 (fit_order + 1) traces per measurement, and reconstruct fits one): 7.4e5 for
# n = 257 at tau = 4, while n = 17 under the work cap alone could reach 2.9e7.  A damping's
# samples (damping_samples, or a csv's rows) stay at four per cell of the largest
# grid: the H^{1/2} norm of multiplier_bound_check, the one caller that needs it,
# then caches one (samples - 1)^2 matrix of inverse squared distances, 128 MiB, per
# sample count, and each norm takes one matrix-vector product with it.
MAX_N = 1025
MAX_NODE_STEPS = 5e8
MAX_TRACE_VALUES = 5e6
MAX_DAMPING_SAMPLES = 4 * (MAX_N - 1) + 1


@dataclass
class ExperimentConfig:
    n: int = 65
    tau: float = 4.0
    # fixed at forward.DT_FACTOR; the key is accepted so that older configs parse
    dt_factor: float = DT_FACTOR
    seed: int = 20260809
    out_dir: str = "out"
    damping_kind: str = "affine"
    damping_base: float = 0.1
    damping_slope1: float = 0.05
    damping_slope2: float = 0.0
    damping_csv1: str = ""
    damping_csv2: str = ""
    damping_samples: int = 257
    probe_k: int = 0
    probe_l: int = 0
    probe_budget: int = 2
    trunc_order: int = 4
    guard: float = 0.2
    gn_iters: int = 6
    sweep_epsilons: Tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    calib_member: int = -1
    trunc_rate: float = 2.0

    def validate(self) -> "ExperimentConfig":
        floats = [(f.name, getattr(self, f.name)) for f in dataclasses.fields(self)
                  if f.type in ("float", float)]
        floats += [("sweep_epsilons", eps) for eps in self.sweep_epsilons]
        for name, value in floats:
            if not math.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value!r}")
        if not 17 <= self.n <= MAX_N:
            raise ConfigError("n", f"must lie in [17, {MAX_N}], got {self.n}")
        if not self.tau > 0:
            raise ConfigError("tau", f"must be positive, got {self.tau}")
        if self.dt_factor != DT_FACTOR:
            raise ConfigError("dt_factor", f"is fixed at {DT_FACTOR}, got {self.dt_factor}")
        h = 1.0 / (self.n - 1)
        # the first test keeps step_count finite for an extreme tau
        if (self.tau / (DT_FACTOR * CFL_LIMIT * h) > MAX_NODE_STEPS
                or self.n ** 2 * step_count(self.tau, h) > MAX_NODE_STEPS):
            raise ConfigError("tau", f"n^2 * steps of one solve exceeds {MAX_NODE_STEPS:.0e}; "
                                     "lower n or tau")
        if self.n * (step_count(self.tau, h) + 1) > MAX_TRACE_VALUES:
            raise ConfigError("tau", f"n * (steps + 1) of one trace exceeds "
                                     f"{MAX_TRACE_VALUES:.0e}; lower tau")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed", "must fit in an unsigned 64-bit integer")
        if self.damping_kind not in DAMPING_KINDS:
            raise ConfigError("damping_kind", f"must be one of {DAMPING_KINDS}")
        if self.damping_kind == "csv" and not (self.damping_csv1 and self.damping_csv2):
            missing = "damping_csv2" if self.damping_csv1 else "damping_csv1"
            raise ConfigError(missing, "csv damping needs both file paths")
        if not 19 <= self.damping_samples <= MAX_DAMPING_SAMPLES:
            raise ConfigError("damping_samples", f"must lie in [19, {MAX_DAMPING_SAMPLES}], "
                                                 f"got {self.damping_samples}")
        # the largest mode index that the largest grid resolves, n >= 8 (k + 1/2) + 1
        # (spectral.check_probe_resolution); the sweep probes {0 .. probe_budget}^2
        max_index = (MAX_N - 5) // 8
        for name in ("probe_k", "probe_l", "probe_budget"):
            if not 0 <= getattr(self, name) <= max_index:
                raise ConfigError(name, f"must lie in [0, {max_index}], "
                                        f"got {getattr(self, name)}")
        if self.trunc_order < 0:
            raise ConfigError("trunc_order", "must be nonnegative")
        if not 0.0 <= self.guard <= 0.5:
            raise ConfigError("guard", f"must lie in [0, 0.5], got {self.guard}")
        if self.gn_iters < 0:
            raise ConfigError("gn_iters", "must be nonnegative")
        if not self.sweep_epsilons or any(e <= 0 for e in self.sweep_epsilons):
            raise ConfigError("sweep_epsilons", "need positive scale factors")
        try:
            sweep_member_ids(self.sweep_epsilons)
        except ValueError as exc:
            raise ConfigError("sweep_epsilons", str(exc)) from exc
        if not -1 <= self.calib_member < len(self.sweep_epsilons):
            raise ConfigError("calib_member", f"must be -1 (the largest member) or a member "
                                              f"index below {len(self.sweep_epsilons)}")
        if not self.trunc_rate > 0:
            raise ConfigError("trunc_rate", f"must be positive, got {self.trunc_rate}")
        return self

    def build_damping(self) -> DampingPair:
        n = self.damping_samples
        s = np.linspace(0.0, 1.0, n)
        kind = self.damping_kind
        if kind == "zero":
            return DampingPair.zero(n)
        if kind in ("constant", "affine") and self.damping_base < 0:
            raise ConfigError("damping_base", "must be nonnegative")
        if kind == "constant":
            return DampingPair.constant(self.damping_base, n)
        if kind == "affine":
            a1 = self.damping_base + self.damping_slope1 * s
            a2 = self.damping_base + self.damping_slope2 * s
            for field, profile in (("damping_slope1", a1), ("damping_slope2", a2)):
                if profile.min() < 0:
                    raise ConfigError(field, "affine profile must stay nonnegative")
            return DampingPair(SampledFunction1D(a1), SampledFunction1D(a2))
        from .io import load_damping_csv

        a1 = load_damping_csv(self.damping_csv1)
        a2 = load_damping_csv(self.damping_csv2)
        try:
            return DampingPair(a1, a2)
        except ValueError as exc:
            # the pair names the side at fault, a1 or a2; a corner mismatch is charged to a1
            side = "damping_csv2" if str(exc).startswith("a2") else "damping_csv1"
            raise ConfigError(side, str(exc)) from exc

    def canonical_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(float(e)) for e in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(field, raw: str):
    if field.type in ("int", int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(field.name, f"expected an integer, got {raw!r}") from exc
    if field.type in ("float", float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(field.name, f"expected a number, got {raw!r}") from exc
    if field.name == "sweep_epsilons":
        try:
            return tuple(float(p) for p in raw.split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(field.name, f"expected comma-separated numbers, got {raw!r}") from exc
    return raw


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}", f"unknown key {key!r}")
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = _parse_value(_FIELDS[key], raw)
    return ExperimentConfig(**values).validate()


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path} as UTF-8 text: {exc}") from exc
    return parse_config(text)
