"""Workload definitions: the config each workload hands to the program.

The seed draws the affine damping of every workload (and the `verify`
seed) from ranges on which all of the workload's correctness checks hold;
the program only ever sees the generated config file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# affine damping a1 = base + slope1 s, a2 = base + slope2 s
BASE_RANGE = (0.08, 0.12)
SLOPE_RANGE = (0.0, 0.06)

TAU = 4.0
DT_FACTOR = 0.5
GUARD = 0.2
DAMPING_SAMPLES = 257


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    extra: tuple = ()  # further config lines


WORKLOADS = {
    w.name: w
    for w in (
        Workload("forward-n129", "forward", 129, ("probe_k = 0", "probe_l = 0")),
        Workload("reconstruct-n65", "reconstruct", 65, ("gn_iters = 6",)),
        Workload("sweep-n65", "sweep", 65,
                 ("probe_budget = 2", "sweep_epsilons = 0.4,0.2,0.1,0.05")),
        Workload("verify", "verify", 65),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program, drawn from the benchmark seed."""

    workload: Workload
    base: float
    slope1: float
    slope2: float
    program_seed: int

    def config_text(self) -> str:
        lines = [
            f"n = {self.workload.n}",
            f"tau = {TAU!r}",
            f"dt_factor = {DT_FACTOR!r}",
            f"guard = {GUARD!r}",
            f"damping_samples = {DAMPING_SAMPLES}",
            "damping_kind = affine",
            f"damping_base = {self.base!r}",
            f"damping_slope1 = {self.slope1!r}",
            f"damping_slope2 = {self.slope2!r}",
            f"seed = {self.program_seed}",
            *self.workload.extra,
        ]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.workload.command, "--config", config_path, "--out", out_dir]

    def truth(self):
        """The damping pair (a1, a2) sampled on the program's damping nodes."""
        s = np.linspace(0.0, 1.0, DAMPING_SAMPLES)
        return self.base + self.slope1 * s, self.base + self.slope2 * s


def make_inputs(workload_name: str, seed: int) -> Inputs:
    workload = WORKLOADS[workload_name]
    rng = np.random.default_rng(seed)
    base, slope1, slope2 = (float(rng.uniform(*r)) for r in (BASE_RANGE, SLOPE_RANGE, SLOPE_RANGE))
    return Inputs(workload, base, slope1, slope2, int(rng.integers(0, 2 ** 31)))
