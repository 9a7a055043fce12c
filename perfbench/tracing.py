"""Spans around the public calls of each wavedamp layer, and the per-layer
metrics derived from them.

The benchmark wraps module attributes from its own code (the program is not
changed): every module attribute bound to a traced function, such as
`wavedamp.reconstruct.solve` or `wavedamp.cli.write_trace_csv`, is replaced
by a wrapper that records a span (name, start, end, parent) in memory.
Per-step helpers inside `solve` are left unwrapped so that tracing does not
distort the solver loop; the step kernel is timed in a separate loop.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# module -> traced functions, named "<module>.<function>" in the spans
TRACED = {
    "cli": ("cmd_forward", "cmd_reconstruct", "cmd_sweep", "cmd_verify"),
    "forward": ("solve",),
    "reconstruct": ("reference_solution", "probe_mode", "time_project", "linearized_recover",
                    "estimate_gap", "stability_sweep", "fit_damping_least_squares"),
    "io": ("write_csv", "write_energy_csv", "write_trace_csv", "write_trace_binary",
           "save_damping_csv", "write_manifest", "sha256_file"),
    "inverse_source": ("convolve_causal", "convolve_anticausal", "gronwall_bound_check",
                       "source_bound_check"),
    "diagnostics": ("fit_decay",),
    "verify": ("run_checks",),
}

# what a span keeps from its call's result
COUNTERS = {
    "forward.solve": lambda result: result.times.shape[0] - 1,
    "reconstruct.fit_damping_least_squares": lambda result: list(result[1].residuals),
    "verify.run_checks": len,
}

GN_USEFUL_DECREASE = 1e-3  # relative residual decrease that makes an iteration useful


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, count]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def install(self):
        """Rebind every wavedamp module attribute that refers to a traced function."""
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"wavedamp.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{fname}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "wavedamp" or mod_name.startswith("wavedamp."):
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])


def time_step_kernel(config, reps: int = 5, steps: int = 100) -> float:
    """Median microseconds per `forward.step` call at the config's n and damping."""
    from wavedamp import forward
    from wavedamp.grid import Grid2D
    from wavedamp.spectral import ModeIndex, mode_shape

    grid = Grid2D(config.n)
    gam = forward.damping_rate(config.build_damping(), grid)
    steps_to_tau = math.ceil(config.tau / (config.dt_factor * forward.CFL_LIMIT * grid.h))
    dt = config.tau / steps_to_tau
    u_prev = grid.sample(lambda x, y: mode_shape(ModeIndex(0, 0), x, y))
    u = forward.start_step(u_prev, 0.0 * u_prev, dt, grid, gam)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for m in range(steps):
            u_prev, u = u, forward.step(u, u_prev, m * dt, dt, grid, gam)
        samples.append((time.perf_counter() - t0) / steps * 1e6)
    return statistics.median(samples)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, step_us: float, import_s: float, files: int) -> dict:
    """Per-layer metrics of one traced operation."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= dur[i]

    def of(name):
        return [i for i, n in enumerate(names) if n == name]

    def under(i, name):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if names[i] == name:
                return True
        return False

    solves = of("forward.solve")
    steps = sum(spans[i][4] for i in solves)
    solve_total = sum(dur[i] for i in solves)
    probes = of("reconstruct.probe_mode")
    gaps = of("reconstruct.estimate_gap")
    sweeps = set(of("reconstruct.stability_sweep"))
    members = [i for i in gaps if spans[i][3] in sweeps]
    recoveries = [i for i in probes if spans[i][3] in sweeps]
    fits = of("reconstruct.fit_damping_least_squares")
    residuals = [spans[i][4] for i in fits]
    gn_iters = sum(len(r) - 1 for r in residuals)
    gn_useful = sum(1 for r in residuals for a, b in zip(r, r[1:])
                    if a - b > GN_USEFUL_DECREASE * a)
    io = [i for i, n in enumerate(names) if n.startswith("io.")]
    inv = [i for i, n in enumerate(names) if n.startswith("inverse_source.")]
    return {
        "setup.import_s": import_s,
        "forward.solves": len(solves),
        "forward.steps": steps,
        "forward.solve_s": _median([dur[i] for i in solves]),
        "forward.self_s": sum(self_time[i] for i in solves),
        "forward.step_us": step_us,
        "forward.bookkeeping_us": solve_total / steps * 1e6 - step_us if steps else 0.0,
        "reconstruct.probes": len(probes),
        "reconstruct.probe_s": _median([dur[i] for i in probes]),
        "reconstruct.reference_solves": len(of("reconstruct.reference_solution")),
        "reconstruct.gap_s": _median([dur[i] for i in gaps]),
        "reconstruct.member_s": (sum(dur[i] for i in members + recoveries) / len(members)
                                 if members else 0.0),
        "reconstruct.gn_s": sum(dur[i] for i in fits),
        "reconstruct.gn_iters": gn_iters,
        "reconstruct.gn_useful_iters": gn_useful,
        "reconstruct.gn_useful_share": gn_useful / gn_iters if gn_iters else 0.0,
        "reconstruct.gn_solves": sum(1 for i in solves
                                     if under(i, "reconstruct.fit_damping_least_squares")),
        "io.write_s": sum(self_time[i] for i in io),
        "io.manifest_s": sum(dur[i] for i in of("io.write_manifest")),
        "io.files": files,
        "inverse_source.calls": len(inv),
        "inverse_source.causal_s": sum(dur[i] for i in of("inverse_source.convolve_causal")),
        "inverse_source.anticausal_s": sum(dur[i] for i in of("inverse_source.convolve_anticausal")),
        "verify.checks": sum(spans[i][4] for i in of("verify.run_checks")),
    }
