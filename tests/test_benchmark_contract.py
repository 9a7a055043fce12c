"""The program names and results the benchmark relies on must keep holding.

perfbench/tracing.py wraps wavedamp functions by module and name and times
the step kernel directly; a rename in wavedamp would break the benchmark
without failing any other test.  The tracer is loaded but never installed,
since installing rebinds the wavedamp modules in place.  Every `verify`
operation of the benchmark also runs the closed-form convolution check of
perfbench/checks.py, which a change to convolve_causal or TimeSignal could
break while the program's own tests still pass.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checks():
    # checks.py imports its sibling workloads.py as a top-level module
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_traced_names_are_callables(tracing):
    assert tracing.TRACED
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"wavedamp.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"wavedamp.{module}.{name}"


def test_step_kernel_names_exist():
    from wavedamp import forward

    for name in ("step", "start_step", "damping_rate"):
        assert callable(getattr(forward, name, None)), f"wavedamp.forward.{name}"
    assert isinstance(forward.CFL_LIMIT, float)


def test_step_kernel_timing_runs(tracing):
    # the timing calls damping_rate, start_step and step as the benchmark does, so a
    # change to their call shape fails here and not only in a traced benchmark run
    from wavedamp.config import ExperimentConfig

    config = ExperimentConfig(n=17, tau=0.5).validate()
    step_us = tracing.time_step_kernel(config, reps=2, steps=5)
    assert math.isfinite(step_us) and step_us > 0.0


def test_counters_read_real_results(tracing):
    # each counter reads a field of its call's result (a solve's times, a fit's
    # residuals, the checks run), so a change to that result fails here
    import numpy as np

    from wavedamp.config import ExperimentConfig
    from wavedamp.forward import solve, step_count
    from wavedamp.grid import Grid2D
    from wavedamp.reconstruct import fit_damping_least_squares, probe_mode
    from wavedamp.spectral import DampingPair, ModeIndex, mode_shape
    from wavedamp.verify import run_checks

    grid, tau = Grid2D(17), 0.5
    a = DampingPair.constant(0.1, n=17)
    u0 = grid.zero_dirichlet(grid.sample(lambda x, y: mode_shape(ModeIndex(0, 0), x, y)))
    meas = probe_mode(a, ModeIndex(0, 0), tau, grid)
    fit = fit_damping_least_squares([meas], DampingPair.constant(0.05, n=17), grid, tau,
                                    iters=1, fit_order=0)
    checks = run_checks(ExperimentConfig(), name_prefix="rellich")
    results = {
        "forward.solve": solve(u0, np.zeros_like(u0), a, grid, tau),
        "reconstruct.fit_damping_least_squares": fit,
        "verify.run_checks": checks,
    }
    assert set(tracing.COUNTERS) == set(results)
    counts = {name: counter(results[name]) for name, counter in tracing.COUNTERS.items()}
    assert counts["forward.solve"] == step_count(tau, grid.h)
    assert counts["reconstruct.fit_damping_least_squares"] == fit[1].residuals
    assert len(counts["reconstruct.fit_damping_least_squares"]) == 2
    assert counts["verify.run_checks"] == len(checks) == 3


def test_verify_closed_form_check_passes(checks):
    from wavedamp import inverse_source

    assert checks.convolve_closed_form_defect(inverse_source) <= checks.CLOSED_FORM_TOL
