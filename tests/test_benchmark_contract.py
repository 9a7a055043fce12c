"""The program names the benchmark's tracing looks up must keep existing.

perfbench/tracing.py wraps wavedamp functions by module and name and times
the step kernel directly; a rename in wavedamp would break the benchmark
without failing any other test.  The tracer is loaded but never installed,
since installing rebinds the wavedamp modules in place.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
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
