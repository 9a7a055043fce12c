"""Numerical laboratory for boundary damping identification in the wave equation.

Forward problem: the wave equation on the unit square with homogeneous
Dirichlet conditions on two sides and an absorbing condition
d_nu u + a du/dt = 0 on the other two, where the damping coefficient a
is a pair of profiles on the damped sides.  Inverse problem: recover a
from normal-derivative boundary measurements generated by modal initial
data, and verify empirically the logarithmic stability of the recovery
with respect to the measurement-operator gap.
"""

from .errors import (
    ConfigError,
    NumericalError,
    ObservabilityFailure,
    RegimeError,
    ResolutionError,
    WavedampError,
)
from .grid import Grid2D
from .spectral import (
    DampingPair,
    Eigenpair,
    FourierCoeffs,
    ModeIndex,
    MultiplierBound,
    SampledFunction1D,
    SobolevNorms,
    boundary_mode,
    eigenpair,
    holder_seminorm,
    mode_shape,
    multiplier_bound_check,
    project_onto_modes,
    sobolev_norms,
    synthesize_from_modes,
)
from .forward import (
    BoundaryTrace,
    SolveResult,
    SourceSpec,
    WaveState,
    dissipation_residual,
    energy,
    mode_boundary_source,
    rellich_residual,
    solve,
)

__version__ = "0.1.0"
