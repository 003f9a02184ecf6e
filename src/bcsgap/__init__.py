"""Cutoff pairing-model gap solver and transition-order certifier.

Solves the nonlinear integral equation for the squared gap f(T) = Delta(T)^2
below the transition temperature, differentiates the solution twice via the
implicit function theorem, assembles the piecewise thermodynamic potential,
and certifies numerically that the transition is second order: the
potential is C1 across t_c while its second derivative jumps by a closed
form that reproduces the specific-heat discontinuity.
"""

from .errors import (
    BcsgapError,
    BracketFailure,
    CutoffNotZero,
    CutoffTooLarge,
    NoBracket,
    NonFiniteInput,
    NonFiniteIntegrand,
    NonPositiveParameter,
    NotSolved,
    OutsideDomain,
    ToleranceNotMet,
    ZeroGapAtZeroT,
)
from .gap import (
    GapCurve,
    GapPoint,
    gap_derivatives_at,
    sample_gap_curve,
    solve_gap_at,
    solve_tc,
)
from .kernels import (
    curvature_kernel,
    gap_residual,
    gap_residual_partials,
    gap_residual_second_partials,
    slope_kernel,
)
from .model import (
    ModelParams,
    build_params,
    load_config,
)
from .quad import (
    DEFAULT_SPEC,
    QuadSpec,
    integrate,
    truncation_point,
)
from .thermo import (
    JumpMeasurement,
    ThermoPoint,
    condensation_potential,
    measured_second_derivative_jump,
    normal_potential,
    second_derivative_jump,
    specific_heat_jump,
    tail_potential,
    thermo_to_csv,
    thermodynamic_potential,
)
from .verify import Check, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BcsgapError",
    "BracketFailure",
    "Check",
    "CutoffNotZero",
    "CutoffTooLarge",
    "DEFAULT_SPEC",
    "GapCurve",
    "GapPoint",
    "JumpMeasurement",
    "ModelParams",
    "NoBracket",
    "NonFiniteInput",
    "NonFiniteIntegrand",
    "NonPositiveParameter",
    "NotSolved",
    "OutsideDomain",
    "QuadSpec",
    "ThermoPoint",
    "ToleranceNotMet",
    "VerificationReport",
    "ZeroGapAtZeroT",
    "build_params",
    "condensation_potential",
    "curvature_kernel",
    "gap_derivatives_at",
    "gap_residual",
    "gap_residual_partials",
    "gap_residual_second_partials",
    "integrate",
    "load_config",
    "measured_second_derivative_jump",
    "normal_potential",
    "run_suite",
    "sample_gap_curve",
    "second_derivative_jump",
    "slope_kernel",
    "solve_gap_at",
    "solve_tc",
    "specific_heat_jump",
    "tail_potential",
    "thermo_to_csv",
    "thermodynamic_potential",
    "truncation_point",
    "__version__",
]
