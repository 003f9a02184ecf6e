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
    CutoffTooLarge,
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
from .model import (
    ModelParams,
    build_params,
    load_config,
)
from .thermo import (
    JumpMeasurement,
    ThermoPoint,
    measured_second_derivative_jump,
    second_derivative_jump,
    specific_heat_jump,
    thermo_to_csv,
    thermodynamic_potential,
)
from .verify import Check, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BcsgapError",
    "Check",
    "CutoffTooLarge",
    "GapCurve",
    "GapPoint",
    "JumpMeasurement",
    "ModelParams",
    "NonFiniteInput",
    "NonFiniteIntegrand",
    "NonPositiveParameter",
    "NotSolved",
    "OutsideDomain",
    "ThermoPoint",
    "ToleranceNotMet",
    "VerificationReport",
    "ZeroGapAtZeroT",
    "build_params",
    "gap_derivatives_at",
    "load_config",
    "measured_second_derivative_jump",
    "run_suite",
    "sample_gap_curve",
    "second_derivative_jump",
    "solve_gap_at",
    "solve_tc",
    "specific_heat_jump",
    "thermo_to_csv",
    "thermodynamic_potential",
    "__version__",
]
