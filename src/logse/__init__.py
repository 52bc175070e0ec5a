"""Solvers and verification tools for the logarithmic wave equation with a
radially varying nonlinear coupling b(r) = b0 - q/r^2.

The package provides the closed-form stationary catalog (analytic), entropy and
energy observables (observables), numerical oracles and solvers (numerics), unit
conversion (scales) and a command-line front end (cli).
"""

from .scales import CouplingProfile, ScaleSet, coupling_from_temperature, to_dimensionless, to_physical
from .grids import FULL_SPHERE, RadialGrid, RadialWavefunction, l2_distance
from .analytic import (
    AnalyticSolution,
    CaseTag,
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    constant_entropy_candidates,
    effective_potential,
    solve_k_transcendental,
    transcendental_residual,
)
from .observables import (
    ObservableReport,
    entropy,
    entropy_density,
    gp_expansion_error,
    internal_energy,
)
from .errors import ConvergenceError, DomainError
from . import numerics

__version__ = "0.1.0"

__all__ = [
    "CouplingProfile", "ScaleSet", "coupling_from_temperature",
    "to_dimensionless", "to_physical",
    "FULL_SPHERE", "RadialGrid", "RadialWavefunction", "l2_distance",
    "AnalyticSolution", "CaseTag", "case_constant", "case_general",
    "case_inverse_square", "case_q1", "constant_entropy_candidates",
    "effective_potential", "solve_k_transcendental", "transcendental_residual",
    "ObservableReport", "entropy", "entropy_density", "gp_expansion_error",
    "internal_energy",
    "ConvergenceError", "DomainError",
    "numerics",
    "__version__",
]
