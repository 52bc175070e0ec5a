"""Numerical engines: residuals, relaxation, propagation, Poisson, SCF."""

from .options import SolverOptions
from .residual import residual, residual_profile
from .imagtime import (
    GroundStateResult,
    ground_state_from_coupling_values,
    linear_ground_state,
)
from .realtime import EvolutionResult, evolve_real_time
from .poisson import FieldState, extract_coupling_asymptotics, solve_radial_poisson
from .scf import (
    SCFResult,
    f_constant_over_r,
    f_linear_density,
    f_zero,
    self_consistent_minimal_model,
)

__all__ = [
    "SolverOptions",
    "residual",
    "residual_profile",
    "GroundStateResult",
    "ground_state_from_coupling_values",
    "linear_ground_state",
    "EvolutionResult",
    "evolve_real_time",
    "FieldState",
    "extract_coupling_asymptotics",
    "solve_radial_poisson",
    "SCFResult",
    "f_constant_over_r",
    "f_linear_density",
    "f_zero",
    "self_consistent_minimal_model",
]
