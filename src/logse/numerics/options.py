"""Shared solver options."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError


@dataclass
class SolverOptions:
    """Knobs shared by the relaxation / propagation / SCF drivers.

    For the relaxation dt is the starting pseudo-time step (None selects
    0.01); the relaxation then sizes its steps by the residual and checks
    each against the discrete energy (see numerics.imagtime).  Real-time
    evolution takes dt as its fixed step and needs it explicit.  The floor
    under ln|psi|^2 is the constant observables.LOG_FLOOR.
    """

    dt: float | None = None
    max_steps: int = 25_000
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise DomainError(
                "dt must be positive and finite (or None for the relaxation default)"
            )
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")
        if not 0 < self.convergence_tol < math.inf:
            raise DomainError("convergence_tol must be positive and finite")
