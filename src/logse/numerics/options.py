"""Shared solver options."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError


@dataclass
class SolverOptions:
    """Knobs shared by the relaxation / propagation / SCF drivers.

    dt=None selects the relaxation's fixed pseudo-time step; real-time
    evolution still needs an explicit dt.
    log_floor regularizes ln|psi|^2 where the density underflows; it only
    touches regions that contribute negligibly to norm and observables.
    mixing is the linear damping factor of the self-consistent iteration.
    """

    dt: float | None = None
    max_steps: int = 25_000
    convergence_tol: float = 1e-6
    log_floor: float = 1e-30
    mixing: float = 0.5

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise DomainError(
                "dt must be positive and finite (or None for the relaxation default)"
            )
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")
        if not 0 < self.convergence_tol < math.inf:
            raise DomainError("convergence_tol must be positive and finite")
        if not 0 < self.log_floor < math.inf:
            raise DomainError("log_floor must be positive and finite")
        if not 0.0 < self.mixing <= 1.0:
            raise DomainError("mixing must lie in (0, 1]")
