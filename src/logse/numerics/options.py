"""Shared solver options."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from ..errors import DomainError


def check_count(name: str, value, least: int) -> None:
    """Raise DomainError unless value is an integer (not a bool) >= least."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass
class SolverOptions:
    """Iteration budget and residual tolerance of the relaxation and the SCF.

    The relaxation starts at the constant step imagtime._RELAX_DT; real-time
    evolution takes its dt as an argument.
    """

    max_steps: int = 25_000
    convergence_tol: float = 1e-6

    def __post_init__(self):
        check_count("max_steps", self.max_steps, 1)
        if not 0 < self.convergence_tol < math.inf:
            raise DomainError("convergence_tol must be positive and finite")
