"""Unit scales and the nonlinear-coupling profile.

Conventions
-----------
Physical inputs carry hbar, a particle mass m and a length a.  The derived
time scale is tau = 2 m a^2 / hbar; lengths, times and energies are measured
in a, tau and hbar/tau.  In these units the wave equation reads

    i d_t psi + lap psi + (b0 - q / r^2) ln(|psi|^2) psi = 0,

so the dimensionless coupling pair is

    b0_tilde = b0 * tau / hbar = 2 m b0 a^2 / hbar^2,
    q_tilde  = q * tau / (hbar a^2) = 2 m q / hbar^2.

The Boltzmann constant is 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _require_finite(**kwargs):
    for name, value in kwargs.items():
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ScaleSet:
    """Physical constants (hbar, m, a) defining the dimensionless units."""

    hbar: float
    mass: float
    a: float

    def __post_init__(self):
        _require_finite(hbar=self.hbar, mass=self.mass, a=self.a)
        if self.hbar <= 0 or self.mass <= 0 or self.a <= 0:
            raise DomainError("hbar, mass and a must all be positive")

    @property
    def tau(self) -> float:
        """Time scale tau = 2 m a^2 / hbar (always recomputed, never stored)."""
        return 2.0 * self.mass * self.a**2 / self.hbar

    @property
    def energy(self) -> float:
        """Energy scale hbar / tau."""
        return self.hbar / self.tau


@dataclass(frozen=True)
class CouplingProfile:
    """Radial coupling b(r) = b0_tilde - q_tilde / r^2 in dimensionless units."""

    b0_tilde: float
    q_tilde: float

    def __post_init__(self):
        _require_finite(b0_tilde=self.b0_tilde, q_tilde=self.q_tilde)

    def evaluate(self, r):
        """Coupling strength at radius r (scalar or array, r > 0)."""
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0.0):
            raise DomainError("coupling profile is defined for r > 0 only")
        return self.b0_tilde - self.q_tilde / r**2


def to_dimensionless(b0: float, q: float, scales: ScaleSet) -> CouplingProfile:
    """Convert physical coupling constants (b0, q) to a dimensionless profile.

    b0 has units of energy, q of energy * length^2.
    """
    _require_finite(b0=b0, q=q)
    b0_tilde = 2.0 * scales.mass * b0 * scales.a**2 / scales.hbar**2
    q_tilde = 2.0 * scales.mass * q / scales.hbar**2
    return CouplingProfile(b0_tilde=b0_tilde, q_tilde=q_tilde)


def to_physical(profile: CouplingProfile, scales: ScaleSet) -> tuple[float, float]:
    """Inverse of to_dimensionless: recover (b0, q) in physical units."""
    b0 = profile.b0_tilde * scales.hbar**2 / (2.0 * scales.mass * scales.a**2)
    q = profile.q_tilde * scales.hbar**2 / (2.0 * scales.mass)
    return b0, q


def coupling_from_temperature(T: float, T0: float, k_scale: float = 1.0) -> float:
    """Coupling implied by the linear temperature law b = k_scale * (T - T0).

    Only the proportionality b ~ T is fixed by the model; the constant
    k_scale is caller-supplied (default 1) and must be positive.  The result
    vanishes at the reference temperature and is odd around it.
    """
    _require_finite(T=T, T0=T0, k_scale=k_scale)
    if k_scale <= 0:
        raise DomainError("k_scale must be positive")
    return k_scale * (T - T0)
