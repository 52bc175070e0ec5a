"""Entropy, temperature, information and energy functionals on radial grids.

The entropy of a state is S = -int w r^2 rho ln(rho) dr + S_Y * N / w with
rho = |psi|^2, where w is the wavefunction's angular weight and S_Y its
angular entropy constant; both reductions (spherically symmetric and
separable-radial) are covered by the same expressions.  Entropies and the
kinetic energy use the grid rule (grids.integrate_radial: Simpson plus the
[0, r_min] panel); the potential integral is Simpson alone (grids.simpson),
as the origin behaviour of its integrand depends on the caller's V_ext.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
# the grid and wavefunction types are re-exported: they live here from a
# user's point of view
from .grids import (RadialGrid, RadialWavefunction, grid_values, integrate_radial,
                    simpson)
from .scales import CouplingProfile

# Densities below this are treated as exact zeros in x*ln(x) terms
# (continuous extension x ln x -> 0).
DENSITY_FLOOR = 1e-300
# The floor under ln|psi|^2 in the relaxation, the SCF and the propagator.
# Not DENSITY_FLOOR: the relaxed state's far tail depends on this value.
LOG_FLOOR = 1e-30


@dataclass
class ObservableReport:
    """The internal energy and its pieces."""

    entropy: float
    kinetic: float
    potential: float
    entropy_term: float
    internal_energy: float


class GpExpansion(NamedTuple):
    log_term: float
    cubic_term: float
    difference: float


def _xlogx(rho: np.ndarray) -> np.ndarray:
    """rho * ln(rho) with the x ln x -> 0 limit at vanishing density."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    mask = rho > DENSITY_FLOOR
    out[mask] = rho[mask] * np.log(rho[mask])
    return out


def _kinetic_energy(psi: RadialWavefunction) -> float:
    """int w r^2 |d psi/dr|^2 dr by the grid rule (the integrand ~ r^2 or faster)."""
    r = psi.grid.r
    dpsi = np.gradient(psi.values, r, edge_order=2)
    return psi.angular_weight * integrate_radial(psi.grid, r**2 * np.abs(dpsi) ** 2)


def entropy_density(psi: RadialWavefunction) -> np.ndarray:
    """Radial entropy density s(r) = -w r^2 rho ln(rho) + S_Y r^2 rho.

    For spherically symmetric states (w = 4 pi, S_Y = 0) this is the familiar
    -4 pi r^2 rho ln rho; for separable radial factors the angular entropy
    constant enters additively.
    """
    r2 = psi.grid.r**2
    rho = psi.density()
    return -psi.angular_weight * r2 * _xlogx(rho) + psi.angular_entropy * r2 * rho


def entropy(psi: RadialWavefunction) -> float:
    """Integrated entropy: the grid rule on the entropy density.

    Warns when the entropy density at the outer grid edge exceeds 1e-8 of
    its peak, which signals a truncated integral (grid too small).
    """
    s = entropy_density(psi)
    scale = float(np.max(np.abs(s))) or 1.0
    if abs(s[-1]) > 1e-8 * scale:
        warnings.warn(
            "entropy density is not negligible at the outer grid boundary; "
            "the quadrature is truncated (enlarge the grid)",
            stacklevel=2,
        )
    return integrate_radial(psi.grid, s)


def quantum_temperature(profile: CouplingProfile, r):
    """Conjugate temperature profile; identical to the coupling b(r)."""
    return profile.evaluate(r)


def information_content(psi: RadialWavefunction, r: float) -> float:
    """Information content -log2 rho at radius r (bits); inf at zero density.

    rho is interpolated linearly between nodes; r outside [r_min, r_max]
    raises DomainError.
    """
    if not psi.grid.r_min <= r <= psi.grid.r_max:
        raise DomainError(f"r = {r!r} lies outside the grid "
                          f"[{psi.grid.r_min:g}, {psi.grid.r_max:g}]")
    rho = float(np.interp(r, psi.grid.r, psi.density()))
    if rho <= 0.0:
        return math.inf
    return -math.log(rho) / math.log(2.0)


def information_profile(psi: RadialWavefunction) -> np.ndarray:
    """-log2 rho on the grid, with +inf where the density vanishes."""
    rho = psi.density()
    out = np.full_like(rho, np.inf, dtype=float)
    mask = rho > 0.0
    out[mask] = -np.log(rho[mask]) / math.log(2.0)
    return out


def internal_energy(
    psi: RadialWavefunction,
    profile: CouplingProfile,
    V_ext=None,
    temperature_offset: float = 0.0,
) -> ObservableReport:
    """Internal energy <H> + int T(r) s(r) dr and its pieces.

    kinetic   = int w r^2 |d psi/dr|^2 dr      (units where hbar^2/2m -> 1)
    potential = int w r^2 V_ext |psi|^2 dr
    entropy_term pairs the temperature profile with the entropy density
    position by position; for a constant temperature it reduces exactly to
    T * S.  V_ext is an array on the grid or a callable of r, one finite
    value per node.  temperature_offset shifts T(r) by a reference value
    before the pairing (default 0; it must be finite).  psi must hold its
    target norm (is_normalized).
    """
    if not np.isfinite(temperature_offset):
        raise DomainError("temperature_offset must be finite")
    if not psi.is_normalized():
        raise DomainError(
            f"wavefunction is not normalized: quadrature norm {psi.norm():.12g} "
            f"vs target {psi.target_norm:.12g}"
        )
    r = psi.grid.r
    w = psi.angular_weight
    kinetic = _kinetic_energy(psi)
    v = np.zeros_like(r) if V_ext is None else grid_values(V_ext, psi.grid, "V_ext")
    potential = w * simpson(r**2 * v * psi.density(), psi.grid)
    s = entropy_density(psi)
    total_entropy = integrate_radial(psi.grid, s)
    # split T(r) s(r) = (b0 - T0) s(r) - q s(r)/r^2 so each integrand stays
    # regular at the origin (s ~ r^2 makes s/r^2 finite there)
    entropy_term = (profile.b0_tilde - temperature_offset) * total_entropy
    if profile.q_tilde != 0.0:
        entropy_term -= profile.q_tilde * integrate_radial(psi.grid, s / r**2,
                                                           origin_power=0)
    return ObservableReport(
        entropy=total_entropy,
        kinetic=kinetic,
        potential=potential,
        entropy_term=entropy_term,
        internal_energy=kinetic + potential + entropy_term,
    )


def gp_expansion_error(x: float) -> GpExpansion:
    """Compare ln(x) with its leading Taylor term (x - 1) around x = 1.

    The cubic (Gross-Pitaevskii) nonlinearity is the leading-order expansion
    of the logarithmic one near unit density; the difference is
    O((x-1)^2) and bounded by (x-1)^2 / (2 min(1, x)^2).
    """
    if not (x > 0.0 and np.isfinite(x)):
        raise DomainError("density ratio x must be positive and finite")
    log_term = math.log(x)
    cubic_term = x - 1.0
    return GpExpansion(log_term, cubic_term, log_term - cubic_term)
