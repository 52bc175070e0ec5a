"""Discrete residual of the stationary equation.

Measures how well sampled values satisfy

    lap psi + (b0 - q/r^2) ln(|psi|^2) psi + omega psi = 0

with the radial Laplacian d^2/dr^2 + (2/r) d/dr discretized by second-order
central differences.  The residual of an exact solution is then a direct
probe of the O(h^2) truncation error.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..grids import RadialWavefunction
from ..observables import LOG_FLOOR
from ..scales import CouplingProfile
from .stencils import radial_laplacian_interior


def residual_profile(
    psi: RadialWavefunction,
    omega: float,
    profile: CouplingProfile,
    l_sq: float = 0.0,
) -> np.ndarray:
    """Pointwise residual at interior nodes (boundary rows excluded).

    l_sq adds the centrifugal term -L^2/r^2 psi of the separated radial
    equation; leave it 0 for spherically symmetric states.
    """
    r = psi.grid.r
    if r.size - 2 < 16:
        raise DomainError("grid too coarse: need at least 16 interior points")
    values = psi.values
    rho = np.abs(values) ** 2
    log_rho = np.log(np.maximum(rho, LOG_FLOOR))
    lap = radial_laplacian_interior(r, values, psi.grid.h)
    ri = r[1:-1]
    coupling = profile.evaluate(ri)
    res = lap + coupling * log_rho[1:-1] * values[1:-1] + omega * values[1:-1]
    if l_sq != 0.0:
        res = res - (l_sq / ri**2) * values[1:-1]
    return res


def residual(
    psi: RadialWavefunction,
    omega: float,
    profile: CouplingProfile,
    l_sq: float = 0.0,
) -> float:
    """Max-norm residual over interior nodes, normalized by max|psi|."""
    res = residual_profile(psi, omega, profile, l_sq=l_sq)
    peak = float(np.max(np.abs(psi.values)))
    if peak == 0.0:
        raise DomainError("residual of an identically zero wavefunction")
    return float(np.max(np.abs(res))) / peak
