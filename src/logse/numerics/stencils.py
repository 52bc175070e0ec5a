"""Second-order finite-difference stencils on uniform radial grids."""

from __future__ import annotations

import numpy as np


def radial_laplacian_interior(r: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """d^2 f/dr^2 + (2/r) df/dr at interior nodes via 3-point central
    differences on the grid step h: (f+ - 2 f + f-)/h^2 and (f+ - f-)/(2h).
    Returns n-2 values.
    """
    f0, fm, fp = f[1:-1], f[:-2], f[2:]
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return d2 + (2.0 / r[1:-1]) * d1


def second_difference_dirichlet(u: np.ndarray, h: float) -> np.ndarray:
    """u'' on a uniform grid with zero ghost values beyond both ends.

    Used on the substituted variable u = r*psi, whose left ghost sits at
    r = 0 (exact regularity zero when r_min = h); the right ghost enforces
    u(r_max + h) = 0.
    """
    out = np.empty_like(u)
    out[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    out[0] = u[1] - 2.0 * u[0]
    out[-1] = u[-2] - 2.0 * u[-1]
    out /= h * h
    return out
