"""Second-order finite-difference stencils on radial grids."""

from __future__ import annotations

import numpy as np


def radial_laplacian_interior(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """d^2 f/dr^2 + (2/r) df/dr at interior nodes via 3-point central stencils.

    The classic central differences, written in the Lagrange form of the
    3-point stencil with each node's own steps: its rounding is what
    criterion 1's residual rows are pinned to.  Returns n-2 values.
    """
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    f0, fm, fp = f[1:-1], f[:-2], f[2:]
    denom = hp * hm * (hp + hm)
    d2 = 2.0 * (hm * fp - (hp + hm) * f0 + hp * fm) / denom
    d1 = (hm**2 * fp + (hp**2 - hm**2) * f0 - hp**2 * fm) / denom
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
