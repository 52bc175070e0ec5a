"""Radial grids and discretized radial wavefunctions.

Grids exclude the origin (the 1/r^2 coupling and 1/r potentials are singular
there).  Wavefunctions carry an angular normalization weight so that the same
machinery covers both conventions used by the analytic catalog:

* spherically symmetric states: norm = int 4 pi r^2 |psi|^2 dr  (weight 4 pi),
* separable radial factors R(r): norm = int r^2 |R|^2 dr        (weight 1),
  with the angular entropy constant S_Y carried alongside.

Integrals use one grid rule, integrate_radial; grid_rule_weights returns the
same rule as a weight vector for loops that integrate on one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from .errors import DomainError

FULL_SPHERE = 4.0 * math.pi


def integrate_radial(r: np.ndarray, f: np.ndarray, origin_power: int = 2) -> float:
    """The grid rule: composite Simpson plus the analytic [0, r_min] panel.

    The panel assumes f ~ r^origin_power near the origin, the behaviour of
    r^2-weighted densities (power 2) and of bare density-log terms (power 0).
    Every norm and distance of a state uses this rule.
    """
    return float(simpson(f, x=r) + f[0] * r[0] / (origin_power + 1.0))


def grid_rule_weights(grid: RadialGrid, origin_power: int = 2) -> np.ndarray:
    """The grid rule as weights w: w @ f == integrate_radial(r, f, origin_power).

    Defined on the solvers' grid (r_min == h, else DomainError), where the
    rule's Simpson part has constant weights h/3 (1, 4, 2, ..., 4, 1); for
    even n, scipy's convention applies them to the first n - 1 nodes and
    closes the last interval with h (-1/12, 8/12, 5/12).  The [0, r_min]
    panel adds r_min / (origin_power + 1) to the first weight.  O(n) to
    build; a loop that integrates on one grid builds it once.
    """
    h = grid.origin_step()
    n = grid.n_points
    m = n if n % 2 else n - 1  # nodes under the plain Simpson panels
    weights = np.empty(n)
    weights[:m] = 2.0 * h / 3.0
    weights[1:m:2] = 4.0 * h / 3.0
    weights[0] = weights[m - 1] = h / 3.0
    if m < n:
        weights[-3] -= h / 12.0
        weights[-2] += 2.0 * h / 3.0
        weights[-1] = 5.0 * h / 12.0
    weights[0] += grid.r_min / (origin_power + 1.0)
    return weights


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with r_min > 0."""

    r: np.ndarray
    spacing: str = "uniform"  # "uniform" or "log"

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size < 4:
            raise DomainError("grid needs at least 4 nodes")
        if r[0] <= 0.0:
            raise DomainError("grids must start at r_min > 0")
        if np.any(np.diff(r) <= 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if self.spacing not in ("uniform", "log"):
            raise DomainError(f"unknown spacing {self.spacing!r}")

    @classmethod
    def uniform(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        return cls(np.linspace(r_min, r_max, n), "uniform")

    @classmethod
    def log(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        return cls(np.geomspace(r_min, r_max, n), "log")

    @classmethod
    def uniform_from_origin(cls, r_max: float, n: int) -> "RadialGrid":
        """Uniform grid r_j = j*h with r_min = h = r_max/n.

        With this layout the ghost node one spacing left of r_min sits at
        r = 0 exactly, where u = r*psi vanishes by regularity; the solvers'
        left boundary condition is then exact rather than approximate.
        """
        h = r_max / n
        return cls(np.linspace(h, r_max, n), "uniform")

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def n_points(self) -> int:
        return int(self.r.size)

    @property
    def h(self) -> float:
        """Node spacing for uniform grids."""
        if self.spacing != "uniform":
            raise DomainError("spacing h is defined for uniform grids only")
        return float(self.r[1] - self.r[0])

    def origin_step(self) -> float:
        """h on the solvers' grid (r_min == h: ghost node at r = 0); else DomainError."""
        if self.spacing != "uniform" or abs(self.r_min - self.h) > 1e-12 * self.h:
            raise DomainError("the solvers need a uniform grid with r_min == h "
                              "(RadialGrid.uniform_from_origin; omit --r-min)")
        return self.h


@dataclass
class RadialWavefunction:
    """Complex amplitudes on a radial grid with a target norm N.

    angular_weight is the integrated angular factor (4 pi for spherically
    symmetric psi, 1 for the radial factor of a separable solution);
    angular_entropy is the angular entropy constant S_Y entering the entropy
    density of separable states.
    """

    grid: RadialGrid
    values: np.ndarray
    target_norm: float = 1.0
    angular_weight: float = FULL_SPHERE
    angular_entropy: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != self.grid.r.shape:
            raise DomainError("values must match the grid shape")
        if not np.all(np.isfinite(values)):
            raise DomainError("wavefunction values must be finite")
        if self.target_norm <= 0 or not np.isfinite(self.target_norm):
            raise DomainError("target_norm must be positive and finite")
        if self.angular_weight <= 0:
            raise DomainError("angular_weight must be positive")
        self.values = values

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm(self) -> float:
        """Quadrature norm int w r^2 |psi|^2 dr by the grid rule.

        The [0, r_min] panel uses the r^2 behaviour of the integrand at the
        origin (density finite there), so sampled exact states reproduce
        their norm to quadrature accuracy rather than to O(r_min^3).
        """
        r = self.grid.r
        return self.angular_weight * integrate_radial(r, r**2 * self.density())

    def normalized(self) -> "RadialWavefunction":
        """Copy rescaled so the quadrature norm equals target_norm."""
        current = self.norm()
        if current <= 0 or not np.isfinite(current):
            raise DomainError("cannot normalize a wavefunction with zero norm")
        scale = math.sqrt(self.target_norm / current)
        return replace(self, values=self.values * scale)

    def is_normalized(self, rtol: float = 1e-6) -> bool:
        return abs(self.norm() - self.target_norm) <= rtol * self.target_norm


def l2_distance(psi: RadialWavefunction, other) -> float:
    """Weighted L2 distance sqrt(int w r^2 |psi - other|^2 dr), grid rule.

    `other` may be another RadialWavefunction on the same grid, a callable
    evaluated on the grid, or an array of samples, one per node.
    """
    r = psi.grid.r
    if isinstance(other, RadialWavefunction):
        if not np.array_equal(other.grid.r, r):
            raise DomainError("l2_distance needs both states on the same grid")
        ref = other.values
    else:
        ref = np.asarray(other(r) if callable(other) else other)
    if ref.shape != r.shape:
        raise DomainError("the reference must provide one value per grid node")
    diff = np.abs(psi.values - ref) ** 2
    return math.sqrt(psi.angular_weight * integrate_radial(r, r**2 * diff))
