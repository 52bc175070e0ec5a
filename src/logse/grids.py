"""Radial grids and discretized radial wavefunctions.

Grids exclude the origin (the 1/r^2 coupling and 1/r potentials are singular
there).  Wavefunctions carry an angular normalization weight so that the same
machinery covers both conventions used by the analytic catalog:

* spherically symmetric states: norm = int 4 pi r^2 |psi|^2 dr  (weight 4 pi),
* separable radial factors R(r): norm = int r^2 |R|^2 dr        (weight 1),
  with the angular entropy constant S_Y carried alongside.

Every grid is uniform.  Integrals of sampled states use one grid rule,
integrate_radial: composite Simpson (one dot product with uniform weights)
plus the [0, r_min] panel.  The solvers hold their norm in the h-sum
a h sum u^2 instead (numerics.imagtime).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError

FULL_SPHERE = 4.0 * math.pi


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n uniform nodes of spacing h: w @ f equals
    scipy.integrate.simpson(f, x=r) on those nodes to roundoff.

    The weights are h/3 (1, 4, 2, ..., 4, 1); for even n, scipy's convention
    applies them to the first n - 1 nodes and closes the last interval with
    h (-1/12, 8/12, 5/12).  O(n) to build.
    """
    m = n if n % 2 else n - 1  # nodes under the plain Simpson panels
    weights = np.empty(n)
    weights[:m] = 2.0 * h / 3.0
    weights[1:m:2] = 4.0 * h / 3.0
    weights[0] = weights[m - 1] = h / 3.0
    if m < n:
        weights[-3] -= h / 12.0
        weights[-2] += 2.0 * h / 3.0
        weights[-1] = 5.0 * h / 12.0
    return weights


def simpson(f: np.ndarray, grid: RadialGrid) -> float:
    """Composite Simpson of f over the grid's nodes: one dot product with
    simpson_weights at the mean step (r_max - r_min) / (n - 1), equal to
    scipy.integrate.simpson to roundoff (the first step alone can be off by
    eps * r_max / h relative).
    """
    n = grid.n_points
    return float(simpson_weights(n, (grid.r_max - grid.r_min) / (n - 1)) @ f)


def integrate_radial(grid: RadialGrid, f: np.ndarray, origin_power: int = 2) -> float:
    """The grid rule: composite Simpson plus the analytic [0, r_min] panel.

    The panel assumes f ~ r^origin_power near the origin, the behaviour of
    r^2-weighted densities (power 2) and of bare density-log terms (power 0).
    Every norm and distance of a sampled state uses this rule; the solvers
    hold their norm in the h-sum.
    """
    return simpson(f, grid) + float(f[0]) * grid.r_min / (origin_power + 1.0)


def _check_nodes(n) -> None:
    """DomainError unless the node count n is an integer (not a bool) >= 4."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 4:
        raise DomainError(f"a grid needs an integer number of nodes n >= 4, got {n!r}")


# steps of a uniform grid lie within this many eps * r_max of the first one;
# np.linspace's deviate by at most 0.9 (r_max in [1, 1000], n <= 1e5)
_UNIFORM_ULPS = 8.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform, strictly increasing radial nodes with r_min > 0 and spacing
    h = r[1] - r[0]: every step must lie within 8 eps r_max of h, else
    DomainError."""

    r: np.ndarray
    h: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size < 4:
            raise DomainError("grid needs at least 4 nodes")
        if not r[0] > 0.0:
            raise DomainError("grids must start at r_min > 0")
        steps = np.diff(r)
        if not np.all(steps > 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if not np.isfinite(r[-1]):
            raise DomainError("grid nodes must be finite")
        tol = _UNIFORM_ULPS * np.finfo(float).eps * r[-1]
        if not np.all(np.abs(steps - steps[0]) <= tol):
            raise DomainError("grid nodes must be uniformly spaced")
        object.__setattr__(self, "h", float(steps[0]))

    @classmethod
    def uniform(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        _check_nodes(n)
        return cls(np.linspace(r_min, r_max, n))

    @classmethod
    def uniform_from_origin(cls, r_max: float, n: int) -> "RadialGrid":
        """Uniform grid r_j = j*h with r_min = h = r_max/n.

        With this layout the ghost node one spacing left of r_min sits at
        r = 0 exactly, where u = r*psi vanishes by regularity; the solvers'
        left boundary condition is then exact rather than approximate.
        """
        _check_nodes(n)
        return cls(np.linspace(r_max / n, r_max, n))

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def n_points(self) -> int:
        return int(self.r.size)

    def origin_step(self) -> float:
        """h on the solvers' grid (r_min == h: ghost node at r = 0); else DomainError."""
        h = self.h
        if abs(self.r_min - h) > 1e-12 * h:
            raise DomainError("the solvers need a grid with r_min == h "
                              "(RadialGrid.uniform_from_origin)")
        return h


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
        if not (self.angular_weight > 0 and np.isfinite(self.angular_weight)):
            raise DomainError("angular_weight must be positive and finite")
        if not np.isfinite(self.angular_entropy):
            raise DomainError("angular_entropy must be finite")
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
        return self.angular_weight * integrate_radial(self.grid, r**2 * self.density())

    def normalized(self) -> "RadialWavefunction":
        """Copy rescaled so the quadrature norm equals target_norm."""
        current = self.norm()
        if current <= 0 or not np.isfinite(current):
            raise DomainError("cannot normalize a wavefunction with zero norm")
        scale = math.sqrt(self.target_norm / current)
        return replace(self, values=self.values * scale)

    def is_normalized(self) -> bool:
        return abs(self.norm() - self.target_norm) <= 1e-6 * self.target_norm


def grid_values(values, grid: RadialGrid, name: str) -> np.ndarray:
    """`values` (an array, or a callable of r) as one finite float per grid
    node; DomainError otherwise."""
    v = np.asarray(values(grid.r) if callable(values) else values, dtype=float)
    if v.shape != grid.r.shape or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be finite with one value per grid node")
    return v


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
    return math.sqrt(psi.angular_weight * integrate_radial(psi.grid, r**2 * diff))
