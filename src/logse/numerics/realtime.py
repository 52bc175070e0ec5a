"""Real-time propagation by Strang splitting.

One step of the dimensionless equation

    i d_t psi = -lap psi - b(r) ln(|psi|^2) psi

is composed as: half nonlinear phase kick (exact, since the density is
invariant under a pure phase rotation), a full Crank-Nicolson kinetic step on
u = r*psi (which turns the radial Laplacian into d^2/dr^2 with u -> 0 at both
ends), and a second half kick.  The Cayley form of Crank-Nicolson is unitary,
so the discrete l2 norm of u -- the trapezoid quadrature of w r^2 |psi|^2 --
is conserved to roundoff; the phase kicks conserve |psi| pointwise.

A kick builds exp(i theta) from one tangent (half_angle_phase).  The kinetic
step is the Cayley identity (I+A)^-1 (I-A) u = M^-1 u - u with M = (I+A)/2 =
tridiag(c, a, c), a = 1/2 + lam, c = -lam/2 (CayleyStep).  M is strictly
diagonally dominant for every dt > 0 (|a| > |lam| = 2|c|), so odd-even
(cyclic) reduction is stable on it: each level eliminates the odd rows and
leaves a tridiagonal system of half the order in the even ones, at the cost
of a few vectorised operations per step.  Every odd row is interior, so a
level is two scalars, and the system it leaves differs from a Toeplitz one
only in its first diagonal entry.  Levels are taken while the order is even,
the half keeps at least _REDUCTION_MIN_ROWS rows and |lam| <= 1e3; the
system left at the bottom is factored once (LAPACK gttrf) and a step
back-substitutes (gttrs) there.  The odd rows are then recovered level by
level, and the top level writes M^-1 u - u straight into u's even and odd
slices.  With no level a step is gttrs on a copy of the whole u followed by
subtracting u in place.  Both routines come from numerics._lapack's
TridiagonalLU, which calls the LAPACK that numpy has loaded (scipy's
extension where numpy's library does not export them) on a buffer bound
once.  Between two steps where nothing is recorded, the second half kick of
one step and the first half kick of the next are fused into one full kick;
every snapshot, norm check and the final state still see a completed Strang
step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..grids import RadialWavefunction, grid_values
from ..observables import LOG_FLOOR
# solve_banded is unused here: perfbench/tracing.py HOOKS wraps this name
from ._lapack import TridiagonalLU, solve_banded  # noqa: F401
from .imagtime import norm_scale
from .options import check_count

_NORM_DRIFT_LIMIT = 1e-6  # allowed relative drift per 1000 steps
_NORM_CHECK_EVERY = 1000
# odd-even reduction halves the Crank-Nicolson system while the half keeps at
# least this many rows; below it gttrs on the whole system is as fast
_REDUCTION_MIN_ROWS = 1000
# the reduced systems' entries are ~|lam| while their row sums stay ~1, so
# rounding the entries moves the smoothest modes by ~eps |lam|; up to this
# |lam| the step stays within 2x of gttrs's own error on the whole system
_REDUCTION_MAX_LAM = 1e3


@dataclass
class EvolutionResult:
    psi: RadialWavefunction          # final state (complex values)
    dt: float
    steps: int
    times: np.ndarray                # snapshot times (includes t=0 and t_end)
    norms: np.ndarray                # solver (trapezoid) norm at snapshots
    phases: np.ndarray               # unwrapped overlap phase arg<psi0|psi(t)>
    norm_drift: float                # max relative norm deviation
    snapshots: list = field(default_factory=list)  # (t, values) if requested


def half_angle_phase(t, out):
    """Write exp(2i t) into the complex array out from the one tangent tan t.

    cos 2t = 2/(1+tan^2) - 1 and sin 2t = 2 tan/(1+tan^2) hold to a few ulps,
    tan^2 stays finite for finite t, and a non-finite t gives NaN.  t is used
    as the scratch buffer for 2/(1+tan^2).
    """
    tan = np.tan(t, out=out.imag)
    c = np.square(tan, out=t)
    np.add(c, 1.0, out=c)
    np.divide(2.0, c, out=c)
    np.multiply(tan, c, out=tan)
    np.subtract(c, 1.0, out=out.real)
    return out


class CayleyStep:
    """The Crank-Nicolson step u -> (I+A)^-1 (I-A) u = M^-1 u - u, in place,
    for M = (I+A)/2 = tridiag(c, a, c) of order n, a = 1/2 + lam, c = -lam/2.

    levels is the number of odd-even reduction levels (see the module
    docstring); with none, M is factored whole and a step is the plain
    gttrs-then-subtract.  Raises np.linalg.LinAlgError if the system left
    at the bottom is singular.
    """

    def __init__(self, n, lam):
        first = a = 0.5 + lam
        c = -0.5 * lam
        self._levels = []
        while (abs(lam) <= _REDUCTION_MAX_LAM and n % 2 == 0
               and n // 2 >= _REDUCTION_MIN_ROWS):
            # every odd row is interior (diagonal a), so the even rows keep a
            # first diagonal entry of their own and are Toeplitz elsewhere
            g = c * c / a
            self._levels.append((1.0 / a, c / a))
            n, first, a, c = n // 2, first - g, a - 2.0 * g, -g
        self.levels = len(self._levels)
        d, off = np.full(n, a), np.full(n - 1, c)
        d[0] = first
        self._lu = TridiagonalLU(off, d, off)
        if self._levels:
            inv, p = self._levels[0]
            self._top = (inv - 1.0, p)

    def __call__(self, u):
        if not self._levels:
            np.subtract(self._lu.solve(u), u, out=u)
            return
        rhs = [u]
        for _, p in self._levels:
            # even row 2k: b[2k] - p (b[2k-1] + b[2k+1]), no b[-1]
            odd = rhs[-1][1::2]
            s = odd.copy()
            s[1:] += odd[:-1]
            s *= p
            rhs.append(np.subtract(rhs[-1][0::2], s, out=s))
        x = self._lu.solve(rhs.pop())
        for (inv, p), b in zip(self._levels[:0:-1], rhs[:0:-1]):
            full = np.empty(2 * x.size, dtype=complex)
            full[0::2] = x
            _odd_rows(x, b[1::2], inv, p, out=full[1::2])
            x = full
        _odd_rows(x, u[1::2], *self._top, out=u[1::2])
        np.subtract(x, u[0::2], out=u[0::2])


def _odd_rows(even, b, scale, p, out):
    """Odd row 2k+1 of a level from its even rows' solution: out[k] =
    scale b[k] - p (even[k] + even[k+1]), no even[m]; scale is 1/a, or
    1/a - 1 to subtract b as well."""
    s = even.copy()
    s[:-1] += even[1:]
    s *= p
    np.multiply(b, scale, out=out)
    out -= s


def evolve_real_time(
    psi0: RadialWavefunction,
    coupling,
    dt: float,
    n_steps: int,
    snapshot_stride: int = 0,
    keep_snapshots: bool = False,
) -> EvolutionResult:
    """Propagate psi0 for n_steps of size dt under the coupling b(r): values on
    psi0's grid or a callable of r, as ground_state_from_coupling_values takes
    it (profile.evaluate(grid.r) for a closed-form coupling).

    psi0 is first scaled onto the conserved h-sum norm (imagtime.norm_scale);
    the t = 0 snapshot is that state.  snapshot_stride > 0 records diagnostics
    every that many steps (plus the initial and final states), 0 only those
    two; keep_snapshots additionally stores the field values for trajectory
    output.  DomainError for a dt that is not positive and finite, n_steps or
    snapshot_stride that is not a non-negative integer, a coupling that is not
    finite with one value per node, a grid without r_min == h or a psi0 of zero
    norm.  Aborts with ConvergenceError if the conserved discrete norm drifts
    by more than 1e-6 per 1000 steps.
    """
    if not 0.0 < dt < math.inf:
        raise DomainError(f"the time step dt must be positive and finite, got {dt:g}")
    check_count("n_steps", n_steps, 0)
    check_count("snapshot_stride", snapshot_stride, 0)
    grid = psi0.grid
    coupling = grid_values(coupling, grid, "coupling")
    r = grid.r
    h = grid.origin_step()
    n = r.size

    values = np.asarray(psi0.values, dtype=complex)
    u = r * (values * norm_scale(r * values, h, psi0.target_norm, psi0.angular_weight))
    u0 = u.copy()
    # the phase kick at the innermost node reacts to density perturbations
    # with gain ~ dt * |b(r_min)|; past O(1) the splitting goes unstable
    stiffness = dt * float(np.max(np.abs(coupling)))
    if stiffness > 1.0:
        warnings.warn(
            f"dt * max|b(r)| = {stiffness:.2f} > 1: the nonlinear phase step is "
            "stiff at the inner grid edge; reduce dt or use fewer grid points",
            stacklevel=2,
        )

    # A = lam tridiag(-1, 2, -1), lam = i dt/(2h^2): Crank-Nicolson for
    # i du/dt = -u'' with Dirichlet ghosts
    try:
        cayley = CayleyStep(n, 0.5j * dt / (h * h))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"the Crank-Nicolson matrix: {exc}") from exc

    # the kick exp(i theta) takes the half angle theta/2 = coef * ln max(|u/r|^2,
    # LOG_FLOOR): coef is dt*b/4 for a half kick and dt*b/2 for a full one
    inv_r2 = 1.0 / (r * r)
    kick_full = 0.5 * dt * coupling
    kick_half = 0.5 * kick_full
    rho = np.empty(n)
    phase = np.empty(n, dtype=complex)

    def kick(vec, coef):
        np.square(np.abs(vec, out=rho), out=rho)
        np.multiply(rho, inv_r2, out=rho)
        np.maximum(rho, LOG_FLOOR, out=rho)
        np.log(rho, out=rho)
        np.multiply(rho, coef, out=rho)
        vec *= half_angle_phase(rho, phase)

    def solver_norm(vec):
        # trapezoid over the extended grid {0, r..., r_max+h} whose ghost
        # nodes are exact zeros: h * sum |u|^2.  The Cayley step is unitary in
        # exactly this inner product, so the measure is conserved to roundoff.
        return psi0.angular_weight * h * float(np.sum(np.abs(vec) ** 2))

    def drift_at(step):
        # a NaN drift compares False against any limit, so test it first
        drift = abs(solver_norm(u) - norm0) / norm0
        if not np.isfinite(drift):
            raise ConvergenceError(
                f"the state is no longer finite after {step} steps; dt={dt:g}, h={h:g}",
                history=list(zip(times, norms)),
            )
        return drift

    norm0 = solver_norm(u)
    stride = snapshot_stride if snapshot_stride > 0 else n_steps
    times = [0.0]
    norms = [norm0]
    raw_phases = [0.0]
    snapshots = [(0.0, u / r)] if keep_snapshots else []
    max_drift = 0.0

    def record(step):
        t = step * dt
        times.append(t)
        norms.append(solver_norm(u))
        raw_phases.append(float(np.angle(np.vdot(u0, u))))
        if keep_snapshots:
            snapshots.append((t, u / r))

    completed = True  # u holds a whole Strang step (its last half kick applied)
    for step in range(1, n_steps + 1):
        kick(u, kick_half if completed else kick_full)
        cayley(u)

        snapshot = step % stride == 0 or step == n_steps
        norm_check = step % _NORM_CHECK_EVERY == 0
        completed = snapshot or norm_check
        if not completed:
            continue  # the trailing half kick is fused into the next step's
        kick(u, kick_half)
        if snapshot and times[-1] != step * dt:
            record(step)
        if norm_check:
            drift = drift_at(step)
            max_drift = max(max_drift, drift)
            if drift > _NORM_DRIFT_LIMIT * (step / _NORM_CHECK_EVERY):
                raise ConvergenceError(
                    f"norm drifted by {drift:.3e} after {step} steps "
                    f"(limit {_NORM_DRIFT_LIMIT:g} per {_NORM_CHECK_EVERY} steps); "
                    f"dt={dt:g}, h={h:g}",
                    history=list(zip(times, norms)),
                )

    max_drift = max(max_drift, drift_at(n_steps))
    psi_final = RadialWavefunction(
        grid=grid,
        values=u / r,
        target_norm=psi0.target_norm,
        angular_weight=psi0.angular_weight,
        angular_entropy=psi0.angular_entropy,
    )
    return EvolutionResult(
        psi=psi_final,
        dt=dt,
        steps=n_steps,
        times=np.asarray(times),
        norms=np.asarray(norms),
        phases=np.unwrap(np.asarray(raw_phases)),
        norm_drift=max_drift,
        snapshots=snapshots,
    )
