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
step is the Cayley identity (I+A)^-1 (I-A) u = 2 (I+A)^-1 u - u: (I+A)/2 is
factored once (LAPACK gttrf), and a step back-substitutes (gttrs) on a copy of
u and subtracts u; both routines come from numerics._lapack, which loads
scipy's extension without the scipy.linalg package.  Between two steps where nothing is recorded, the second
half kick of one step and the first half kick of the next are fused into one
full kick; every snapshot, norm check and the final state still see a
completed Strang step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..grids import RadialWavefunction
from ..observables import LOG_FLOOR
from ..scales import CouplingProfile
# solve_banded is unused here: perfbench/tracing.py HOOKS wraps this name
from ._lapack import solve_banded, zgttrf, zgttrs  # noqa: F401
from .options import SolverOptions

_NORM_DRIFT_LIMIT = 1e-6  # allowed relative drift per 1000 steps
_NORM_CHECK_EVERY = 1000


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


def evolve_real_time(
    psi0: RadialWavefunction,
    profile: CouplingProfile,
    opts: SolverOptions,
    n_steps: int,
    snapshot_stride: int = 0,
    keep_snapshots: bool = False,
) -> EvolutionResult:
    """Propagate psi0 for n_steps of size opts.dt.

    snapshot_stride > 0 records diagnostics every that many steps (plus the
    initial and final states), 0 only those two; keep_snapshots additionally
    stores the field values for trajectory output.  Negative n_steps or
    snapshot_stride, or a grid without r_min == h, raise DomainError.  Aborts
    with ConvergenceError if the conserved discrete norm drifts by more than
    1e-6 per 1000 steps.
    """
    if opts.dt is None:
        raise DomainError("real-time evolution needs an explicit dt")
    if n_steps < 0 or snapshot_stride < 0:
        raise DomainError("n_steps and snapshot_stride must be non-negative")
    grid = psi0.grid
    r = grid.r
    h = grid.origin_step()
    n = r.size
    dt = opts.dt

    psi0 = psi0.normalized()
    u = (r * np.asarray(psi0.values, dtype=complex)).copy()
    u0 = u.copy()
    coupling = profile.evaluate(r)
    # the phase kick at the innermost node reacts to density perturbations
    # with gain ~ dt * |b(r_min)|; past O(1) the splitting goes unstable
    stiffness = dt * float(np.max(np.abs(coupling)))
    if stiffness > 1.0:
        warnings.warn(
            f"dt * max|b(r)| = {stiffness:.2f} > 1: the nonlinear phase step is "
            "stiff at the inner grid edge; reduce dt or coarsen r_min",
            stacklevel=2,
        )

    # (I+A)/2 with A = lam tridiag(-1, 2, -1), lam = i dt/(2h^2): Crank-Nicolson
    # for i du/dt = -u'' with Dirichlet ghosts
    lam = 0.5j * dt / (h * h)
    off = np.full(n - 1, -0.5 * lam)
    dl, d, du, du2, ipiv, info = zgttrf(off, np.full(n, 0.5 + lam), off)
    if info != 0:
        raise DomainError(f"Crank-Nicolson matrix is singular (gttrf info={info})")

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
        v, info = zgttrs(dl, d, du, du2, ipiv, u)
        if info != 0:
            raise DomainError(f"Crank-Nicolson solve failed (gttrs info={info})")
        u = np.subtract(v, u, out=v)

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
