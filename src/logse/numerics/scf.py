"""Self-consistent coupled wavefunction / auxiliary-field model.

The coupled system is

    i d_t psi = -lap psi - (d phi/dr) ln(|psi|^2) psi,
    lap_r phi = 4 pi f(|psi|^2, r),

with a caller-supplied source map f (its physical form is model-dependent).
Its stationary states are solved as one system.  On the solvers' grid, with
u = r psi, rho = (u/r)^2 and the point charge q of solve_radial_poisson, the
unknowns are (u, z, omega):

    F1 = D2 u + b ln max(rho, floor) u + omega u = 0,   b = (z - q) / r^2,
    F2_i = z_i - z_{i-1} - (h/2) (g_{i-1} + g_i) = 0,  g = 4 pi r^2 f(rho, r),

z being solve_radial_poisson's enclosed-source integral (the cumulative
trapezoid from the origin, z_{-1} = g_{-1} = 0), closed by the h-sum norm
4 pi h u.u = N as in the relaxation.

Newton step.  Interleaving (u_i, z_i) makes the Jacobian banded with
bandwidths (3, 2), bordered by the omega column u and the norm row: one step
is one banded LU solve (LAPACK gbsv from the library numpy has loaded,
numerics._lapack.solve_banded) with the right-hand sides [F, u] and the
relaxation's border elimination (imagtime.bordered_newton_update), O(n).
After a step z is recomputed from the new density, so F2 = 0 holds exactly,
and omega is the iterate's Rayleigh quotient.  The coupled residual is then
max|F1| / max|u| in the field the state's own density sources.  A step is
accepted only if its iterate passes the relaxation's sign test
(imagtime.fold_shallow: taken as |u| when its negative entries are a
shallow far-tail overshoot, rejected with a deeper lobe) and its residual
falls.

Globalization: one relaxation, then natural continuation in the source
strength, lambda f (Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003).  The relaxation (ground_state_from_coupling_values) runs
in the field that lambda0 f sources at the guess, chosen so that this field
is the self-consistent one for every density: lambda0 = 1 when df/drho
vanishes on the guess; lambda0 = 0 otherwise, the point charge's field
-q/r^2 alone (b = 0 when q = 0).  That field does not depend on the
guess's values, so the relaxation gets the caller's psi0 as it is, and
without one takes its own start from the field (imagtime._start_exponent).
When lambda0 = 1 and the relaxed density sources the very field it relaxed
in (the source arrays are equal), the relaxation is the whole solve: its
state, omega and residual are returned with the full solve_radial_poisson
of its density, without a rung (whose first stationary call would repeat
the relaxation's last one).  A map flat in rho only piecewise can source
another field at the relaxed density; then the rungs follow.  The rungs then run to lambda = 1, which is
tried first; each starts from the last accepted state (the relaxed one
until a rung is accepted) and takes coupled Newton steps until the residual
is below tol.  A rejected rung halves the lambda step from the last
accepted lambda (0 until a rung is accepted); an accepted one doubles it.
A failure of the relaxation is raised as it is.  Relaxing in the frozen
field of lambda f at every rung instead drove the eps = 20 and 30
linear-density states off the branch (the rungs stalled near lambda 0.94
and 0.63) and took the eps = 10 solve 1.6 s.

The shipped source maps carry df/drho as their attribute `drho`; for any
other map a pointwise forward difference stands in, O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..grids import FULL_SPHERE, RadialGrid, RadialWavefunction
from ..observables import LOG_FLOOR
from ._lapack import solve_banded
from .imagtime import (
    _initial_guess,
    bordered_newton_update,
    fold_shallow,
    ground_state_from_coupling_values,
    jacobian_diagonal,
    stationary,
)
from .options import SolverOptions, check_count
from .poisson import FieldState, field_gradient, solve_radial_poisson

# the continuation gives up once a rejected rung would halve its lambda
# step below this
_MIN_LAMBDA_STEP = 2.0**-10


@dataclass
class SCFResult:
    psi: RadialWavefunction
    field: FieldState
    omega: float
    sweeps: int  # coupled Newton steps over all rungs
    converged: bool
    history: list  # rows (lam, newton_step, residual, omega); see the solver


def f_constant_over_r(b0: float):
    """Source map f = b0 / (2 pi r), independent of the density.

    This is the leading extended term of the far-field decomposition; it
    decouples the system and drives the coupling to the constant b0.
    """

    def f(rho, r):
        return b0 / (2.0 * math.pi * r)

    f.drho = f_zero
    return f


def f_zero(rho, r):
    """No source: the coupling vanishes and psi relaxes to the linear mode."""
    return np.zeros_like(r)


f_zero.drho = f_zero


def f_linear_density(eps: float):
    """Source proportional to the density, f = eps * rho."""

    def f(rho, r):
        return eps * rho

    f.drho = lambda rho, r: np.full_like(r, eps)
    return f


def _source_derivative(f):
    """df/drho on the grid: f.drho, or a forward difference for other maps."""
    declared = getattr(f, "drho", None)
    if declared is not None:
        return declared

    def difference(rho, r):
        step = 1e-7 * (rho + rho.max()) + 1e-300
        return (np.asarray(f(rho + step, r), dtype=float)
                - np.asarray(f(rho, r), dtype=float)) / step

    return difference


def self_consistent_minimal_model(
    f,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    point_charge: float = 0.0,
    max_sweeps: int = 200,
    psi0=None,
) -> SCFResult:
    """Stationary state of the coupled minimal model: one relaxation, then
    continuation in the source strength by guarded coupled Newton steps
    (module docstring).

    f(rho, r) maps the density to the field source (kappa * rho_phi); three
    ready-made maps are provided: f_constant_over_r, f_zero, f_linear_density.
    The returned state is the relaxed one or a coupled Newton iterate taken
    as |u| by fold_shallow, its field is solve_radial_poisson of its own
    density and its residual in that field is below opts.convergence_tol.
    max_sweeps bounds the coupled Newton steps over all rungs.  history has
    one row (lam, newton_step, residual, omega) per coupled state: the start
    of a rung (newton_step 0) and each Newton iterate, a rejected one
    included (residual inf when it has a deep negative lobe).  Raises
    ConvergenceError, carrying the last accepted state and the history, when
    the budget runs out or the lambda step falls below _MIN_LAMBDA_STEP; a
    failure of the relaxation is raised as it is.
    """
    opts = opts or SolverOptions()
    check_count("max_sweeps", max_sweeps, 1)
    r = grid.r
    h = grid.origin_step()
    tol = opts.convergence_tol
    source_derivative = _source_derivative(f)
    history = []
    sweeps = 0

    def source(u, lam):
        return (4.0 * math.pi * lam) * np.asarray(f((u / r) ** 2, r), dtype=float)

    def coupled(u, lam):
        """(b, w, F1, omega, residual) of u in the field its density sources."""
        coupling = field_gradient(source(u, lam), grid, point_charge)
        return (coupling, *stationary(u, coupling, r, h))

    def newton_iterate(u, state, lam):
        """The coupled Newton iterate from u on the norm; None if it fails."""
        coupling, w, f1, omega, _ = state
        rho = (u / r) ** 2
        inv_h2 = 1.0 / (h * h)
        # dF2_i/du_i and dF2_{i+1}/du_i: -(h/2) dg/du, dg/du = 8 pi lam f_rho u
        dsource = (-4.0 * math.pi * lam * h) * np.asarray(
            source_derivative(rho, r), dtype=float) * u
        # band storage ab[2 + row - col, col]: u_i is column 2i, z_i 2i + 1
        ab = np.zeros((6, 2 * u.size), order="F")
        ab[0, 2::2] = inv_h2                              # F1_{i-1}
        ab[2, 0::2] = jacobian_diagonal(u, w, omega, coupling, r, h)
        ab[3, 0::2] = dsource                             # F2_i
        ab[4, 0:-2:2] = inv_h2                            # F1_{i+1}
        ab[5, 0:-2:2] = dsource[:-1]                      # F2_{i+1}
        ab[1, 1::2] = np.log(np.maximum(rho, LOG_FLOOR)) * u / r**2  # dF1_i/dz_i
        ab[2, 1::2] = 1.0                                 # dF2_i/dz_i
        ab[4, 1:-2:2] = -1.0                              # dF2_{i+1}/dz_i
        rhs = np.zeros((2 * u.size, 2), order="F")
        rhs[0::2, 0], rhs[0::2, 1] = f1, u
        try:
            x = solve_banded((3, 2), ab, rhs)
        except np.linalg.LinAlgError:
            return None
        return bordered_newton_update(u, x[0::2, 0], x[0::2, 1], h, N, FULL_SPHERE)[0]

    def rung(u, lam):
        """Coupled Newton steps at lam from u; (u, coupled state) once the
        residual is below tol.  Raises ConvergenceError when a step is
        rejected or the budget is spent."""
        nonlocal sweeps
        state = coupled(u, lam)
        history.append((lam, 0, state[4], state[3]))
        step = 0
        while state[4] >= tol:
            if sweeps == max_sweeps:
                raise ConvergenceError(
                    f"self-consistent solve did not reach residual < {tol:g} within "
                    f"{max_sweeps} coupled Newton steps (lambda {lam:g}, residual "
                    f"{state[4]:.3e})")
            sweeps += 1
            step += 1
            u_new = newton_iterate(u, state, lam)
            trial = None
            if u_new is not None and fold_shallow(u_new) is not None:
                trial = coupled(u_new, lam)
            history.append((lam, step, math.inf if trial is None else trial[4],
                            math.nan if trial is None else trial[3]))
            if trial is None or not trial[4] < state[4]:
                raise ConvergenceError(
                    f"coupled Newton step {step} at lambda {lam:g} rejected "
                    f"(residual {state[4]:.3e})")
            u, state = u_new, trial
        return u, state

    u = r * _initial_guess(grid, psi0, N, FULL_SPHERE)
    lam0 = 0.0 if np.any(source_derivative((u / r) ** 2, r)) else 1.0
    relaxed_source = source(u, lam0)
    relaxed = ground_state_from_coupling_values(
        field_gradient(relaxed_source, grid, point_charge), N, grid, opts, psi0=psi0)
    u, omega = r * relaxed.psi.values.real, relaxed.omega
    lam_done, lam_step = 0.0, 1.0
    if lam0 == 1.0 and np.array_equal(source(u, 1.0), relaxed_source):
        # the relaxed density sources the field it relaxed in, so the
        # relaxation is the whole solve
        history.append((1.0, 0, relaxed.history[-1][1], omega))
        lam_done = 1.0
    while lam_done < 1.0:
        lam = min(1.0, lam_done + lam_step)
        try:
            u_rung, state = rung(u, lam)
        except ConvergenceError as err:
            lam_step /= 2.0
            if sweeps == max_sweeps or lam_step < _MIN_LAMBDA_STEP:
                raise ConvergenceError(
                    f"self-consistent continuation stopped at lambda {lam_done:g} "
                    f"after {sweeps} coupled Newton steps: {err}",
                    last=RadialWavefunction(grid, u / r, N),
                    history=history,
                ) from err
            continue
        u, omega, lam_done = u_rung, state[3], lam
        lam_step *= 2.0

    return SCFResult(
        psi=RadialWavefunction(grid, u / r, N),
        field=solve_radial_poisson(source(u, 1.0), grid, point_charge=point_charge),
        omega=omega,
        sweeps=sweeps,
        converged=True,
        history=history,
    )
