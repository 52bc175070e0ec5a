"""Ground states: imaginary-time relaxation (nonlinear), direct solve (linear).

Both work on the substituted variable u = r*psi, which turns the radial
Laplacian into a plain second derivative D2 with u -> 0 at both ends; both
need r_min == h (RadialGrid.origin_step), which puts the left ghost node at
r = 0, where u vanishes by regularity, so that boundary is exact.

The nonlinear ground state comes from the normalized gradient flow

    d_tau psi = lap psi + b(r) ln(max(|psi|^2, floor)) psi

(floor = observables.LOG_FLOOR) with a backward-Euler kinetic term (Bao & Du,
SIAM J. Sci. Comput. 25, 2004).  With w = b ln max((u/r)^2, floor),
H u = D2 u + w u, the Rayleigh quotient omega_n = -(Hu . u)/(u . u) and
stiff = min(w + 2b, 0), each step solves

    (I - dt D2 - dt diag(stiff)) u_new = u + dt (w - stiff + omega_n) u

(an SPD tridiagonal system: one LAPACK ptsv call on its diagonal and
off-diagonal) and renormalizes.  w + 2b = d(w u)/du is the log term's
Jacobian; taking its non-positive part (the -2q/r^2 stiffness near the
origin) implicitly lifts the h^2 step limit and keeps the matrix SPD and
diagonally dominant.  omega_n makes the fixed point H u + omega u = 0 for
every dt, where renormalization alone drifts with dt when b(r) varies.  The
run stops once the stationary residual max|H u + omega_n u| / max|u| is
below tol, and returns that iterate as it is.

The flow decreases the discrete functional whose constrained minimizer is
its fixed point (a = angular_weight, the log floored as in w),

    E_h(u) = -a h u.D2u - a h sum b r^2 (rho ln rho - rho)
           = a h (omega_n u.u + b.u^2),

the second form by b r^2 rho ln rho = w u^2 and u.Hu = -omega_n u.u, so it
costs one dot product beyond stationary (discrete_energy).  The step dt is
sized by the residual, pseudo-transient continuation with switched
evolution relaxation (Mulder & van Leer, AIAA 85-1519, 1985; Kelley & Keyes,
SIAM J. Numer. Anal. 35, 1998): it starts at opts.dt (_RELAX_DT if None),
and after each accepted flow step it is multiplied by
min(residual before / residual after, 2), the guess's residual counting as
infinite.  A flow step is accepted only if E_h does not rise by more than
_ENERGY_ROUNDOFF times a h (|omega_n u.u| + |b.u^2|), roundoff; the check
keeps back 2 sqrt(n) eps of those magnitudes, the roundoff of evaluating E_h
twice (the probabilistic bound for sums of n rounded terms; Higham & Mary,
SIAM J. Sci. Comput. 41, 2019), so that E_h summed in any other order also
stays within the allowance.  Otherwise dt is halved and the step retried
from the same iterate.  A failed solve or a
norm that is not finite and positive also halves dt and retries, unless dt
is not above the starting step: then ConvergenceError is raised with the
iterate before it, as when dt underflows to zero.  Rejected trials are
counted in GroundStateResult.rejected_steps; they take no history row.

The flow converges linearly, so once it is close it only polishes.  Once
its residual is below _NEWTON_HANDOVER the engine hands over to Newton's
method on F(u, omega) = H u + omega u = 0 with the norm constraint
a quad . (u u) = N, a = angular_weight (Kelley, Solving Nonlinear Equations
with Newton's Method, SIAM 2003).  The Jacobian in u is the symmetric
tridiagonal J = D2 + diag(w + 2b [rho > floor] + omega) (the floored log
term is flat), bordered by u (the omega column) and by 2a quad u (the
constraint row).  One step solves J [x1 x2] = [F u] by one LAPACK gtsv
call (J is indefinite, so with partial pivoting) and eliminates the border,

    u_lin = u - x1 + ((quad u . x1) / (quad u . x2)) x2,

which keeps the norm to first order.  The iterate is put back on the norm
along x2, u_new = u_lin + s x2 with the root s nearest 0 of
a quad . (u_new u_new) = N, and omega is its Rayleigh quotient, as after a
flow step.  Scaling u_lin instead would add b ln(scale^2) to w, which no
omega absorbs where b varies: for b = -1/r^2 it raised a Newton iterate's
residual from 6e-3 to 1.07, all of it at the origin.  O(n) per step.

Newton converges to whichever stationary state is near, excited ones and
-u included, so a ground-state guard accepts an iterate only if its residual
is below the current one and it has no node (no entry below
-_NODE_ROUNDOFF max u; far-tail entries at roundoff may take either sign).
A rejected iterate is discarded and a flow step taken in its place; Newton
resumes once the flow's residual is below half the residual the rejected
iterate started from.  A Newton step is taken whole or not at all; it is
not checked against E_h and leaves dt as it is.  The flow step, the
stationary terms, E_h, the guard's node test and the border elimination are
module-level functions (flow_step, stationary, discrete_energy, nodeless,
bordered_newton_update); the SCF's coupled Newton solve shares the last
three.

The linear ground state of -lap psi + V psi = omega psi needs no flow: it is
the lowest eigenpair of the symmetric tridiagonal matrix -D2 + diag(V),
solved directly by bisection and inverse iteration (LAPACK stebz, stein).
Every LAPACK routine here comes from numerics._lapack, which loads scipy's
extension without the scipy.linalg package.

Two inner products, each for its reason.  Every norm, distance and energy
of a state uses the grid rule (grids.integrate_radial: Simpson plus the
[0, r_min] panel); as b(r) ln rho makes the stationary state depend on its
amplitude, the flow renormalizes each step in it, the norm its returned
state is held to, as one dot product with the rule's weight vector
(grids.grid_rule_weights).  The Rayleigh quotient uses h * sum u v, in
which D2 is symmetric; it also defines linear_ground_state's eigenvalue,
and the real-time propagator conserves it as the norm in which its Cayley
step is unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..grids import (
    FULL_SPHERE,
    RadialGrid,
    RadialWavefunction,
    grid_rule_weights,
    grid_values,
    integrate_radial,
)
from ..observables import LOG_FLOOR, _kinetic_energy, _xlogx
from ._lapack import dgtsv, dptsv, eigh_tridiagonal_lowest
from .options import SolverOptions
from .stencils import second_difference_dirichlet

# starting relaxation step when opts.dt is None
_RELAX_DT = 0.01
# a flow step may raise E_h by this fraction of its terms' magnitudes
_ENERGY_ROUNDOFF = 1e-12
# stationary residual below which the flow hands over to Newton
_NEWTON_HANDOVER = 0.1
# a Newton iterate with an entry below -_NODE_ROUNDOFF max(u) has a node;
# far-tail entries within roundoff of zero may take either sign
_NODE_ROUNDOFF = 1e-10


@dataclass
class GroundStateResult:
    psi: RadialWavefunction
    omega: float
    converged: bool
    steps: int  # iterations, flow and Newton
    newton_steps: int
    rejected_steps: int  # flow trials rejected (E_h rose, or no finite norm)
    history: list  # rows (step, residual, norm, omega_estimate), one per iteration


def _initial_guess(grid: RadialGrid, psi0, N: float, angular_weight: float) -> np.ndarray:
    """|psi0| normalized to N by the grid rule; a Gaussian of width r_max/8 if None."""
    if psi0 is None:
        sigma = grid.r_max / 8.0
        psi = np.exp(-0.5 * (grid.r / sigma) ** 2)
    else:
        if isinstance(psi0, RadialWavefunction):
            psi0 = psi0.values
        psi = np.abs(np.asarray(psi0, dtype=complex))
    return RadialWavefunction(grid, psi, N, angular_weight).normalized().values


def stationary(u: np.ndarray, coupling: np.ndarray, r: np.ndarray, h: float):
    """(w, F, omega, residual) of u = r psi in the coupling b (values on r):
    w = b ln max((u/r)^2, LOG_FLOOR), H u = D2 u + w u, omega = -(Hu . u)/(u . u)
    its Rayleigh quotient, F = H u + omega u, residual = max|F| / max|u|."""
    w = coupling * np.log(np.maximum((u / r) ** 2, LOG_FLOOR))
    hu = second_difference_dirichlet(u, h) + w * u
    omega = float(-(hu @ u) / (u @ u))
    f = hu + omega * u
    return w, f, omega, float(np.abs(f).max()) / float(np.abs(u).max())


def flow_step(u, w, omega, coupling, dt, h, quad, N, angular_weight):
    """One step of the normalized flow from u, whose w and omega are those
    of stationary(u, ...); quad is the grid's grid_rule_weights.

    Returns (u_new, norm, info): norm is the solve's grid-rule norm before
    u_new is renormalized to N, info is ptsv's.  Unless info == 0 and norm
    is finite and positive, u_new is the solve as it came out.
    """
    stiff = np.minimum(w + 2.0 * coupling, 0.0)
    _, _, u_new, info = dptsv(
        (1.0 + 2.0 * dt / (h * h)) - dt * stiff, np.full(u.size - 1, -dt / (h * h)),
        u + dt * (w - stiff + omega) * u, overwrite_d=1, overwrite_b=1,
    )
    with np.errstate(over="ignore"):
        norm = angular_weight * float(quad @ (u_new * u_new))
    if info == 0 and 0.0 < norm < math.inf:
        u_new *= math.sqrt(N / norm)
    return u_new, norm, info


def discrete_energy(u, omega, coupling, h, angular_weight):
    """(E_h, allowance) of u = r psi whose Rayleigh quotient is omega.

    E_h = -a h u.D2u - a h sum b r^2 (rho ln rho - rho) is the functional the
    flow decreases (a = angular_weight, the log floored at LOG_FLOOR as in w).
    As b r^2 rho ln rho = w u^2 and u.Hu = -omega u.u, it is
    a h (omega u.u + b.u^2).  The allowance, _ENERGY_ROUNDOFF times the sum
    of the two terms' magnitudes, is the rise a flow step may show from
    roundoff alone.  It is returned less 2 sqrt(n) eps of those magnitudes,
    the roundoff of this evaluation and the trial's, so a rise accepted
    against it is within the full allowance however E_h is summed.
    """
    uu = u * u
    omega_term = omega * float(uu.sum())
    coupling_term = float(coupling @ uu)
    scale = angular_weight * h
    margin = 2.0 * math.sqrt(u.size) * np.finfo(float).eps
    return (scale * (omega_term + coupling_term),
            (_ENERGY_ROUNDOFF - margin) * scale * (abs(omega_term) + abs(coupling_term)))


def nodeless(u: np.ndarray) -> bool:
    """No entry below -_NODE_ROUNDOFF max(u): the ground-state guard's test."""
    return bool(u.min() > -_NODE_ROUNDOFF * u.max())


def bordered_newton_update(u, x1, x2, quad, N, angular_weight):
    """The Newton iterate from u on the norm N, given x1 = J^-1 F and
    x2 = J^-1 u (u-parts of the solves with the Jacobian J of F(u, omega)).

    Eliminates the border, u_lin = u - x1 + ((quad u . x1)/(quad u . x2)) x2,
    and puts u_lin back on the norm along x2 (the root s nearest 0 of
    a quad . (u_lin + s x2)^2 = N).  Returns (u_new, norm of u_lin); u_new is
    None when it is not finite.
    """
    with np.errstate(all="ignore"):
        border = quad * u
        u_new = u - x1 + (border @ x1) / (border @ x2) * x2
        excess = angular_weight * (quad @ (u_new * u_new)) - N
        slope = 2.0 * angular_weight * (quad @ (u_new * x2))
        curvature = angular_weight * (quad @ (x2 * x2))
        s = -2.0 * excess / (slope + np.sign(slope) * np.sqrt(
            slope * slope - 4.0 * curvature * excess))
        u_new += s * x2
    if not np.all(np.isfinite(u_new)):
        u_new = None
    return u_new, float(N + excess)


def ground_state_from_coupling_values(
    coupling: np.ndarray,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
) -> GroundStateResult:
    """Relax to the nonlinear ground state for b(r) given as values on the grid.

    Pass profile.evaluate(grid.r) for a closed-form coupling.  Use
    angular_weight=1 for the radial-only normalization of the separable
    (b0 = 0, q = 1) family: the amplitude matters to the logarithmic term,
    so the weight selects which member of the family the flow converges to.
    The flow hands over to guarded Newton steps once its residual is below
    _NEWTON_HANDOVER (see the module docstring); opts.max_steps and history
    count flow and Newton iterations alike.  Raises ConvergenceError
    (carrying the last iterate and the residual history) when opts.max_steps
    is exhausted, or when a flow step leaves no finite positive norm (then
    the last iterate is the one before it).
    """
    opts = opts or SolverOptions()
    coupling = grid_values(coupling, grid, "coupling")
    r = grid.r
    h = grid.origin_step()
    tol = opts.convergence_tol
    dt0 = opts.dt if opts.dt is not None else _RELAX_DT
    dt = dt0

    u = r * _initial_guess(grid, psi0, N, angular_weight)
    quad = grid_rule_weights(grid)  # norm of u: quad @ (u * u)
    history = []
    newton_steps = rejected_steps = 0

    def result(u, omega, steps, converged):
        psi = RadialWavefunction(
            grid=grid, values=u / r, target_norm=N, angular_weight=angular_weight
        )
        return GroundStateResult(psi, omega, converged, steps, newton_steps,
                                 rejected_steps, history)

    def newton_iterate(u, w, f, omega):
        """The bordered Newton iterate from u and the norm of its linearized
        step (bordered_newton_update); None for the iterate when the solve
        fails or the iterate is not finite."""
        jacobian_diagonal = (w + 2.0 * coupling * ((u / r) ** 2 > LOG_FLOOR)
                             + omega - 2.0 / (h * h))
        off = np.full(u.size - 1, 1.0 / (h * h))
        with np.errstate(all="ignore"):
            _, _, _, x, info = dgtsv(off, jacobian_diagonal, off,
                                     np.column_stack((f, u)), overwrite_d=1)
        u_new, norm = bordered_newton_update(u, x[:, 0], x[:, 1], quad, N, angular_weight)
        return (u_new if info == 0 else None), norm

    w, f, omega, _ = stationary(u, coupling, r, h)
    energy, allowance = discrete_energy(u, omega, coupling, h, angular_weight)
    # the guess is never handed to Newton, and the first flow step doubles dt
    residual = math.inf
    handover = _NEWTON_HANDOVER
    for step in range(1, opts.max_steps + 1):
        accepted = False
        if residual < handover:
            u_new, norm = newton_iterate(u, w, f, omega)
            # the ground-state guard: no node and a smaller residual
            if u_new is not None and nodeless(u_new):
                trial = stationary(u_new, coupling, r, h)
                accepted = trial[3] < residual
            if accepted:
                u, (w, f, omega, residual) = u_new, trial
                energy, allowance = discrete_energy(u, omega, coupling, h, angular_weight)
                newton_steps += 1
            else:
                handover = residual / 2.0
        if not accepted:
            while True:
                u_new, norm, info = flow_step(u, w, omega, coupling, dt, h, quad, N,
                                              angular_weight)
                if info == 0 and 0.0 < norm < math.inf:
                    trial = stationary(u_new, coupling, r, h)
                    trial_energy = discrete_energy(u_new, trial[2], coupling, h,
                                                   angular_weight)
                    if trial_energy[0] <= energy + allowance:
                        break
                elif dt <= dt0:
                    raise ConvergenceError(
                        f"relaxation step {step} left no finite positive norm "
                        f"(norm {norm:.3e}, ptsv info {info})",
                        last=result(u, omega, step - 1, False),
                        history=history,
                    )
                rejected_steps += 1
                dt *= 0.5
                if dt == 0.0:
                    raise ConvergenceError(
                        f"relaxation step {step}: the step size underflowed "
                        f"after {rejected_steps} rejected flow steps",
                        last=result(u, omega, step - 1, False),
                        history=history,
                    )
            # dt times min(residual before / residual after, 2)
            dt *= 2.0 if 2.0 * trial[3] <= residual else residual / trial[3]
            u, (w, f, omega, residual) = u_new, trial
            energy, allowance = trial_energy
        history.append((step, residual, norm, omega))
        if residual < tol:
            break

    final = result(u, omega, step, residual < tol)
    if not final.converged:
        raise ConvergenceError(
            f"relaxation did not reach residual < {tol:g} within "
            f"{step} steps (last residual {residual:.3e})",
            last=final,
            history=history,
        )
    return final


def linear_ground_state(
    V_ext,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
) -> tuple[RadialWavefunction, float]:
    """Ground state of the linear equation -lap psi + V_ext psi = omega psi.

    V_ext may be an array on the grid or a callable of r and must be bounded
    below on the grid.  Solved directly as the lowest eigenpair of
    -D2 + diag(V_ext) on u = r*psi (diagonal 2/h^2 + V, off-diagonals -1/h^2:
    the Dirichlet ghosts of second_difference_dirichlet); omega is that
    eigenvalue.  opts and psi0 are accepted, for call compatibility with the
    relaxation, and unused.  Used to check that a linear problem with the
    effective potential of a nonlinear solution reproduces that solution.
    Raises DomainError if the matrix is not finite (h so small that 1/h^2
    overflows) and ConvergenceError if the eigensolve fails.
    """
    v = grid_values(V_ext, grid, "V_ext")
    h = grid.origin_step()
    inv_h2 = 1.0 / (h * h) if h * h > 0.0 else math.inf
    diagonal = 2.0 * inv_h2 + v
    if not np.all(np.isfinite(diagonal)):
        raise DomainError(f"-D2 + diag(V_ext) is not finite on this grid (h = {h:.3g})")
    try:
        omega, u = eigh_tridiagonal_lowest(diagonal, np.full(v.size - 1, -inv_h2))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"linear ground state: {exc}") from exc
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u  # the ground state is nodeless; take it positive
    psi = RadialWavefunction(
        grid=grid, values=u / grid.r, target_norm=N, angular_weight=angular_weight
    ).normalized()
    return psi, float(omega)


def relaxation_energy(psi: RadialWavefunction, coupling) -> float:
    """Continuum energy functional of a sampled state, by quadrature.

    E = int [ |d psi/dr|^2 - b(r) (rho ln rho - rho) ] w r^2 dr, with the
    coupling b(r) given as values on psi's grid.  Both terms use the grid
    rule; the kinetic term takes d psi/dr from np.gradient, and the log
    term's [0, r_min] panel has origin power 0, since r^2 b(r) -> -q at the
    origin.  Its variation reproduces the stationary equation to O(h^2).

    This is not the functional the flow decreases: that is the h-sum E_h of
    discrete_energy, whose kinetic term is -u.D2u and which has no
    [0, r_min] panel.  At the relaxed states on (8, 640) they differ by
    1.2e-5 relative (Gausson) and 2.6e-2 (general N = 1, q = 2, where
    b u^2 -> -q psi(0)^2 at the origin).
    """
    r = psi.grid.r
    rho = psi.density()
    log_term = r**2 * np.asarray(coupling, dtype=float) * (_xlogx(rho) - rho)
    return _kinetic_energy(psi) - psi.angular_weight * integrate_radial(
        psi.grid, log_term, origin_power=0
    )
