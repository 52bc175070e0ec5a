"""Ground states: imaginary-time relaxation (nonlinear), direct solve (linear).

Both work on the substituted variable u = r*psi, which turns the radial
Laplacian into a plain second derivative D2 with u -> 0 at both ends; both
need r_min == h (RadialGrid.origin_step), which puts the left ghost node at
r = 0, where u vanishes by regularity, so that boundary is exact.

The nonlinear ground state comes from the normalized gradient flow

    d_tau psi = lap psi + b(r) ln(max(|psi|^2, floor)) psi

with a backward-Euler kinetic term (Bao & Du, SIAM J. Sci. Comput. 25, 2004).
With w = b ln max((u/r)^2, floor), H u = D2 u + w u, the Rayleigh quotient
omega_n = -(Hu . u)/(u . u) and stiff = min(w + 2b, 0), each step solves

    (I - dt D2 - dt diag(stiff)) u_new = u + dt (w - stiff + omega_n) u

(an SPD tridiagonal system: one LAPACK ptsv call on its diagonal and
off-diagonal) and renormalizes.  w + 2b = d(w u)/du is the log term's
Jacobian; taking its non-positive part (the -2q/r^2 stiffness near the
origin) implicitly lifts the h^2 step limit and keeps the matrix SPD and
diagonally dominant.  A step that leaves no finite positive norm raises
ConvergenceError with the iterate before it.  omega_n
makes the fixed point H u + omega u = 0 for every dt, where renormalization
alone drifts with dt when b(r) varies.  The run stops once the stationary
residual max|H u + omega_n u| / max|u| is below tol, and returns that
iterate as it is.  The flow decreases the constrained energy functional

    E[psi] = int [ |d psi/dr|^2 - b(r) (rho ln rho - rho) ] w r^2 dr

whose variation reproduces the stationary equation; see relaxation_energy.

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
iterate started from.  There is no step-size control: a Newton step is
taken whole or not at all.  Only the convergence run hands over; the
fixed-sweep mode (check_convergence=False) is the plain flow.

The linear ground state of -lap psi + V psi = omega psi needs no flow: it is
the lowest eigenpair of the symmetric tridiagonal matrix -D2 + diag(V),
solved directly.

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
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dptsv

from ..errors import ConvergenceError, DomainError
from ..grids import (
    FULL_SPHERE,
    RadialGrid,
    RadialWavefunction,
    grid_rule_weights,
    integrate_radial,
)
from ..observables import _kinetic_energy, _xlogx
from .options import SolverOptions
from .stencils import second_difference_dirichlet

# relaxation step when opts.dt is None
_RELAX_DT = 0.01
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


def ground_state_from_coupling_values(
    coupling: np.ndarray,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
    max_steps=None,
    check_convergence=True,
) -> GroundStateResult:
    """Relax to the nonlinear ground state for b(r) given as values on the grid.

    Pass profile.evaluate(grid.r) for a closed-form coupling.  Use
    angular_weight=1 for the radial-only normalization of the separable
    (b0 = 0, q = 1) family: the amplitude matters to the logarithmic term,
    so the weight selects which member of the family the flow converges to.
    With check_convergence the flow hands over to guarded Newton steps once
    its residual is below _NEWTON_HANDOVER (see the module docstring);
    max_steps and history count flow and Newton iterations alike.  The SCF
    runs it in fixed-sweep mode (check_convergence=False, max_steps flow
    steps, no Newton).  Raises ConvergenceError (carrying the last iterate
    and the residual history) when max_steps is exhausted, or when a flow
    step leaves no finite positive norm (then the last iterate is the one
    before it).
    """
    opts = opts or SolverOptions()
    coupling = np.asarray(coupling, dtype=float)
    if coupling.shape != grid.r.shape or not np.all(np.isfinite(coupling)):
        raise DomainError("coupling must be finite with one value per grid node")
    r = grid.r
    h = grid.origin_step()
    floor = opts.log_floor
    tol = opts.convergence_tol
    dt = opts.dt if opts.dt is not None else _RELAX_DT
    steps_budget = opts.max_steps if max_steps is None else max_steps
    if steps_budget < 1:
        raise DomainError("max_steps must be at least 1")

    def log_term(u):
        return coupling * np.log(np.maximum((u / r) ** 2, floor))

    u = r * _initial_guess(grid, psi0, N, angular_weight)
    quad = grid_rule_weights(grid)  # norm of u: quad @ (u * u)

    # I - dt D2 - dt diag(stiff): a constant off-diagonal (Dirichlet ghosts
    # as in second_difference_dirichlet) and the diagonal below
    off_diagonal = np.full(u.size - 1, -dt / (h * h))
    kinetic_diagonal = 1.0 + 2.0 * dt / (h * h)

    history = []
    newton_steps = 0

    def result(u, omega, steps, converged):
        psi = RadialWavefunction(
            grid=grid, values=u / r, target_norm=N, angular_weight=angular_weight
        )
        return GroundStateResult(psi, omega, converged, steps, newton_steps, history)

    def stationary(u):
        """(w, F = H u + omega u, omega, max|F| / max|u|) with H u = u'' + w u
        and omega = -(Hu . u)/(u . u), its Rayleigh quotient."""
        w = log_term(u)
        hu = second_difference_dirichlet(u, h) + w * u
        omega = float(-(hu @ u) / (u @ u))
        f = hu + omega * u
        return w, f, omega, float(np.abs(f).max()) / float(np.abs(u).max())

    def newton_iterate(u, w, f, omega):
        """The bordered Newton iterate from u, on the norm N, and the norm of
        the linearized step; None for the iterate when it is not finite."""
        jacobian_diagonal = (w + 2.0 * coupling * ((u / r) ** 2 > floor)
                             + omega - 2.0 / (h * h))
        off = np.full(u.size - 1, 1.0 / (h * h))
        with np.errstate(all="ignore"):
            _, _, _, x, info = dgtsv(off, jacobian_diagonal, off,
                                     np.column_stack((f, u)), overwrite_d=1)
            x1, x2 = x.T
            border = quad * u
            u_new = u - x1 + (border @ x1) / (border @ x2) * x2
            # back onto the norm along x2: the root s nearest 0 of
            # a quad . (u_new + s x2)^2 = N
            excess = angular_weight * (quad @ (u_new * u_new)) - N
            slope = 2.0 * angular_weight * (quad @ (u_new * x2))
            curvature = angular_weight * (quad @ (x2 * x2))
            s = -2.0 * excess / (slope + np.sign(slope) * np.sqrt(
                slope * slope - 4.0 * curvature * excess))
            u_new += s * x2
        if info != 0 or not np.all(np.isfinite(u_new)):
            u_new = None
        return u_new, float(N + excess)

    w, f, omega, _ = stationary(u)
    residual = math.inf  # the guess is never handed to Newton
    handover = _NEWTON_HANDOVER if check_convergence else 0.0
    for step in range(1, steps_budget + 1):
        accepted = False
        if residual < handover:
            u_new, norm = newton_iterate(u, w, f, omega)
            # the ground-state guard: no node and a smaller residual
            if u_new is not None and u_new.min() > -_NODE_ROUNDOFF * u_new.max():
                trial = stationary(u_new)
                accepted = trial[3] < residual
            if accepted:
                u, (w, f, omega, residual) = u_new, trial
                newton_steps += 1
            else:
                handover = residual / 2.0
        if not accepted:
            stiff = np.minimum(w + 2.0 * coupling, 0.0)
            _, _, u_new, info = dptsv(
                kinetic_diagonal - dt * stiff, off_diagonal,
                u + dt * (w - stiff + omega) * u, overwrite_d=1, overwrite_b=1,
            )
            with np.errstate(over="ignore"):
                norm = angular_weight * float(quad @ (u_new * u_new))
            if info != 0 or not 0.0 < norm < math.inf:
                raise ConvergenceError(
                    f"relaxation step {step} left no finite positive norm "
                    f"(norm {norm:.3e}, ptsv info {info})",
                    last=result(u, omega, step - 1, False),
                    history=history,
                )
            u = u_new
            u *= math.sqrt(N / norm)
            w, f, omega, residual = stationary(u)
        history.append((step, residual, norm, omega))
        if check_convergence and residual < tol:
            break

    # in fixed-sweep mode the caller owns the convergence test
    converged = residual < tol or not check_convergence
    final = result(u, omega, step, converged)
    if not converged:
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
    """
    v = np.asarray(V_ext(grid.r) if callable(V_ext) else V_ext, dtype=float)
    if v.shape != grid.r.shape:
        raise DomainError("V_ext must provide one value per grid node")
    if not np.all(np.isfinite(v)):
        raise DomainError("V_ext must be finite (bounded below) on the grid")
    h = grid.origin_step()
    inv_h2 = 1.0 / (h * h)
    omega, vec = eigh_tridiagonal(
        2.0 * inv_h2 + v, np.full(v.size - 1, -inv_h2), select="i", select_range=(0, 0)
    )
    u = vec[:, 0]
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u  # the ground state is nodeless; take it positive
    psi = RadialWavefunction(
        grid=grid, values=u / grid.r, target_norm=N, angular_weight=angular_weight
    ).normalized()
    return psi, float(omega[0])


def relaxation_energy(psi: RadialWavefunction, coupling) -> float:
    """Energy functional decreased by the imaginary-time flow.

    E = int [ |d psi/dr|^2 - b(r) (rho ln rho - rho) ] w r^2 dr, with the
    coupling b(r) given as values on psi's grid.  Both terms use the grid
    rule; the log term's [0, r_min] panel has origin power 0, since
    r^2 b(r) -> -q at the origin.

    Its finite-difference variation reproduces the stationary-equation
    residual, which is what makes the flow a gradient descent.
    """
    r = psi.grid.r
    rho = psi.density()
    log_term = r**2 * np.asarray(coupling, dtype=float) * (_xlogx(rho) - rho)
    return _kinetic_energy(psi) - psi.angular_weight * integrate_radial(
        r, log_term, origin_power=0
    )
