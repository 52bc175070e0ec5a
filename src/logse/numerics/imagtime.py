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

and renormalizes.  w + 2b = d(w u)/du is the log term's Jacobian; taking its
non-positive part (the -2q/r^2 stiffness near the origin) implicitly lifts
the h^2 step limit and keeps the matrix SPD and diagonally dominant.  omega_n
makes the fixed point H u + omega u = 0 for every dt, where renormalization
alone drifts with dt when b(r) varies.  The run stops once the stationary
residual max|H u + omega_n u| / max|u| is below tol, and returns that
iterate as it is.  The flow decreases the constrained energy functional

    E[psi] = int [ |d psi/dr|^2 - b(r) (rho ln rho - rho) ] w r^2 dr

whose variation reproduces the stationary equation; see relaxation_energy.

The linear ground state of -lap psi + V psi = omega psi needs no flow: it is
the lowest eigenpair of the symmetric tridiagonal matrix -D2 + diag(V),
solved directly.

Two inner products, each for its reason.  Every norm, distance and energy
of a state uses the grid rule (grids.integrate_radial: Simpson plus the
[0, r_min] panel); as b(r) ln rho makes the stationary state depend on its
amplitude, the flow renormalizes each step in it, the norm its returned
state is held to.  The Rayleigh quotient uses h * sum u v, in which D2 is
symmetric; it also defines linear_ground_state's eigenvalue, and the
real-time propagator conserves it as the norm in which its Cayley step is
unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solveh_banded

from ..errors import ConvergenceError, DomainError
from ..grids import FULL_SPHERE, RadialGrid, RadialWavefunction, integrate_radial
from ..observables import _kinetic_energy, _xlogx
from .options import SolverOptions
from .stencils import second_difference_dirichlet

# relaxation step when opts.dt is None; larger steps save steps but can end
# in a period-2 oscillation (a ConvergenceError), e.g. at 0.1 for the
# general N = 1, q = 6 state on a (8, 640) grid
_RELAX_DT = 0.01


@dataclass
class GroundStateResult:
    psi: RadialWavefunction
    omega: float
    converged: bool
    steps: int
    history: list  # rows (step, residual, norm, omega_estimate), one per step


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


def _local_eigenvalue(u, w, h):
    """H u = u'' + w u and its Rayleigh quotient omega = -(Hu . u)/(u . u)."""
    hu = second_difference_dirichlet(u, h) + w * u
    return hu, float(-(hu @ u) / (u @ u))


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
    The SCF runs it in fixed-sweep mode (check_convergence=False, max_steps
    steps).  Raises ConvergenceError (carrying the last iterate and the
    residual history) when max_steps is exhausted.
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

    # I - dt D2 - dt diag(stiff) in upper banded storage (Dirichlet ghosts
    # as in second_difference_dirichlet); row 0 holds the off-diagonal
    matrix = np.full((2, u.size), -dt / (h * h))
    kinetic_diagonal = 1.0 + 2.0 * dt / (h * h)

    w = log_term(u)
    omega = _local_eigenvalue(u, w, h)[1]
    history = []
    for step in range(1, steps_budget + 1):
        stiff = np.minimum(w + 2.0 * coupling, 0.0)
        matrix[1] = kinetic_diagonal - dt * stiff
        u = solveh_banded(matrix, u + dt * (w - stiff + omega) * u)
        norm = angular_weight * integrate_radial(r, u * u)
        u *= math.sqrt(N / norm)
        w = log_term(u)
        hu, omega = _local_eigenvalue(u, w, h)
        residual = float(np.max(np.abs(hu + omega * u))) / float(np.max(np.abs(u)))
        history.append((step, residual, float(norm), omega))
        if check_convergence and residual < tol:
            break

    psi = RadialWavefunction(
        grid=grid, values=u / r, target_norm=N, angular_weight=angular_weight
    )
    # in fixed-sweep mode the caller owns the convergence test
    converged = residual < tol or not check_convergence
    result = GroundStateResult(
        psi=psi,
        omega=omega,
        converged=converged,
        steps=step,
        history=history,
    )
    if not converged:
        raise ConvergenceError(
            f"relaxation did not reach residual < {tol:g} within "
            f"{step} steps (last residual {residual:.3e})",
            last=result,
            history=history,
        )
    return result


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
