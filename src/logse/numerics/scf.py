"""Self-consistent coupled wavefunction / auxiliary-field model.

The coupled system is

    i d_t psi = -lap psi - (d phi/dr) ln(|psi|^2) psi,
    lap_r phi = 4 pi f(|psi|^2),

with a caller-supplied source map f (its physical form is model-dependent).
The stationary problem is solved by damped fixed-point iteration: solve the
Poisson equation for phi given the current density, take the coupling
b(r) = d phi/dr (mixed linearly with the previous sweep), relax psi for one
short imaginary-time sweep under that coupling, repeat.  The coupling then
depends on psi, so this is the nonlinear flow of imagtime; a linear problem
with a given potential is a direct tridiagonal eigensolve instead
(linear_ground_state).

Every sweep hands over and gets back a state held to the grid rule (Simpson
plus the origin panel), the norm the flow renormalizes each step in, so the
sweep-to-sweep change compares like with like; only the flow's Rayleigh
quotient uses h * sum u v, in which D2 is symmetric (see imagtime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..grids import FULL_SPHERE, RadialGrid, RadialWavefunction
from .imagtime import _initial_guess, ground_state_from_coupling_values
from .options import SolverOptions
from .poisson import FieldState, solve_radial_poisson

_OSCILLATION_WINDOW = 50


@dataclass
class SCFResult:
    psi: RadialWavefunction
    field: FieldState
    omega: float
    sweeps: int
    converged: bool
    history: list  # rows (sweep, psi_change, coupling_change)


def f_constant_over_r(b0: float):
    """Source map f = b0 / (2 pi r), independent of the density.

    This is the leading extended term of the far-field decomposition; it
    decouples the system and drives the coupling to the constant b0.
    """

    def f(rho, r):
        return b0 / (2.0 * math.pi * r)

    return f


def f_zero(rho, r):
    """No source: the coupling vanishes and psi relaxes to the linear mode."""
    return np.zeros_like(r)


def f_linear_density(eps: float):
    """Source proportional to the density, f = eps * rho."""

    def f(rho, r):
        return eps * rho

    return f


def oscillation_detected(residuals, window: int = _OSCILLATION_WINDOW) -> bool:
    """True when the residual made no new minimum over the last `window` sweeps."""
    if len(residuals) < 2 * window:
        return False
    recent = min(residuals[-window:])
    earlier = min(residuals[:-window])
    return recent >= earlier


def self_consistent_minimal_model(
    f,
    N: float,
    grid: RadialGrid,
    opts: SolverOptions | None = None,
    point_charge: float = 0.0,
    inner_steps: int = 60,
    max_sweeps: int = 3000,
    angular_weight: float = FULL_SPHERE,
    psi0=None,
) -> SCFResult:
    """Damped fixed-point iteration of the coupled minimal model.

    f(rho, r) maps the density to the field source (kappa * rho_phi); three
    ready-made maps are provided: f_constant_over_r, f_zero, f_linear_density.
    Convergence requires both the wavefunction and the coupling changes to
    fall below opts.convergence_tol.  A residual sequence that stops making
    progress for 50 sweeps aborts with a suggestion to reduce opts.mixing.
    """
    opts = opts or SolverOptions()
    if inner_steps < 1 or max_sweeps < 1:
        raise DomainError("inner_steps and max_sweeps must be at least 1")
    r = grid.r
    # the Poisson step needs a density, so the guess is set up here, once
    psi_vals = _initial_guess(grid, psi0, N, angular_weight)

    coupling = None
    field = None
    result = None
    history = []
    residuals = []
    converged = False
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        rho = psi_vals**2
        source = 4.0 * math.pi * np.asarray(f(rho, r), dtype=float)
        field = solve_radial_poisson(source, grid, point_charge=point_charge)
        coupling_new = field.dphi
        if coupling is None:
            coupling_mixed = coupling_new
            coupling_change = math.inf
        else:
            coupling_mixed = (1.0 - opts.mixing) * coupling + opts.mixing * coupling_new
            scale = 1.0 + float(np.max(np.abs(coupling_mixed)))
            coupling_change = float(np.max(np.abs(coupling_mixed - coupling))) / scale

        result = ground_state_from_coupling_values(
            coupling_mixed, N, grid, opts,
            angular_weight=angular_weight, psi0=psi_vals,
            max_steps=inner_steps, check_convergence=False,
        )
        psi_new = result.psi.values.real
        psi_change = float(np.max(np.abs(psi_new - psi_vals)))
        psi_change /= float(np.max(np.abs(psi_vals)))
        psi_vals = psi_new
        coupling = coupling_mixed

        history.append((sweep, psi_change, coupling_change))
        res = max(psi_change, coupling_change if np.isfinite(coupling_change) else psi_change)
        residuals.append(res)
        if psi_change < opts.convergence_tol and coupling_change < opts.convergence_tol:
            converged = True
            break
        if oscillation_detected(residuals):
            raise ConvergenceError(
                f"self-consistent iteration stopped making progress for "
                f"{_OSCILLATION_WINDOW} sweeps (residual {res:.3e}); "
                f"try a smaller mixing than {opts.mixing}",
                last=result.psi,
                history=history,
            )

    if not converged:
        raise ConvergenceError(
            f"self-consistent iteration did not converge in {max_sweeps} sweeps",
            last=result.psi if result is not None else None,
            history=history,
        )
    return SCFResult(
        psi=result.psi,
        field=field,
        omega=result.omega,
        sweeps=sweep,
        converged=converged,
        history=history,
    )
