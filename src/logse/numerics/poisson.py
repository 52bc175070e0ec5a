"""Radial Poisson solver and asymptotic charge extraction.

Solves (1/r^2) d/dr (r^2 d phi/dr) = S(r) by the spherically symmetric
Green's-function quadrature

    phi'(r) = [ int_0^r s^2 S(s) ds - q ] / r^2,

with a point charge q at the origin entering only through the analytic q/r
superposition (phi_q' = -q/r^2), never as an on-grid delta.  The source
integral is extended from r_min down to r = 0 with a zero integrand value at
the origin, which is exact for the leading extended-source term S ~ 1/r
(s^2 S is then linear, and the trapezoid rule integrates it exactly).

Fields of the form phi = phi0 + q/r + b0*r are the far-field shape of the
auxiliary-field model; extract_coupling_asymptotics recovers (q, b0) by a
least-squares fit against the basis {1, 1/r, r} on the outer half of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ..errors import DomainError
from ..grids import RadialGrid


@dataclass
class FieldState:
    """Auxiliary field phi on a grid plus its extracted asymptotic charges."""

    grid: RadialGrid
    phi: np.ndarray
    dphi: np.ndarray          # radial gradient, the coupling b(r) of the model
    extracted_q: float
    extracted_b0: float
    fit_condition: float      # condition number of the asymptotic fit
    fit_residual: float       # rms misfit of the asymptotic model


def _check_integrable(r: np.ndarray, source: np.ndarray):
    if not np.all(np.isfinite(source)):
        raise DomainError("Poisson source must be finite on the grid")
    s0, s1 = abs(source[0]), abs(source[1])
    if s0 > 0.0 and s1 > 0.0 and s0 > s1:
        # local power-law exponent near r_min; s^2 * S is non-integrable at the
        # origin once S grows like 1/r^3 or faster
        p = math.log(s0 / s1) / math.log(r[1] / r[0])
        if p >= 2.9 and s0 * r[0] ** 3 > 1e-8:
            raise DomainError(
                f"source grows like r^-{p:.2f} near r_min and is not integrable "
                "at the origin"
            )


def solve_radial_poisson(
    source,
    grid: RadialGrid,
    point_charge: float = 0.0,
    boundary_value: float = 0.0,
) -> FieldState:
    """Integrate the radial Poisson equation lap_r phi = source(r).

    source is the full right-hand side as values on the grid or a callable of
    r; point_charge adds the analytic q/r term; boundary_value pins
    phi(r_max).  The gauge constant never enters the coupling b = phi'.
    """
    r = grid.r
    s = np.asarray(source(r) if callable(source) else source, dtype=float)
    if s.shape != r.shape:
        raise DomainError("source must provide one value per grid node")
    _check_integrable(r, s)
    if not np.isfinite(point_charge) or not np.isfinite(boundary_value):
        raise DomainError("point_charge and boundary_value must be finite")

    # enclosed-source integral from the origin; integrand r^2 S -> 0 at r = 0
    r_ext = np.concatenate(([0.0], r))
    integrand = np.concatenate(([0.0], r * r * s))
    enclosed = cumulative_trapezoid(integrand, r_ext, initial=0.0)[1:]

    # smooth part by quadrature, integrated inward from the outer boundary so
    # the far field (where the asymptotics are read off) stays clean; the
    # point charge is superposed as the exact q/r solution, never discretized
    dphi_smooth = enclosed / r**2
    inner = cumulative_trapezoid(dphi_smooth, r, initial=0.0)
    with np.errstate(over="ignore"):
        charge_phi, charge_dphi = point_charge / r, point_charge / r**2
    if not (np.isfinite(charge_phi).all() and np.isfinite(charge_dphi).all()):
        raise DomainError(f"point_charge {float(point_charge)!r} overflows q/r or "
                          f"q/r^2 on the grid (r_min = {float(r[0])!r})")
    phi = (boundary_value - point_charge / grid.r_max) - (inner[-1] - inner)
    phi = phi + charge_phi
    dphi = dphi_smooth - charge_dphi

    q_fit, b0_fit, cond, rms = _fit_asymptotics(r, phi)
    return FieldState(
        grid=grid, phi=phi, dphi=dphi,
        extracted_q=q_fit, extracted_b0=b0_fit,
        fit_condition=cond, fit_residual=rms,
    )


def extract_coupling_asymptotics(
    field, fit_fraction: float = 0.5, cond_limit: float = 1e12
) -> tuple[float, float]:
    """Recover (q, b0) from phi ~ phi0 + q/r + b0*r on the outer grid.

    Accepts a FieldState or a (grid, phi) pair.  The fit uses the outermost
    fit_fraction of the nodes, where corrections decaying faster than 1/r are
    below the fit tolerance.  An ill-conditioned design matrix is rejected
    with its condition number.
    """
    if isinstance(field, FieldState):
        r, phi = field.grid.r, field.phi
    else:
        grid, phi = field
        r, phi = grid.r, np.asarray(phi, dtype=float)
    q, b0, cond, _ = _fit_asymptotics(r, phi, fit_fraction=fit_fraction,
                                      cond_limit=cond_limit)
    return q, b0


def _fit_asymptotics(r, phi, fit_fraction=0.5, cond_limit=1e12):
    start = int(len(r) * (1.0 - fit_fraction))
    rs, ps = r[start:], phi[start:]
    design = np.column_stack([np.ones_like(rs), 1.0 / rs, rs])
    cond = float(np.linalg.cond(design))
    if cond > cond_limit:
        raise DomainError(
            f"asymptotic fit is ill-conditioned (condition number {cond:.3e}); "
            "extend the grid or reduce fit_fraction"
        )
    coef, *_ = np.linalg.lstsq(design, ps, rcond=None)
    # scaled by its largest entry, so that squaring cannot overflow
    resid = design @ coef - ps
    scale = float(np.max(np.abs(resid)))
    if not math.isfinite(scale):
        raise DomainError("asymptotic fit of a field that is not finite")
    rms = scale * float(np.sqrt(np.mean((resid / scale) ** 2))) if scale > 0.0 else 0.0
    return float(coef[1]), float(coef[2]), cond, rms
