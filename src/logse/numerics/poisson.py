"""Radial Poisson solver and asymptotic charge extraction.

Solves (1/r^2) d/dr (r^2 d phi/dr) = S(r) by the spherically symmetric
Green's-function quadrature

    phi'(r) = [ int_0^r s^2 S(s) ds - q ] / r^2,

with a point charge q at the origin entering only through the analytic q/r
superposition (phi_q' = -q/r^2), never as an on-grid delta.  The source
integral is extended from r_min down to r = 0 with a zero integrand value at
the origin, which is exact for the leading extended-source term S ~ 1/r
(s^2 S is then linear, and the trapezoid rule integrates it exactly).
field_gradient is that phi' alone, for the loops that need no phi.

Fields of the form phi = phi0 + q/r + b0*r are the far-field shape of the
auxiliary-field model; solve_radial_poisson recovers (q, b0) by a least-squares
fit against the basis {1, 1/r, r} on the outer half of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..grids import RadialGrid, grid_values


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


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x[0]}^{x[i]} y at each node by the trapezoid rule, 0 at the first:
    scipy.integrate.cumulative_trapezoid(y, x, initial=0) without its wrapper,
    the same expression and so the same bits."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def enclosed_source(source: np.ndarray, r: np.ndarray) -> np.ndarray:
    """int_0^r s^2 S(s) ds at each node: the cumulative trapezoid from the
    origin, where the integrand r^2 S is taken as 0."""
    r_ext = np.concatenate(([0.0], r))
    integrand = np.concatenate(([0.0], r * r * source))
    return cumulative_trapezoid(integrand, r_ext)[1:]


def _charge_gradient(point_charge: float, r: np.ndarray) -> np.ndarray:
    """q/r^2 at each node; DomainError unless q and q/r^2 are finite (then
    q/r is too, as |q/r| <= max(|q|, |q/r^2|))."""
    if not np.isfinite(point_charge):
        raise DomainError("point_charge must be finite")
    with np.errstate(over="ignore"):
        charge = point_charge / r**2
    if not np.isfinite(charge).all():
        raise DomainError(f"point_charge {float(point_charge)!r} overflows q/r or "
                          f"q/r^2 on the grid (r_min = {float(r[0])!r})")
    return charge


def field_gradient(source, grid: RadialGrid, point_charge: float = 0.0) -> np.ndarray:
    """The coupling b = phi' of lap_r phi = source(r) with a point charge q,
    (int_0^r s^2 S ds - q) / r^2: solve_radial_poisson's dphi bit for bit,
    without its phi and asymptotic fit.  DomainError for a source that is
    not finite or not integrable at the origin, or a bad charge."""
    r = grid.r
    s = grid_values(source, grid, "source")
    _check_integrable(r, s)
    return enclosed_source(s, r) / r**2 - _charge_gradient(point_charge, r)


def solve_radial_poisson(
    source,
    grid: RadialGrid,
    point_charge: float = 0.0,
) -> FieldState:
    """Integrate the radial Poisson equation lap_r phi = source(r).

    source is the full right-hand side as values on the grid or a callable of
    r; point_charge adds the analytic q/r term.  The gauge is phi(r_max) = 0;
    the gauge constant never enters the coupling b = phi'.
    """
    r = grid.r
    # smooth part (q = 0 subtracts an exact 0) by quadrature, integrated
    # inward from the outer boundary so the far field (where the asymptotics
    # are read off) stays clean; the point charge is superposed as the exact
    # q/r solution, never discretized
    dphi_smooth = field_gradient(source, grid)
    charge_dphi = _charge_gradient(point_charge, r)
    inner = cumulative_trapezoid(dphi_smooth, r)
    phi = -point_charge / grid.r_max - (inner[-1] - inner) + point_charge / r
    dphi = dphi_smooth - charge_dphi

    q_fit, b0_fit, cond, rms = _fit_asymptotics(r, phi)
    return FieldState(
        grid=grid, phi=phi, dphi=dphi,
        extracted_q=q_fit, extracted_b0=b0_fit,
        fit_condition=cond, fit_residual=rms,
    )


def _fit_asymptotics(r, phi):
    """(q, b0, condition number, rms misfit) of phi ~ phi0 + q/r + b0*r on the outer
    half of the nodes; DomainError below 3 nodes there or above condition 1e12."""
    start = len(r) // 2
    if len(r) - start < 3:
        raise DomainError(f"asymptotic fit of 3 unknowns needs at least 3 nodes on the "
                          f"outer half of the grid; {len(r)} nodes give {len(r) - start}")
    rs, ps = r[start:], phi[start:]
    design = np.column_stack([np.ones_like(rs), 1.0 / rs, rs])
    # one SVD: lstsq's singular values give the 2-norm condition number
    coef, _, _, sv = np.linalg.lstsq(design, ps, rcond=None)
    cond = float(sv[0] / sv[-1])
    if cond > 1e12:
        raise DomainError(
            f"asymptotic fit is ill-conditioned (condition number {cond:.3e}); "
            "extend the grid"
        )
    # scaled by its largest entry, so that squaring cannot overflow
    resid = design @ coef - ps
    scale = float(np.max(np.abs(resid)))
    if not math.isfinite(scale):
        raise DomainError("asymptotic fit of a field that is not finite")
    rms = scale * float(np.sqrt(np.mean((resid / scale) ** 2))) if scale > 0.0 else 0.0
    return float(coef[1]), float(coef[2]), cond, rms
