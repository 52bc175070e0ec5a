"""Case-by-case closed forms of the analytic catalog, kept as test oracles.

Each is derived by hand from a family's log-amplitude g(r) = g0 + g1 r +
g2 r^2 and written out independently of the generic expressions the package
evaluates (effective_potential, observables.entropy_density, the residual
stencil), so a test can hold the two against each other.
"""

import math

import numpy as np

from logse import CaseTag, DomainError


def stationary_residual_exact(sol, r):
    """Residual of the stationary equation using exact derivatives.

    For INVERSE_SQUARE this is the separated radial equation, which adds
    a centrifugal term -L^2/r^2 to the generic operator.  Values are pure
    floating-point roundoff for catalog members.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("residual is defined for r > 0")
    gp = sol.g1 + 2.0 * sol.g2 * r
    gpp = 2.0 * sol.g2
    lap_over_psi = gpp + gp**2 + 2.0 * gp / r
    coupling = sol.profile.evaluate(r)
    res = lap_over_psi + coupling * 2.0 * sol.log_amplitude(r) + sol.omega
    if sol.case is CaseTag.INVERSE_SQUARE:
        res = res - sol.L_sq / r**2
    return res * sol.psi(r)


def entropy_density_closed_form(sol, r):
    """Case-specific closed form of the radial entropy density."""
    r = np.asarray(r, dtype=float)
    N = sol.norm
    if sol.case is CaseTag.GENERAL:
        a = math.pi / N ** (2.0 / 3.0)
        return 4.0 * math.pi * a * r**4 * np.exp(-a * r**2)
    if sol.case is CaseTag.Q_ONE:
        b0, k = sol.profile.b0_tilde, sol.k_tilde
        return 4.0 * math.pi * r**3 * (b0 * r - 2.0 * k) * np.exp(2.0 * k * r - b0 * r**2)
    if sol.case is CaseTag.CONSTANT:
        b0 = sol.profile.b0_tilde
        logx = math.log(b0 * N ** (2.0 / 3.0) / math.pi)
        pref = 4.0 * b0**1.5 * N / math.sqrt(math.pi)
        return pref * r**2 * (b0 * r**2 - 1.5 * logx) * np.exp(-b0 * r**2)
    mu2 = sol.mu_sq
    pref = 8.0 * mu2**4 * N
    return pref * r**3 * (1.0 + (sol.L_sq + sol.S_Y) / (2.0 * mu2 * r)) * np.exp(
        -2.0 * mu2 * r
    )


def effective_potential_closed_form(sol, r):
    """Case-specific closed form of the effective external potential.

    For CONSTANT the harmonic form carries the additive constant
    omega - 3*b0 (the log of the amplitude prefactor); it vanishes
    exactly when b0 * N^(2/3) = pi.
    """
    r = np.asarray(r, dtype=float)
    b0 = sol.profile.b0_tilde
    if sol.case is CaseTag.GENERAL:
        omega_eff = 2.0 * b0
        q_n = sol.profile.q_tilde / b0
        return 0.25 * omega_eff**2 * (r**2 - q_n)
    if sol.case is CaseTag.Q_ONE:
        k = sol.k_tilde
        return 2.0 * k / r + b0**2 * (r - k / b0) ** 2 - b0 - k**2
    if sol.case is CaseTag.CONSTANT:
        return b0**2 * r**2 + (sol.omega - 3.0 * b0)
    return -2.0 * sol.mu_sq / r - sol.L_sq / r**2
