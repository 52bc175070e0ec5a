"""Closed-form stationary solutions of the variable-coupling log wave equation.

The stationary problem in dimensionless units is

    lap psi + (b0 - q / r^2) ln(|psi|^2) psi + omega psi = 0,

with four exactly solvable coupling regimes, tagged by CaseTag:

* GENERAL        b0 != 0, q not in {0, 1}: Gaussian stationary state; both
                 omega and b0 are forced eigenvalues (b0 = pi / N^(2/3)).
                 For q < 0 it is not the energy minimizer the relaxation finds.
* Q_ONE          b0 > 0,  q = 1: Gaussian times exp(k r); k solves a
                 transcendental equation equivalent to the normalization.
* CONSTANT       q = 0: the Gausson of the constant-coupling equation.
* INVERSE_SQUARE b0 = 0,  q = 1 (forced): separable solution; the radial
                 factor R = exp(-mu^2 r - L^2/2) uses the radial-only
                 normalization int r^2 |R|^2 dr = N and carries the angular
                 pair (L^2, S_Y) as opaque parameters.

All evaluation is by exact exponential forms, never grid interpolation, so
residual tests downstream isolate discretization error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .grids import FULL_SPHERE, RadialGrid, RadialWavefunction
from .scales import CouplingProfile


class CaseTag(enum.Enum):
    GENERAL = "general"
    Q_ONE = "q1"
    CONSTANT = "constant"
    INVERSE_SQUARE = "inverse_square"


@dataclass(frozen=True)
class AnalyticSolution:
    """One member of the closed-form catalog.

    Fields not applicable to a case are None (k_tilde outside Q_ONE, mu_sq
    outside INVERSE_SQUARE).  log_amp_* coefficients define the exact
    log-amplitude g(r) with psi = exp(g), g = g0 + g1*r + g2*r^2, which keeps
    derivative evaluation exact.
    """

    case: CaseTag
    norm: float
    profile: CouplingProfile
    omega: float
    g0: float
    g1: float
    g2: float
    k_tilde: float | None = None
    mu_sq: float | None = None
    L_sq: float = 0.0
    S_Y: float = 0.0

    @property
    def angular_weight(self) -> float:
        return 1.0 if self.case is CaseTag.INVERSE_SQUARE else FULL_SPHERE

    def log_amplitude(self, r):
        r = np.asarray(r, dtype=float)
        return self.g0 + self.g1 * r + self.g2 * r**2

    def psi(self, r):
        """Exact wavefunction (radial factor for INVERSE_SQUARE)."""
        return np.exp(self.log_amplitude(r))

    def sample(self, grid: RadialGrid) -> RadialWavefunction:
        return RadialWavefunction(
            grid=grid,
            values=self.psi(grid.r),
            target_norm=self.norm,
            angular_weight=self.angular_weight,
            angular_entropy=self.S_Y,
        )

    def entropy_closed_form(self) -> float:
        """Closed-form entropy consistent with quadrature of the density."""
        N = self.norm
        if self.case is CaseTag.GENERAL:
            return 1.5 * N
        if self.case is CaseTag.Q_ONE:
            b0, k = self.profile.b0_tilde, self.k_tilde
            return (N * (3.0 * b0**2 - 4.0 * k**4) - 4.0 * math.pi * k) / (
                2.0 * b0 * (b0 + 2.0 * k**2)
            )
        if self.case is CaseTag.CONSTANT:
            return constant_entropy_candidates(N, self.profile.b0_tilde)["n_scaled"]
        return N * (self.L_sq + self.S_Y + 3.0)


def case_general(N: float, q_tilde: float) -> AnalyticSolution:
    """Stationary state for b0 != 0 and q not in {0, 1}.

    psi = exp(-pi r^2 / (2 N^(2/3))); the coupling constant is not free but
    locked to the eigenvalue b0 = pi / N^(2/3), and
    omega = pi (3 - q) / N^(2/3).  For q < 0 this is not the energy minimizer
    that the relaxation finds: the flow reaches a state of lower energy.
    """
    _check_norm(N)
    if q_tilde in (0.0, 1.0):
        raise DomainError(
            "q_tilde in {0, 1} is excluded here; use case_constant (q=0) or case_q1 (q=1)"
        )
    if not np.isfinite(q_tilde):
        raise DomainError("q_tilde must be finite")
    alpha = math.pi / N ** (2.0 / 3.0)
    omega = math.pi * (3.0 - q_tilde) / N ** (2.0 / 3.0)
    profile = CouplingProfile(b0_tilde=math.pi / N ** (2.0 / 3.0), q_tilde=q_tilde)
    return AnalyticSolution(
        case=CaseTag.GENERAL, norm=N, profile=profile, omega=omega,
        g0=0.0, g1=0.0, g2=-0.5 * alpha,
    )


_DEKKER_SPLIT = 134217729.0  # 2^27 + 1
# Chiarella & Reichel's trapezoid sum for erfcx at x > 1/2: step h = 1/2,
# nodes (n h)^2 for n = 1..13 (the weight at n = 13 is e^(-42.25) = 4e-19)
_TRAPEZOID_STEP = 0.5
_TRAPEZOID_NODES = tuple((n * _TRAPEZOID_STEP) ** 2 for n in range(1, 14))
_TRAPEZOID_WEIGHTS = tuple(2.0 * _TRAPEZOID_STEP / math.pi * math.exp(-t)
                           for t in _TRAPEZOID_NODES)
_POLE_RATE = 2.0 * math.pi / _TRAPEZOID_STEP


def _erfcx(x: float) -> float:
    """Scaled complementary error function exp(x^2) erfc(x) of one float.

    x <= 1/2: exp(x^2) erfc(x), with x^2 split exactly into hi + lo
    (Dekker's product) and exp(x^2) = exp(hi) (1 + lo); rounding x^2 instead
    costs up to x^2 2^-53 of relative error, hundreds of ulps near x = -26.
    Where the value overflows (x < -26.63) the result is +inf.

    x > 1/2: the C library's erfc is up to 3.6 ulps off there (near
    x = 1.2) and underflows past x = 26.5, so erfcx is Chiarella and
    Reichel's trapezoid sum with step h = 1/2,

        h/(pi x) + (2h/pi) sum_n e^(-n^2 h^2) x / (n^2 h^2 + x^2)
                 - 2 e^(x^2) / (e^(2 pi x/h) - 1),

    whose pole term (the last) counts only below x = pi/h and whose error
    is about e^(-pi^2/h^2) = 7e-18; math.fsum adds the terms with one
    rounding.

    Within 2.4 ulps of a 40-digit reference on [-26.6, 1e6] (largest error
    over 600,000 sampled points).
    """
    if x > 0.5:
        terms = [_TRAPEZOID_STEP / math.pi / x]
        terms += [w / (t / x + x) for w, t in zip(_TRAPEZOID_WEIGHTS, _TRAPEZOID_NODES)]
        if x < math.pi / _TRAPEZOID_STEP:
            terms.append(-2.0 * math.exp(x * x - _POLE_RATE * x)
                         / (1.0 - math.exp(-_POLE_RATE * x)))
        return math.fsum(terms)
    hi = x * x
    c = _DEKKER_SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl  # x^2 = hi + lo exactly
    try:
        p = math.exp(hi) * math.erfc(x)
    except OverflowError:
        return math.inf
    return p + p * lo if p < math.inf else p


def _check_q1_parameters(N: float, b0_tilde: float):
    if not (N > 0.0 and np.isfinite(N)):
        raise DomainError("N must be positive and finite")
    if not (b0_tilde > 0.0 and np.isfinite(b0_tilde)):
        raise DomainError("b0_tilde must be positive and finite")


def transcendental_residual(k: float, N: float, b0_tilde: float) -> float:
    """LHS - RHS of the transcendental equation fixing k in the q = 1 case.

    sqrt(pi/b0) (b0/2 + k^2) [1 + erf(k/sqrt(b0))] e^(k^2/b0) = N b0^2/(2 pi) - k

    Algebraically this is (b0^2 / 2 pi) * (||psi_k||^2 - N), i.e. the
    normalization condition in disguise, so it is strictly increasing in k
    and has exactly one root.  The bracketed factor times the exponential is
    evaluated as erfcx(-k/sqrt(b0)) (the private _erfcx, built on math.exp
    and math.erfc): the naive product loses all precision for k < 0
    (1 + erf cancels catastrophically against the growing exponential).
    N and b0 must be positive and finite and k finite, or DomainError is
    raised.
    """
    _check_q1_parameters(N, b0_tilde)
    if not np.isfinite(k):
        raise DomainError("k must be finite")
    return _q1_residual(k, N, b0_tilde)


def _q1_residual(k: float, N: float, b0_tilde: float) -> float:
    """transcendental_residual without its input checks, for the bisection."""
    lhs = (
        math.sqrt(math.pi / b0_tilde)
        * (0.5 * b0_tilde + k**2)
        * _erfcx(-k / math.sqrt(b0_tilde))
    )
    rhs = N * b0_tilde**2 / (2.0 * math.pi) - k
    return float(lhs - rhs)


def solve_k_transcendental(N: float, b0_tilde: float) -> float:
    """Root k of the q = 1 transcendental equation for given (N, b0).

    The root branch is the one continuously connected to k = 0 at
    N = (pi/b0)^(3/2); because the equation is monotone in k that branch is
    the unique root.  N may be any positive number here (the closure point
    itself drops below 1 for b0 > pi).

    The root is found by bisection: steps of growing length from k = 0 find
    a bracket lo < hi with residual(lo) < 0 <= residual(hi) (the residual is
    strictly increasing), which is halved until hi - lo <= tol =
    1e-15 + 8.9e-16 |k| (brentq's xtol and rtol).  The computed residual
    rises only up to roundoff, so near the root its sign flips back and
    forth over some ulps of k; the last midpoint is therefore moved by ulps
    until residual(k - tol) <= 0 <= residual(k + tol), i.e. the computed
    residual changes sign within tol of k.  Where roundoff spans more than
    2 tol (b0 well below 1, where the residual's slope is small) no such k
    need exist, and the last midpoint is returned.  Bisection rather
    than scipy.optimize.brentq, and _erfcx rather than scipy.special.erfcx,
    keep a process that builds a q = 1 state down to numpy and
    scipy.linalg.
    """
    _check_q1_parameters(N, b0_tilde)
    f0 = _q1_residual(0.0, N, b0_tilde)
    if f0 == 0.0:
        return 0.0
    # residual > 0 means the k=0 norm already exceeds N: root lies at k < 0.
    direction = -1.0 if f0 > 0.0 else 1.0
    step = math.sqrt(b0_tilde)
    k_edge = 0.0
    for _ in range(80):
        k_edge += direction * step
        step *= 1.5
        if _q1_residual(k_edge, N, b0_tilde) * f0 < 0.0:
            break
    else:
        raise ConvergenceError(
            "no sign change found in the search bracket for the transcendental "
            f"equation (N={N}, b0={b0_tilde}, searched direction {direction:+.0f} "
            f"out to k={k_edge:.3g})"
        )
    lo, hi = sorted((0.0, k_edge))
    while True:
        k = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 + 8.9e-16 * abs(k):
            break
        if _q1_residual(k, N, b0_tilde) < 0.0:
            lo = k
        else:
            hi = k
    # step k by ulps towards the side whose residual has the wrong sign
    midpoint = k
    for _ in range(64):
        tol = 1e-15 + 8.9e-16 * abs(k)
        below = _q1_residual(k - tol, N, b0_tilde) <= 0.0
        above = _q1_residual(k + tol, N, b0_tilde) >= 0.0
        if below and above:
            return k
        if not (below or above):
            break  # roundoff spans more than 2 tol
        k = math.nextafter(k, math.inf if below else -math.inf)
    return midpoint


def case_q1(N: float, b0_tilde: float) -> AnalyticSolution:
    """Ground state for q = 1: psi = exp(k r - b0 r^2 / 2), omega = 2 b0 - k^2."""
    _check_norm(N)
    k = solve_k_transcendental(N, b0_tilde)
    profile = CouplingProfile(b0_tilde=b0_tilde, q_tilde=1.0)
    return AnalyticSolution(
        case=CaseTag.Q_ONE, norm=N, profile=profile, omega=2.0 * b0_tilde - k**2,
        g0=0.0, g1=k, g2=-0.5 * b0_tilde, k_tilde=k,
    )


def case_constant(N: float, b0_tilde: float) -> AnalyticSolution:
    """Gausson of the constant-coupling equation (q = 0).

    psi = (b0/pi)^(3/4) sqrt(N) exp(-b0 r^2 / 2),
    omega = 3 b0 [1 - ln(b0 N^(2/3)/pi) / 2].
    """
    _check_norm(N)
    if not (b0_tilde > 0.0 and np.isfinite(b0_tilde)):
        raise DomainError("b0_tilde must be positive and finite")
    omega = 3.0 * b0_tilde * (1.0 - 0.5 * math.log(b0_tilde * N ** (2.0 / 3.0) / math.pi))
    g0 = 0.75 * math.log(b0_tilde / math.pi) + 0.5 * math.log(N)
    profile = CouplingProfile(b0_tilde=b0_tilde, q_tilde=0.0)
    return AnalyticSolution(
        case=CaseTag.CONSTANT, norm=N, profile=profile, omega=omega,
        g0=g0, g1=0.0, g2=-0.5 * b0_tilde,
    )


def case_inverse_square(N: float, L_sq: float = 0.0, S_Y: float = 0.0) -> AnalyticSolution:
    """Separable solution for b0 = 0; the coupling charge is forced to q = 1.

    Radial factor R = exp(-mu^2 r - L^2/2) with mu^2 = (4N)^(-1/3) e^(-L^2/3)
    and omega = -mu^4, normalized as int r^2 |R|^2 dr = N.  The angular factor
    is not solved; (L^2, S_Y) are carried as given.
    """
    _check_norm(N)
    if L_sq < 0.0 or not np.isfinite(L_sq):
        raise DomainError("L_sq must be nonnegative and finite")
    if not np.isfinite(S_Y):
        raise DomainError("S_Y must be finite")
    mu2 = (4.0 * N) ** (-1.0 / 3.0) * math.exp(-L_sq / 3.0)
    profile = CouplingProfile(b0_tilde=0.0, q_tilde=1.0)
    return AnalyticSolution(
        case=CaseTag.INVERSE_SQUARE, norm=N, profile=profile, omega=-(mu2**2),
        g0=-0.5 * L_sq, g1=-mu2, g2=0.0, mu_sq=mu2, L_sq=L_sq, S_Y=S_Y,
    )


def effective_potential(sol: AnalyticSolution, r):
    """Effective external potential (q/r^2 - b0) ln|psi_s(r)|^2.

    A linear Schrodinger equation with this potential reproduces the
    nonlinear solution psi_s, making the two empirically indistinguishable.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("effective potential is defined for r > 0")
    return -sol.profile.evaluate(r) * 2.0 * sol.log_amplitude(r)


def constant_entropy_candidates(N: float, b0_tilde: float) -> dict:
    """Both closed-form entropy candidates for the CONSTANT case.

    'printed':  (3/2) [N - ln(b0 N^(2/3)/pi)]
    'n_scaled': (3/2) [N - N ln(b0 N^(2/3)/pi)]

    Direct quadrature of the entropy density reproduces the n_scaled form;
    the two coincide exactly at b0 N^(2/3) = pi (and at any point where the
    log vanishes).  Downstream reports state both together with the
    quadrature value rather than silently preferring one.
    """
    logx = math.log(b0_tilde * N ** (2.0 / 3.0) / math.pi)
    return {
        "printed": 1.5 * (N - logx),
        "n_scaled": 1.5 * (N - N * logx),
    }


def _check_norm(N: float):
    if not (N >= 1.0 and np.isfinite(N)):
        raise DomainError("normalization N must satisfy N >= 1")
