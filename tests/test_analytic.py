"""Closed-form catalog checks against independent quadrature oracles.

Expected values either evaluate printed formulas directly or were computed
with scipy.integrate.quad / brentq oracles that are independent of the
package's own Simpson-on-grid quadrature path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from logse import (
    CaseTag,
    ConvergenceError,
    DomainError,
    RadialGrid,
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    constant_entropy_candidates,
    effective_potential,
    solve_k_transcendental,
    transcendental_residual,
)
from logse.analytic import _erfcx

PI = math.pi
FINE = RadialGrid.uniform(1e-3, 20.0, 6001)


def quad_norm(sol):
    """Independent norm oracle: adaptive quadrature of w r^2 |psi|^2."""
    w = sol.angular_weight
    val, _ = quad(lambda r: w * r**2 * sol.psi(r) ** 2, 0.0, np.inf, limit=200)
    return val


def quad_entropy(sol):
    """Independent entropy oracle: -int w r^2 rho ln rho dr + S_Y N."""
    w = sol.angular_weight

    def integrand(r):
        rho = sol.psi(r) ** 2
        if rho < 1e-280:  # x ln x -> 0 continuation
            return 0.0
        return -w * r**2 * rho * math.log(rho)

    val, _ = quad(integrand, 0.0, np.inf, limit=200)
    return val + sol.S_Y * sol.norm


# ----------------------------------------------------------------- GENERAL

def test_general_unit_norm_eigenvalues():
    sol = case_general(1, 2.0)
    assert sol.omega == PI
    assert sol.profile.b0_tilde == PI
    assert sol.entropy_closed_form() == 1.5


def test_general_n8_eigenvalues():
    sol = case_general(8, 2.0)
    assert sol.omega == pytest.approx(PI / 4.0, rel=1e-15)
    assert sol.profile.b0_tilde == pytest.approx(PI / 4.0, rel=1e-15)


def test_general_q3_zero_frequency():
    sol = case_general(1, 3.0)
    assert sol.omega == 0.0
    assert sol.psi(0.7) == pytest.approx(math.exp(-0.5 * PI * 0.49), rel=1e-15)


@pytest.mark.parametrize("N,q", [(1, 2.0), (8, 2.0), (64, -1.0), (3, 0.5)])
def test_general_norm_and_residual(N, q):
    sol = case_general(N, q)
    assert quad_norm(sol) == pytest.approx(N, rel=1e-9)
    assert np.max(np.abs(sol.stationary_residual_exact(FINE.r))) < 1e-8


def test_general_rejects_excluded_charges():
    for q in (0.0, 1.0):
        with pytest.raises(DomainError):
            case_general(1, q)
    with pytest.raises(DomainError):
        case_general(0.5, 2.0)


def test_general_entropy_matches_quadrature():
    for N in (1, 8):
        sol = case_general(N, 2.0)
        assert quad_entropy(sol) == pytest.approx(1.5 * N, rel=1e-9)


# ------------------------------------------------------------------- Q_ONE

def test_k_vanishes_at_closure_point():
    for b0 in (PI, 2 * PI):
        n_star = (PI / b0) ** 1.5
        assert abs(solve_k_transcendental(n_star, b0)) < 1e-10


def test_k_root_against_norm_oracle():
    # independent oracle: bisection on the quadrature normalization
    def norm_of_k(k, b0):
        val, _ = quad(lambda r: 4 * PI * r**2 * np.exp(2 * k * r - b0 * r**2), 0, np.inf)
        return val

    k = solve_k_transcendental(2.0, PI)
    k_oracle = brentq(lambda kk: norm_of_k(kk, PI) - 2.0, -2.0, 2.0, xtol=1e-13)
    assert k == pytest.approx(k_oracle, abs=1e-10)
    assert k > 0.0
    assert abs(transcendental_residual(k, 2.0, PI)) < 1e-12


def test_k_root_accurate_on_deep_negative_branch():
    # regression: for k/sqrt(b0) << 0 the naive (1 + erf) e^(k^2/b0) product
    # cancels catastrophically; the erfcx form keeps the root at machine
    # precision (the naive form missed the norm by 0.7 here)
    k = solve_k_transcendental(1.0, 0.05)
    norm, _ = quad(lambda r: 4 * PI * r**2 * np.exp(2 * k * r - 0.05 * r**2),
                   0, np.inf, limit=400)
    assert k == pytest.approx(-1.43101319, abs=1e-6)
    assert abs(norm - 1.0) < 1e-9


def test_k_sign_follows_norm_monotonicity():
    # the k=0 locus is N* = (pi/b0)^(3/2); the norm increases with k, so
    # N > N* forces k > 0 and N < N* forces k < 0
    assert solve_k_transcendental(1.0, 2 * PI) > 0.0  # N* ~ 0.354 < 1
    assert solve_k_transcendental(1.0, 0.5 * PI) < 0.0  # N* ~ 2.83 > 1


def brentq_k(N, b0):
    """brentq on a bracket [-s, s] widened until the residual changes sign."""
    s = math.sqrt(b0)
    while not (transcendental_residual(-s, N, b0) < 0.0 < transcendental_residual(s, N, b0)):
        s *= 2.0
    return brentq(transcendental_residual, -s, s, args=(N, b0), xtol=1e-15, rtol=8.9e-16)


# b0 >= 1: for smaller b0 the residual's slope b0^2/(2 pi) dN/dk is so small
# that its roundoff (terms of size |k|) spans more k than the stopping width,
# and no root finder pins the sign change that finely
@settings(max_examples=60, deadline=None)
@given(N=st.floats(1.0, 100.0), b0=st.floats(1.0, 40.0), growth=st.floats(1.001, 4.0))
# the last bisection midpoint: residual(k + tol) read -2.2e-16 there
@example(N=1.0, b0=1.1, growth=2.0)
def test_k_root_brackets_sign_change_increases_in_N_and_matches_brentq(N, b0, growth):
    k = solve_k_transcendental(N, b0)
    tol = 1e-15 + 8.9e-16 * abs(k)  # the solver's stopping width
    assert transcendental_residual(k - tol, N, b0) <= 0.0 <= transcendental_residual(k + tol, N, b0)
    assert solve_k_transcendental(growth * N, b0) > k
    assert abs(k - brentq_k(N, b0)) <= 2e-15 + 2e-15 * abs(k)


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def erfcx_error_ulps(x, mpmath):
    """|_erfcx(x) - exp(x^2) erfc(x)| in ulps of a 40-digit reference."""
    with mpmath.workdps(40):
        ref = mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x)
        return float(abs(mpmath.mpf(_erfcx(x)) - ref) / math.ulp(float(ref)))


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-26.6, 1e6))
# the largest errors seen in scans of 600,000 points (2.3 and 2.2 ulps)
@example(x=8.972705192222378)
@example(x=-0.8656928532013595)
# the C library's erfc alone is 3.6 ulps off here
@example(x=1.2020703655638032)
@example(x=-23.072281043795744)  # scipy's erfcx, which rounds x^2: 498 ulps
@example(x=27.0)  # erfc(x) is subnormal here
def test_erfcx_within_four_ulps_of_mpmath(x, mpmath):
    assert erfcx_error_ulps(x, mpmath) <= 4.0


# the switch from exp(x^2) erfc(x) to the trapezoid sum, and the sum's pole
# term, which counts below x = pi/h = 2 pi
@pytest.mark.parametrize("x", [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
                               math.nextafter(2 * PI, 0.0), 2 * PI, math.nextafter(2 * PI, 7.0)],
                         ids=repr)
def test_erfcx_on_both_sides_of_each_switch(x, mpmath):
    assert erfcx_error_ulps(x, mpmath) <= 4.0


def test_erfcx_fixed_points():
    assert _erfcx(0.0) == 1.0
    assert _erfcx(-0.0) == 1.0
    for x in (-26.65, -27.0, -1e300, -math.inf):  # exp(x^2) overflows
        assert _erfcx(x) == math.inf
    assert _erfcx(1e300) == 1.0 / (1e300 * math.sqrt(PI))


def test_q1_unit_norm_is_pure_gaussian():
    sol = case_q1(1, PI)  # the closure point: the residual at k = 0 is exactly 0
    assert sol.k_tilde == 0.0
    assert sol.omega == pytest.approx(2 * PI, abs=1e-11)
    assert sol.profile.q_tilde == 1.0


@pytest.mark.parametrize("N,b0", [(1, PI), (2, PI), (4, 2 * PI)])
def test_q1_norm_and_residual(N, b0):
    sol = case_q1(N, b0)
    assert quad_norm(sol) == pytest.approx(N, rel=1e-8)
    assert np.max(np.abs(sol.stationary_residual_exact(FINE.r))) < 1e-8


def test_q1_entropy_closed_form_matches_quadrature():
    for N, b0 in [(1, PI), (2, PI)]:
        sol = case_q1(N, b0)
        assert sol.entropy_closed_form() == pytest.approx(quad_entropy(sol), rel=1e-9)


# ---------------------------------------------------------------- CONSTANT

def test_constant_log_vanishing_point():
    sol = case_constant(1, PI)
    assert sol.omega == pytest.approx(3 * PI, rel=1e-15)
    assert sol.psi(0.0) == pytest.approx(1.0, rel=1e-15)
    assert sol.entropy_closed_form() == pytest.approx(1.5, rel=1e-14)


def test_constant_n8_omega():
    sol = case_constant(8, PI)
    assert sol.omega == pytest.approx(3 * PI * (1 - math.log(2.0)), rel=1e-14)


@pytest.mark.parametrize("N,b0", [(1, PI), (8, PI), (2, 1.3)])
def test_constant_norm_and_residual(N, b0):
    sol = case_constant(N, b0)
    assert quad_norm(sol) == pytest.approx(N, rel=1e-9)
    assert np.max(np.abs(sol.stationary_residual_exact(FINE.r))) < 1e-8


def test_constant_entropy_candidates_against_quadrature():
    # at N=1, b0=pi both forms coincide with quadrature at 3/2; away from the
    # log-vanishing point only the N-scaled variant tracks the quadrature
    both = constant_entropy_candidates(1, PI)
    assert both["printed"] == pytest.approx(1.5, rel=1e-14)
    assert both["n_scaled"] == pytest.approx(1.5, rel=1e-14)

    cands = constant_entropy_candidates(8, PI)
    s_quad = quad_entropy(case_constant(8, PI))
    assert cands["n_scaled"] == pytest.approx(s_quad, rel=1e-9)
    assert abs(cands["printed"] - s_quad) > 1.0  # genuinely different branch


# ---------------------------------------------------------- INVERSE_SQUARE

def test_inverse_square_base_point():
    sol = case_inverse_square(1)
    assert sol.mu_sq == pytest.approx(4.0 ** (-1.0 / 3.0), rel=1e-15)
    assert sol.omega == pytest.approx(-(4.0 ** (-2.0 / 3.0)), rel=1e-15)
    assert sol.entropy_closed_form() == 3.0
    assert sol.profile.q_tilde == 1.0 and sol.profile.b0_tilde == 0.0


def test_inverse_square_radial_normalization():
    # int r^2 |R|^2 dr = N (no 4 pi), per the separable convention
    for N, L2 in [(1, 0.0), (2, 1.0)]:
        sol = case_inverse_square(N, L2)
        assert sol.angular_weight == 1.0
        assert quad_norm(sol) == pytest.approx(N, rel=1e-10)


def test_inverse_square_entropy_value():
    sol = case_inverse_square(2, 1.0, 0.0)
    assert sol.entropy_closed_form() == pytest.approx(8.0, rel=1e-15)
    assert quad_entropy(sol) == pytest.approx(8.0, rel=1e-9)


def test_inverse_square_residual_includes_centrifugal_term():
    sol = case_inverse_square(2, 1.5, 0.3)
    assert np.max(np.abs(sol.stationary_residual_exact(FINE.r))) < 1e-8


@pytest.mark.parametrize("call, message", [
    (lambda: case_general(1, math.nan), "q_tilde must be finite"),
    (lambda: case_constant(1, 0.0), "b0_tilde must be positive"),
    (lambda: solve_k_transcendental(1, -1.0), "b0_tilde must be positive"),
    (lambda: case_inverse_square(1, 0.0, math.nan), "S_Y must be finite"),
    (lambda: case_constant(1, PI).stationary_residual_exact(np.array([0.0, 1.0])),
     "r > 0"),
    (lambda: case_constant(1, PI).stationary_residual_exact(np.array([1.0, math.nan])),
     "r > 0"),
    (lambda: transcendental_residual(0.0, 1.0, -1.0), "b0_tilde must be positive"),
    (lambda: transcendental_residual(0.0, 1.0, 0.0), "b0_tilde must be positive"),
    (lambda: transcendental_residual(math.nan, 1.0, PI), "k must be finite"),
    (lambda: transcendental_residual(0.0, -1.0, PI), "N must be positive"),
], ids=["general-q-nan", "constant-b0-0", "k-b0-negative", "inverse-square-SY-nan",
        "residual-at-origin", "residual-at-nan", "k-residual-b0-negative",
        "k-residual-b0-0", "k-residual-k-nan", "k-residual-N-negative"])
def test_catalog_rejects_parameters_outside_its_domain(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_inverse_square_rejects_bad_parameters():
    with pytest.raises(DomainError):
        case_inverse_square(1, L_sq=-1.0)
    with pytest.raises(DomainError):
        case_inverse_square(0.2)


# ------------------------------------------------------ effective potential

def test_effective_potential_general_root():
    sol = case_general(1, 2.0)
    q_n = sol.profile.q_tilde / sol.profile.b0_tilde
    assert effective_potential(sol, math.sqrt(q_n)) == pytest.approx(0.0, abs=1e-12)


def test_effective_potential_constant_at_r1():
    sol = case_constant(1, PI)
    assert effective_potential(sol, 1.0) == pytest.approx(PI**2, rel=1e-14)


def test_effective_potential_inverse_square_value():
    sol = case_inverse_square(1)
    expected = -2.0 * 4.0 ** (-1.0 / 3.0)
    assert effective_potential(sol, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "sol",
    [
        case_general(1, 2.0),
        case_general(8, -1.0),
        case_q1(2, PI),
        case_constant(1, PI),
        case_constant(8, PI),
        case_inverse_square(1),
        case_inverse_square(2, 1.0, 0.5),
    ],
    ids=lambda s: f"{s.case.value}-N{s.norm:g}",
)
def test_closed_form_potentials_match_generic_definition(sol):
    r = np.linspace(1e-3, 20.0, 4001)
    generic = effective_potential(sol, r)
    closed = sol.effective_potential_closed_form(r)
    assert np.max(np.abs(generic - closed)) < 1e-12 * max(1.0, np.max(np.abs(closed)))


def test_effective_potential_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        effective_potential(case_constant(1, PI), 0.0)
    with pytest.raises(DomainError):  # NaN fails r > 0 but passes r <= 0 too
        effective_potential(case_constant(1, PI), [1.0, math.nan])


# ------------------------------------------------------------- cross links

def test_general_and_constant_coincide_at_locked_coupling():
    # q -> 0 limit of the general case meets the Gausson exactly when
    # b0 = pi / N^(2/3)
    for N in (1, 8):
        locked = PI / N ** (2.0 / 3.0)
        g = case_general(N, 1e-13)
        c = case_constant(N, locked)
        r = np.linspace(1e-3, 10.0, 500)
        assert np.max(np.abs(g.psi(r) - c.psi(r))) < 1e-12
        assert g.omega == pytest.approx(c.omega, rel=1e-12)
        assert g.entropy_closed_form() == pytest.approx(c.entropy_closed_form(), rel=1e-12)


def test_entropy_density_closed_forms_match_definition():
    grid = np.linspace(1e-3, 15.0, 2001)
    for sol in (case_general(1, 2.0), case_q1(2, PI), case_constant(8, PI),
                case_inverse_square(1), case_inverse_square(2, 1.0, 0.7)):
        rho = sol.psi(grid) ** 2
        definition = -sol.angular_weight * grid**2 * rho * np.log(rho) \
            + sol.S_Y * grid**2 * rho
        closed = sol.entropy_density_closed_form(grid)
        assert np.max(np.abs(definition - closed)) < 1e-10 * max(1.0, np.max(np.abs(closed)))


def test_transcendental_failure_reports_bracket():
    with pytest.raises((ConvergenceError, DomainError)):
        solve_k_transcendental(np.nan, PI)
