"""Imaginary-time relaxation against the closed-form catalog."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from logse import (
    ConvergenceError,
    CouplingProfile,
    DomainError,
    RadialGrid,
    RadialWavefunction,
    case_constant,
    case_general,
    case_inverse_square,
    case_q1,
    l2_distance,
)
from logse.numerics import (
    SolverOptions,
    evolve_real_time,
    ground_state_from_coupling_values,
    linear_ground_state,
    relaxation_energy,
)
from logse.numerics.stencils import second_difference_dirichlet

PI = math.pi
GRID8 = RadialGrid.uniform_from_origin(8.0, 640)
# (profile, grid, angular weight) of a b > 0 and a b < 0 relaxation
GAUSSON_AND_INVERSE_SQUARE = pytest.mark.parametrize(
    "profile, grid, weight",
    [
        (CouplingProfile(PI, 0.0), GRID8, 4 * PI),
        (CouplingProfile(0.0, 1.0), RadialGrid.uniform_from_origin(30.0, 800), 1.0),
    ],
    ids=["gausson", "inverse_square"],
)


def test_relax_constant_coupling_reaches_gausson():
    res = ground_state_from_coupling_values(
        CouplingProfile(PI, 0.0).evaluate(GRID8.r), 1.0, GRID8, SolverOptions()
    )
    psi, omega = res.psi, res.omega
    sol = case_constant(1, PI)
    assert l2_distance(psi, sol.psi) < 3e-4
    assert omega == pytest.approx(3 * PI, rel=1e-3)
    assert psi.is_normalized()


def test_relax_q1_at_closure_point():
    res = ground_state_from_coupling_values(
        CouplingProfile(PI, 1.0).evaluate(GRID8.r), 1.0, GRID8, SolverOptions()
    )
    psi, omega = res.psi, res.omega
    sol = case_q1(1, PI)  # k = 0: pure Gaussian
    assert l2_distance(psi, sol.psi) < 3e-4
    assert omega == pytest.approx(2 * PI, rel=1e-3)


def test_relax_inverse_square_coupling():
    grid = RadialGrid.uniform_from_origin(30.0, 800)
    res = ground_state_from_coupling_values(
        CouplingProfile(0.0, 1.0).evaluate(grid.r), 1.0, grid, SolverOptions(),
        angular_weight=1.0,
    )
    psi, omega = res.psi, res.omega
    sol = case_inverse_square(1)
    assert l2_distance(psi, sol.psi) < 3e-4
    assert omega == pytest.approx(sol.omega, rel=1e-3)


def test_relax_nonconvergence_carries_iterate_and_history():
    with pytest.raises(ConvergenceError) as err:
        ground_state_from_coupling_values(
            CouplingProfile(PI, 0.0).evaluate(GRID8.r), 1.0, GRID8,
            SolverOptions(max_steps=40, convergence_tol=1e-14),
        )
    assert err.value.last is not None
    assert err.value.last.psi.values.shape == GRID8.r.shape
    # one history row per step
    assert len(err.value.history) == 40
    assert [row[0] for row in err.value.history] == list(range(1, 41))


@GAUSSON_AND_INVERSE_SQUARE
def test_relaxed_state_independent_of_dt(profile, grid, weight):
    # the Rayleigh quotient inside the step makes the fixed point the discrete
    # stationary state for every dt, also where b(r) is not constant
    b = profile.evaluate(grid.r)
    coarse = ground_state_from_coupling_values(
        b, 1.0, grid, SolverOptions(), angular_weight=weight
    )
    fine = ground_state_from_coupling_values(
        b, 1.0, grid, SolverOptions(dt=0.005), angular_weight=weight
    )
    assert l2_distance(coarse.psi, fine.psi) < 1e-6
    assert coarse.omega == pytest.approx(fine.omega, rel=1e-8)


@pytest.mark.parametrize(
    "profile, grid, weight",
    [
        (CouplingProfile(PI, 0.0), GRID8, 4 * PI),
        (CouplingProfile(PI, 1.0), GRID8, 4 * PI),
        (CouplingProfile(0.0, 1.0), RadialGrid.uniform_from_origin(30.0, 800), 1.0),
    ],
    ids=["gausson", "q1", "inverse_square"],
)
def test_returned_state_is_stationary(profile, grid, weight):
    # the flow projects onto the norm the returned state is held to, so the
    # state it hands back meets the stopping residual itself
    opts = SolverOptions()
    b = profile.evaluate(grid.r)
    res = ground_state_from_coupling_values(b, 1.0, grid, opts, angular_weight=weight)
    u = grid.r * res.psi.values.real
    w = b * np.log(np.maximum(res.psi.density(), opts.log_floor))
    hu = second_difference_dirichlet(u, grid.h) + w * u
    assert np.max(np.abs(hu + res.omega * u)) / np.max(np.abs(u)) < opts.convergence_tol
    assert res.psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_negative_q_closed_form_is_not_the_minimizer():
    # for q < 0 the catalog state is stationary, but the flow finds a state
    # of lower energy far from it
    sol = case_general(1, -0.5)
    b = sol.profile.evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, 1.0, GRID8, SolverOptions())
    assert res.converged
    assert relaxation_energy(res.psi, b) < relaxation_energy(sol.sample(GRID8), b) - 0.1
    assert l2_distance(res.psi, sol.psi) > 0.1


def test_coupling_array_must_be_finite():
    bad = np.full_like(GRID8.r, np.nan)
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(bad, 1.0, GRID8, SolverOptions())


def test_relax_requires_uniform_grid():
    grid = RadialGrid.log(1e-3, 8.0, 256)
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(
            CouplingProfile(PI, 0.0).evaluate(grid.r), 1.0, grid, SolverOptions()
        )
    with pytest.raises(DomainError):
        linear_ground_state(np.zeros_like(grid.r), 1.0, grid, SolverOptions())


def test_engines_require_origin_step_grid():
    # a uniform grid whose r_min is not h puts the left ghost node off r = 0
    grid = RadialGrid.uniform(0.5, 8.0, 640)
    sol = case_constant(1, PI)
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(sol.profile.evaluate(grid.r), 1.0, grid)
    with pytest.raises(DomainError):
        linear_ground_state(np.zeros_like(grid.r), 1.0, grid)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4), 10)


@pytest.mark.parametrize("N", [0.0, -1.0, math.inf, math.nan])
def test_relax_and_linear_reject_bad_norm(N):
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(np.full_like(GRID8.r, PI), N, GRID8)
    with pytest.raises(DomainError):
        linear_ground_state(np.zeros_like(GRID8.r), N, GRID8)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_relax_rejects_empty_step_budget(max_steps):
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(
            np.full_like(GRID8.r, PI), 1.0, GRID8, max_steps=max_steps,
            check_convergence=False,
        )


@pytest.mark.parametrize("psi0", [np.zeros_like(GRID8.r), np.full_like(GRID8.r, np.nan)])
def test_relax_rejects_guess_without_finite_norm(psi0):
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(np.full_like(GRID8.r, PI), 1.0, GRID8, psi0=psi0)


# ------------------------------------------------------- energy functional

def test_energy_variation_reproduces_stationary_identity():
    # At a stationary point, -lap psi - b ln(rho) psi = omega psi, so the
    # directional derivative of the energy functional along delta must equal
    # 2 omega <delta, psi>; this checks the functional form independently.
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 3000)
    r = grid.r
    psi = sol.psi(r)
    delta = r**2 * np.exp(-(r**2))
    eps = 1e-6

    def energy(vals):
        wf = RadialWavefunction(grid, vals, target_norm=1.0)
        return relaxation_energy(wf, sol.profile.evaluate(r))

    derivative = (energy(psi + eps * delta) - energy(psi - eps * delta)) / (2 * eps)
    overlap = 4 * PI * simpson(r**2 * delta * psi, x=r)
    assert derivative == pytest.approx(2 * sol.omega * overlap, rel=1e-5)


@pytest.mark.parametrize("N, q", [(1, 2.0), (1, -0.5), (8, 3.0)])
def test_relaxation_energy_matches_general_closed_form(N, q):
    # E = a N (4 - 3q) with a = pi / N^(2/3); for q != 0 the log term's
    # integrand tends to a nonzero constant at the origin
    sol = case_general(N, q)
    exact = PI / N ** (2.0 / 3.0) * N * (4.0 - 3.0 * q)
    energy = relaxation_energy(sol.sample(GRID8), sol.profile.evaluate(GRID8.r))
    assert abs(energy - exact) / abs(exact) < 2e-4


def test_relaxation_energy_monotone_along_flow():
    grid = RadialGrid.uniform_from_origin(8.0, 400)
    r = grid.r
    h = grid.h
    b = CouplingProfile(PI, 0.0).evaluate(r)
    dt = 0.2 * h * h
    u = r * np.exp(-0.7 * r**2)
    u /= math.sqrt(4 * PI * np.trapezoid(u * u, r))

    def energy_of(u_vals):
        wf = RadialWavefunction(grid, u_vals / r, target_norm=1.0)
        return relaxation_energy(wf, b)

    energies = [energy_of(u)]
    for _ in range(400):
        rho = (u / r) ** 2
        w = b * np.log(np.maximum(rho, 1e-30))
        u = u + dt * (second_difference_dirichlet(u, h) + w * u)
        u *= math.sqrt(1.0 / (4 * PI * np.trapezoid(u * u, r)))
        energies.append(energy_of(u))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10 * max(1.0, abs(energies[0])))


@GAUSSON_AND_INVERSE_SQUARE
def test_relaxation_energy_monotone_along_engine_iterates(profile, grid, weight):
    b = profile.evaluate(grid.r)
    energies = [
        relaxation_energy(
            ground_state_from_coupling_values(
                b, 1.0, grid, SolverOptions(), angular_weight=weight,
                max_steps=k, check_convergence=False,
            ).psi,
            b,
        )
        for k in range(1, 51)
    ]
    assert np.all(np.diff(energies) <= 1e-10 * max(1.0, abs(energies[0])))


# ---------------------------------------------------- linear ground states

def test_linear_harmonic_recovers_gausson():
    sol = case_constant(1, PI)
    psi, omega = linear_ground_state(
        lambda r: sol.effective_potential_closed_form(r), 1.0, GRID8, SolverOptions()
    )
    assert l2_distance(psi, sol.psi) < 3e-4


def test_linear_coulomb_recovers_exponential():
    sol = case_inverse_square(1)
    grid = RadialGrid.uniform_from_origin(30.0, 800)
    psi, omega = linear_ground_state(
        lambda r: -2.0 * sol.mu_sq / r, 1.0, grid, SolverOptions(), angular_weight=1.0
    )
    assert l2_distance(psi, sol.psi) < 3e-4
    assert omega == pytest.approx(sol.omega, rel=1e-3)


def test_linear_free_box_mode_not_gaussian():
    # sanity control: with V = 0 the Dirichlet box mode wins
    grid = RadialGrid.uniform_from_origin(8.0, 256)
    psi, omega = linear_ground_state(np.zeros_like(grid.r), 1.0, grid, SolverOptions())
    r = grid.r
    span = grid.r_max + grid.h
    box = np.sin(PI * r / span) / r
    box /= math.sqrt(4 * PI * np.trapezoid((r * box) ** 2, r))
    assert l2_distance(psi, box) < 1e-2
    assert omega == pytest.approx((PI / span) ** 2, rel=1e-2)
    # the direct solve returns the discrete Dirichlet eigenvalue itself
    h = grid.h
    assert omega == pytest.approx((4 / h**2) * math.sin(PI * h / (2 * span)) ** 2, rel=1e-10)
    # nothing Gaussian about it: the peak of r*psi sits mid-box
    assert abs(r[np.argmax(r * psi.values.real)] - span / 2) < 0.1


def test_linear_rejects_unbounded_potential():
    with pytest.raises(DomainError):
        linear_ground_state(
            np.full_like(GRID8.r, -np.inf), 1.0, GRID8, SolverOptions()
        )
