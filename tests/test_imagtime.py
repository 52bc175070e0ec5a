"""Imaginary-time relaxation against the closed-form catalog."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import solveh_banded

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
from logse.grids import grid_rule_weights, integrate_radial
from logse.observables import LOG_FLOOR
from logse.numerics import (
    SolverOptions,
    evolve_real_time,
    ground_state_from_coupling_values,
    linear_ground_state,
    relaxation_energy,
)
from logse.numerics import imagtime
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


def _default_guess(grid):
    """The engine's guess when psi0 is None: a Gaussian of width r_max/8."""
    return np.exp(-0.5 * (grid.r / (grid.r_max / 8.0)) ** 2)


def _reference_iterates(b, grid, weight, guess, n_steps, tol=None, step_rule=False):
    """(psi, residual, omega) after each step of the flow, solved by
    solveh_banded on the banded matrix and renormalized by integrate_radial;
    stops early below tol.  The step is 0.01 throughout, or with step_rule
    it starts at 0.01 and follows the engine's rule: a step that raises E_h
    (here the h-sum of its definition) by more than 1e-12 times
    a h (|omega u.u| + |b.u^2|) is retried at half the step, and an accepted
    one multiplies the step by min(residual before / residual after, 2),
    the guess's residual counting as infinite."""
    r, h, dt = grid.r, grid.h, 0.01
    u = r * RadialWavefunction(grid, guess, 1.0, weight).normalized().values

    def log_term(u):
        return b * np.log(np.maximum((u / r) ** 2, LOG_FLOOR))

    def h_and_omega(u, w):
        hu = second_difference_dirichlet(u, h) + w * u
        return hu, -(hu @ u) / (u @ u)

    def energy_and_allowance(u, w, omega):
        energy = -weight * h * (u @ second_difference_dirichlet(u, h) + (w - b) @ (u * u))
        return energy, 1e-12 * weight * h * (abs(omega * (u @ u)) + abs(b @ (u * u)))

    matrix = np.full((2, r.size), -dt / h**2)
    w = log_term(u)
    omega = h_and_omega(u, w)[1]
    residual = math.inf  # the first accepted step doubles the step
    energy, allowance = energy_and_allowance(u, w, omega)
    iterates = []
    while len(iterates) < n_steps:
        stiff = np.minimum(w + 2.0 * b, 0.0)
        matrix[0] = -dt / h**2
        matrix[1] = 1.0 + 2.0 * dt / h**2 - dt * stiff
        u_new = solveh_banded(matrix, u + dt * (w - stiff + omega) * u)
        u_new *= math.sqrt(1.0 / (weight * integrate_radial(grid, u_new * u_new)))
        w_new = log_term(u_new)
        hu, omega_new = h_and_omega(u_new, w_new)
        energy_new, allowance_new = energy_and_allowance(u_new, w_new, omega_new)
        if step_rule and energy_new > energy + allowance:
            dt /= 2.0
            continue
        residual_new = np.max(np.abs(hu + omega_new * u_new)) / np.max(np.abs(u_new))
        if step_rule:
            dt *= min(residual / residual_new, 2.0)
        u, w, omega, residual = u_new, w_new, omega_new, residual_new
        energy, allowance = energy_new, allowance_new
        iterates.append((u / r, residual, omega))
        if tol is not None and residual < tol:
            break
    return iterates


def _engine_flow_iterates(b, grid, weight, psi0, n_steps):
    """psi after each of n_steps flow steps of the engine from its guess for
    psi0: imagtime.flow_step at the fixed step _RELAX_DT, each from the w and
    omega of imagtime.stationary, as the relaxation takes them before Newton."""
    r, h = grid.r, grid.h
    quad = grid_rule_weights(grid)
    u = r * imagtime._initial_guess(grid, psi0, 1.0, weight)
    iterates = []
    for _ in range(n_steps):
        w, _, omega, _ = imagtime.stationary(u, b, r, h)
        u, _, info = imagtime.flow_step(u, w, omega, b, imagtime._RELAX_DT, h, quad,
                                        1.0, weight)
        assert info == 0
        iterates.append(RadialWavefunction(grid, u / r, 1.0, weight))
    return iterates


@GAUSSON_AND_INVERSE_SQUARE
@pytest.mark.parametrize("guess", ["default", "broad"])
def test_engine_iterates_match_banded_reference_step(profile, grid, weight, guess):
    # the default guess vanishes at both ends; the broad one keeps u large at
    # r_max, where the even-n last-interval weights of the norm act
    r = grid.r
    psi0 = None if guess == "default" else np.exp(-r / grid.r_max)
    b = profile.evaluate(r)
    reference = _reference_iterates(
        b, grid, weight, _default_guess(grid) if psi0 is None else psi0, 50
    )
    iterates = _engine_flow_iterates(b, grid, weight, psi0, 50)
    for k, ((ref, _, _), psi) in enumerate(zip(reference, iterates), start=1):
        assert np.max(np.abs(psi.values - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def test_gausson_takes_reference_step_count():
    # the engine's flow rows are the reference flow's, step rule included, up
    # to the handover to Newton, and Newton lands on the state the flow
    # converges to at any fixed step
    b = CouplingProfile(PI, 0.0).evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, 1.0, GRID8, SolverOptions())
    flow_steps = res.steps - res.newton_steps
    assert (flow_steps, res.newton_steps, res.rejected_steps) == (23, 3, 0)
    reference = _reference_iterates(b, GRID8, 4 * PI, _default_guess(GRID8), flow_steps,
                                    step_rule=True)
    assert len(reference) == flow_steps
    for row, (_, residual, omega) in zip(res.history, reference):
        assert row[1] == pytest.approx(residual, rel=1e-10), row[0]
        assert row[3] == pytest.approx(omega, rel=1e-12), row[0]
    assert res.history[flow_steps - 1][1] < 0.1 <= res.history[flow_steps - 2][1]
    converged = _reference_iterates(b, GRID8, 4 * PI, _default_guess(GRID8), 10_000,
                                    tol=1e-10)[-1][0]
    assert np.max(np.abs(res.psi.values - converged)) <= 1e-8 * np.max(np.abs(converged))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_relax_blow_up_raises_with_last_finite_iterate():
    # b = 1e300 overflows the first step; the error carries the guess
    with pytest.raises(ConvergenceError, match="no finite positive norm") as err:
        ground_state_from_coupling_values(np.full_like(GRID8.r, 1e300), 1.0, GRID8)
    last = err.value.last
    assert last.steps == 0 and not last.converged and err.value.history == []
    assert np.all(np.isfinite(last.psi.values))
    assert last.psi.norm() == pytest.approx(1.0, rel=1e-12)


def test_step_size_underflow_raises_with_the_guess(monkeypatch):
    # an allowance below -|E_h| rejects every flow step, so dt is halved
    # until it underflows to zero instead of looping
    monkeypatch.setattr(imagtime, "_ENERGY_ROUNDOFF", -1.0)
    with pytest.raises(ConvergenceError, match="underflowed") as err:
        ground_state_from_coupling_values(np.full_like(GRID8.r, PI), 1.0, GRID8)
    last = err.value.last
    assert last.steps == 0 and err.value.history == []
    assert last.rejected_steps > 1000  # 0.01 halves to zero in about 1,070 steps
    assert last.psi.norm() == pytest.approx(1.0, rel=1e-12)


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
    w = b * np.log(np.maximum(res.psi.density(), LOG_FLOOR))
    hu = second_difference_dirichlet(u, grid.h) + w * u
    assert np.max(np.abs(hu + res.omega * u)) / np.max(np.abs(u)) < opts.convergence_tol
    assert res.psi.norm() == pytest.approx(1.0, abs=1e-12)


def _sized_grid(sol, n=800):
    """Origin-step grid out to 1.1 times the radius where r^2 rho of the
    closed form falls to 1e-13 of its peak."""
    r = np.linspace(0.01, 400.0, 40_000)
    density = r**2 * np.abs(sol.psi(r)) ** 2
    return RadialGrid.uniform_from_origin(1.1 * r[density > 1e-13 * density.max()][-1], n)


@pytest.mark.parametrize(
    "sol",
    [case_constant(64, PI / 4), case_q1(8, PI), case_general(64, 0.5),
     case_general(64, 6.0), case_inverse_square(16)],
    ids=["constant", "q1", "general-q0.5", "general-q6", "inverse_square"],
)
def test_catalog_states_converge_nodeless_through_newton(sol):
    grid = _sized_grid(sol)
    opts = SolverOptions()
    res = ground_state_from_coupling_values(
        sol.profile.evaluate(grid.r), sol.norm, grid, opts,
        angular_weight=sol.angular_weight,
    )
    assert res.converged and res.history[-1][1] < opts.convergence_tol
    assert 0 < res.newton_steps < res.steps <= 500
    assert np.all(res.psi.values.real > 0.0)
    assert l2_distance(res.psi, sol.psi) < 1e-3  # criterion 5's bound


@pytest.mark.parametrize("dt", [None, 0.001])
@pytest.mark.parametrize("handover", ["default", "first_step"])
def test_guard_never_returns_a_state_with_nodes(monkeypatch, dt, handover):
    # at a fixed step 0.01 the flow oscillated with period 2 on this grid and
    # never handed over; Newton started from early flow iterates lands on
    # states with nodes (-psi, or hundreds of nodes), which the guard rejects
    sol = case_general(1, 6.0)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    if handover == "first_step":
        monkeypatch.setattr(imagtime, "_NEWTON_HANDOVER", math.inf)
    try:
        res = ground_state_from_coupling_values(
            sol.profile.evaluate(grid.r), 1.0, grid, SolverOptions(dt=dt, max_steps=1000)
        )
    except ConvergenceError:
        return
    assert res.converged
    assert np.all(res.psi.values.real > 0.0)
    assert l2_distance(res.psi, sol.psi) < 1e-5


def test_general_q6_on_fine_grid_converges_to_closed_form():
    # at a fixed step 0.01 this state ended in a period-2 ConvergenceError
    # (residuals 5e3 / 7e5 alternating)
    sol = case_general(1, 6.0)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    res = ground_state_from_coupling_values(sol.profile.evaluate(grid.r), 1.0, grid)
    assert res.converged
    assert np.all(res.psi.values.real > 0.0)
    assert l2_distance(res.psi, sol.psi) < 1e-5


def test_general_negative_q_converges_nodeless():
    # at a fixed step 0.01, q = -1 on this grid kept residual 2.0e2 after
    # 25,000 steps
    b = case_general(1, -1.0).profile.evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, 1.0, GRID8)
    assert res.converged and res.history[-1][1] < SolverOptions().convergence_tol
    assert np.all(res.psi.values.real > 0.0)


@pytest.mark.parametrize("r_max", [83.0, 120.0, 141.0])
def test_inverse_square_steps_do_not_grow_with_empty_tail(r_max):
    # at a fixed step 0.01 the flow had to fill the tail before Newton was
    # accepted: 309, 677 and 1,124 iterations
    sol = case_inverse_square(16, 0.5, 0.5)
    grid = RadialGrid.uniform_from_origin(r_max, 800)
    res = ground_state_from_coupling_values(
        sol.profile.evaluate(grid.r), sol.norm, grid, angular_weight=sol.angular_weight
    )
    assert res.converged and res.steps <= 100


def _energy_and_allowance(u, b, h, weight):
    """E_h = -a h (u.D2u + sum (w - b) u^2) from its definition, and the
    engine's roundoff allowance 1e-12 a h (|omega u.u| + |b.u^2|)."""
    r = np.arange(1, u.size + 1) * h
    w = b * np.log(np.maximum((u / r) ** 2, LOG_FLOOR))
    d2u = second_difference_dirichlet(u, h)
    omega = -(u @ d2u + w @ (u * u)) / (u @ u)
    energy = -weight * h * (u @ d2u + (w - b) @ (u * u))
    return energy, 1e-12 * weight * h * (abs(omega * (u @ u)) + abs(b @ (u * u)))


@settings(max_examples=15, deadline=None)
@given(b0=st.floats(0.5, 4.0), q=st.floats(-1.0, 3.0), N=st.floats(0.5, 8.0),
       n=st.integers(200, 800), dt=st.floats(0.005, 0.2))
# a collapsed state on which the flow stalls at dt ~ 1e-9, each step raising
# E_h by up to the allowance: accepted at its edge, a rise read over the
# allowance when E_h is summed in the order below
@example(b0=3.9375, q=-1.0, N=5.75, n=799, dt=0.05213535398556284)
def test_accepted_flow_steps_never_raise_discrete_energy(b0, q, N, n, dt):
    # every flow trial is seen through flow_step: a retry starts from the same
    # state at half the step; any other trial was accepted, and its E_h is at
    # most the E_h it started from plus the allowance
    grid = RadialGrid.uniform_from_origin(8.0, n)
    b = CouplingProfile(b0, q).evaluate(grid.r)
    trials = []

    def spy(u, w, omega, coupling, step, *rest):
        u_new, norm, info = flow_step(u, w, omega, coupling, step, *rest)
        trials.append((u, step, u_new.copy(), info == 0 and 0.0 < norm < math.inf))
        return u_new, norm, info

    flow_step = imagtime.flow_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imagtime, "flow_step", spy)
        try:
            res = ground_state_from_coupling_values(
                b, N, grid, SolverOptions(dt=dt, max_steps=300))
        except ConvergenceError:
            res = None
    rejected = 0
    for (u, step, u_new, finite), retry in zip(trials, trials[1:]):
        if retry[0] is u:
            assert retry[1] == step / 2.0
            rejected += 1
        else:
            assert finite
            energy, allowance = _energy_and_allowance(u, b, grid.h, 4 * PI)
            assert _energy_and_allowance(u_new, b, grid.h, 4 * PI)[0] <= energy + allowance
    if res is not None:
        assert rejected == res.rejected_steps


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
            np.full_like(GRID8.r, PI), 1.0, GRID8, SolverOptions(max_steps=max_steps)
        )


@pytest.mark.parametrize("psi0", [np.zeros_like(GRID8.r), np.full_like(GRID8.r, np.nan)])
def test_relax_rejects_guess_without_finite_norm(psi0):
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(np.full_like(GRID8.r, PI), 1.0, GRID8, psi0=psi0)


def test_relax_guess_may_be_a_wavefunction_or_its_values():
    coupling = CouplingProfile(PI, 0.0).evaluate(GRID8.r)
    psi0 = case_constant(1, PI).sample(GRID8)
    given_state = ground_state_from_coupling_values(coupling, 1.0, GRID8, psi0=psi0)
    given_values = ground_state_from_coupling_values(coupling, 1.0, GRID8,
                                                     psi0=psi0.values)
    assert np.array_equal(given_state.psi.values, given_values.psi.values)
    assert (given_state.omega, given_state.steps) == (given_values.omega, given_values.steps)


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
    energies = [relaxation_energy(psi, b)
                for psi in _engine_flow_iterates(b, grid, weight, None, 50)]
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


@pytest.mark.parametrize("r_max, error", [
    (1e-160, DomainError),       # h^2 underflows: 1/h^2 is inf
    (1e-200, DomainError),       # h^2 is 0
    (1e-100, ConvergenceError),  # the bisection does not converge (info 4)
])
def test_linear_on_a_vanishing_grid_raises_package_errors(r_max, error):
    with pytest.raises(error):
        linear_ground_state(np.zeros(16), 1.0, RadialGrid.uniform_from_origin(r_max, 16))


@pytest.mark.parametrize("V_ext", [np.zeros(GRID8.n_points - 1), np.zeros(2 * GRID8.n_points)],
                         ids=["one-node-short", "twice-the-nodes"])
def test_linear_potential_needs_one_value_per_node(V_ext):
    with pytest.raises(DomainError, match="one value per grid node"):
        linear_ground_state(V_ext, 1.0, GRID8)
