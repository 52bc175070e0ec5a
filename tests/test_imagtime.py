"""Imaginary-time relaxation against the closed-form catalog."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    effective_potential,
    l2_distance,
)
from logse.observables import LOG_FLOOR
from logse.numerics import (
    SolverOptions,
    evolve_real_time,
    ground_state_from_coupling_values,
    linear_ground_state,
)
from logse.numerics import f_constant_over_r, imagtime
from logse.numerics.poisson import field_gradient
from logse.numerics._lapack import TridiagonalSystem
from logse.numerics.stencils import second_difference_dirichlet
from closed_forms import effective_potential_closed_form

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
    # from the r_max/8-wide guess tol 1e-11 is reached in 23 steps on this
    # grid; 10 are not enough
    with pytest.raises(ConvergenceError) as err:
        ground_state_from_coupling_values(
            CouplingProfile(PI, 0.0).evaluate(GRID8.r), 1.0, GRID8,
            SolverOptions(max_steps=10, convergence_tol=1e-11),
            psi0=_default_guess(GRID8),
        )
    assert err.value.last is not None
    assert err.value.last.psi.values.shape == GRID8.r.shape
    # one history row per step
    assert len(err.value.history) == 10
    assert [row[0] for row in err.value.history] == list(range(1, 11))
    assert err.value.history[-1][1] > 1e-11


def test_relax_reaches_a_tolerance_just_above_the_roundoff_floor():
    # eps/h^2 = 1.42e-12 on GRID8; the residual's floor is about 2.95e-12;
    # from the r_max/8-wide guess the flow and Newton take 23 steps to 1e-11
    res = ground_state_from_coupling_values(
        CouplingProfile(PI, 0.0).evaluate(GRID8.r), 1.0, GRID8,
        SolverOptions(convergence_tol=1e-11), psi0=_default_guess(GRID8))
    assert res.converged and res.steps == 23


@pytest.mark.parametrize("grid, tol", [
    (GRID8, 1e-14),
    (GRID8, 1.4e-12),
    (RadialGrid.uniform_from_origin(1e-100, 16), 1e-6),
    (RadialGrid.uniform_from_origin(1e-200, 16), 1e-6),  # h*h underflows to 0
])
def test_relax_rejects_tolerance_below_roundoff_floor(grid, tol, monkeypatch):
    def no_step(*args):
        raise AssertionError("a flow step ran")

    monkeypatch.setattr(imagtime, "flow_step", no_step)
    with pytest.raises(DomainError, match="roundoff floor"):
        ground_state_from_coupling_values(np.full_like(grid.r, PI), 1.0, grid,
                                          SolverOptions(convergence_tol=tol))


def _default_guess(grid):
    """The Gaussian of width r_max/8: the engine's guess when psi0 is None
    and the coupling rises toward the origin or b(r_max) <= (r_max/8)^-2."""
    return np.exp(-0.5 * (grid.r_max / 8.0) ** -2 * grid.r**2)


def _reference_iterates(b, grid, weight, guess, n_steps, tol=None, step_rule=False):
    """(psi, residual, omega) after each step of the flow, solved by
    solveh_banded on the banded matrix and renormalized in the h-sum
    a h u.u (a = weight);
    stops early below tol.  The step is 0.01 throughout, or with step_rule
    it starts at 0.01 and follows the engine's rule: a step that raises E_h
    (here the h-sum of its definition) by more than 1e-12 times
    a h (|omega u.u| + |b.u^2|) is retried at half the step, and an accepted
    one multiplies the step by min(residual before / residual after, 2),
    the guess's residual counting as infinite."""
    r, h, dt = grid.r, grid.h, 0.01
    u = r * guess
    u *= math.sqrt(1.0 / (weight * h * (u @ u)))

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
        u_new *= math.sqrt(1.0 / (weight * h * (u_new @ u_new)))
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
    u = imagtime._initial_guess(grid, psi0, 1.0, weight)
    system = TridiagonalSystem(r.size, 1)
    iterates = []
    for _ in range(n_steps):
        w, _, omega, _ = imagtime.stationary(u, b, r, h)
        u, _, info = imagtime.flow_step(u, w, omega, b, imagtime._RELAX_DT, h, 1.0,
                                        weight, system)
        assert info == 0
        iterates.append(RadialWavefunction(grid, u / r, 1.0, weight))
    return iterates


@GAUSSON_AND_INVERSE_SQUARE
@pytest.mark.parametrize("guess", ["default", "broad"])
def test_engine_iterates_match_banded_reference_step(profile, grid, weight, guess):
    # the default guess vanishes at both ends; the broad one keeps u large at
    # r_max, where the even-n last-interval weights of the guess's grid-rule
    # norm act
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
    # to the first Newton step the guard accepts (the attempts before it are
    # rejected and leave no row), and Newton lands on the state the flow
    # converges to at any fixed step; from the r_max/8-wide guess, which
    # the flow has to reshape into the Gausson
    b = CouplingProfile(PI, 0.0).evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, 1.0, GRID8, SolverOptions(),
                                            psi0=_default_guess(GRID8))
    flow_steps = res.steps - res.newton_steps
    assert (flow_steps, res.newton_steps, res.rejected_steps) == (18, 4, 0)
    reference = _reference_iterates(b, GRID8, 4 * PI, _default_guess(GRID8), flow_steps,
                                    step_rule=True)
    assert len(reference) == flow_steps
    for row, (_, residual, omega) in zip(res.history, reference):
        assert row[1] == pytest.approx(residual, rel=1e-10), row[0]
        assert row[3] == pytest.approx(omega, rel=1e-12), row[0]
    converged = _reference_iterates(b, GRID8, 4 * PI, _default_guess(GRID8), 10_000,
                                    tol=1e-10)[-1][0]
    assert np.max(np.abs(res.psi.values - converged)) <= 1e-8 * np.max(np.abs(converged))


def test_default_gausson_starts_from_the_far_field_exponent():
    # b = pi is the Gausson's own exponent: from exp(-pi r^2/2) only the
    # discretization error is left to relax
    b = CouplingProfile(PI, 0.0).evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, 1.0, GRID8)
    old = ground_state_from_coupling_values(b, 1.0, GRID8, psi0=_default_guess(GRID8))
    assert res.converged and res.steps <= 3
    assert res.initial_exponent == PI and old.initial_exponent is None
    assert res.omega == pytest.approx(old.omega, rel=1e-12)


@pytest.mark.parametrize("profile, grid, weight", [
    (CouplingProfile(PI, -0.1), GRID8, 4 * PI),
    (CouplingProfile(PI, -0.5), GRID8, 4 * PI),
    (CouplingProfile(PI, -1.0), GRID8, 4 * PI),
    (CouplingProfile(0.0, 1.0), RadialGrid.uniform_from_origin(30.0, 800), 1.0),
    (CouplingProfile(1.0, 0.5), GRID8, 4 * PI),
], ids=["q-0.1", "q-0.5", "q-1", "inverse_square", "b0-1-q0.5"])
def test_start_stays_the_wide_gaussian_where_the_far_field_does_not_lead(profile, grid,
                                                                         weight):
    # b falls away from the origin (q < 0), or b(r_max) <= (r_max/8)^-2:
    # the run is the one from the r_max/8-wide guess, bit for bit
    b = profile.evaluate(grid.r)
    res = ground_state_from_coupling_values(b, 1.0, grid, angular_weight=weight)
    old = ground_state_from_coupling_values(b, 1.0, grid, angular_weight=weight,
                                            psi0=_default_guess(grid))
    assert res.initial_exponent == (grid.r_max / 8.0) ** -2
    assert np.array_equal(res.psi.values, old.psi.values)
    assert (res.omega, res.steps) == (old.omega, old.steps)


def test_far_field_start_allows_a_roundoff_rise_toward_the_origin():
    # the q = 0 constant-over-r field on (8, 1024) is pi to roundoff, with
    # inner nodes a few ulps above b(r_max)
    grid = RadialGrid.uniform_from_origin(8.0, 1024)
    b = field_gradient(4.0 * PI * f_constant_over_r(PI)(None, grid.r), grid, 0.0)
    assert b[:-1].max() > b[-1]
    res = ground_state_from_coupling_values(b, 1.0, grid)
    assert res.converged and res.initial_exponent == b[-1]


# the 15-state catalog at n = 800, each state with the L2 distance of its
# relaxed state to the closed form
_CATALOG_N800 = [
    ("constant N=1", case_constant(1, PI), 8.106e-05),
    ("constant N=8", case_constant(8, PI), 9.176e-04),
    ("constant N=64", case_constant(64, PI), 1.040e-02),
    ("general N=1 q=2", case_general(1, 2.0), 2.693e-05),
    ("general N=1 q=3", case_general(1, 3.0), 2.178e-05),
    ("general N=1 q=-0.5", case_general(1, -0.5), 4.330e-01),
    ("general N=1 q=-1", case_general(1, -1.0), 8.813e-01),
    ("general N=1 q=6", case_general(1, 6.0), 1.431e-05),
    ("general N=8 q=2", case_general(8, 2.0), 1.904e-05),
    ("q1 N=1", case_q1(1, PI), 3.671e-05),
    ("q1 N=2", case_q1(2, PI), 5.326e-05),
    ("q1 N=4", case_q1(4, PI), 7.524e-05),
    ("inverse_square N=1", case_inverse_square(1), 7.015e-05),
    ("inverse_square N=4", case_inverse_square(4), 1.403e-04),
    ("inverse_square N=16", case_inverse_square(16), 2.807e-04),
]


def _catalog_r_max(sol):
    """8 N^(1/3) for constant b, 30/mu^2 for the inverse-square tail, else 8."""
    if sol.mu_sq is not None:
        return 30.0 / sol.mu_sq
    return 8.0 * sol.norm ** (1 / 3) if sol.profile.q_tilde == 0.0 else 8.0


def test_catalog_work_count():
    # iteration counts do not depend on the machine; a change to the start
    # or to the step rule that costs iterations, or moves a state, shows here
    total = 0
    for name, sol, l2 in _CATALOG_N800:
        grid = RadialGrid.uniform_from_origin(_catalog_r_max(sol), 800)
        res = ground_state_from_coupling_values(sol.profile.evaluate(grid.r), sol.norm,
                                                grid, angular_weight=sol.angular_weight)
        assert res.converged, name
        assert l2_distance(res.psi, sol.psi) == pytest.approx(l2, rel=1e-2), name
        total += res.steps
    assert total <= 130


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_relax_blow_up_raises_with_last_finite_iterate():
    # b = 1e300 overflows the first step; the error carries the guess, whose
    # exponent is capped at 1/h^2 (exp(-1e300 r^2/2) is zero on every node)
    with pytest.raises(ConvergenceError, match="no finite positive norm") as err:
        ground_state_from_coupling_values(np.full_like(GRID8.r, 1e300), 1.0, GRID8)
    last = err.value.last
    assert last.steps == 0 and not last.converged and err.value.history == []
    assert last.initial_exponent == 1.0 / GRID8.h**2
    assert np.all(np.isfinite(last.psi.values))
    u = GRID8.r * last.psi.values
    assert 4.0 * PI * GRID8.h * (u @ u) == pytest.approx(1.0, rel=1e-12)


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
def test_relaxed_state_independent_of_dt(profile, grid, weight, monkeypatch):
    # the Rayleigh quotient inside the step makes the fixed point the discrete
    # stationary state for every dt, also where b(r) is not constant
    b = profile.evaluate(grid.r)
    coarse = ground_state_from_coupling_values(
        b, 1.0, grid, SolverOptions(), angular_weight=weight
    )
    monkeypatch.setattr(imagtime, "_RELAX_DT", 0.005)
    fine = ground_state_from_coupling_values(
        b, 1.0, grid, SolverOptions(), angular_weight=weight
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
    # the flow and Newton hold the h-sum norm a h u.u that E_h and omega
    # use, and the state handed back meets the stopping residual itself
    opts = SolverOptions()
    b = profile.evaluate(grid.r)
    res = ground_state_from_coupling_values(b, 1.0, grid, opts, angular_weight=weight)
    u = grid.r * res.psi.values.real
    w = b * np.log(np.maximum(res.psi.density(), LOG_FLOOR))
    hu = second_difference_dirichlet(u, grid.h) + w * u
    assert np.max(np.abs(hu + res.omega * u)) / np.max(np.abs(u)) < opts.convergence_tol
    assert weight * grid.h * (u @ u) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("dt", [None, 0.001])  # None: the default _RELAX_DT
@pytest.mark.parametrize("guess", ["default", "wide"])
def test_guard_never_returns_a_state_with_nodes(dt, guess, monkeypatch):
    # at a fixed step 0.01 the flow oscillated with period 2 on this grid and
    # never handed over; Newton started from early flow iterates lands on
    # states with nodes (-psi, or hundreds of nodes), which the guard
    # rejects.  From the r_max/8-wide guess Newton is tried from the first
    # flow step on, and its first iterates have lobes down to -3 max(u)
    sol = case_general(1, 6.0)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    psi0 = _default_guess(grid) if guess == "wide" else None
    if dt is not None:
        monkeypatch.setattr(imagtime, "_RELAX_DT", dt)
    try:
        res = ground_state_from_coupling_values(
            sol.profile.evaluate(grid.r), 1.0, grid, SolverOptions(max_steps=1000),
            psi0=psi0,
        )
    except ConvergenceError:
        return
    assert res.converged
    assert np.all(res.psi.values.real > 0.0)
    assert l2_distance(res.psi, sol.psi) < 1e-5


def test_guard_folds_a_shallow_tail_overshoot_and_rejects_deep_lobes():
    r = GRID8.r
    psi = r * np.exp(-0.5 * r**2)
    tail = psi.copy()
    tail[r > 3.5] = -2.9e-4 * psi.max()  # the point charge's first Newton iterate
    folded = imagtime.fold_shallow(tail.copy())
    assert np.array_equal(folded, np.abs(tail))
    lobe = psi * (1.0 - 0.3 * r**2)  # a node at r = 1.8 and a lobe of -0.29 max(u)
    assert imagtime.fold_shallow(lobe.copy()) is None
    assert imagtime.fold_shallow(-psi) is None
    assert np.array_equal(imagtime.fold_shallow(psi.copy()), psi)


@pytest.mark.parametrize("iterate, newton", [("tail", True), ("minus", False)])
def test_relaxation_takes_folded_iterates_and_never_minus_psi(monkeypatch, iterate, newton):
    # the engine's Newton iterates with a shallow negative tail are taken
    # as |u| and land where the unaltered ones do; -u is never taken, and
    # the flow converges on its own (q = 1: for q = 2 the flow alone stalls)
    b = CouplingProfile(PI, 1.0).evaluate(GRID8.r)
    plain = ground_state_from_coupling_values(b, 1.0, GRID8)
    update = imagtime.bordered_newton_update

    def altered(*args):
        u_new, norm = update(*args)
        if iterate == "minus":
            return -u_new, norm
        u_new[GRID8.r > 2.5] *= -1.0  # entries up to about 4e-4 max(u)
        return u_new, norm

    monkeypatch.setattr(imagtime, "bordered_newton_update", altered)
    res = ground_state_from_coupling_values(b, 1.0, GRID8)
    assert res.converged and np.all(res.psi.values.real > 0.0)
    if newton:
        assert (res.steps, res.newton_steps) == (plain.steps, plain.newton_steps)
        assert np.array_equal(res.psi.values, plain.psi.values)
    else:
        assert res.newton_steps == 0
        assert res.omega == pytest.approx(plain.omega, rel=1e-6)


def test_point_charge_relaxation_takes_newton_from_the_first_flow_step():
    # `logse field --point-charge 0.5` relaxes in this field; the residual's
    # maximum sits at the origin, where the flow alternated for 12 steps
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    b = field_gradient(4.0 * PI * f_constant_over_r(1.0)(None, grid.r), grid, 0.5)
    res = ground_state_from_coupling_values(b, 1.0, grid)
    reference = ground_state_from_coupling_values(
        b, 1.0, grid, SolverOptions(convergence_tol=1e-11))
    assert res.converged and res.steps <= 6
    assert abs(res.omega - reference.omega) <= 1e-9
    assert np.all(res.psi.values.real > 0.0)


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


def _discrete_energy(psi, b):
    """E_h of a state on an origin-step grid, in its own angular weight."""
    grid = psi.grid
    return _energy_and_allowance(grid.r * psi.values.real, b, grid.h,
                                 psi.angular_weight)[0]


@settings(max_examples=15, deadline=None)
@given(b0=st.floats(0.5, 4.0), q=st.floats(-1.0, 3.0), N=st.floats(0.5, 8.0),
       n=st.integers(200, 800), dt=st.floats(0.005, 0.2))
# a collapse onto the origin (origin scale 1.83, E_h -1.5e5) on which the
# flow stalls at dt 5.5e-5: after five rejected trials it accepts a step that
# raises E_h, summed in the order below, by 0.94 of the allowance; Newton
# then reaches the grid-scale refusal after 148 iterations and 7 rejected
# trials
@example(b0=1.6335995286236717, q=-0.5708254172677139, N=4.269341725427553, n=704,
         dt=0.008186874773771455)
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
        patch.setattr(imagtime, "_RELAX_DT", dt)
        try:
            res = ground_state_from_coupling_values(
                b, N, grid, SolverOptions(max_steps=300))
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
    assert _discrete_energy(res.psi, b) < _discrete_energy(sol.sample(GRID8), b) - 0.1
    assert l2_distance(res.psi, sol.psi) > 0.1


def test_relaxation_refuses_a_converged_grid_scale_collapse():
    # for q < 0 at N = 8 Newton reaches a state as narrow as the grid
    # (rho(r_min) 4.6e5, omega -3.0e4), which is not a ground state of the
    # continuum; at N = 1 the same q relaxes to a resolved hole state
    b = CouplingProfile(PI, -0.5).evaluate(GRID8.r)
    with pytest.raises(ConvergenceError, match="grid-scale state") as err:
        ground_state_from_coupling_values(b, 8.0, GRID8)
    last = err.value.last
    assert not last.converged
    assert imagtime.origin_scale(GRID8.r * last.psi.values.real, GRID8.h) > 1.0
    res = ground_state_from_coupling_values(b, 1.0, GRID8)
    assert imagtime.origin_scale(GRID8.r * res.psi.values.real, GRID8.h) < 2e-2


@pytest.mark.parametrize("n, N, q", [(640, 1.0, -0.2), (2560, 8.0, -0.15),
                                     (2560, 8.0, -0.18), (2560, 8.0, -0.25)])
def test_collapse_is_refused_within_the_budget(n, N, q):
    # the flow renormalizes in the h-sum a h u.u, the norm in which E_h and
    # omega are taken, so its E_h falls along the collapse and the run meets
    # the grid-scale refusal in 24 to 659 iterations, within the budget
    grid = RadialGrid.uniform_from_origin(8.0, n)
    b = CouplingProfile(PI, q).evaluate(grid.r)
    with pytest.raises(ConvergenceError, match="grid-scale state"):
        ground_state_from_coupling_values(b, N, grid, SolverOptions(max_steps=1000))


def test_budget_exhausted_on_a_grid_scale_collapse_names_the_collapse():
    # q = -1, N = 1 on (8, 2560) collapses by step 11 (omega -1.3e6) and
    # then stalls above tol; the budget's end names the collapse, not only
    # the budget
    grid = RadialGrid.uniform_from_origin(8.0, 2560)
    b = CouplingProfile(PI, -1.0).evaluate(grid.r)
    with pytest.raises(ConvergenceError, match="stalled above tol") as err:
        ground_state_from_coupling_values(b, 1.0, grid, SolverOptions(max_steps=50))
    found = re.search(r"grid-scale state after 50 steps: .*\(omega (\S+), "
                      r"rho\(r_min\) (\S+)\)", str(err.value))
    assert found and float(found[1]) < -1e6 and float(found[2]) > 1e6
    last = err.value.last
    assert last.steps == 50 and not last.converged
    assert imagtime.origin_scale(grid.r * last.psi.values.real, grid.h) > 1.0


def _relaxed_on_grid8(b0, q, N):
    """(u, E_h) of the state relaxed at tol 1e-11 in b0 - q/r^2 on GRID8."""
    b = CouplingProfile(b0, q).evaluate(GRID8.r)
    res = ground_state_from_coupling_values(b, N, GRID8,
                                            SolverOptions(convergence_tol=1e-11))
    u = GRID8.r * res.psi.values.real
    return u, _energy_and_allowance(u, b, GRID8.h, 4 * PI)[0]


@pytest.mark.parametrize("q, N", [(0.0, 1.0), (2.0, 1.0), (1.0, 2.0)],
                         ids=["gausson", "general-q2", "q1-N2"])
def test_energy_derivative_in_b0_is_entropy_plus_norm(q, N):
    # b0 enters E_h only as -b0 a h sum r^2 (rho ln rho - rho), so at the
    # minimizer on a h u.u = N the envelope theorem gives
    # dE_h*/db0 = S_h + N_h; central differences at delta = 1e-4 miss it by
    # 1.4e-10 (Gausson), 8.1e-11 and 5.6e-11, and by up to 1.5e-8 when the
    # norm is held in the grid rule
    r, h, weight, delta = GRID8.r, GRID8.h, 4 * PI, 1e-4
    u, _ = _relaxed_on_grid8(PI, q, N)
    rho = (u / r) ** 2
    entropy = -weight * h * np.sum(r**2 * rho * np.log(np.maximum(rho, LOG_FLOOR)))
    target = entropy + weight * h * (u @ u)
    slope = (_relaxed_on_grid8(PI + delta, q, N)[1]
             - _relaxed_on_grid8(PI - delta, q, N)[1]) / (2 * delta)
    assert abs(slope - target) <= 2e-10 * abs(target)


@pytest.mark.parametrize("q, N", [(2.0, 1.0), (1.0, 2.0), (0.5, 1.0), (3.0, 8.0)],
                         ids=["q2-N1", "q1-N2", "q0.5-N1", "q3-N8"])
def test_energy_derivative_in_q_is_the_log_sum(q, N):
    # q enters E_h only through b r^2 = b0 r^2 - q, as q a h sum (rho ln rho
    # - rho), so the envelope theorem gives dE_h*/dq = a h sum (rho ln rho
    # - rho); central differences at delta = 1e-4 miss it by 1.9e-12,
    # 3.4e-11, 2.1e-12 and 3.0e-11.  q = 0 is left out: below it the
    # relaxation's start switches to the r_max/8-wide Gaussian
    r, h, weight, delta = GRID8.r, GRID8.h, 4 * PI, 1e-4
    u, _ = _relaxed_on_grid8(PI, q, N)
    rho = (u / r) ** 2
    target = weight * h * np.sum(rho * np.log(np.maximum(rho, LOG_FLOOR)) - rho)
    slope = (_relaxed_on_grid8(PI, q + delta, N)[1]
             - _relaxed_on_grid8(PI, q - delta, N)[1]) / (2 * delta)
    assert abs(slope - target) <= 2e-10 * abs(target)


@pytest.mark.parametrize("n, returned", [(32, True), (64, True), (16, False)])
def test_coarse_grid_gausson_is_refused_only_below_two_nodes_per_width(n, returned):
    # the Gausson's origin scale is about 2 h^2 b: 0.43 on (8, 32), 1.67 on
    # (8, 16), where its width 1/sqrt(pi) is about one step
    grid = RadialGrid.uniform_from_origin(8.0, n)
    b = np.full(n, PI)
    if returned:
        assert ground_state_from_coupling_values(b, 1.0, grid).converged
    else:
        with pytest.raises(ConvergenceError, match="grid-scale state"):
            ground_state_from_coupling_values(b, 1.0, grid)


def test_coupling_array_must_be_finite():
    bad = np.full_like(GRID8.r, np.nan)
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(bad, 1.0, GRID8, SolverOptions())


def test_linear_state_and_propagator_start_hold_the_h_sum_norm():
    # the engines' one norm is a h sum |u|^2 (a = angular weight); on the
    # inverse-square grid the grid rule differs from it by 1.0e-7 relative
    grid = RadialGrid.uniform_from_origin(30.0, 800)
    sol = case_inverse_square(1)
    psi, _ = linear_ground_state(effective_potential(sol, grid.r), sol.norm, grid,
                                 angular_weight=1.0)
    res = evolve_real_time(sol.sample(grid), sol.profile.evaluate(grid.r), dt=1e-4, n_steps=1,
                           keep_snapshots=True)
    t0, values = res.snapshots[0]
    assert t0 == 0.0
    for state in (psi.values, values):
        u = grid.r * state
        assert grid.h * np.sum(np.abs(u) ** 2) == pytest.approx(sol.norm, rel=1e-12)


def test_engines_require_origin_step_grid():
    # a uniform grid whose r_min is not h puts the left ghost node off r = 0
    grid = RadialGrid.uniform(0.5, 8.0, 640)
    sol = case_constant(1, PI)
    with pytest.raises(DomainError):
        ground_state_from_coupling_values(sol.profile.evaluate(grid.r), 1.0, grid)
    with pytest.raises(DomainError):
        linear_ground_state(np.zeros_like(grid.r), 1.0, grid)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile.evaluate(grid.r), dt=1e-4, n_steps=10)


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
# E_h, the functional the relaxation decreases, from its definition

def test_energy_variation_reproduces_stationary_identity():
    # the variation of E_h along du is -2 a h du.Hu, so at a stationary point
    # (H u = -omega u) the directional derivative along delta must equal
    # 2 omega a h (r delta).(r psi); the closed form is stationary up to D2's
    # O(h^2) truncation (2.4e-6 relative on this grid)
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 3000)
    r = grid.r
    psi = sol.psi(r)
    delta = r**2 * np.exp(-(r**2))
    eps = 1e-6

    def energy(vals):
        return _discrete_energy(RadialWavefunction(grid, vals, target_norm=1.0),
                                sol.profile.evaluate(r))

    derivative = (energy(psi + eps * delta) - energy(psi - eps * delta)) / (2 * eps)
    overlap = 4 * PI * grid.h * ((r * delta) @ (r * psi))
    assert derivative == pytest.approx(2 * sol.omega * overlap, rel=1e-5)


@pytest.mark.parametrize("N, q", [(1, 2.0), (1, -0.5), (8, 3.0)])
def test_relaxation_energy_matches_general_closed_form(N, q):
    # E = a N (4 - 3q) with a = pi / N^(2/3).  For q != 0 the log term's
    # summand -b r^2 (rho ln rho - rho) tends to q (rho0 ln rho0 - rho0) at
    # the origin, which the h-sum over r = h, 2h, ... leaves out; with the
    # trapezoid's end term (a h/2) q (rho0 ln rho0 - rho0) E_h of the
    # sampled closed form misses by 7.7e-5, 2.8e-5 and 7.7e-6, second order
    sol = case_general(N, q)
    exact = PI / N ** (2.0 / 3.0) * N * (4.0 - 3.0 * q)
    rho0 = abs(sol.psi(0.0)) ** 2
    end = 2 * PI * GRID8.h * q * (rho0 * math.log(rho0) - rho0)
    energy = _discrete_energy(sol.sample(GRID8), sol.profile.evaluate(GRID8.r)) + end
    assert abs(energy - exact) / abs(exact) < 2e-4


def test_relaxation_energy_monotone_along_flow():
    # the explicit normalized gradient flow of E_h, renormalized in the h-sum
    grid = RadialGrid.uniform_from_origin(8.0, 400)
    r = grid.r
    h = grid.h
    b = CouplingProfile(PI, 0.0).evaluate(r)
    dt = 0.2 * h * h
    u = r * np.exp(-0.7 * r**2)
    u /= math.sqrt(4 * PI * h * (u @ u))

    energies = [_energy_and_allowance(u, b, h, 4 * PI)[0]]
    for _ in range(400):
        rho = (u / r) ** 2
        w = b * np.log(np.maximum(rho, LOG_FLOOR))
        u = u + dt * (second_difference_dirichlet(u, h) + w * u)
        u *= math.sqrt(1.0 / (4 * PI * h * (u @ u)))
        energies.append(_energy_and_allowance(u, b, h, 4 * PI)[0])
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10 * max(1.0, abs(energies[0])))


@GAUSSON_AND_INVERSE_SQUARE
def test_relaxation_energy_monotone_along_engine_iterates(profile, grid, weight):
    # at the fixed step _RELAX_DT, without the step rule's energy check
    b = profile.evaluate(grid.r)
    energies = [_discrete_energy(psi, b)
                for psi in _engine_flow_iterates(b, grid, weight, None, 50)]
    assert np.all(np.diff(energies) <= 1e-10 * max(1.0, abs(energies[0])))


# ---------------------------------------------------- linear ground states

def test_linear_harmonic_recovers_gausson():
    sol = case_constant(1, PI)
    psi, omega = linear_ground_state(
        lambda r: effective_potential_closed_form(sol, r), 1.0, GRID8, SolverOptions()
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
