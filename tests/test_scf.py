"""Self-consistent minimal model: decoupling limits, scaling, and the
guarded coupled Newton solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logse import ConvergenceError, DomainError, RadialGrid, case_constant, l2_distance
from logse.numerics import (
    SolverOptions,
    f_constant_over_r,
    f_linear_density,
    f_zero,
    scf,
    self_consistent_minimal_model,
    solve_radial_poisson,
)
from logse.numerics.stencils import second_difference_dirichlet
from logse.observables import LOG_FLOOR

PI = math.pi


def box_mode(grid):
    r = grid.r
    span = grid.r_max + grid.h
    box = np.sin(PI * r / span) / r
    return box / math.sqrt(4 * PI * np.trapezoid((r * box) ** 2, r))


def test_constant_over_r_source_decouples_to_gausson():
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    res = self_consistent_minimal_model(
        f_constant_over_r(PI), 1.0, grid, SolverOptions(convergence_tol=1e-8)
    )
    sol = case_constant(1, PI)
    assert res.converged
    # the coupling driven by phi' is the constant b0 with no 1/r^2 part
    assert res.field.extracted_b0 == pytest.approx(PI, abs=1e-9)
    assert res.field.extracted_q == pytest.approx(0.0, abs=1e-9)
    assert np.max(np.abs(res.field.dphi - PI)) < 1e-10
    assert l2_distance(res.psi, sol.psi) < 5e-4
    assert res.omega == pytest.approx(sol.omega, rel=1e-3)


def test_point_charge_plus_extended_source_reaches_q1_member():
    # full loop: the 1/r source drives b0 -> pi while the point charge adds
    # the -1/r^2 part, so the coupled system must land on the q = 1 catalog
    # state (a pure Gaussian at N = 1, b0 = pi)
    from logse import case_q1

    grid = RadialGrid.uniform_from_origin(8.0, 512)
    res = self_consistent_minimal_model(
        f_constant_over_r(PI), 1.0, grid,
        SolverOptions(convergence_tol=1e-8), point_charge=1.0,
    )
    sol = case_q1(1, PI)
    assert res.field.extracted_q == pytest.approx(1.0, abs=1e-9)
    assert res.field.extracted_b0 == pytest.approx(PI, abs=1e-9)
    assert l2_distance(res.psi, sol.psi) < 5e-4
    assert res.omega == pytest.approx(sol.omega, rel=1e-3)


def test_zero_source_yields_linear_box_mode():
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    seed = box_mode(grid)
    res = self_consistent_minimal_model(
        f_zero, 1.0, grid, SolverOptions(convergence_tol=1e-7), psi0=seed * 1.05 + 0.01
    )
    assert res.converged
    assert np.max(np.abs(res.field.dphi)) == 0.0
    assert l2_distance(res.psi, box_mode(grid)) < 1e-4
    span = grid.r_max + grid.h
    assert res.omega == pytest.approx((PI / span) ** 2, rel=1e-3)


def test_weak_density_source_scales_linearly():
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    seed = box_mode(grid)
    strength = {}
    for eps in (1e-3, 5e-4):
        res = self_consistent_minimal_model(
            f_linear_density(eps), 1.0, grid,
            SolverOptions(convergence_tol=1e-9), psi0=seed,
        )
        strength[eps] = np.max(np.abs(res.field.dphi))
    assert strength[1e-3] / strength[5e-4] == pytest.approx(2.0, rel=0.02)


GRID512 = RadialGrid.uniform_from_origin(8.0, 512)


def own_field_check(res, f, grid, tol, point_charge=0.0):
    """The returned state against its own field: the field must be
    solve_radial_poisson of the state's density, the state nodeless (up to
    roundoff in the far tail), its stationary residual at the returned
    omega in that field below tol and its h-sum norm 4 pi h u.u equal to 1."""
    rho = res.psi.density()
    field = solve_radial_poisson(4 * PI * np.asarray(f(rho, grid.r), dtype=float), grid,
                                 point_charge=point_charge)
    assert np.array_equal(res.field.dphi, field.dphi)
    u = grid.r * res.psi.values.real
    assert u.min() > -1e-10 * u.max()
    w = field.dphi * np.log(np.maximum(rho, LOG_FLOOR))
    stationary = second_difference_dirichlet(u, grid.h) + w * u + res.omega * u
    assert np.max(np.abs(stationary)) / np.max(np.abs(u)) < tol
    assert 4 * PI * grid.h * (u @ u) == pytest.approx(1.0, rel=1e-12)


def test_history_and_sweep_accounting():
    opts = SolverOptions(convergence_tol=1e-10)
    res = self_consistent_minimal_model(f_linear_density(5.0), 1.0, GRID512, opts)
    lams, steps, residuals, omegas = map(np.array, zip(*res.history))
    # one row per coupled state: each rung's start (step 0) and every iterate
    assert res.sweeps == np.count_nonzero(steps) > 0
    assert lams[-1] == 1.0 and residuals[-1] < opts.convergence_tol
    assert omegas[-1] == res.omega
    # within the last rung the guard let every iterate lower the residual,
    # and the coupled Jacobian makes the fall quadratic
    last = np.flatnonzero(steps == 0)[-1]
    tail = residuals[last:]
    assert np.all(np.diff(tail) < 0)
    assert tail[-1] < 1e3 * tail[-2] ** 2


@pytest.mark.parametrize("iterate", ["tail", "minus"])
def test_coupled_newton_shares_the_relaxation_guard(monkeypatch, iterate):
    # a coupled Newton iterate whose last two nodes have flipped sign
    # (entries of about 1e-2 max u next to the wall of this box-like state)
    # is taken as |u| (imagtime.fold_shallow) and lands where the unaltered
    # ones do; -u is rejected at every rung, so the continuation gives up
    opts = SolverOptions(convergence_tol=1e-10)
    plain = self_consistent_minimal_model(f_linear_density(5.0), 1.0, GRID512, opts)
    update = scf.bordered_newton_update

    def altered(*args):
        u_new, norm = update(*args)
        if iterate == "minus":
            return -u_new, norm
        u_new[-2:] *= -1.0
        return u_new, norm

    monkeypatch.setattr(scf, "bordered_newton_update", altered)
    if iterate == "minus":
        with pytest.raises(ConvergenceError, match="rejected"):
            self_consistent_minimal_model(f_linear_density(5.0), 1.0, GRID512, opts)
        return
    res = self_consistent_minimal_model(f_linear_density(5.0), 1.0, GRID512, opts)
    assert res.sweeps == plain.sweeps > 0
    assert np.array_equal(res.psi.values, plain.psi.values)


def test_density_independent_source_takes_no_newton_step():
    # df/drho = 0: the field of the guess is the self-consistent field, so
    # the first rung's relaxation is the whole solve
    res = self_consistent_minimal_model(
        f_constant_over_r(PI), 1.0, GRID512, SolverOptions(convergence_tol=1e-8),
        point_charge=1.0,
    )
    assert res.sweeps == 0 and len(res.history) == 1
    assert res.history[0][:2] == (1.0, 0)
    own_field_check(res, f_constant_over_r(PI), GRID512, 1e-8, point_charge=1.0)


def test_density_independent_source_returns_the_relaxation(monkeypatch):
    # the relaxation's field is the self-consistent one, so the solve takes
    # one field gradient and one full Poisson solve, and omega and the
    # residual are the relaxation's own
    relaxations, gradients = [], []
    relax, gradient = scf.ground_state_from_coupling_values, scf.field_gradient
    monkeypatch.setattr(scf, "ground_state_from_coupling_values",
                        lambda *a, **k: relaxations.append(relax(*a, **k)) or relaxations[-1])
    monkeypatch.setattr(scf, "field_gradient",
                        lambda *a, **k: gradients.append(1) or gradient(*a, **k))
    res = self_consistent_minimal_model(f_constant_over_r(1.0), 1.0, GRID512,
                                        point_charge=0.5)
    (relaxed,) = relaxations
    assert len(gradients) == 1
    assert res.omega == relaxed.omega
    assert res.history == [(1.0, 0, relaxed.history[-1][1], relaxed.omega)]
    assert np.array_equal(res.psi.values, relaxed.psi.values)


def test_source_changed_by_the_relaxation_is_solved_in_its_own_field():
    # f is flat in rho away from rho = 0.5, so its forward difference
    # vanishes on the guess (rho <= 0.18) and the relaxation runs at lambda 1
    # in the field the guess sources; the relaxed density (peak near 1)
    # crosses 0.5 and sources another field, in which the relaxed state's
    # residual is 2.2, so the solve goes on to the rung
    def f(rho, r):
        return np.where(rho > 0.5, 2.0 * PI, PI) / (2.0 * PI * r)

    res = self_consistent_minimal_model(f, 1.0, GRID512)
    assert res.sweeps > 0
    own_field_check(res, f, GRID512, SolverOptions().convergence_tol)


def test_sweep_budget_exhaustion_raises_with_history():
    with pytest.raises(ConvergenceError) as err:
        self_consistent_minimal_model(
            f_linear_density(1.0), 1.0, GRID512,
            SolverOptions(convergence_tol=1e-8), max_sweeps=2,
        )
    # eps = 1 takes three Newton steps from the relaxed lambda = 0 state at
    # tol 1e-8
    assert [row[1] for row in err.value.history] == [0, 1, 2]
    assert "2 coupled Newton steps" in str(err.value)
    assert err.value.last.values.shape == GRID512.r.shape


@pytest.mark.parametrize("max_sweeps", [0, -1])
def test_zero_step_budgets_rejected(max_sweeps):
    # an empty budget would report an unsolved state
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    with pytest.raises(DomainError):
        self_consistent_minimal_model(f_constant_over_r(PI), 1.0, grid,
                                      max_sweeps=max_sweeps)


def assert_guarded(history):
    """Within a rung attempt (its rows from newton_step 0 on) every iterate
    but the last lowered the residual; a last one that did not was
    rejected, so the next attempt is at a smaller lambda."""
    starts = [k for k, row in enumerate(history) if row[1] == 0] + [len(history)]
    for a, b in zip(starts, starts[1:]):
        residuals = [row[2] for row in history[a:b]]
        assert all(new < old for old, new in zip(residuals[:-2], residuals[1:-1]))
        if b - a > 1 and not residuals[-1] < residuals[-2]:
            assert b < len(history) and history[b][0] < history[a][0]


@pytest.mark.parametrize("eps", [20.0, 30.0])
def test_strong_density_source_never_reports_false_convergence(eps):
    # the damped fixed-point iteration reported converged states here whose
    # residual in their own field was 5e2-7e2
    opts = SolverOptions()
    try:
        res = self_consistent_minimal_model(f_linear_density(eps), 1.0, GRID512, opts)
    except ConvergenceError as err:
        assert_guarded(err.value.history)
        return
    assert res.converged
    assert_guarded(res.history)
    own_field_check(res, f_linear_density(eps), GRID512, opts.convergence_tol)


def count_relaxations(monkeypatch):
    """Calls of the relaxation from the SCF, (args, result) as each returns."""
    calls = []
    relax = scf.ground_state_from_coupling_values

    def counted(*args, **kwargs):
        calls.append((args, relax(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(scf, "ground_state_from_coupling_values", counted)
    return calls


@pytest.mark.parametrize("eps, omega", [
    (5.0, 1.2287714), (10.0, 2.2119734), (20.0, 4.0770702), (30.0, 5.9038771),
])
def test_linear_density_relaxes_once_and_keeps_its_frequency(monkeypatch, eps, omega):
    # one relaxation, in the point charge's field alone (b = 0 here); the
    # continuation in lambda takes it from there by Newton steps
    calls = count_relaxations(monkeypatch)
    res = self_consistent_minimal_model(f_linear_density(eps), 1.0, GRID512)
    assert len(calls) == 1 and np.all(calls[0][0][0] == 0.0)
    assert res.omega == pytest.approx(omega, rel=1e-6)
    own_field_check(res, f_linear_density(eps), GRID512, SolverOptions().convergence_tol)


def test_tolerance_below_roundoff_fails_after_one_relaxation(monkeypatch):
    # the rungs cannot get the coupled residual below 1e-12 at n = 512; the
    # continuation gives up without relaxing again
    calls = count_relaxations(monkeypatch)
    with pytest.raises(ConvergenceError) as err:
        self_consistent_minimal_model(f_linear_density(1.0), 1.0, GRID512,
                                      SolverOptions(convergence_tol=1e-12))
    assert len(calls) == 1
    assert "continuation stopped" in str(err.value)
    assert err.value.last.values.shape == GRID512.r.shape


def test_relaxation_without_a_guess_starts_from_the_field(monkeypatch):
    # with no psi0 the relaxation builds its start from the field it relaxes
    # in, here b = pi - 0.5/r^2, instead of the r_max/8-wide Gaussian
    calls = count_relaxations(monkeypatch)
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    wide = np.exp(-0.5 * (grid.r / (grid.r_max / 8.0)) ** 2)
    for psi0 in (None, wide):
        res = self_consistent_minimal_model(f_constant_over_r(PI), 1.0, grid,
                                            point_charge=0.5, psi0=psi0)
        assert res.converged
    (_, far_field), (_, from_wide) = calls
    assert far_field.initial_exponent == pytest.approx(PI - 0.5 / grid.r_max**2, rel=1e-12)
    assert from_wide.initial_exponent is None
    assert far_field.steps < from_wide.steps


def test_source_map_without_derivative_uses_difference_quotient():
    def f(rho, r):  # f_linear_density(2) without its declared drho
        return 2.0 * rho

    opts = SolverOptions(convergence_tol=1e-10)
    plain = self_consistent_minimal_model(f, 1.0, GRID512, opts)
    declared = self_consistent_minimal_model(f_linear_density(2.0), 1.0, GRID512, opts)
    assert plain.omega == pytest.approx(declared.omega, rel=1e-9)
    assert l2_distance(plain.psi, declared.psi) < 1e-8


@settings(max_examples=12, deadline=None)
@given(st.one_of(
    st.tuples(st.just("constant_over_r"), st.floats(PI / 2, 2 * PI), st.floats(0.0, 1.0)),
    st.tuples(st.just("linear_density"), st.floats(1e-3, 30.0), st.floats(0.0, 1.0)),
))
def test_returned_states_are_self_consistent(case):
    kind, strength, charge = case
    f = f_constant_over_r(strength) if kind == "constant_over_r" else f_linear_density(strength)
    opts = SolverOptions()
    res = self_consistent_minimal_model(f, 1.0, GRID512, opts, point_charge=charge)
    assert res.converged
    own_field_check(res, f, GRID512, opts.convergence_tol, point_charge=charge)
