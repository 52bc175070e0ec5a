"""Self-consistent minimal model: decoupling limits and scaling."""

import math

import numpy as np
import pytest

from logse import ConvergenceError, DomainError, RadialGrid, case_constant, l2_distance
from logse.numerics import (
    SolverOptions,
    f_constant_over_r,
    f_linear_density,
    f_zero,
    self_consistent_minimal_model,
)
from logse.numerics.scf import oscillation_detected

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


def test_history_and_sweep_accounting():
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    res = self_consistent_minimal_model(
        f_zero, 1.0, grid, SolverOptions(convergence_tol=1e-6), psi0=box_mode(grid)
    )
    assert len(res.history) == res.sweeps
    sweeps, psi_changes, coupling_changes = zip(*res.history)
    assert sweeps == tuple(range(1, res.sweeps + 1))
    assert psi_changes[-1] < 1e-6


def test_sweep_budget_exhaustion_raises_with_history():
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    with pytest.raises(ConvergenceError) as err:
        self_consistent_minimal_model(
            f_constant_over_r(PI), 1.0, grid,
            SolverOptions(convergence_tol=1e-12), max_sweeps=3,
        )
    assert len(err.value.history) == 3


def test_oscillation_detector_on_synthetic_sequences():
    decaying = list(np.geomspace(1.0, 1e-8, 200))
    assert not oscillation_detected(decaying)
    plateau = list(np.geomspace(1.0, 1e-4, 60)) + [1e-4] * 60
    assert oscillation_detected(plateau)
    ringing = list(np.geomspace(1.0, 1e-4, 60)) + [1e-4, 2e-4] * 30
    assert oscillation_detected(ringing)
    short = [1.0, 0.5, 0.25]
    assert not oscillation_detected(short)


@pytest.mark.parametrize("budget", [{"inner_steps": 0}, {"inner_steps": -1}, {"max_sweeps": 0}])
def test_zero_step_budgets_rejected(budget):
    # an empty budget would report the unrelaxed guess as converged
    grid = RadialGrid.uniform_from_origin(8.0, 128)
    with pytest.raises(DomainError):
        self_consistent_minimal_model(f_constant_over_r(PI), 1.0, grid, **budget)
