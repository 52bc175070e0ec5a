"""Strang-split real-time propagation: conservation and stationarity."""

import math

import numpy as np
import pytest

from logse import CouplingProfile, DomainError, RadialGrid, case_constant, case_general
from logse.numerics import SolverOptions, evolve_real_time

PI = math.pi


def test_stationary_gausson_phase_and_density():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, SolverOptions(dt=1e-4),
                           n_steps=1000, snapshot_stride=100)
    assert res.norm_drift < 1e-10
    rho0 = psi0.normalized().density()
    assert np.max(np.abs(res.psi.density() - rho0)) < 2e-5
    phase_target = -sol.omega * res.times[-1]
    assert res.phases[-1] == pytest.approx(phase_target, rel=1e-5)


def test_free_propagation_conserves_norm():
    grid = RadialGrid.uniform_from_origin(10.0, 2000)
    psi0 = case_constant(1, PI).sample(grid)
    res = evolve_real_time(psi0, CouplingProfile(0.0, 0.0),
                           SolverOptions(dt=1e-4), n_steps=1000)
    assert res.norm_drift < 1e-10
    # free spreading: the density does move
    assert np.max(np.abs(res.psi.density() - psi0.normalized().density())) > 1e-4


def test_variable_coupling_stationary_state():
    # the inner node is stiff (gain ~ dt q / h^2); stay below gain 1
    sol = case_general(1, 2.0)
    grid = RadialGrid.uniform_from_origin(10.0, 1500)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, SolverOptions(dt=2e-5), n_steps=5000)
    rho0 = psi0.normalized().density()
    assert np.max(np.abs(res.psi.density() - rho0)) < 5e-5
    assert res.phases[-1] == pytest.approx(-sol.omega * res.times[-1], rel=1e-3)


def test_skewed_q1_state_is_stationary():
    from logse import case_q1

    sol = case_q1(2, PI)  # k != 0: exp(k r) times Gaussian
    grid = RadialGrid.uniform_from_origin(10.0, 1500)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, SolverOptions(dt=2e-5), n_steps=2500)
    assert np.max(np.abs(res.psi.density() - psi0.normalized().density())) < 5e-5
    assert res.phases[-1] == pytest.approx(-sol.omega * res.times[-1], rel=1e-3)


def test_stiff_inner_node_warns():
    sol = case_general(1, 2.0)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    with pytest.warns(UserWarning, match="stiff"):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4),
                         n_steps=1)


def test_snapshots_and_times():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    res = evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4),
                           n_steps=500, snapshot_stride=100, keep_snapshots=True)
    assert len(res.snapshots) == 6  # t = 0 plus every 100 steps
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.05)
    assert np.all(np.diff(res.times) > 0)
    t, values = res.snapshots[-1]
    assert values.shape == grid.r.shape


def test_evolve_preconditions():
    sol = case_constant(1, PI)
    grid = RadialGrid.log(1e-3, 8.0, 256)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4), 10)
    grid = RadialGrid.uniform_from_origin(8.0, 256)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(), 10)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4), -3)
    with pytest.raises(DomainError):
        evolve_real_time(sol.sample(grid), sol.profile, SolverOptions(dt=1e-4), 10,
                         snapshot_stride=-1)
