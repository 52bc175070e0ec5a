"""Strang-split real-time propagation: conservation and stationarity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve, solve_banded

from logse import (
    ConvergenceError,
    CouplingProfile,
    DomainError,
    RadialGrid,
    RadialWavefunction,
    case_constant,
    case_general,
)
from logse.numerics import SolverOptions, evolve_real_time
from logse.numerics.realtime import half_angle_phase

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


def _plain_strang(psi0, profile, dt, n_steps, stride, floor=1e-30):
    """Reference loop: half kick, banded Crank-Nicolson solve, half kick."""
    psi0 = psi0.normalized()
    r, h = psi0.grid.r, psi0.grid.h
    n = r.size
    u = r * psi0.values.astype(complex)
    u0 = u.copy()
    coupling = profile.evaluate(r)
    lam = 1j * dt / (2.0 * h * h)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -lam
    ab[1, :] = 1.0 + 2.0 * lam
    ab[2, :-1] = -lam

    def half_kick(vec):
        theta = 0.5 * dt * coupling * np.log(np.maximum(np.abs(vec / r) ** 2, floor))
        return vec * np.exp(1j * theta)

    def norm(vec):
        return psi0.angular_weight * h * float(np.sum(np.abs(vec) ** 2))

    times, norms, phases, snapshots = [0.0], [norm(u)], [0.0], [u / r]
    for step in range(1, n_steps + 1):
        u = half_kick(u)
        rhs = (1.0 - 2.0 * lam) * u
        rhs[:-1] += lam * u[1:]
        rhs[1:] += lam * u[:-1]
        u = half_kick(solve_banded((1, 1), ab, rhs))
        if step % stride == 0 or step == n_steps:
            times.append(step * dt)
            norms.append(norm(u))
            phases.append(float(np.angle(np.vdot(u0, u))))
            snapshots.append(u / r)
    return np.array(times), np.array(norms), np.unwrap(phases), snapshots, u / r


def test_fused_kicks_match_plain_strang_loop():
    # 1100 steps cross the 1000-step norm check (not a multiple of the stride
    # 7) and end off-stride, so every way a step can be closed is exercised
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, SolverOptions(dt=1e-4), n_steps=1100,
                           snapshot_stride=7, keep_snapshots=True)
    times, norms, phases, snapshots, final = _plain_strang(
        psi0, sol.profile, 1e-4, 1100, 7)
    assert len(res.snapshots) == len(snapshots) == 1100 // 7 + 2
    np.testing.assert_array_equal(res.times, times)
    np.testing.assert_allclose(res.norms, norms, rtol=1e-12)
    np.testing.assert_allclose(res.phases, phases, rtol=0, atol=1e-10)
    for (t, got), want, t_ref in zip(res.snapshots, snapshots, times):
        assert t == t_ref
        assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(res.psi.values - final)) < 1e-10


def test_fused_kicks_match_plain_strang_loop_on_criterion_6_grid():
    # criterion 6's grid and step: long stretches of fused kicks between
    # snapshots on a fine grid, against the same plain loop and bounds
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 4000)
    psi0 = sol.sample(grid)
    res = evolve_real_time(psi0, sol.profile, SolverOptions(dt=1e-4), n_steps=200,
                           snapshot_stride=50, keep_snapshots=True)
    times, norms, phases, snapshots, final = _plain_strang(
        psi0, sol.profile, 1e-4, 200, 50)
    assert len(res.snapshots) == len(snapshots) == 200 // 50 + 1
    np.testing.assert_array_equal(res.times, times)
    np.testing.assert_allclose(res.norms, norms, rtol=1e-12)
    np.testing.assert_allclose(res.phases, phases, rtol=0, atol=1e-10)
    for (t, got), want, t_ref in zip(res.snapshots, snapshots, times):
        assert t == t_ref
        assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(res.psi.values - final)) < 1e-10


def _phase_factor(theta):
    theta = np.asarray(theta, dtype=float)
    return half_angle_phase(theta / 2.0, np.empty(theta.shape, dtype=complex))


def test_half_angle_phase_matches_cos_sin():
    special = [0.0, PI / 2, -PI / 2, PI, -PI, 3 * PI, -3 * PI, 1e6, -1e6,
               5e-324, -5e-324, 2.2e-308]
    theta = np.concatenate([special, np.linspace(-50.0, 50.0, 200_001)])
    got = _phase_factor(theta)
    want = np.cos(theta) + 1j * np.sin(theta)
    assert np.max(np.abs(got.real - want.real)) <= 1e-15
    assert np.max(np.abs(got.imag - want.imag)) <= 1e-15
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-15
    assert _phase_factor([0.0])[0] == 1.0


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_half_angle_phase_of_non_finite_angle_is_nan():
    got = _phase_factor([np.inf, -np.inf, np.nan])
    assert np.all(np.isnan(got.real)) and np.all(np.isnan(got.imag))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 256), log_lam=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_kinetic_step_is_the_unitary_cayley_map(n, log_lam, seed):
    # with b = 0 both kicks are the identity and one step is the Cayley map
    # u -> (I+A)^-1 (I-A) u, A = i lam tridiag(-1, 2, -1), lam = dt / (2 h^2)
    lam = 10.0 ** log_lam
    grid = RadialGrid.uniform_from_origin(float(n), n)  # h = 1
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 = RadialWavefunction(grid, u / grid.r)
    res = evolve_real_time(psi0, CouplingProfile(0.0, 0.0),
                           SolverOptions(dt=2.0 * lam), n_steps=1)
    u_in = grid.r * psi0.normalized().values
    u_out = grid.r * res.psi.values
    norm_in, norm_out = np.sum(np.abs(u_in) ** 2), np.sum(np.abs(u_out) ** 2)
    assert abs(norm_out - norm_in) <= 1e-13 * norm_in
    a = 1j * lam * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    want = solve(np.eye(n) + a, (np.eye(n) - a) @ u_in)
    assert np.linalg.norm(u_out - want) <= 1e-12 * np.linalg.norm(u_in)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("n_steps, failing_step", [(3, 3), (1500, 1000)])
def test_nonfinite_state_raises_convergence_error(n_steps, failing_step):
    # finite inputs whose phase dt * b * ln(rho) overflows to inf: the kick
    # turns the state into NaN, caught at the norm check or the final step
    grid = RadialGrid.uniform_from_origin(8.0, 64)
    psi0 = case_constant(1, PI).sample(grid)
    with pytest.warns(UserWarning, match="stiff"):
        with pytest.raises(ConvergenceError, match=f"after {failing_step} steps"):
            evolve_real_time(psi0, CouplingProfile(1e308, 0.0), SolverOptions(dt=1.0),
                             n_steps=n_steps)
