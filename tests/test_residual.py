"""Discrete stationary-equation residuals of the analytic catalog.

The second-order truncation floor of the discrete radial Laplacian applied
to a Gaussian exp(-a r^2 / 2) is 1.25 a^2 h^2 at the origin, so the frozen
bounds below scale with the case width and the grid step; ratios under grid
doubling pin the convergence order instead of absolute magic numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logse import (
    DomainError,
    RadialGrid,
    RadialWavefunction,
    case_constant,
    case_general,
    case_inverse_square,
)
from logse.numerics import residual, residual_profile

PI = math.pi


def test_constant_case_residual_discretization_limited():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform(1e-3, 10.0, 4096)
    value = residual(sol.sample(grid), sol.omega, sol.profile)
    # truncation floor 1.25 * b0^2 * h^2 = 7.35e-5 on this grid
    assert value < 9e-5
    assert value > 5e-5  # it is discretization, not roundoff


def test_general_case_residual_values():
    grid = RadialGrid.uniform(1e-3, 12.0, 4096)
    sol1 = case_general(1, 2.0)
    assert residual(sol1.sample(grid), sol1.omega, sol1.profile) < 1.2e-4
    sol8 = case_general(8, 2.0)
    assert residual(sol8.sample(grid), sol8.omega, sol8.profile) < 8e-6


@pytest.mark.parametrize("make", [
    lambda: case_constant(1, PI),
    lambda: case_general(1, 2.0),
    lambda: case_general(8, -1.0),
])
def test_residual_second_order_convergence(make):
    sol = make()
    values = []
    for n in (1024, 2048, 4096):
        grid = RadialGrid.uniform(1e-3, 12.0, n)
        values.append(residual(sol.sample(grid), sol.omega, sol.profile))
    for coarse, fine in zip(values, values[1:]):
        ratio = coarse / fine
        # measured convergence order in [1.8, 2.2]
        assert 3.5 < ratio < 4.5


@settings(max_examples=20, deadline=None)
@given(log_N=st.floats(0.0, math.log(64.0)),
       q=st.one_of(st.floats(-1.0, -0.25), st.floats(0.25, 0.75), st.floats(1.25, 3.0)))
def test_residual_refinement_ratio_of_drawn_general_states(log_N, q):
    # criterion 1's draws: N log-uniform in [1, 64], q in [-1, 3] at least
    # 0.25 from 0 and 1; halving h quarters the residual (order 2)
    sol = case_general(math.exp(log_N), q)
    coarse, fine = (residual(sol.sample(RadialGrid.uniform(1e-3, 12.0, n)), sol.omega,
                             sol.profile) for n in (2048, 4096))
    assert 3.5 <= coarse / fine <= 4.5


def test_wrong_eigenvalue_leaves_constant_offset():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform(1e-3, 10.0, 4096)
    value = residual(sol.sample(grid), PI, sol.profile)  # true omega is 3 pi
    assert value == pytest.approx(2 * PI, rel=1e-3)


def test_inverse_square_residual_with_centrifugal_term():
    sol = case_inverse_square(2, 1.0, 0.0)
    grid = RadialGrid.uniform(1e-3, 60.0, 4096)
    value = residual(sol.sample(grid), sol.omega, sol.profile, l_sq=sol.L_sq)
    assert value < 3e-4
    # dropping the centrifugal term must leave an O(1/r^2) mismatch
    assert residual(sol.sample(grid), sol.omega, sol.profile) > 1.0


def test_residual_rejects_coarse_grids():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform(0.1, 10.0, 17)  # 15 interior points
    with pytest.raises(DomainError):
        residual(sol.sample(grid), sol.omega, sol.profile)


def test_residual_rejects_an_identically_zero_wavefunction():
    sol = case_constant(1, PI)
    psi = RadialWavefunction(RadialGrid.uniform(0.1, 10.0, 64), np.zeros(64))
    with pytest.raises(DomainError, match="identically zero"):
        residual(psi, sol.omega, sol.profile)


def test_residual_profile_excludes_boundary_rows():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform(1e-3, 10.0, 256)
    prof = residual_profile(sol.sample(grid), sol.omega, sol.profile)
    assert prof.shape == (254,)
