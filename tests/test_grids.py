import math

import numpy as np
import pytest

from logse import DomainError, RadialGrid, RadialWavefunction, case_constant, l2_distance

PI = math.pi


def test_grid_constructors_and_properties():
    g = RadialGrid.uniform(1e-3, 12.0, 256)
    assert g.r_min == 1e-3 and g.r_max == 12.0 and g.n_points == 256
    assert g.h == pytest.approx((12.0 - 1e-3) / 255)

    lg = RadialGrid.log(1e-3, 12.0, 256)
    assert lg.spacing == "log"
    with pytest.raises(DomainError):
        lg.h  # spacing undefined on log grids

    og = RadialGrid.uniform_from_origin(8.0, 512)
    assert og.origin_step() == og.h
    assert og.r_min == pytest.approx(og.h)
    for other in (g, lg):  # r_min != h, and no h at all
        with pytest.raises(DomainError):
            other.origin_step()


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(np.array([0.0, 1.0, 2.0, 3.0]))  # starts at the origin
    with pytest.raises(DomainError):
        RadialGrid(np.array([1.0, 0.5, 2.0, 3.0]))  # not increasing
    with pytest.raises(DomainError):
        RadialGrid(np.array([1.0, 2.0, 3.0, 4.0]), spacing="cubic")


def test_wavefunction_norm_and_normalize():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 2001)
    psi = sol.sample(grid)
    assert psi.norm() == pytest.approx(1.0, abs=1e-9)
    doubled = RadialWavefunction(grid, 2.0 * psi.values, target_norm=1.0)
    renorm = doubled.normalized()
    assert renorm.norm() == pytest.approx(1.0, rel=1e-12)
    assert doubled.is_normalized() is False


def test_l2_distance_accepts_callable_and_array():
    sol = case_constant(1, PI)
    grid = RadialGrid.uniform_from_origin(10.0, 1001)
    psi = sol.sample(grid)
    assert l2_distance(psi, sol.psi) == pytest.approx(0.0, abs=1e-14)
    assert l2_distance(psi, psi.values) == 0.0
    shifted = psi.values * 1.01
    assert l2_distance(psi, shifted) == pytest.approx(0.01 * math.sqrt(psi.norm()),
                                                      rel=1e-5)


def test_l2_distance_rejects_other_grid_or_shape():
    sol = case_constant(1, PI)
    psi = sol.sample(RadialGrid.uniform_from_origin(8.0, 640)).normalized()
    wider = sol.sample(RadialGrid.uniform_from_origin(16.0, 640)).normalized()
    coarser = sol.sample(RadialGrid.uniform_from_origin(8.0, 320))
    for other in (wider, coarser, coarser.values):
        with pytest.raises(DomainError):
            l2_distance(psi, other)


def test_wavefunction_shape_mismatch_rejected():
    grid = RadialGrid.uniform_from_origin(10.0, 64)
    with pytest.raises(DomainError):
        RadialWavefunction(grid, np.ones(32), target_norm=1.0)


def test_wavefunction_nonfinite_values_rejected():
    grid = RadialGrid.uniform_from_origin(10.0, 64)
    values = np.ones(64)
    values[5] = np.nan
    with pytest.raises(DomainError):
        RadialWavefunction(grid, values, target_norm=1.0)
