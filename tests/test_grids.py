import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, simpson

from logse import (
    CouplingProfile,
    DomainError,
    RadialGrid,
    RadialWavefunction,
    case_constant,
    l2_distance,
)
from logse.grids import integrate_radial
from logse.numerics import (
    SolverOptions,
    evolve_real_time,
    f_constant_over_r,
    ground_state_from_coupling_values,
    linear_ground_state,
    self_consistent_minimal_model,
)
from logse.numerics.poisson import enclosed_source

PI = math.pi


def test_grid_constructors_and_properties():
    g = RadialGrid.uniform(1e-3, 12.0, 256)
    assert g.r_min == 1e-3 and g.r_max == 12.0 and g.n_points == 256
    assert g.h == pytest.approx((12.0 - 1e-3) / 255)

    og = RadialGrid.uniform_from_origin(8.0, 512)
    assert og.origin_step() == og.h
    assert og.r_min == pytest.approx(og.h)
    with pytest.raises(DomainError):  # r_min != h
        g.origin_step()

    c1 = RadialGrid.uniform(1e-3, 12.0, 4096)  # criterion 1's grid: the linspace bits
    assert np.array_equal(c1.r, np.linspace(1e-3, 12.0, 4096))
    assert c1.h == c1.r[1] - c1.r[0]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["origin_step", "uniform"]), n=st.integers(4, 4097),
       r_max=st.floats(0.5, 1000.0), r_min_frac=st.floats(1e-4, 0.5),
       decay=st.floats(0.05, 2.0), origin_power=st.sampled_from([0, 2]))
def test_grid_rule_matches_scipy_simpson_plus_panel(kind, n, r_max, r_min_frac, decay,
                                                    origin_power):
    # scipy.integrate.simpson is the reference for the uniform weight vector
    if kind == "origin_step":
        grid = RadialGrid.uniform_from_origin(r_max, n)
    else:
        grid = RadialGrid.uniform(r_min_frac * r_max, r_max, n)
    r = grid.r
    f = r**origin_power * np.exp(-decay * r / r_max) + 0.25
    exact = simpson(f, x=r) + f[0] * r[0] / (origin_power + 1.0)
    assert abs(integrate_radial(grid, f, origin_power) - exact) <= 1e-13 * exact
    source = np.cos(decay * r) / r
    reference = cumulative_trapezoid(np.concatenate(([0.0], r * r * source)),
                                     np.concatenate(([0.0], r)), initial=0.0)[1:]
    assert np.array_equal(enclosed_source(source, r), reference)


@settings(max_examples=60, deadline=None)
@given(r_max=st.floats(0.5, 1000.0), n=st.integers(4, 20_000))
def test_uniformity_is_read_from_the_nodes(r_max, n):
    og = RadialGrid.uniform_from_origin(r_max, n)
    assert og.origin_step() == og.h == og.r[1] - og.r[0]
    assert RadialGrid.uniform(0.25 * r_max, r_max, n).h == pytest.approx(
        0.75 * r_max / (n - 1), rel=1e-9)
    with pytest.raises(DomainError, match="uniformly spaced"):
        RadialGrid(np.geomspace(0.5 * r_max, r_max, n))


# uniform nodes, but r_min != h: with the left ghost node at r = 0, where the
# solvers put it, the stencil's nodes are not uniform
OFF_ORIGIN = RadialGrid.uniform(0.5, 8.0, 640)


@pytest.mark.parametrize("solve", [
    lambda g: ground_state_from_coupling_values(np.full(g.n_points, PI), 1.0, g),
    lambda g: linear_ground_state(g.r**2, 1.0, g),
    lambda g: evolve_real_time(case_constant(1, PI).sample(g), CouplingProfile(PI, 0.0),
                               dt=1e-4, n_steps=1),
    lambda g: self_consistent_minimal_model(f_constant_over_r(1.0), 1.0, g),
], ids=["relaxation", "linear", "real_time", "scf"])
def test_solvers_reject_a_non_uniform_grid(solve):
    with pytest.raises(DomainError, match="r_min == h"):
        solve(OFF_ORIGIN)


def _evolve_counts(n_steps=1, snapshot_stride=0):
    grid = RadialGrid.uniform_from_origin(8.0, 64)
    evolve_real_time(case_constant(1, PI).sample(grid), CouplingProfile(PI, 0.0), dt=1e-4,
                     n_steps=n_steps, snapshot_stride=snapshot_stride)


COUNTS = {
    "max_steps": lambda v: SolverOptions(max_steps=v),
    "n_steps": lambda v: _evolve_counts(n_steps=v),
    "snapshot_stride": lambda v: _evolve_counts(snapshot_stride=v),
    "max_sweeps": lambda v: self_consistent_minimal_model(
        f_constant_over_r(1.0), 1.0, RadialGrid.uniform_from_origin(8.0, 64), max_sweeps=v),
}


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("value", [2.5, 1e9, True])
def test_iteration_counts_must_be_integers(name, value):
    # a float budget escaped as a TypeError from range or was rounded up by a
    # step counter; True was taken as 1
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        COUNTS[name](value)


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(np.array([0.0, 1.0, 2.0, 3.0]))  # starts at the origin
    with pytest.raises(DomainError):
        RadialGrid(np.array([1.0, 0.5, 2.0, 3.0]))  # not increasing


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


GRID64 = RadialGrid.uniform_from_origin(10.0, 64)


@pytest.mark.parametrize("build", [
    lambda: RadialGrid(np.array([0.5, 1.0, 2.0])),
    lambda: RadialGrid(np.array([1.0, 2.0, np.nan, 4.0])),
    lambda: RadialGrid(np.array([np.nan, 2.0, 3.0, 4.0])),
    lambda: RadialGrid(np.array([1.0, 2.0, 3.0, np.inf])),
    # r_min == r[1] - r[0] as on the solvers' grid, but the steps grow by 1% a node
    lambda: RadialGrid(np.concatenate([[0.01], 0.02 * 1.01 ** np.arange(560)])),
    lambda: RadialWavefunction(GRID64, np.ones(64), angular_weight=np.nan),
    lambda: RadialWavefunction(GRID64, np.ones(64), angular_weight=np.inf),
    lambda: RadialWavefunction(GRID64, np.ones(64), angular_entropy=np.nan),
    lambda: RadialWavefunction(GRID64, np.ones(64), angular_entropy=-np.inf),
], ids=["grid-of-3-nodes", "grid-nan-inside", "grid-nan-first", "grid-inf-last",
         "grid-stretched",
        "weight-nan", "weight-inf", "entropy-nan", "entropy-inf"])
def test_grid_and_wavefunction_parameters_rejected(build):
    with pytest.raises(DomainError):
        build()


def test_wavefunction_nonfinite_values_rejected():
    grid = RadialGrid.uniform_from_origin(10.0, 64)
    values = np.ones(64)
    values[5] = np.nan
    with pytest.raises(DomainError):
        RadialWavefunction(grid, values, target_norm=1.0)
