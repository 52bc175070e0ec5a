"""Radial Poisson solver and asymptotic (q, b0) extraction."""


import numpy as np
import pytest

from logse import DomainError, RadialGrid
from logse.numerics import extract_coupling_asymptotics, solve_radial_poisson
from logse.numerics.poisson import field_gradient

GRID = RadialGrid.uniform_from_origin(100.0, 8192)


def test_linear_source_gives_linear_potential():
    # lap phi = 2 b0 / r  ->  phi = b0 r + const
    fs = solve_radial_poisson(2.0 / GRID.r, GRID, point_charge=0.0)
    assert np.max(np.abs(fs.dphi - 1.0)) < 1e-12
    drop = fs.phi - fs.phi[-1] - (GRID.r - GRID.r_max)
    assert np.max(np.abs(drop)) < 1e-10
    assert fs.extracted_q == pytest.approx(0.0, abs=1e-10)
    assert fs.extracted_b0 == pytest.approx(1.0, rel=1e-12)


def test_point_charge_green_function():
    # 1/r up to the gauge phi(r_max) = 0
    fs = solve_radial_poisson(np.zeros_like(GRID.r), GRID, point_charge=1.0)
    assert np.max(np.abs(fs.phi + 1.0 / GRID.r_max - 1.0 / GRID.r)) < 1e-10
    assert fs.extracted_q == pytest.approx(1.0, abs=1e-8)
    assert fs.extracted_b0 == pytest.approx(0.0, abs=1e-10)


def test_superposition_round_trip():
    fs = solve_radial_poisson(2.0 * 2.0 / GRID.r, GRID, point_charge=3.0)
    assert fs.extracted_q == pytest.approx(3.0, abs=1e-6)
    assert fs.extracted_b0 == pytest.approx(2.0, abs=1e-9)
    assert fs.fit_residual < 1e-8


@pytest.mark.parametrize("q,b0", [(0.0, 1.0), (3.0, 2.0), (1.0, 0.0),
                                  (-2.0, 0.5), (0.7, -1.2)])
def test_round_trip_property(q, b0):
    fs = solve_radial_poisson(2.0 * b0 / GRID.r, GRID, point_charge=q)
    assert abs(fs.extracted_q - q) < 1e-8
    assert abs(fs.extracted_b0 - b0) < 1e-8


def test_extraction_on_exact_basis_members():
    phi = 3.0 / GRID.r + 2.0 * GRID.r
    q, b0 = extract_coupling_asymptotics((GRID, phi))
    assert q == pytest.approx(3.0, abs=1e-8)
    assert b0 == pytest.approx(2.0, rel=1e-12)

    q, b0 = extract_coupling_asymptotics((GRID, np.full_like(GRID.r, 5.0)))
    assert abs(q) < 1e-10 and abs(b0) < 1e-10


def test_extraction_with_faster_decaying_perturbation():
    grid = RadialGrid.uniform(10.0, 100.0, 4000)
    phi = 3.0 / grid.r + 2.0 * grid.r + 0.01 / grid.r**2
    q, b0 = extract_coupling_asymptotics((grid, phi))
    # error bounded by the dropped O(1/r^2) term
    assert abs(q - 3.0) < 1e-3
    assert abs(b0 - 2.0) < 1e-6


def test_ill_conditioned_fit_reports_condition_number():
    grid = RadialGrid.uniform(1e7, 1e7 + 1.0, 128)
    with pytest.raises(DomainError, match="condition number"):
        extract_coupling_asymptotics((grid, grid.r.copy()))


def test_fit_needs_three_outer_nodes():
    # 3 unknowns: a 4-node grid leaves 2 rows and an exact but meaningless fit
    # (q -2.12, b0 0.935); 5 nodes leave 3 and recover the charges
    with pytest.raises(DomainError, match="4 nodes"):
        solve_radial_poisson(lambda r: 2.0 / r, RadialGrid.uniform_from_origin(8.0, 4),
                             point_charge=1.0)
    fs = solve_radial_poisson(lambda r: 2.0 / r, RadialGrid.uniform_from_origin(8.0, 5),
                              point_charge=1.0)
    assert fs.extracted_q == pytest.approx(1.0, rel=1e-12)
    assert fs.extracted_b0 == pytest.approx(1.0, rel=1e-12)


def test_non_integrable_source_rejected():
    with pytest.raises(DomainError, match="not integrable"):
        solve_radial_poisson(1.0 / GRID.r**4, GRID)


@pytest.mark.parametrize("source", [np.zeros(GRID.n_points - 1), np.zeros((2, GRID.n_points))],
                         ids=["one-node-short", "two-rows"])
def test_source_needs_one_value_per_node(source):
    with pytest.raises(DomainError, match="one value per grid node"):
        solve_radial_poisson(source, GRID)


def test_extraction_from_a_field_state_reads_its_fit():
    fs = solve_radial_poisson(4.0 / GRID.r, GRID, point_charge=3.0)
    assert extract_coupling_asymptotics(fs) == (fs.extracted_q, fs.extracted_b0)


def test_non_finite_inputs_rejected():
    bad = np.zeros_like(GRID.r)
    bad[5] = np.nan
    with pytest.raises(DomainError):
        solve_radial_poisson(bad, GRID)
    with pytest.raises(DomainError):
        solve_radial_poisson(np.zeros_like(GRID.r), GRID, point_charge=np.inf)


@pytest.mark.parametrize("point_charge", [0.0, 1.0, -0.5])
def test_field_gradient_is_the_solvers_dphi_bit_for_bit(point_charge):
    grid = RadialGrid.uniform_from_origin(8.0, 512)
    r = grid.r
    for source in (2.0 / r, 4.0 * np.exp(-r * r) + 1.0 / r, lambda x: np.cos(x) / x):
        dphi = solve_radial_poisson(source, grid, point_charge=point_charge).dphi
        assert np.array_equal(field_gradient(source, grid, point_charge), dphi)


@pytest.mark.parametrize("source, point_charge, match", [
    (1.0 / GRID.r**4, 0.0, "not integrable"),
    (np.full(GRID.n_points, np.nan), 0.0, "one value per grid node"),
    (np.zeros(GRID.n_points), np.inf, "must be finite"),
    (np.zeros(GRID.n_points), 1e308, "overflows"),
], ids=["non-integrable", "nan", "inf-charge", "overflowing-charge"])
def test_field_gradient_checks_like_the_solver(source, point_charge, match):
    with pytest.raises(DomainError, match=match):
        field_gradient(source, GRID, point_charge)
