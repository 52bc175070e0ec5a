import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from logse import (
    CouplingProfile,
    DomainError,
    RadialGrid,
    RadialWavefunction,
    case_constant,
    case_general,
    case_inverse_square,
    entropy,
    entropy_density,
    gp_expansion_error,
    information_content,
    information_profile,
    internal_energy,
    quantum_temperature,
)

PI = math.pi


def sample(sol, r_max=14.0, n=4001):
    return sol.sample(RadialGrid.uniform_from_origin(r_max, n))


# ----------------------------------------------------------- entropy density

def test_entropy_density_general_matches_printed_form():
    psi = sample(case_general(1, 2.0))
    r = psi.grid.r
    expected = 4.0 * PI**2 * r**4 * np.exp(-PI * r**2)
    assert np.max(np.abs(entropy_density(psi) - expected)) < 1e-12


def test_entropy_density_vanishes_for_unit_density():
    grid = RadialGrid.uniform(0.5, 2.0, 64)
    psi = RadialWavefunction(grid, np.ones(64), target_norm=1.0)
    assert np.all(entropy_density(psi) == 0.0)


def test_entropy_density_inverse_square_matches_closed_form():
    sol = case_inverse_square(1)
    psi = sample(sol, r_max=40.0, n=4001)
    r = psi.grid.r
    direct = entropy_density(psi)
    closed = sol.entropy_density_closed_form(r)
    assert np.max(np.abs(direct - closed)) < 1e-12


def test_entropy_density_underflow_nodes_contribute_zero():
    grid = RadialGrid.uniform(1.0, 60.0, 128)
    values = np.exp(-grid.r)  # density underflows past r ~ 350; force it
    values[-3:] = 0.0
    psi = RadialWavefunction(grid, values, target_norm=1.0)
    s = entropy_density(psi)
    assert np.all(np.isfinite(s))
    assert np.all(s[-3:] == 0.0)


# ------------------------------------------------------------------ entropy

@pytest.mark.parametrize("N", [1, 8])
def test_entropy_general_family(N):
    psi = sample(case_general(N, 2.0), r_max=10.0 * N ** (1 / 3.0))
    assert entropy(psi) == pytest.approx(1.5 * N, rel=1e-8)


def test_entropy_inverse_square_cases():
    psi = sample(case_inverse_square(2, 1.0, 0.0), r_max=80.0, n=8001)
    assert entropy(psi) == pytest.approx(8.0, rel=1e-8)


def test_entropy_integral_consistent_with_density():
    psi = sample(case_general(1, 2.0))
    s = entropy_density(psi)
    manual = simpson(s, x=psi.grid.r) + s[0] * psi.grid.r_min / 3.0
    assert entropy(psi) == pytest.approx(manual, rel=1e-10)


def test_entropy_converges_under_grid_refinement():
    # the exponential-profile case has algebraic quadrature error, so the
    # refinement trend is visible (Gaussians are already exact at n ~ 100)
    sol = case_inverse_square(1)
    errors = []
    for n in (129, 257, 513, 1025, 2049):
        psi = sol.sample(RadialGrid.uniform_from_origin(40.0, n))
        errors.append(abs(entropy(psi) - 3.0))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(ratio > 8.0 for ratio in ratios)  # ~4th-order composite Simpson
    assert errors[-1] < 1e-8


def test_entropy_invariant_under_global_phase():
    sol = case_general(1, 2.0)
    psi = sample(sol)
    rotated = RadialWavefunction(
        psi.grid, psi.values * np.exp(1j * 0.73), psi.target_norm
    )
    assert entropy(rotated) == pytest.approx(entropy(psi), rel=1e-14)


def test_entropy_warns_on_truncated_grid():
    psi = sample(case_constant(1, PI), r_max=2.0, n=200)
    with pytest.warns(UserWarning, match="truncated"):
        entropy(psi)


def test_nfree_relation_from_quadrature():
    # omega * S^(2/3) = pi (3/2)^(2/3) (3 - q) for the general family,
    # independent of N
    target = PI * 1.5 ** (2.0 / 3.0)
    for N in (1, 8, 64):
        sol = case_general(N, 2.0)
        s = entropy(sample(sol, r_max=12.0 * N ** (1 / 3.0), n=6001))
        assert sol.omega * s ** (2.0 / 3.0) == pytest.approx(target, rel=1e-8)


# -------------------------------------------------------------- temperature

def test_temperature_examples():
    assert quantum_temperature(CouplingProfile(PI, 0.0), 0.37) == PI
    assert quantum_temperature(CouplingProfile(0.0, 1.0), 1.0) == -1.0
    assert quantum_temperature(CouplingProfile(1.0, 4.0), 2.0) == 0.0


def test_temperature_equals_profile_everywhere():
    prof = CouplingProfile(0.8, -2.5)
    r = np.geomspace(1e-3, 50.0, 300)
    assert np.array_equal(quantum_temperature(prof, r), prof.evaluate(r))
    with pytest.raises(DomainError):
        quantum_temperature(prof, -1.0)
    with pytest.raises(DomainError):  # NaN fails r > 0 but passes r <= 0 too
        quantum_temperature(prof, [1.0, math.nan])


# ----------------------------------------------------------- internal energy

def test_internal_energy_constant_case_product():
    sol = case_constant(1, PI)
    psi = sample(sol, r_max=10.0, n=4001)
    report = internal_energy(psi, sol.profile)
    # constant temperature: the pairing reduces to T * S exactly
    assert report.entropy_term == sol.profile.b0_tilde * report.entropy
    assert report.entropy_term == pytest.approx(PI * 1.5, rel=1e-7)


def test_internal_energy_gaussian_kinetic_oracle():
    # psi = exp(-r^2/2)/pi^(3/4): brute-force quadrature gives kinetic 3/2
    grid = RadialGrid.uniform_from_origin(12.0, 6000)
    values = np.exp(-0.5 * grid.r**2) / PI**0.75
    psi = RadialWavefunction(grid, values, target_norm=1.0)
    report = internal_energy(psi, CouplingProfile(0.0, 0.0))
    assert report.entropy_term == 0.0
    assert report.potential == 0.0
    assert report.kinetic == pytest.approx(1.5, rel=2e-5)
    assert report.internal_energy == report.kinetic


def test_internal_energy_zero_temperature_reduces_to_hamiltonian():
    sol = case_general(1, 2.0)
    psi = sample(sol)
    report = internal_energy(psi, CouplingProfile(0.0, 0.0), V_ext=lambda r: r**2)
    assert report.internal_energy == pytest.approx(report.kinetic + report.potential)


def test_internal_energy_position_resolved_pairing_oracle():
    # r-dependent temperature: compare the split quadrature against a direct
    # adaptive integration of (b0 - q/r^2) s(r)
    sol = case_general(1, 2.0)
    psi = sample(sol, r_max=14.0, n=8001)
    prof = CouplingProfile(1.0, 4.0)

    def integrand(r):
        rho = sol.psi(r) ** 2
        if rho < 1e-280:
            return 0.0
        s = -4.0 * PI * r**2 * rho * math.log(rho)
        return (1.0 - 4.0 / r**2) * s

    oracle, _ = quad(integrand, 0.0, 30.0, limit=300)
    report = internal_energy(psi, prof)
    assert report.entropy_term == pytest.approx(oracle, rel=1e-7)


def test_internal_energy_temperature_offset_shifts_linearly():
    sol = case_constant(1, PI)
    psi = sample(sol, r_max=10.0, n=2001)
    base = internal_energy(psi, sol.profile)
    shifted = internal_energy(psi, sol.profile, temperature_offset=0.5)
    assert shifted.entropy_term == pytest.approx(
        base.entropy_term - 0.5 * base.entropy, rel=1e-12
    )


def test_internal_energy_of_stationary_states_equals_omega_N():
    # multiplying the stationary equation by psi* and integrating gives
    # kinetic + int T(r) s(r) dr = omega * N for every trapless
    # spherically symmetric member of the catalog; a strong cross-check of
    # the observables against the closed forms
    from logse import case_q1

    cases = [
        case_general(1, 2.0),
        case_general(8, -1.0),
        case_q1(2, PI),
        case_constant(8, PI),
        case_inverse_square(1),  # L2 = S_Y = 0: identity holds with weight 1
    ]
    for sol in cases:
        r_max = 14.0 if sol.case.value != "inverse_square" else 50.0
        psi = sample(sol, r_max=r_max, n=8001).normalized()
        report = internal_energy(psi, sol.profile)
        assert report.potential == 0.0
        assert report.internal_energy == pytest.approx(
            sol.omega * sol.norm, rel=2e-4
        ), sol.case


def test_entropy_simpson_path_on_skewed_q1_state():
    from logse import case_q1

    sol = case_q1(2, PI)  # k != 0: not a pure Gaussian
    psi = sample(sol, r_max=12.0, n=6001)
    assert entropy(psi) == pytest.approx(sol.entropy_closed_form(), rel=1e-8)


@pytest.mark.parametrize("offset", [math.nan, math.inf], ids=["nan", "inf"])
def test_internal_energy_rejects_non_finite_temperature_offset(offset):
    sol = case_constant(1, PI)
    with pytest.raises(DomainError, match="temperature_offset must be finite"):
        internal_energy(sample(sol, r_max=10.0, n=2001), sol.profile,
                        temperature_offset=offset)


def test_internal_energy_rejects_unnormalized_input():
    grid = RadialGrid.uniform_from_origin(10.0, 512)
    psi = RadialWavefunction(grid, np.exp(-grid.r), target_norm=1.0)
    with pytest.raises(DomainError):
        internal_energy(psi, CouplingProfile(1.0, 0.0))


@pytest.mark.parametrize("V_ext", [
    np.zeros(511),
    np.full(512, np.nan),
    lambda r: np.where(r > 5.0, np.inf, r**2),
], ids=["one-node-short", "nan", "callable-inf"])
def test_internal_energy_potential_needs_one_finite_value_per_node(V_ext):
    psi = case_constant(1, PI).sample(RadialGrid.uniform_from_origin(10.0, 512))
    with pytest.raises(DomainError, match="V_ext must be finite with one value per grid node"):
        internal_energy(psi, CouplingProfile(0.0, 0.0), V_ext=V_ext)


# ---------------------------------------------------------------- information

def test_information_content_bit_values():
    grid = RadialGrid.uniform(0.5, 2.0, 64)
    for density, bits in [(1.0, 0.0), (0.5, 1.0), (0.125, 3.0)]:
        psi = RadialWavefunction(grid, np.full(64, math.sqrt(density)), target_norm=1.0)
        assert information_content(psi, 1.0) == pytest.approx(bits, abs=1e-14)


@pytest.mark.parametrize("r", [100.0, -1.0, 0.5 - 1e-12, 2.0 + 1e-12, math.nan])
def test_information_content_refuses_radii_off_the_grid(r):
    grid = RadialGrid.uniform(0.5, 2.0, 64)
    psi = RadialWavefunction(grid, np.ones(64), target_norm=1.0)
    assert information_content(psi, 0.5) == information_content(psi, 2.0) == 0.0
    with pytest.raises(DomainError, match="outside the grid"):
        information_content(psi, r)


def test_information_profile_flags_zero_density():
    grid = RadialGrid.uniform(0.5, 2.0, 64)
    values = np.ones(64)
    values[10] = 0.0
    psi = RadialWavefunction(grid, values, target_norm=1.0)
    prof = information_profile(psi)
    assert math.isinf(prof[10])
    assert prof[0] == 0.0


# ------------------------------------------------------------------ GP limit

def test_gp_expansion_point_values():
    assert gp_expansion_error(1.0) == (0.0, 0.0, 0.0)
    log_t, cubic_t, diff = gp_expansion_error(1.1)
    assert log_t == pytest.approx(0.0953102, abs=1e-7)
    assert cubic_t == pytest.approx(0.1, rel=1e-15)
    assert diff == pytest.approx(-0.0046898, abs=1e-7)
    assert gp_expansion_error(0.9).difference == pytest.approx(-0.0053605, abs=1e-7)


def test_gp_expansion_lagrange_bound_on_sweep():
    for x in np.linspace(0.5, 2.0, 601):
        diff = gp_expansion_error(float(x)).difference
        bound = (x - 1.0) ** 2 / (2.0 * min(1.0, x) ** 2)
        assert abs(diff) <= bound + 1e-15


def test_gp_expansion_rejects_nonpositive():
    with pytest.raises(DomainError):
        gp_expansion_error(0.0)
    with pytest.raises(DomainError):
        gp_expansion_error(-2.0)
