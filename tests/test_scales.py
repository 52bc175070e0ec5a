import math

import numpy as np
import pytest

from logse import (
    CouplingProfile,
    DomainError,
    ScaleSet,
    coupling_from_temperature,
    to_dimensionless,
    to_physical,
)


def test_tau_is_derived_not_stored():
    s = ScaleSet(hbar=3.0, mass=5.0, a=2.0)
    assert s.tau == 2.0 * 5.0 * 4.0 / 3.0
    assert s.energy == s.hbar / s.tau


@pytest.mark.parametrize("hbar,mass,a", [(0, 1, 1), (1, -2, 1), (1, 1, 0), (np.nan, 1, 1)])
def test_scales_reject_bad_constants(hbar, mass, a):
    with pytest.raises(DomainError):
        ScaleSet(hbar=hbar, mass=mass, a=a)


def test_unit_scales_make_conversion_identity():
    s = ScaleSet(hbar=1.0, mass=0.5, a=1.0)
    prof = to_dimensionless(b0=math.pi, q=1.0, scales=s)
    assert prof.b0_tilde == math.pi
    assert prof.q_tilde == 1.0


def test_zero_maps_to_zero():
    s = ScaleSet(hbar=2.0, mass=7.0, a=0.3)
    prof = to_dimensionless(0.0, 0.0, s)
    assert prof.b0_tilde == 0.0 and prof.q_tilde == 0.0


def test_printed_conversion_formulas():
    # b0_tilde = 2 m b0 a^2 / hbar^2, q_tilde = 2 m q / hbar^2
    prof = to_dimensionless(1.0, 1.0, ScaleSet(hbar=1.0, mass=1.0, a=2.0))
    assert prof.b0_tilde == 8.0
    assert prof.q_tilde == 2.0


def test_round_trip_recovers_physical_inputs():
    for hbar, mass, a, b0, q in [
        (1.0546e-34, 1.44e-25, 5.3e-9, 2.2e-23, 3.1e-40),
        (1.0, 0.5, 1.0, math.pi, 1.0),
        (2.0, 3.0, 0.25, -1.5, 0.75),
    ]:
        s = ScaleSet(hbar, mass, a)
        back_b0, back_q = to_physical(to_dimensionless(b0, q, s), s)
        assert back_b0 == pytest.approx(b0, rel=1e-15)
        assert back_q == pytest.approx(q, rel=1e-15)


def test_non_finite_coupling_inputs_rejected():
    s = ScaleSet(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        to_dimensionless(np.inf, 0.0, s)
    with pytest.raises(DomainError):
        CouplingProfile(b0_tilde=np.nan, q_tilde=0.0)


def test_profile_evaluate_and_sign_change():
    prof = CouplingProfile(b0_tilde=1.0, q_tilde=4.0)
    # b(r) = b0 - q/r^2 crosses zero at sqrt(q/b0) = 2
    assert prof.evaluate(2.0) == 0.0
    assert prof.evaluate(1.9) < 0.0 < prof.evaluate(2.1)
    with pytest.raises(DomainError):
        prof.evaluate(0.0)
    with pytest.raises(DomainError):  # NaN fails r > 0 but passes r <= 0 too
        prof.evaluate(np.array([1.0, np.nan]))


def test_coupling_from_temperature_values():
    assert coupling_from_temperature(5.0, 5.0, 3.0) == 0.0
    assert coupling_from_temperature(2.0, 1.0, 1.0) == 1.0
    assert coupling_from_temperature(300.0, 0.0, 0.01) == pytest.approx(3.0)


def test_coupling_from_temperature_is_odd_around_reference():
    for t0 in (0.0, 1.7, -4.0):
        for delta in (0.1, 2.5, 30.0):
            plus = coupling_from_temperature(t0 + delta, t0, 0.7)
            minus = coupling_from_temperature(t0 - delta, t0, 0.7)
            assert plus == pytest.approx(-minus, rel=1e-14, abs=1e-300)


def test_coupling_from_temperature_rejects_bad_scale():
    with pytest.raises(DomainError):
        coupling_from_temperature(1.0, 0.0, k_scale=0.0)
    with pytest.raises(DomainError):
        coupling_from_temperature(np.inf, 0.0)
