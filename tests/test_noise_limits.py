"""Vapor statistics and the counting-noise sensitivity floors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from rydsag.errors import DomainError, InvalidParameterError
from rydsag.noise_limits import (
    CellGeometry,
    LimitInputs,
    atomic_shot_noise,
    cs_number_density,
    cs_vapor_pressure,
    equivalent_frequency_noise,
    limits_report,
    photon_rate,
    photon_shot_noise,
)

# frozen from a direct evaluation of the Alcock-correlation expression,
# the ideal-gas law, and cylinder volumes (independent arithmetic)
VAPOR_PRESSURE_299_15 = 2.2327544558286305e-4
VAPOR_PRESSURE_305 = 4.105249560142602e-4
DENSITY_299_15 = 5.405908304570794e16
BEAM_ATOMS = 24455753014.492306
BORE_ATOMS = 2653619033690.5723
PHOTON_RATE_DEFAULT = 750895119860379.9


def test_vapor_pressure_solid_branch_frozen():
    assert cs_vapor_pressure(299.15) == pytest.approx(
        VAPOR_PRESSURE_299_15, rel=1e-12)


def test_vapor_pressure_liquid_branch_frozen():
    assert cs_vapor_pressure(305.0) == pytest.approx(VAPOR_PRESSURE_305, rel=1e-12)


def test_vapor_pressure_domain():
    for t in (249.9, 400.1, float("nan"), -5.0):
        with pytest.raises(DomainError):
            cs_vapor_pressure(t)
    # endpoints are valid
    cs_vapor_pressure(250.0)
    cs_vapor_pressure(400.0)


def test_vapor_pressure_branches_meet_near_melting_point():
    # the two correlations are independent fits; they disagree by a few
    # percent at the melting point but the piecewise curve still rises
    below = cs_vapor_pressure(301.59 - 1e-9)
    above = cs_vapor_pressure(301.59)
    assert above > below
    assert abs(above - below) / below < 0.05


@settings(max_examples=50, deadline=None)
@given(
    t1=st.floats(min_value=250.0, max_value=400.0),
    t2=st.floats(min_value=250.0, max_value=400.0),
)
def test_vapor_pressure_monotone_in_temperature(t1, t2):
    lo, hi = sorted((t1, t2))
    assert cs_vapor_pressure(lo) <= cs_vapor_pressure(hi)


def test_number_density_frozen():
    assert cs_number_density(299.15) == pytest.approx(DENSITY_299_15, rel=1e-12)


def test_atom_number_for_beam_and_bore():
    report = limits_report(LimitInputs())
    assert report["beam_atom_number"] == pytest.approx(BEAM_ATOMS, rel=1e-12)
    assert report["bore_atom_number"] == pytest.approx(BORE_ATOMS, rel=1e-12)


def test_geometry_validation():
    with pytest.raises(InvalidParameterError):
        CellGeometry(beam_radius=13.0e-3, cell_radius=12.5e-3)
    with pytest.raises(InvalidParameterError):
        CellGeometry(length=0.0)


def test_atomic_shot_noise_round_numbers():
    assert atomic_shot_noise(1.0, 1.0e12) == 1.0e-6
    assert atomic_shot_noise(2.0, 1.0e12) == 0.5e-6
    with pytest.raises(InvalidParameterError):
        atomic_shot_noise(0.0, 1.0e12)
    with pytest.raises(InvalidParameterError):
        atomic_shot_noise(1.0, 0.0)


def test_photon_shot_noise_value():
    assert photon_shot_noise(1.0e15) == pytest.approx(
        3.1622776601683794e-8, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        photon_shot_noise(0.0)


def test_photon_rate_frozen_and_round_trip():
    rate = photon_rate(175.0e-6, 852.35e-9)
    assert rate == pytest.approx(PHOTON_RATE_DEFAULT, rel=1e-12)
    # energy bookkeeping: rate times photon energy returns the power
    back = rate * constants.h * constants.c / 852.35e-9
    assert back == pytest.approx(175.0e-6, rel=1e-12)
    assert 1e14 < rate < 1e16


def test_equivalent_frequency_noise():
    assert equivalent_frequency_noise(2.0 * math.pi, 1.0) == pytest.approx(1.0)
    assert equivalent_frequency_noise(0.0, 5.0) == 0.0
    with pytest.raises(InvalidParameterError):
        equivalent_frequency_noise(0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        equivalent_frequency_noise(-0.1, 1.0)


def test_limits_report_shape_and_consistency():
    report = limits_report(LimitInputs())
    expected_keys = {
        "t_meas_s",
        "temperature_k",
        "vapor_pressure_pa",
        "number_density_per_m3",
        "beam_atom_number",
        "bore_atom_number",
        "input_atom_number",
        "photon_rate_per_s",
        "photon_number",
        "photon_phase_noise_rad",
        "photon_frequency_noise_hz",
        "atomic_frequency_noise_beam_hz",
        "atomic_frequency_noise_bore_hz",
        "atomic_frequency_noise_input_hz",
        "photon_below_atomic",
    }
    assert set(report) == expected_keys
    assert math.isnan(report["input_atom_number"])
    assert math.isnan(report["atomic_frequency_noise_input_hz"])
    # internal consistency rather than re-derivation
    assert report["photon_number"] == pytest.approx(
        report["photon_rate_per_s"] * report["t_meas_s"], rel=1e-12)
    assert report["photon_phase_noise_rad"] == pytest.approx(
        1.0 / math.sqrt(report["photon_number"]), rel=1e-12)
    assert report["atomic_frequency_noise_bore_hz"] == pytest.approx(
        1.0 / math.sqrt(report["bore_atom_number"]), rel=1e-12)
    assert report["photon_below_atomic"] == (
        report["photon_frequency_noise_hz"]
        < report["atomic_frequency_noise_bore_hz"]
    )


def test_limits_report_explicit_counts_override():
    report = limits_report(LimitInputs(n_atoms=1.0e12, n_photons_rate=1.0e15))
    assert report["input_atom_number"] == 1.0e12
    assert report["atomic_frequency_noise_input_hz"] == pytest.approx(1.0e-6)
    assert report["photon_rate_per_s"] == 1.0e15
    # derived beam and bore figures stay in the report alongside
    assert report["beam_atom_number"] == pytest.approx(BEAM_ATOMS, rel=1e-12)


def test_limit_inputs_validation():
    with pytest.raises(InvalidParameterError):
        LimitInputs(t_meas=0.0)
    with pytest.raises(InvalidParameterError):
        LimitInputs(n_atoms=-1.0)
    with pytest.raises(InvalidParameterError):
        LimitInputs(probe_power=-1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e6, max_value=1e18))
def test_more_photons_never_hurt(n):
    assert photon_shot_noise(n) >= photon_shot_noise(n * 2.0)
