"""Ladder-medium susceptibility against an explicit steady-state solve."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings, strategies as st
from scipy import signal
from scipy.special import roots_hermite

from rydsag import eit_medium
from rydsag.eit_medium import (
    CS_MASS_KG,
    LadderSystemParams,
    at_splitting,
    detuning_grid,
    doppler_average,
    field_from_at_splitting,
    kk_residual,
    phase_and_absorption,
    rabi_from_field,
    splitting_vs_drive,
    susceptibility,
    susceptibility_spectrum,
)
from rydsag.errors import (
    AccuracyError,
    GridPolicyError,
    InvalidParameterError,
    RegimeWarning,
    UnresolvedSplittingError,
)

# References from an independent route: the weak-probe coherence chain
# written as an explicit 3x3 complex linear system and solved with
# numpy.linalg.solve (default parameters, see cases below).
LINEAR_SOLVE_CASES = [
    # (delta_p, delta_c, omega_mw, re_chi, im_chi)
    (0.0, 0.0, 0.0, 0.0, 7.30497030909908689e-07),
    (2.0 * math.pi * 3e6, 0.0, 0.0,
     -1.76213080894504311e-06, 1.72517226014319958e-06),
    (0.0, 0.0, 2.0 * math.pi * 8e6, 0.0, 3.53161683500292986e-06),
    (2.0 * math.pi * 1e6, 2.0 * math.pi * 0.7e6, 2.0 * math.pi * 8e6,
     -1.28443733026576869e-06, 2.96968355394677581e-06),
]

# Thermal-average references from scipy.integrate.quad over the Maxwell
# velocity distribution (epsrel 1e-11), broad-line fixture below.
DOPPLER_BROAD = dict(
    doppler_enabled=True,
    gamma_2=2.0 * math.pi * 80e6,
    gamma_3=2.0 * math.pi * 10e6,
    gamma_4=2.0 * math.pi * 10e6,
    omega_c=2.0 * math.pi * 20e6,
)
DOPPLER_QUAD_CASES = [
    (0.0, 0.0, 5.34837734464208084e-08),
    (2.0 * math.pi * 50e6, -1.20595295129613154e-08, 5.80529239501624535e-08),
]


def params(**overrides):
    return LadderSystemParams(**overrides)


@pytest.mark.parametrize("dp,dc,omw,re,im", LINEAR_SOLVE_CASES)
def test_susceptibility_matches_linear_solve(dp, dc, omw, re, im):
    medium = params(delta_c=dc, omega_mw=omw)
    chi = susceptibility(medium, dp)
    assert chi.real == pytest.approx(re, abs=1e-18, rel=1e-12)
    assert chi.imag == pytest.approx(im, rel=1e-12)


def test_weak_probe_susceptibility_independent_of_probe_rabi():
    a = susceptibility(params(omega_p=2.0 * math.pi * 1e4), 1.0e6)
    b = susceptibility(params(omega_p=2.0 * math.pi * 1e6), 1.0e6)
    assert a == pytest.approx(b, rel=1e-12)


def test_coupling_opens_transparency_window():
    dark = susceptibility(params(omega_c=0.0), 0.0)
    bright = susceptibility(params(), 0.0)
    # default coupling strength leaves a partial window; stronger
    # coupling deepens it
    assert bright.imag < 0.3 * dark.imag
    strong = susceptibility(params(omega_c=2.0 * math.pi * 10e6), 0.0)
    assert strong.imag < 0.05 * dark.imag


def test_two_photon_line_is_absorptive_again():
    # the absorption fills back in when the coupling is detuned away
    on_resonance = susceptibility(params(), 0.0)
    detuned = susceptibility(params(delta_c=2.0 * math.pi * 10e6), 0.0)
    assert detuned.imag > 3.0 * on_resonance.imag


@settings(max_examples=50, deadline=None)
@given(
    dp=st.floats(-3e8, 3e8),
    dc=st.floats(-5e7, 5e7),
    omw=st.floats(0.0, 2e8),
)
def test_passivity_of_absorption(dp, dc, omw):
    chi = susceptibility(params(delta_c=dc, omega_mw=omw), dp)
    assert chi.imag >= 0.0


@settings(max_examples=30, deadline=None)
@given(dp=st.floats(-2e8, 2e8))
def test_hermitian_detuning_symmetry(dp):
    # on all-resonant two-level-like conditions the spectrum obeys
    # chi(-dp) = -conj(chi(dp))
    medium = params()
    plus = susceptibility(medium, dp)
    minus = susceptibility(medium, -dp)
    assert minus.real == pytest.approx(-plus.real, abs=1e-20, rel=1e-10)
    assert minus.imag == pytest.approx(plus.imag, abs=1e-20, rel=1e-10)


def test_detuning_grid_shape_and_validation():
    medium = params()
    grid = detuning_grid(medium, 40.0, 4096)
    assert len(grid) == 4096
    assert grid[0] == -grid[-1]
    spacing = np.diff(grid)
    assert np.allclose(spacing, spacing[0])
    with pytest.raises(InvalidParameterError):
        detuning_grid(medium, 40.0, 8)
    with pytest.raises(InvalidParameterError):
        detuning_grid(medium, 0.0, 4096)
    # short grids are usable for sweeps but rejected by the Hilbert check
    short = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 32))
    with pytest.raises(GridPolicyError):
        kk_residual(short)


def test_kk_residual_eit_and_at():
    for omw in (0.0, 2.0 * math.pi * 8e6):
        medium = params(omega_mw=omw)
        spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 4096))
        assert kk_residual(spectrum) < 2e-2


def test_kk_residual_matches_scipy_hilbert():
    for omw in (0.0, 2.0 * math.pi * 8e6):
        medium = params(omega_mw=omw)
        spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 4096))
        n = len(spectrum)
        absorption = np.imag(spectrum.chi)
        dispersion = np.real(spectrum.chi)
        reconstructed = -np.imag(signal.hilbert(absorption, N=4 * n)[:n])
        lo, hi = n // 4, n - n // 4
        residual = np.max(np.abs(dispersion[lo:hi] - reconstructed[lo:hi])) / np.max(
            np.abs(dispersion[lo:hi])
        )
        # the residual is normalized by max|Re(chi)|, so this is 1e-12 of max|y|
        assert abs(kk_residual(spectrum) - residual) <= 1e-12


def _complex_ifft_residual(spectrum):
    """The residual as kk_residual computed it through a complex analytic signal."""
    n = len(spectrum)
    absorption = np.imag(spectrum.chi)
    dispersion = np.real(spectrum.chi)
    padded = 4 * n
    transform = np.zeros(padded, dtype=complex)
    transform[: padded // 2 + 1] = np.fft.rfft(absorption, padded)
    transform[1 : (padded + 1) // 2] *= 2.0
    reconstructed = -np.imag(np.fft.ifft(transform)[:n])
    lo, hi = n // 4, n - n // 4
    return np.max(np.abs(dispersion[lo:hi] - reconstructed[lo:hi])) / np.max(
        np.abs(dispersion[lo:hi])
    )


@pytest.mark.parametrize("omw", [0.0, 2.0 * math.pi * 8e6, 2.0 * math.pi * 30e6])
@pytest.mark.parametrize("span, points", [(40.0, 64), (40.0, 4096), (80.0, 6000)])
def test_kk_residual_matches_complex_analytic_signal(omw, span, points):
    medium = params(omega_mw=omw)
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, span, points))
    expected = _complex_ifft_residual(spectrum)
    assert abs(kk_residual(spectrum) - expected) <= 1e-12 * expected


def test_kk_residual_peaks_below_three_padded_arrays():
    medium = params(omega_mw=2.0 * math.pi * 8e6)
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 65536))
    kk_residual(spectrum)  # loads numpy.fft and plans this size before tracing
    tracemalloc.start()
    try:
        kk_residual(spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a complex analytic signal and its complex ifft peaked near 4.5 of them
    assert peak <= 3 * 8 * (4 * len(spectrum))


def test_kk_residual_peaks_at_two_padded_arrays():
    # the padded input and its transform, then the transform and the
    # reconstruction, which irfft writes into its own array; the transform
    # is freed before the residual, and the grid's steps before the FFTs
    # (2.5 arrays while the steps and the transform stayed)
    medium = params(omega_mw=2.0 * math.pi * 8e6)
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 65536))
    kk_residual(spectrum)
    tracemalloc.start()
    try:
        kk_residual(spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * (4 * len(spectrum))


def test_kk_grid_policy_requires_decayed_edges():
    medium = params()
    narrow = susceptibility_spectrum(medium, detuning_grid(medium, 1.5, 512))
    with pytest.raises(GridPolicyError):
        kk_residual(narrow)


def test_at_splitting_reference_value():
    medium = params(omega_mw=2.0 * math.pi * 8e6)
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 4096))
    assert at_splitting(spectrum) == pytest.approx(7727074.352442205, rel=1e-9)


def test_at_splitting_unresolved_when_drive_off():
    medium = params()
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 40.0, 4096))
    with pytest.raises(UnresolvedSplittingError):
        at_splitting(spectrum)


def test_at_splitting_narrow_line_limit():
    # gamma_3, gamma_4 far below the drive: dips sit at +- Omega/2
    omw = 2.0 * math.pi * 20e6
    medium = params(
        omega_mw=omw,
        gamma_3=2.0 * math.pi * 1e3,
        gamma_4=2.0 * math.pi * 1e3,
        omega_c=2.0 * math.pi * 0.5e6,
    )
    spectrum = susceptibility_spectrum(medium, detuning_grid(medium, 60.0, 16384))
    f_at = at_splitting(spectrum)
    assert abs(f_at - omw / (2.0 * math.pi)) / (omw / (2.0 * math.pi)) < 1e-2


def test_field_from_at_splitting_round_trip():
    dipole = 1.27e-26
    e_field = 0.75
    omega = rabi_from_field(e_field, dipole)
    f_at = omega / (2.0 * math.pi)
    assert field_from_at_splitting(f_at, dipole) == pytest.approx(e_field, rel=1e-12)


def test_rabi_from_field_reference():
    # mu E / hbar with mu = 1.27e-26 C m: 1 V/m -> 1.204e8 rad/s
    omega = rabi_from_field(1.0, 1.27e-26)
    assert omega == pytest.approx(1.27e-26 / sc.hbar, rel=1e-12)
    assert omega == pytest.approx(1.2043e8, rel=1e-3)


def test_splitting_vs_drive_transition_and_monotonicity():
    medium = params()
    drives = [2.0 * math.pi * f * 1e6 for f in (0.05, 0.2, 1.0, 3.0, 10.0)]
    splittings = splitting_vs_drive(medium, drives)
    assert splittings.shape == (len(drives),)
    assert math.isnan(splittings[0])  # too weak to resolve
    resolved = splittings[~np.isnan(splittings)].tolist()
    assert len(resolved) >= 3
    assert all(b >= a for a, b in zip(resolved, resolved[1:]))


def test_strong_drive_splitting_resolves():
    # past 3 omega_mw / gamma_2 = 40 the grid widens with the drive; a fixed
    # 40-linewidth grid leaves these dips outside it
    drives = [2.0 * math.pi * f * 1e6 for f in (250.0, 300.0)]
    for omega, f_at in zip(drives, splitting_vs_drive(params(), drives)):
        assert f_at == pytest.approx(omega / (2.0 * math.pi), rel=0.02)


def test_asymmetry_flips_once_through_zero_coupling_detuning():
    medium = params(omega_mw=2.0 * math.pi * 8e6)
    detunings = 2.0 * math.pi * np.linspace(-2e6, 2e6, 9)

    def odd_moment(dc):
        swept = replace(medium, delta_c=float(dc))
        spectrum = susceptibility_spectrum(swept, detuning_grid(swept, 40.0, 2048))
        im = spectrum.chi.imag
        dp = spectrum.delta_p
        return float(np.trapezoid(im * np.sign(dp), dp))

    moments = np.array([odd_moment(dc) for dc in detunings])
    signs = np.sign(moments)
    assert abs(moments[4]) < 1e-6 * np.max(np.abs(moments))  # balanced at zero
    nonzero = signs[np.abs(moments) > 1e-6 * np.max(np.abs(moments))]
    flips = np.sum(np.abs(np.diff(nonzero)) > 0)
    assert flips == 1


def test_phase_and_absorption_mapping():
    medium = params()
    chi = 2.0e-6 + 1.0e-6j
    delta_phi, delta_beta = phase_and_absorption(chi, medium)
    factor = math.pi * medium.cell_length / medium.lambda_p
    assert delta_phi == pytest.approx(factor * chi.real, rel=1e-12)
    assert delta_beta == pytest.approx(-factor * chi.imag, rel=1e-12)
    # absorbing medium attenuates: exp(2 delta_beta) < 1
    assert delta_beta < 0.0

    # arrays map element-wise and warn once per call, not once per value
    values = np.array([2.0e-6 + 1.0e-6j, 0.3 + 0.05j, -0.2j, 0.15, 1.0e-3j])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phis, betas = phase_and_absorption(values, medium)
    assert [w.category for w in caught] == [RegimeWarning]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        scalar = [phase_and_absorption(complex(c), medium) for c in values]
    assert phis.tolist() == [phi for phi, _ in scalar]
    assert betas.tolist() == [beta for _, beta in scalar]


def test_thermal_speed_value():
    medium = params()
    expected = math.sqrt(2.0 * sc.k * 299.15 / CS_MASS_KG)
    assert medium.thermal_speed == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dp,re,im", DOPPLER_QUAD_CASES)
def test_doppler_average_matches_quad_oracle(dp, re, im):
    medium = params(**DOPPLER_BROAD)
    chi = doppler_average(medium, dp)
    assert chi.real == pytest.approx(re, abs=1e-16, rel=1e-6)
    assert chi.imag == pytest.approx(im, rel=1e-6)


def test_cached_rules_give_the_uncached_ladder_bit_for_bit(monkeypatch):
    medium = params(**DOPPLER_BROAD)
    grid = detuning_grid(medium, 40.0, 128)[::16]
    cached = [doppler_average(medium, dp) for dp in grid]
    monkeypatch.setattr(eit_medium, "_gauss_hermite", eit_medium._gauss_hermite.__wrapped__)
    fresh = [doppler_average(medium, dp) for dp in grid]
    assert len(grid) == 8
    assert cached == fresh


def test_packaged_rules_are_scipys():
    # gauss_hermite.npy holds the nonnegative halves of
    # scipy.special.roots_hermite(n) of scipy 1.17.1, to which the mirrored
    # rules are equal bit for bit; the tolerance lets another scipy differ
    # in its last digits.  Weights below 1e-300 weigh nothing
    table = eit_medium._gauss_hermite_table()
    assert table.dtype == np.float64 and table.shape == (2, 32736)
    n, halves = eit_medium.GH_NODES_START, 0
    while n <= eit_medium.GH_NODES_MAX:
        nodes, weights = eit_medium._gauss_hermite(n)
        reference = roots_hermite(n)
        np.testing.assert_allclose(nodes, reference[0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(weights, reference[1], rtol=1e-13, atol=1e-300)
        assert nodes.size == n and np.all(np.diff(nodes) > 0.0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert math.fsum(weights) == pytest.approx(math.sqrt(math.pi), rel=2e-15)
        halves += n // 2
        n *= 2
    assert halves == table.shape[1]


def test_cached_rules_are_shared_and_read_only():
    nodes, weights = eit_medium._gauss_hermite(128)
    again = eit_medium._gauss_hermite(128)
    assert again[0] is nodes and again[1] is weights
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_doppler_average_requires_flag():
    with pytest.raises(InvalidParameterError):
        doppler_average(params(), 0.0)


def test_doppler_average_narrow_line_exhausts_ladder():
    # a warm narrow-line vapor has velocity structure far below the node
    # spacing: the adaptive ladder must refuse rather than return garbage
    with pytest.raises(AccuracyError):
        doppler_average(params(doppler_enabled=True), 0.0)


def test_doppler_broadening_weakens_response():
    medium = params(**DOPPLER_BROAD)
    static = susceptibility(medium, 0.0)
    averaged = doppler_average(medium, 0.0)
    assert abs(averaged) < abs(static)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        params(gamma_2=0.0)
    with pytest.raises(InvalidParameterError):
        params(gamma_2=-1.0)
    with pytest.raises(InvalidParameterError):
        params(density=-1.0)
    with pytest.raises(InvalidParameterError):
        params(lambda_p=0.0)
    with pytest.raises(InvalidParameterError):
        params(temperature=0.0)


def test_spectrum_points_carry_grid():
    medium = params()
    grid = detuning_grid(medium, 10.0, 128)
    spectrum = susceptibility_spectrum(medium, grid)
    assert len(spectrum) == 128
    assert spectrum.delta_p[0] == pytest.approx(grid[0])
    assert np.all(spectrum.chi.imag >= 0.0)
    np.testing.assert_array_equal(spectrum.delta_p, grid)
    np.testing.assert_array_equal(spectrum.chi, susceptibility(medium, grid))


@pytest.mark.parametrize("omw", [0.0, 2.0 * math.pi * 8e6])
@pytest.mark.parametrize("points", [16, 16_383, 16_384, 16_385, 2 * 16_384 + 7])
def test_blocked_spectrum_is_bit_equal_to_whole_grid(omw, points):
    # chi is evaluated 16 384 points at a time; no block edge may move a value
    medium = params(omega_mw=omw)
    grid = detuning_grid(medium, 40.0, points)
    spectrum = susceptibility_spectrum(medium, grid)
    assert np.array_equal(spectrum.chi, susceptibility(medium, grid))
    assert np.array_equal(spectrum.delta_p, grid)


def test_spectrum_memory_stays_near_its_outputs():
    # whole-grid evaluation peaked near 5 times delta_p plus chi
    medium = params(omega_mw=2.0 * math.pi * 8e6)
    grid = detuning_grid(medium, 40.0, 2**18)
    tracemalloc.start()
    try:
        spectrum = susceptibility_spectrum(medium, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (spectrum.delta_p.nbytes + spectrum.chi.nbytes)
