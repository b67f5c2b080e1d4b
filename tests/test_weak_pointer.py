"""Pointer readout: closed forms against the quadrature oracle and mpmath."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydsag.errors import (
    DomainError,
    InvalidParameterError,
    OrthogonalPostselectionError,
)
from rydsag.weak_pointer import (
    BeamPointer,
    PostSelection,
    PreSelection,
    WeakCoupling,
    centroid_approx,
    centroid_exact,
    closed_centroid,
    closed_icr,
    closed_p_post,
    erfi,
    feedback_centroid,
    feedback_weak_value,
    icr_approx,
    icr_exact,
    mzi_intensity,
    quadrature_oracle,
    scaled_erfi,
    weak_value,
)

# mpmath (mp.dps=40) references: direct |psi_f(x)|^2 moments for the
# post-selected pointer, RMS-width w Gaussian, integration over +-12w.
MPMATH_CASES = [
    # (delta_phi, delta_beta, k, w, centroid, eta, p_post)
    (0.001, 0.0, 10.0, 0.001,
     -9.9740656980991929e-5, 0.079586836043161903, 0.00010023995065080383),
    (0.01, 0.0, 50.0, 0.002,
     -0.00019751450574033331, 0.079325366857610351, 0.0099251681092476415),
    (0.1, 0.02, 200.0, 0.0005,
     -0.00038377622801439345, 0.61652565646989944, 0.01273897942363384),
    (0.001, 0.05, 10.0, 0.001,
     -3.8419499708926364e-6, 0.0030656369395855768, 0.0025893663541583515),
]

ERFI_REFERENCES = [
    (0.3, 0.34894933875893618),
    (1.0, 1.6504257587975429),
    (2.5, 130.39575501324693),
    (7.0, 1.553486253460504e20),
]


def default_beam(w=1.0e-3):
    return BeamPointer.centered(w)


@pytest.mark.parametrize("dphi,dbeta,k,w,centroid,eta,p_post", MPMATH_CASES)
def test_quadrature_oracle_matches_mpmath(dphi, dbeta, k, w, centroid, eta, p_post):
    readout = quadrature_oracle(
        PreSelection(dphi, dbeta), PostSelection(), WeakCoupling(k),
        BeamPointer.centered(w),
    )
    assert readout.centroid == pytest.approx(centroid, rel=1e-10)
    assert readout.eta == pytest.approx(eta, rel=1e-10)
    assert readout.p_post == pytest.approx(p_post, rel=1e-10)


@pytest.mark.parametrize("dphi,dbeta,k,w,centroid,eta,p_post", MPMATH_CASES)
def test_closed_forms_match_mpmath(dphi, dbeta, k, w, centroid, eta, p_post):
    assert closed_centroid(dphi, dbeta, k, w) == pytest.approx(centroid, rel=1e-12)
    assert closed_icr(dphi, dbeta, k, w) == pytest.approx(eta, rel=1e-12)
    assert closed_p_post(dphi, dbeta, k, w) == pytest.approx(p_post, rel=1e-12)


def test_exact_wrappers_agree_with_closed_forms():
    pre = PreSelection(0.02, 0.0)
    post = PostSelection()
    coupling = WeakCoupling(30.0)
    beam = default_beam()
    assert centroid_exact(pre, post, coupling, beam) == pytest.approx(
        closed_centroid(0.02, 0.0, 30.0, beam.w), rel=1e-12)
    assert icr_exact(pre, post, coupling, beam) == pytest.approx(
        closed_icr(0.02, 0.0, 30.0, beam.w), rel=1e-12)


@pytest.mark.parametrize("z,ref", ERFI_REFERENCES)
def test_erfi_reference_values(z, ref):
    assert erfi(z) == pytest.approx(ref, rel=1e-13)
    assert erfi(-z) == pytest.approx(-ref, rel=1e-13)


def test_erfi_domain_cutoff():
    with pytest.raises(DomainError):
        erfi(10.5)


def test_scaled_erfi_stays_finite_for_large_argument():
    # exp(-z^2) * erfi(z) -> 1/(sqrt(pi) z) asymptotically
    z = 9.0
    value = scaled_erfi(z)
    assert math.isfinite(value)
    assert value == pytest.approx(1.0 / (math.sqrt(math.pi) * z), rel=1e-2)


def test_weak_value_pure_imaginary_at_quarter_pi():
    wv = weak_value(PreSelection(math.pi / 2, 0.0), PostSelection(math.pi / 4))
    assert wv == -1j  # exact, via the half-angle branch


def test_weak_value_vanishes_at_pi():
    assert weak_value(PreSelection(math.pi, 0.0), PostSelection()) == 0.0


def test_weak_value_mpmath_reference():
    # coth(0.1 + 0.0005j) from mpmath at 40 digits
    wv = weak_value(PreSelection(0.001, 0.1), PostSelection())
    assert wv.real == pytest.approx(10.03306114016522, rel=1e-13)
    assert wv.imag == pytest.approx(-0.049832416166803721, rel=1e-13)


def test_weak_value_orthogonal_guard():
    with pytest.raises(OrthogonalPostselectionError):
        weak_value(PreSelection(0.0, 0.0), PostSelection())


def test_approximations_near_exact_in_weak_regime():
    coupling = WeakCoupling(10.0)
    beam = default_beam()  # k w = 0.01
    pre = PreSelection(1.0e-3, 0.0)
    exact_c = centroid_exact(pre, PostSelection(), coupling, beam)
    exact_e = icr_exact(pre, PostSelection(), coupling, beam)
    assert centroid_approx(1.0e-3, coupling) == pytest.approx(exact_c, rel=1e-2)
    assert icr_approx(1.0e-3, coupling, beam) == pytest.approx(exact_e, rel=1e-2)


def test_centroid_approx_is_inverse_k_law():
    # <x> ~ -delta_phi / k
    assert centroid_approx(2.0e-3, WeakCoupling(40.0)) == pytest.approx(
        -2.0e-3 / 40.0, rel=1e-12)


def test_beam_pointer_validation():
    with pytest.raises(InvalidParameterError):
        BeamPointer(0.0, np.linspace(-1, 1, 11))
    with pytest.raises(InvalidParameterError):
        BeamPointer(1.0e-3, np.linspace(-2e-3, 2e-3, 11))  # span < 8w
    with pytest.raises(InvalidParameterError):
        BeamPointer(1.0e-3, np.array([-1.0e-2, 1.0e-2]))  # too few points
    with pytest.raises(InvalidParameterError):
        BeamPointer.centered(1.0e-3, points=-5)


def test_post_selection_angle_bounds():
    with pytest.raises(InvalidParameterError):
        PostSelection(0.0)
    with pytest.raises(InvalidParameterError):
        PostSelection(math.pi / 2)


def test_profile_normalization_and_centroid_sign():
    beam = default_beam()
    readout = quadrature_oracle(
        PreSelection(0.05, 0.0), PostSelection(), WeakCoupling(20.0), beam)
    total = np.trapezoid(readout.profile, beam.grid)
    assert total == pytest.approx(readout.p_post, rel=1e-4)
    # positive differential phase shifts the pointer left and weights the
    # left half heavier
    assert readout.centroid < 0.0
    assert readout.eta > 0.0


def test_summary_keys():
    readout = quadrature_oracle(
        PreSelection(0.01, 0.0), PostSelection(), WeakCoupling(10.0), default_beam())
    assert set(readout.summary()) == {"centroid_m", "eta", "p_post"}


def test_mzi_intensity_sensitivity_peaks_at_quadrature():
    # d I / d phi = -a sin(phi) extremal at phi = pi/2 + n pi
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    a = 0.7
    intensity = np.array([mzi_intensity(a, p) for p in phis])
    slope = np.abs(np.gradient(intensity, phis))
    peak_phi = phis[np.argmax(slope)]
    assert min(abs(peak_phi - math.pi / 2), abs(peak_phi - 3 * math.pi / 2)) < 0.01


def test_feedback_weak_value_half_angle():
    # the stabilization port carries phase +-phi_f per arm, so the weak
    # value is -i cot(phi_f) rather than -i cot(phi_f / 2)
    phi_f = 0.3
    wv = feedback_weak_value(phi_f)
    assert wv.real == 0.0
    assert wv.imag == pytest.approx(-1.0 / math.tan(phi_f), rel=1e-12)


def test_feedback_centroid_is_weak_value_displacement():
    beam = default_beam()
    coupling = WeakCoupling(25.0)
    expected = 2.0 * 25.0 * beam.w**2 * abs(1.0 / math.tan(0.2))
    assert feedback_centroid(0.2, coupling, beam) == pytest.approx(
        expected, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    dphi=st.floats(1e-4, 1.0),
    dbeta=st.floats(0.0, 0.3),
    k=st.floats(1.0, 300.0),
)
def test_closed_p_post_is_a_probability(dphi, dbeta, k):
    p = closed_p_post(dphi, dbeta, k, 1.0e-3)
    assert 0.0 < p <= 1.0


@settings(max_examples=50, deadline=None)
@given(dphi=st.floats(1e-4, 1.5), k=st.floats(1.0, 200.0))
def test_closed_forms_odd_in_phase(dphi, k):
    w = 1.0e-3
    assert closed_centroid(-dphi, 0.0, k, w) == pytest.approx(
        -closed_centroid(dphi, 0.0, k, w), rel=1e-12)
    assert closed_icr(-dphi, 0.0, k, w) == pytest.approx(
        -closed_icr(dphi, 0.0, k, w), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(dphi=st.floats(1e-3, 0.5), k=st.floats(5.0, 100.0), wexp=st.floats(-4.0, -2.5))
def test_oracle_and_closed_forms_agree_everywhere(dphi, k, wexp):
    w = 10.0 ** wexp
    readout = quadrature_oracle(
        PreSelection(dphi, 0.0), PostSelection(), WeakCoupling(k),
        BeamPointer.centered(w))
    assert readout.centroid == pytest.approx(
        closed_centroid(dphi, 0.0, k, w), rel=1e-8)
    assert readout.eta == pytest.approx(closed_icr(dphi, 0.0, k, w), rel=1e-8)
