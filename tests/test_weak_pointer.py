"""Pointer readout: closed forms against the quadrature oracle and mpmath."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rydsag.errors import InvalidParameterError, OrthogonalPostselectionError
from rydsag.weak_pointer import (
    BeamPointer,
    PostSelection,
    PreSelection,
    WeakCoupling,
    centroid_approx,
    closed_centroid,
    closed_icr,
    closed_p_post,
    closed_readout,
    dawson,
    icr_approx,
    quadrature_oracle,
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

# Tilted analyzers (angle != pi/4), from mpmath 1.3 at mp.dps = 40 by
# integrating |psi_f(x)|^2 of the module's conventions over x < 0 and x > 0:
#
#   import mpmath as mp; mp.mp.dps = 40
#   def case(dphi, dbeta, angle, k, w):
#       dphi, dbeta, angle, k, w = map(mp.mpf, (dphi, dbeta, angle, k, w))
#       norm = mp.sqrt(2 * mp.cosh(2 * dbeta))
#       ch = mp.cos(angle) * mp.exp(dbeta + 0.5j * dphi) / norm
#       sv = mp.sin(angle) * mp.exp(-dbeta - 0.5j * dphi) / norm
#       def power(x):
#           env = (2 * mp.pi * w**2) ** -0.25 * mp.exp(-x**2 / (4 * w**2))
#           return abs(env * (ch * mp.exp(-1j * k * x) - sv * mp.exp(1j * k * x))) ** 2
#       left, right = mp.quad(power, [-mp.inf, 0]), mp.quad(power, [0, mp.inf])
#       moment = mp.quad(lambda x: x * power(x), [-mp.inf, 0, mp.inf])
#       total = left + right
#       return [mp.nstr(v, 17) for v in (moment / total, (left - right) / total, total)]
#
# The first two have |delta_phi| ~ 1e-6, where the small difference
# left - right is beyond the quadrature oracle's per-half tolerance: it
# misses their centroid and eta by 2.3e-9 to 2.6e-8 relative.
TILTED_MPMATH_CASES = [
    # (delta_phi, delta_beta, angle, k, w, centroid, eta, p_post)
    (1.5e-6, 0.04, 1.48, 2.0, 1.0e-3,
     -1.456726385193606e-12, 1.1623025915328968e-9, 0.37073219501099083),
    (1.5e-6, 0.02, 0.09, 5.0, 1.0e-3,
     -3.1183056290916833e-12, 2.4880893854042284e-9, 0.43022763569077575),
    (-1.3e-6, 0.01, 0.9, 100.0, 5.0e-4,
     2.3620517837009338e-9, -3.7755808833494165e-6, 0.01332989207046599),
    (0.05, 0.1, 0.3, 50.0, 1.0e-3,
     -4.4919304087328676e-6, 0.0035900242953130479, 0.30640757328549562),
    (1.0, -0.2, 1.2, 300.0, 1.0e-3,
     -0.00026396605693424732, 0.22396399851598228, 0.49909844920930252),
    (2.0e-3, -0.02, math.pi / 4 - 0.003, 10.0, 1.0e-3,
     -5.1269522994805712e-5, 0.040909888144975215, 0.00038969820921352746),
]

# erfi(z) from mpmath; at delta_phi = pi/2, delta_beta = 0 and the balanced
# analyzer, closed_readout's eta is exp(-z^2) erfi(z) with z = b / sqrt 2
ERFI_REFERENCES = [
    (0.3, 0.34894933875893618),
    (1.0, 1.6504257587975429),
    (2.5, 130.39575501324693),
    (7.0, 1.553486253460504e20),
]

# Dawson's integral from mpmath 1.3 at mp.dps = 40, on both sides of every
# edge between dawson's ranges and near both ends of the float range:
#
#   import math, mpmath as mp; mp.mp.dps = 40
#   F = lambda x: mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)
#   xs = [1e-300, 1e300]
#   for edge in [2**-7, 0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8]:
#       xs += [math.nextafter(edge, 0), float(edge)]
#   for x in xs:
#       print((x, mp.nstr(F(mp.mpf(x)), 17)))
DAWSON_REFERENCES = [
    (1e-300, 1.0e-300),
    (1e+300, 4.9999999999999997e-301),
    (0.007812499999999999, 0.0078121821163220832),
    (0.0078125, 0.007812182116322084),
    (0.24999999999999997, 0.23983916356289819),
    (0.25, 0.23983916356289821),
    (0.49999999999999994, 0.42443638350202226),
    (0.5, 0.4244363835020223),
    (0.9999999999999999, 0.53807950691276843),
    (1.0, 0.53807950691276842),
    (1.4999999999999998, 0.42824907108539869),
    (1.5, 0.42824907108539863),
    (1.9999999999999998, 0.30134038892379201),
    (2.0, 0.30134038892379197),
    (2.9999999999999996, 0.17827103061055832),
    (3.0, 0.17827103061055829),
    (3.9999999999999996, 0.12934800123600513),
    (4.0, 0.12934800123600512),
    (4.999999999999999, 0.10213407442427685),
    (5.0, 0.10213407442427684),
    (5.999999999999999, 0.084542688974543865),
    (6.0, 0.084542688974543852),
    (7.999999999999999, 0.063000198707553395),
    (8.0, 0.063000198707553388),
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
    readout = closed_readout(dphi, dbeta, math.pi / 4, k, w)
    assert readout == pytest.approx((centroid, eta, p_post), rel=1e-12)


@pytest.mark.parametrize(
    "dphi,dbeta,angle,k,w,centroid,eta,p_post", TILTED_MPMATH_CASES)
def test_closed_readout_matches_mpmath_tilted(
        dphi, dbeta, angle, k, w, centroid, eta, p_post):
    readout = closed_readout(dphi, dbeta, angle, k, w)
    assert readout == pytest.approx((centroid, eta, p_post), rel=1e-12)


def test_closed_readout_broadcasts_like_scalar_calls():
    dphi = np.array([[1.0e-6], [0.02], [1.0]])
    angle = np.array([0.3, math.pi / 4, 1.2])
    arrays = closed_readout(dphi, 0.05, angle, 40.0, 1.0e-3)
    for i, j in np.ndindex(3, 3):
        scalars = closed_readout(float(dphi[i, 0]), 0.05, float(angle[j]), 40.0, 1.0e-3)
        assert [a[i, j] for a in arrays] == pytest.approx(scalars, rel=1e-15)


def test_closed_readout_without_kick_is_centered():
    centroid, eta, p_post = closed_readout(0.3, 0.1, 0.5, 0.0, 1.0e-3)
    assert centroid == 0.0 and eta == 0.0
    readout = quadrature_oracle(
        PreSelection(0.3, 0.1), PostSelection(0.5), WeakCoupling(0.0), default_beam())
    assert p_post == pytest.approx(readout.p_post, rel=1e-15)


def test_closed_readout_orthogonal_guard():
    with pytest.raises(OrthogonalPostselectionError):
        closed_readout(0.0, 0.0, math.pi / 4, 0.0, 1.0e-3)


def _eta_at_quarter_wave(z, w=1.0e-3):
    """closed_readout's eta at delta_phi = pi/2 for b / sqrt 2 = z."""
    return closed_readout(math.pi / 2, 0.0, math.pi / 4, z / math.sqrt(2.0) / w, w)[1]


@pytest.mark.parametrize("z,ref", ERFI_REFERENCES)
def test_erfi_reference_values(z, ref):
    assert math.exp(z * z) * _eta_at_quarter_wave(z) == pytest.approx(ref, rel=1e-13)
    assert math.exp(z * z) * _eta_at_quarter_wave(-z) == pytest.approx(-ref, rel=1e-13)


def test_closed_readout_eta_stays_finite_for_large_argument():
    # exp(-z^2) * erfi(z) -> 1/(sqrt(pi) z) asymptotically
    z = 9.0
    value = _eta_at_quarter_wave(z)
    assert math.isfinite(value)
    assert value == pytest.approx(1.0 / (math.sqrt(math.pi) * z), rel=1e-2)


# dawson must not warn, not even of an overflow that it recovers from
_RAISE = dict(over="raise", invalid="raise", divide="raise")


@pytest.mark.parametrize("x,ref", DAWSON_REFERENCES)
def test_dawson_within_2_ulp_of_mpmath(x, ref):
    with np.errstate(**_RAISE):
        values = float(dawson(x)), float(dawson(-x))
    assert abs(values[0] - ref) <= 2.0 * math.ulp(ref)
    assert values[1] == -values[0]


def test_dawson_of_an_array_is_its_scalar_calls():
    xs = np.array([x for x, _ in DAWSON_REFERENCES])
    xs = np.concatenate([xs, -xs]).reshape(2, -1)
    with np.errstate(**_RAISE):
        values = dawson(xs)
    assert values.shape == xs.shape
    scalars = [float(dawson(float(x))) for x in xs.ravel()]
    assert np.array_equal(values.ravel().view(np.int64), np.array(scalars).view(np.int64))


def test_dawson_special_values():
    xs = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200])
    with np.errstate(**_RAISE):
        values = dawson(xs)
        scalars = np.array([dawson(x) for x in xs.tolist()])
    assert np.array_equal(values.view(np.int64), scalars.view(np.int64))
    assert values[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert np.signbit(values[:4]).tolist() == [False, True, False, True]
    assert math.isnan(values[4])
    assert values[5] == 5e-201
    assert isinstance(dawson(0.3), np.float64)


def test_dawson_agrees_with_scipy_on_a_dense_grid():
    from scipy.special import dawsn

    x = np.concatenate([np.linspace(-20.0, 20.0, 400_001), np.geomspace(1e-12, 1e12, 10_001)])
    assert np.allclose(dawson(x), dawsn(x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("angle", [math.pi / 4, math.pi / 4 - 0.003])
def test_closed_readout_is_length_independent(angle):
    # the heterodyne chain evaluates one beat period and repeats it, so a
    # short call must give the bits of the same elements in a long one
    rng = np.random.default_rng(5)
    dphi = rng.uniform(-1.0, 1.0, 25_000)
    dbeta = rng.uniform(-0.1, 0.1, 25_000)
    long = closed_readout(dphi, dbeta, angle, 10.0, 1.0e-3)
    short = closed_readout(dphi[:20], dbeta[:20], angle, 10.0, 1.0e-3)
    for whole, part in zip(long, short):
        assert np.array_equal(whole[:20], part)


def test_quarter_wave_views_are_closed_readout():
    dphi = np.array([1.0e-6, 2.0e-3, 0.4, -1.0])
    readout = closed_readout(dphi, 0.03, math.pi / 4, 10.0, 1.0e-3)
    views = (closed_centroid, closed_icr, closed_p_post)
    for view, value in zip(views, readout):
        assert np.array_equal(view(dphi, 0.03, 10.0, 1.0e-3), value)


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
    exact_c, exact_e, _ = closed_readout(1.0e-3, 0.0, math.pi / 4, coupling.k, beam.w)
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
    # w**2 underflows to 0, and the meter amplitude divides by it
    with pytest.raises(InvalidParameterError, match="w\\*\\*2"):
        BeamPointer.centered(1.0e-300)
    # and w**2 overflows to inf
    with pytest.raises(InvalidParameterError, match="w\\*\\*2"):
        BeamPointer.centered(1.0e300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w, span_w, message", [
    (math.inf, 10.0, "w must be finite"),
    (math.nan, 10.0, "w must be finite"),
    (1.0e-3, math.inf, "span_w must be finite"),
    (1.0e200, 1.0e200, "half-span"),
])
def test_centered_refuses_a_non_finite_span_before_building_the_grid(w, span_w, message):
    # np.linspace warns on a non-finite end, so these are refused first
    with pytest.raises(InvalidParameterError, match=message):
        BeamPointer.centered(w, span_w)


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
