"""Two-tone beat readout: Rabi algebra, operating point, sensitivity fits."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from rydsag.detector_chain import MAX_GRID_POINTS, DetectorParams, TimeSeries, channel_readout
from rydsag.eit_medium import (
    LadderSystemParams,
    field_from_at_splitting,
    phase_and_absorption,
    susceptibility,
)
from rydsag.errors import (
    FitFailureError,
    InvalidParameterError,
    RegimeWarning,
)
from rydsag.heterodyne import (
    DEFAULT_DIPOLE_MW,
    READOUT_SCHEMES,
    SEGMENT_LENGTH,
    HeterodyneConfig,
    Sweep,
    beat_metrics,
    calibration_curve,
    comparison_from_points,
    exact_rabi_magnitude,
    instantaneous_rabi,
    median,
    min_detectable_field,
    operating_point,
    run_beat_experiment,
    scheme_comparison,
    sensitivity_sweep,
)
from rydsag.weak_pointer import (
    BeamPointer,
    PointerSetup,
    PostSelection,
    WeakCoupling,
    closed_readout,
)

# thin-vapor medium: keeps the absorption small enough that the
# interferometric readout stays in its linear window
MEDIUM = LadderSystemParams(density=1.0e15, omega_c=2.0 * math.pi * 2.0e6)
POINTER = PointerSetup(
    post=PostSelection(math.pi / 4),
    coupling=WeakCoupling(10.0),
    beam=BeamPointer.centered(1.0e-3),
)


def config(**overrides):
    return HeterodyneConfig(**overrides)


def test_config_default_invariants():
    cfg = config()
    assert cfg.delta_f == pytest.approx(abs(cfg.f_signal - cfg.f_local), rel=1e-9)
    assert cfg.fs >= 20.0 * cfg.delta_f
    assert all(b > a for a, b in zip(cfg.e_signal, cfg.e_signal[1:]))


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        config(f_signal=8.6e9)  # |f_signal - f_local| != delta_f
    with pytest.raises(InvalidParameterError):
        config(e_signal=(1e-3, 1e-3))
    with pytest.raises(InvalidParameterError):
        config(e_signal=(0.0, 1e-3))
    with pytest.raises(InvalidParameterError):
        config(sample_rate=10.0 * 150e3)  # below 20x the beat
    with pytest.raises(InvalidParameterError):
        config(readout="homodyne")
    with pytest.raises(InvalidParameterError):
        config(integration_time=0.0)


def test_exact_rabi_magnitude_limits():
    ol, os = 3.0e7, 1.0e6
    assert exact_rabi_magnitude(ol, os, 0.0) == pytest.approx(ol + os, rel=1e-12)
    assert exact_rabi_magnitude(ol, os, math.pi) == pytest.approx(ol - os, rel=1e-12)
    quad = exact_rabi_magnitude(ol, os, math.pi / 2)
    assert quad == pytest.approx(math.hypot(ol, os), rel=1e-12)


def test_instantaneous_rabi_harmonics():
    # |Ol + Os e^{i theta}| = Ol + Os cos(theta) + O(r^2): the fundamental
    # of the beat approaches Os from below, second harmonic ~ r/4 of it
    cfg = config()
    e_sig = 0.02
    n = 4096
    t = np.arange(n) / (cfg.delta_f * n / 8.0)  # 8 beat periods
    omega = instantaneous_rabi(cfg, t, e_sig)
    spectrum = np.abs(np.fft.rfft(omega - np.mean(omega))) * 2.0 / n
    fundamental = spectrum[8]
    second = spectrum[16]
    omega_s = e_sig * cfg.dipole_mw / 1.054571817e-34
    r = omega_s / cfg.omega_local
    assert fundamental < omega_s
    assert fundamental == pytest.approx(omega_s * (1.0 - r**2 / 8.0), rel=1e-3)
    assert second == pytest.approx(fundamental * r / 4.0, rel=0.05)


def test_operating_point_has_locally_maximal_slope():
    # white-box: rebuild the finite-difference slope away from the chosen
    # bias and check the optimizer did not leave slope on the table
    from rydsag.heterodyne import _observable

    cfg = config()
    delta_p = operating_point(cfg, MEDIUM, POINTER)
    gamma = MEDIUM.gamma_2
    h = 1e-3 * cfg.omega_local

    def slope_at(dp):
        up = _observable(cfg, MEDIUM, POINTER, dp, cfg.omega_local + h)
        down = _observable(cfg, MEDIUM, POINTER, dp, cfg.omega_local - h)
        return abs((up - down) / (2.0 * h))

    center = slope_at(delta_p)
    for offset in (-gamma / 20.0, gamma / 20.0):
        assert slope_at(delta_p + offset) <= center * 1.01


def test_operating_point_rejects_doppler_medium():
    with pytest.raises(InvalidParameterError):
        operating_point(config(), replace(MEDIUM, doppler_enabled=True), POINTER)


def test_dispersion_runs_at_a_tilted_analyzer():
    # the tilted analyzer angle of the mpmath references in test_weak_pointer
    tilted = replace(POINTER, post=PostSelection(math.pi / 4 - 0.003))
    cfg = config()
    e_signal = cfg.e_signal[-1]
    delta_p = operating_point(cfg, MEDIUM, tilted)
    ts = run_beat_experiment(cfg, MEDIUM, tilted, None, 0, e_signal, delta_p)
    direct = _direct_record(cfg, e_signal, delta_p, tilted)
    p = cfg.beat_period
    assert np.array_equal(ts.samples, np.resize(direct[:p], direct.size))
    balanced = run_beat_experiment(cfg, MEDIUM, POINTER, None, 0, e_signal, delta_p)
    assert not np.array_equal(ts.samples, balanced.samples)
    noisy = run_beat_experiment(
        cfg, MEDIUM, tilted, DetectorParams(), 0, e_signal, delta_p)
    assert np.all(np.isfinite(noisy.samples))


def test_clean_record_beats_at_150khz():
    cfg = config()
    ts = run_beat_experiment(cfg, MEDIUM, POINTER, None, seed=0)
    metrics = beat_metrics(ts)
    assert abs(metrics.peak_freq_hz - cfg.delta_f) <= metrics.bin_width_hz
    assert metrics.snr_db > 100.0


@pytest.mark.parametrize("detector", [None, DetectorParams()])
def test_record_over_the_sample_cap_is_rejected(detector):
    # one sample over the cap, and 1000 s at 3 MHz, where the clean path
    # would otherwise ask np.resize for 3e9 samples and raise MemoryError,
    # and one sample short of a Welch segment: the config refuses them all
    fs = config().fs
    for samples in (MAX_GRID_POINTS + 1, 3_000_000_000, SEGMENT_LENGTH - 1):
        assert round(fs * (samples / fs)) == samples
        with pytest.raises(InvalidParameterError, match="^integration_time x the"):
            config(integration_time=samples / fs)
    # the shortest record it admits runs, clean and detected
    cfg = config(integration_time=SEGMENT_LENGTH / fs)
    ts = run_beat_experiment(cfg, MEDIUM, POINTER, detector, seed=0)
    assert ts.samples.shape == (SEGMENT_LENGTH,)


def _direct_record(cfg, e_signal, delta_p, pointer=POINTER):
    """Clean record with the channel model evaluated at every sample."""
    t = np.arange(int(round(cfg.fs * cfg.integration_time))) / cfg.fs
    drive = instantaneous_rabi(cfg, t, e_signal)
    phi, beta = phase_and_absorption(
        susceptibility(MEDIUM, delta_p, omega_mw=drive), MEDIUM)
    transmitted = cfg.probe_power * np.exp(2.0 * beta)
    if cfg.readout == "amplitude":
        return transmitted
    _, eta, p_post = closed_readout(
        phi, beta, pointer.post.angle, pointer.coupling.k, pointer.beam.w,
    )
    detected = transmitted * p_post
    return channel_readout((0.5 * detected * (1.0 + eta), 0.5 * detected * (1.0 - eta)))


def _clean_and_direct(cfg):
    e_signal = cfg.e_signal[-1]
    delta_p = operating_point(cfg, MEDIUM, POINTER)
    ts = run_beat_experiment(cfg, MEDIUM, POINTER, None, 0, e_signal, delta_p)
    return ts.samples, _direct_record(cfg, e_signal, delta_p)


@pytest.mark.parametrize("readout", READOUT_SCHEMES)
def test_clean_record_tiles_one_beat_period(readout):
    cfg = config(integration_time=0.5, readout=readout)
    samples, direct = _clean_and_direct(cfg)
    p = cfg.beat_period
    assert p == 20
    assert samples.shape == direct.shape
    assert np.array_equal(samples[:p], direct[:p])
    assert np.array_equal(samples[p : 2 * p], samples[:p])
    # the direct record drifts from exact periodicity only through the
    # rounding of 2 pi delta_f t at large t
    swing = direct.max() - direct.min()
    assert np.max(np.abs(samples - direct)) <= 1e-9 * swing


@pytest.mark.parametrize("readout", READOUT_SCHEMES)
def test_beat_period_follows_the_exact_sample_ratio(readout):
    # 3.1 MHz / 150 kHz = 62/3: the beat repeats after 62 samples
    cfg = config(integration_time=0.5, readout=readout, sample_rate=3.1e6)
    assert cfg.beat_period == 62
    samples, direct = _clean_and_direct(cfg)
    assert np.array_equal(samples[:62], direct[:62])
    assert np.array_equal(samples[62:124], samples[:62])
    # 3000001/150000: no repeat within the record, every sample is evaluated
    cfg = replace(cfg, sample_rate=3.0e6 + 1.0)
    assert cfg.beat_period >= round(cfg.fs * cfg.integration_time)
    samples, direct = _clean_and_direct(cfg)
    assert np.array_equal(samples, direct)


@pytest.mark.parametrize("readout", READOUT_SCHEMES)
def test_automatic_rate_has_a_20_sample_period_at_any_beat(readout):
    # 123456.7 Hz has no exact binary form, so 20 * delta_f / delta_f is
    # not exactly 20; the automatic rate is 20 samples per beat by
    # definition all the same
    delta_f = 123456.7
    cfg = config(
        delta_f=delta_f,
        f_signal=8.565865e9 + delta_f,
        integration_time=0.1,
        readout=readout,
    )
    assert cfg.beat_period == 20
    samples, direct = _clean_and_direct(cfg)
    assert samples.shape == direct.shape
    assert np.array_equal(samples[:20], direct[:20])
    swing = direct.max() - direct.min()
    assert np.max(np.abs(samples - direct)) <= 1e-9 * swing
    # the same rate given explicitly keeps the exact ratio's period
    explicit = replace(cfg, sample_rate=cfg.fs)
    exact = Fraction(cfg.fs) / Fraction(delta_f)
    assert explicit.beat_period == exact.numerator > 20
    assert config(sample_rate=3.1e6).beat_period == 62


@pytest.mark.parametrize("sample_rate, delta_f", [
    (3.1e6, 150.0e3), (3.0e6 + 1.0, 150.0e3), (2.469134e6, 123456.7),
    (1.0e7, 1.0 / 3.0), (2.0 ** -20 * 3.0, 2.0 ** -30), (4.5e6, 225.0e3),
    (np.int64(3_100_000), 150_000),
])
def test_beat_period_is_the_reduced_numerator_of_the_rate_ratio(sample_rate, delta_f):
    cfg = HeterodyneConfig(
        sample_rate=sample_rate, delta_f=delta_f, f_local=1.0, f_signal=1.0 + delta_f,
        integration_time=SEGMENT_LENGTH / sample_rate)
    assert cfg.beat_period == (Fraction(sample_rate) / Fraction(delta_f)).numerator


@pytest.mark.parametrize("size", [*range(1, 60), 1023, 1024, 1025, 4096, 100_001])
def test_median_is_np_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    samples = (
        rng.standard_normal(size),
        rng.exponential(size=size) * 1e-14,
        rng.integers(0, 3, size) * np.array([-0.0, 0.0, 1.5])[rng.integers(0, 3, size)],
    )
    for values in samples:
        before = values.copy()
        got = median(values)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(np.median(values)).tobytes()
        assert np.array_equal(values, before)  # partitioned in a copy
    with_nan = samples[0].copy()
    with_nan[size // 2] = math.nan
    assert math.isnan(median(with_nan)) and math.isnan(np.median(with_nan))


def test_signal_stronger_than_local_oscillator_rejected():
    from scipy.constants import hbar

    cfg = config()
    delta_p = operating_point(cfg, MEDIUM, POINTER)
    e_too_big = 1.000001 * cfg.omega_local * hbar / cfg.dipole_mw
    with pytest.raises(InvalidParameterError):
        run_beat_experiment(cfg, MEDIUM, POINTER, None, 0, e_too_big, delta_p=delta_p)
    with pytest.warns(RegimeWarning):
        run_beat_experiment(
            cfg, MEDIUM, POINTER, None, 0, 0.6 * e_too_big, delta_p=delta_p)


def test_beat_metrics_synthetic_tone():
    fs = 3.0e6
    n = 60000
    t = np.arange(n) / fs
    tone = 1e-3 * np.sin(2 * math.pi * 150e3 * t)
    rng = np.random.default_rng(0)
    ts = TimeSeries(fs=fs, samples=tone + 1e-6 * rng.standard_normal(n))
    m = beat_metrics(ts)
    assert abs(m.peak_freq_hz - 150e3) <= m.bin_width_hz
    assert m.snr_db > 40.0
    assert m.bin_width_hz == pytest.approx(fs / 2048.0, rel=1e-12)


def test_min_detectable_field_recovers_synthetic_crossing(synthetic_sweep):
    # construct points lying exactly on snr_db = 2 * (10 log10 E) + b with a
    # known zero crossing; the extrapolation must hit it to 1e-6 relative
    e_min_true = 3.7e-7
    slope = 2.0
    intercept = -slope * 10.0 * math.log10(e_min_true)
    fields = (1e-4, 3e-4, 1e-3, 3e-3)
    points = synthetic_sweep(
        fields, lambda e: slope * 10.0 * math.log10(e) + intercept, beat_db=0.0)
    fit = min_detectable_field(points)
    assert fit.slope_db_per_db == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert abs(fit.e_min - e_min_true) / e_min_true < 1e-6


def test_min_detectable_field_doubling_floor_scales_e_min(synthetic_sweep):
    # raising the noise floor by 6.0206 dB (amplitude x2) doubles e_min when
    # the slope is exactly 2
    e_min_true = 1.0e-6
    intercept = -20.0 * math.log10(e_min_true)
    fields = (1e-4, 1e-3, 1e-2)

    def points_with(offset_db):
        return synthetic_sweep(
            fields, lambda e: 20.0 * math.log10(e) + intercept - offset_db,
            beat_db=0.0)

    base = min_detectable_field(points_with(0.0))
    raised = min_detectable_field(points_with(20.0 * math.log10(2.0)))
    assert raised.e_min == pytest.approx(2.0 * base.e_min, rel=1e-9)


def test_min_detectable_field_failure_modes(synthetic_sweep):
    good = synthetic_sweep((1e-3, 1e-3), lambda e: 40.0)
    with pytest.raises(FitFailureError):
        min_detectable_field(good)  # too few points
    # noisy scatter destroys r^2
    rng = np.random.default_rng(1)
    scattered = synthetic_sweep(
        (1e-4, 3e-4, 1e-3, 3e-3, 1e-2), lambda e: 40.0 + 30.0 * rng.standard_normal())
    with pytest.raises(FitFailureError):
        min_detectable_field(scattered)
    # negative slope (snr falling with field) is nonsense even when linear
    falling = synthetic_sweep(
        (1e-4, 1e-3, 1e-2), lambda e: 60.0 - 20.0 * math.log10(e / 1e-4))
    with pytest.raises(FitFailureError, match="not positive"):
        min_detectable_field(falling)


def test_sensitivity_sweep_dispersion_linearity():
    cfg = config(integration_time=0.05)
    det = DetectorParams(rin=7.0e-7)
    points = sensitivity_sweep(cfg, MEDIUM, POINTER, det, seed=2)
    assert points.e_signal.tolist() == list(cfg.e_signal)
    for peak_freq_hz in points.peak_freq_hz:
        assert abs(peak_freq_hz - cfg.delta_f) <= cfg.fs / 2048.0
    fit = min_detectable_field(points)
    assert fit.r_squared > 0.999
    assert fit.slope_db_per_db == pytest.approx(2.0, abs=0.05)


def assert_same_sweep(sweep, reference):
    for field in fields(Sweep):
        assert np.array_equal(getattr(sweep, field.name), getattr(reference, field.name))


def test_sensitivity_sweep_map_fn_equivalence():
    # a thread-pool map of any size, with threads switching often, must
    # give bit-identical numbers to the serial map, for one sweep and for
    # the scheme comparison
    import sys
    from concurrent.futures import ThreadPoolExecutor

    cfg = config()
    det = DetectorParams(rin=7.0e-7)
    serial = sensitivity_sweep(cfg, MEDIUM, POINTER, det, seed=3)
    serial_comparison = scheme_comparison(cfg, MEDIUM, POINTER, det, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                threaded = sensitivity_sweep(
                    cfg, MEDIUM, POINTER, det, seed=3, map_fn=pool.map)
                comparison = scheme_comparison(
                    cfg, MEDIUM, POINTER, det, seed=3, map_fn=pool.map)
            assert_same_sweep(threaded, serial)
            assert_same_sweep(comparison.points_dispersion,
                              serial_comparison.points_dispersion)
            assert_same_sweep(comparison.points_amplitude,
                              serial_comparison.points_amplitude)
            assert comparison.dispersion == serial_comparison.dispersion
            assert comparison.amplitude == serial_comparison.amplitude
            for name in ("delta_sensitivity_db", "delta_min_field_db",
                         "delta_min_field_db_power"):
                assert getattr(comparison, name) == getattr(serial_comparison, name)
    finally:
        sys.setswitchinterval(interval)


def test_snr_nonincreasing_in_nep():
    cfg = config(e_signal=(1.0e-3,))
    results = []
    for nep in (7.2e-15, 7.2e-13, 7.2e-12):
        det = DetectorParams(nep=nep)
        points = sensitivity_sweep(cfg, MEDIUM, POINTER, det, seed=4)
        results.append(points.snr_db[0])
    assert results[0] >= results[1] >= results[2]


def test_scheme_comparison_identical_points_is_zero_db(synthetic_sweep):
    points = synthetic_sweep((1e-4, 1e-3, 1e-2), lambda e: 20.0 * math.log10(e) + 90.0)
    result = comparison_from_points(points, points)
    assert result.delta_sensitivity_db == pytest.approx(0.0, abs=1e-12)
    assert result.delta_min_field_db == pytest.approx(0.0, abs=1e-12)
    assert result.delta_min_field_db_power == pytest.approx(0.0, abs=1e-12)


def test_scheme_comparison_refuses_sweeps_over_different_fields(synthetic_sweep):
    # paired by position, these read -10 dB where the advantage at each
    # shared field is +10 dB
    dispersion = synthetic_sweep(
        (1e-4, 1e-3, 1e-2), lambda e: 20.0 * math.log10(e) + 100.0)
    amplitude = synthetic_sweep(
        (1e-3, 1e-2, 0.1, 1.0), lambda e: 20.0 * math.log10(e) + 90.0)
    with pytest.raises(InvalidParameterError, match="same signal amplitudes"):
        comparison_from_points(dispersion, amplitude)
    with pytest.raises(InvalidParameterError, match="same signal amplitudes"):
        comparison_from_points(amplitude, dispersion)


def test_scheme_comparison_dispersion_advantage():
    cfg = config(integration_time=0.05)
    det = DetectorParams(rin=7.0e-7)
    result = scheme_comparison(cfg, MEDIUM, POINTER, det, seed=2)
    ratio = result.amplitude.e_min / result.dispersion.e_min
    assert 2.0 <= ratio <= 5.0
    assert result.delta_min_field_db == pytest.approx(
        20.0 * math.log10(ratio), rel=1e-9)
    assert result.delta_min_field_db_power == pytest.approx(
        10.0 * math.log10(ratio), rel=1e-9)
    assert result.delta_min_field_db > 0.0


def test_calibration_curve_linearity_and_slope():
    powers = [1e-7, 1e-6, 4e-6, 1e-5, 4e-5, 1e-4]
    horn = 1000.0
    result = calibration_curve(powers, horn, LadderSystemParams())
    assert result.r_squared > 0.999
    assert result.slope == pytest.approx(horn, rel=0.05)
    assert result.resolved.all()


def test_calibration_curve_flags_unresolved_powers():
    # the weakest drive cannot split the line; it is excluded from the fit
    powers = [1e-12, 1e-5, 4e-5, 1e-4]
    result = calibration_curve(powers, 1000.0, LadderSystemParams())
    assert result.resolved.tolist() == [False, True, True, True]
    assert math.isnan(result.f_at_hz[0])
    assert np.array_equal(np.isnan(result.e_recovered), ~result.resolved)
    for f_at, e_recovered in zip(result.f_at_hz[1:], result.e_recovered[1:]):
        assert e_recovered == field_from_at_splitting(f_at, DEFAULT_DIPOLE_MW)
    assert result.slope == pytest.approx(1000.0, rel=0.05)


def test_calibration_curve_grid_refinement_stability():
    powers = [1e-6, 1e-5, 1e-4]
    coarse = calibration_curve(powers, 1000.0, LadderSystemParams(), points=8192)
    fine = calibration_curve(powers, 1000.0, LadderSystemParams(), points=16384)
    assert abs(fine.slope - coarse.slope) / coarse.slope < 1e-2


def test_calibration_curve_failure_modes():
    with pytest.raises(InvalidParameterError):
        calibration_curve([1e-6], 1000.0, LadderSystemParams())
    with pytest.raises(InvalidParameterError):
        calibration_curve([1e-6, 2e-6], 1000.0, LadderSystemParams())  # <10x span
    with pytest.raises(FitFailureError):
        calibration_curve([1e-12, 2e-11], 1000.0, LadderSystemParams())
    # a NaN passed every check and failed later on omega_mw
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(InvalidParameterError, match="horn_factor"):
            calibration_curve([1e-6, 1e-4], bad, LadderSystemParams())
        with pytest.raises(InvalidParameterError, match="dipole_mw"):
            calibration_curve([1e-6, 1e-4], 1000.0, LadderSystemParams(), dipole_mw=bad)
