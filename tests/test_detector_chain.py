"""Balanced-detection chain: noise statistics, sampling, PSD estimation."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc
from scipy import constants, signal

from rydsag import heterodyne
from rydsag.detector_chain import (
    MAX_SAMPLES,
    DetectorParams,
    TimeSeries,
    _bandwidth_filter,
    _noise_sigma,
    _sample_count,
    channel_readout,
    icr_from_powers,
    one_pole,
    psd,
    sample_timeseries,
    split_powers,
)
from rydsag.eit_medium import LadderSystemParams
from rydsag.errors import InvalidParameterError, RegimeWarning
from rydsag.heterodyne import HeterodyneConfig, run_beat_experiment
from rydsag.weak_pointer import BeamPointer, PointerSetup, PostSelection, WeakCoupling


def assert_matches_oracle(actual, reference):
    """Agreement to 1e-12 of the reference's largest magnitude.

    The comparisons below are exact at numpy 2.4 / scipy 1.17; the margin
    leaves room for older scipy releases, which order the Welch scaling
    differently.
    """
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= 1e-12 * np.max(np.abs(reference))


def quiet_detector(**overrides):
    """Detector with every optional noise term off unless overridden."""
    base = dict(nep=0.0, dark_current=0.0, gap=0.0, bandwidth=1.0e9)
    base.update(overrides)
    return DetectorParams(**base)


def test_split_powers_balanced_gaussian():
    x = np.linspace(-5e-3, 5e-3, 4001)
    profile = np.exp(-x**2 / (2 * (1e-3) ** 2))
    left, right = split_powers(profile, x, quiet_detector())
    assert left == pytest.approx(right, rel=1e-9)


def test_split_powers_sign_follows_imbalance():
    x = np.linspace(-5e-3, 5e-3, 4001)
    shifted = np.exp(-((x + 2e-4) ** 2) / (2 * (1e-3) ** 2))  # left-shifted
    left, right = split_powers(shifted, x, quiet_detector())
    assert left > right
    assert icr_from_powers(left, right) > 0.0


def test_split_powers_gap_discards_center():
    x = np.linspace(-5e-3, 5e-3, 4001)
    profile = np.exp(-x**2 / (2 * (1e-3) ** 2))
    full_l, full_r = split_powers(profile, x, quiet_detector())
    gap_l, gap_r = split_powers(profile, x, quiet_detector(gap=1e-3))
    assert gap_l < full_l and gap_r < full_r
    assert gap_l == pytest.approx(gap_r, rel=1e-9)


def test_icr_from_powers_bounds_and_validation():
    assert icr_from_powers(1.0, 0.0) == 1.0
    assert icr_from_powers(0.0, 1.0) == -1.0
    assert icr_from_powers(2.0, 1.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(InvalidParameterError):
        icr_from_powers(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        icr_from_powers(0.0, 0.0)


def test_sample_timeseries_deterministic():
    det = DetectorParams()
    fn = lambda t: (np.full_like(t, 100e-6), np.full_like(t, 90e-6))
    a = sample_timeseries(fn, det, 1e6, 0.01, seed=123)
    b = sample_timeseries(fn, det, 1e6, 0.01, seed=123)
    c = sample_timeseries(fn, det, 1e6, 0.01, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_shot_noise_variance_scaling():
    # shot-limited power record: per-sample variance 2 h nu P (fs/2)
    power = 175e-6
    fs = 1e6
    det = quiet_detector()
    ts = sample_timeseries(lambda t: (power,), det, fs, 0.5, seed=5)
    nu = sc.c / det.wavelength
    expected = 2.0 * sc.h * nu * power * (fs / 2.0)
    measured = float(np.var(ts.samples))
    assert measured == pytest.approx(expected, rel=0.05)


def test_nep_noise_adds_in_quadrature():
    power = 175e-6
    fs = 1e6
    nep = 7.2e-12  # exaggerated so it dominates shot noise
    det = quiet_detector(nep=nep)
    ts = sample_timeseries(lambda t: (power,), det, fs, 0.5, seed=6)
    nu = sc.c / det.wavelength
    expected = (2.0 * sc.h * nu * power + nep**2) * (fs / 2.0)
    assert float(np.var(ts.samples)) == pytest.approx(expected, rel=0.05)


def test_rin_cancels_in_contrast_but_not_in_power():
    power = 175e-6
    fs = 1e6
    rin = 1e-6
    fn = lambda t: (np.full_like(t, 0.6 * power), np.full_like(t, 0.4 * power))
    eta_plain = sample_timeseries(fn, quiet_detector(), fs, 0.2, seed=7)
    eta_rin = sample_timeseries(fn, quiet_detector(rin=rin), fs, 0.2, seed=7)
    # common-mode multiplicative noise divides out of the eta record
    assert float(np.std(eta_rin.samples)) == pytest.approx(
        float(np.std(eta_plain.samples)), rel=0.02)

    p_plain = sample_timeseries(lambda t: (power,), quiet_detector(), fs, 0.2, seed=8)
    p_rin = sample_timeseries(
        lambda t: (power,), quiet_detector(rin=rin), fs, 0.2, seed=8)
    var_gain = np.var(p_rin.samples) / np.var(p_plain.samples)
    assert var_gain > 5.0  # RIN at 1e-6/sqrt(Hz) dwarfs shot noise here


def test_line_injection_shows_up_in_psd():
    power = 175e-6
    fs = 1e6
    det = quiet_detector(line_freq_hz=50e3, line_amp_w=1e-8)
    ts = sample_timeseries(lambda t: (power,), det, fs, 0.2, seed=9)
    freqs, density = psd(ts, 4096)
    peak = freqs[np.argmax(density[1:]) + 1]
    assert abs(peak - 50e3) <= freqs[1] - freqs[0]


def test_psd_parseval_on_known_sinusoid():
    fs = 1e5
    n = 65536
    t = np.arange(n) / fs
    amp = 2.5e-6
    series = TimeSeries(fs=fs, samples=amp * np.sin(2 * math.pi * 12e3 * t))
    freqs, density = psd(series, 4096)
    total = np.trapezoid(density, freqs)
    assert total == pytest.approx(amp**2 / 2.0, rel=0.05)
    peak = freqs[np.argmax(density)]
    assert abs(peak - 12e3) <= freqs[1] - freqs[0]


@pytest.mark.parametrize(
    "n, segment_length, overlap",
    [
        (1_500_000, 2048, None),
        (75_000, 2048, None),
        (5000, 4096, None),
        (4096, 4096, None),  # a single segment
        (5000, 1001, 0),  # odd length: no unpaired Nyquist bin
        (10_007, 257, 100),
        (12_345, 512, 0),
        (3000, 8, 7),
    ],
)
def test_psd_matches_scipy_welch(n, segment_length, overlap):
    rng = np.random.default_rng(n)
    series = TimeSeries(fs=3.3e6, samples=1.0 + 3.0 * rng.standard_normal(n))
    freqs, density = psd(series, segment_length, overlap)
    ref_freqs, ref_density = signal.welch(
        series.samples,
        fs=series.fs,
        window="hann",
        nperseg=segment_length,
        noverlap=segment_length // 2 if overlap is None else overlap,
        detrend="constant",
        scaling="density",
    )
    assert_matches_oracle(freqs, ref_freqs)
    assert_matches_oracle(density, ref_density)


@pytest.mark.parametrize("n", [1, 1009, 1_500_000])
@pytest.mark.parametrize("a", [0.0, 1.8e-23, 0.5, 0.939, 0.999, 0.99997])
@pytest.mark.parametrize("y0", [0.0, 2.5])
def test_one_pole_matches_lfilter(n, a, y0):
    x = np.random.default_rng(n).standard_normal(n)
    reference, _ = signal.lfilter([1.0 - a], [1.0, -a], x, zi=[a * y0])
    assert_matches_oracle(one_pole((1.0 - a) * x, a, y0), reference)


def test_psd_validation():
    series = TimeSeries(fs=1e5, samples=np.zeros(1000))
    with pytest.raises(InvalidParameterError):
        psd(series, 4)
    with pytest.raises(InvalidParameterError):
        psd(series, 2048)


def test_low_bandwidth_filter_attenuates_high_frequency():
    fs = 1e6
    f_sig = 2e5
    power = 100e-6
    fn = lambda t: power * (1.0 + 0.01 * np.sin(2 * math.pi * f_sig * t))
    wide = sample_timeseries(
        lambda t: (fn(t),), quiet_detector(bandwidth=25e6), fs, 0.05, seed=3)
    with pytest.warns(Warning, match="bandwidth"):
        narrow = sample_timeseries(
            lambda t: (fn(t),), quiet_detector(bandwidth=2e4), fs, 0.05, seed=3)

    def tone_power(ts):
        freqs, density = psd(ts, 4096)
        idx = int(np.argmin(np.abs(freqs - f_sig)))
        return float(density[idx])

    assert tone_power(narrow) < 0.2 * tone_power(wide)


def test_bandwidth_filter_skips_only_an_exact_identity():
    # the shipped detector at the shipped heterodyne rate (20 samples per
    # 150 kHz beat) has a pole of about 1.8e-23, which rounds away
    det = DetectorParams()
    fs = 3.0e6
    t = np.arange(150_000) / fs
    power = 175e-6 * (1.0 + 0.01 * np.sin(2 * math.pi * 150e3 * t))
    noise = np.random.default_rng(4).standard_normal(power.size)
    x = power + noise * _noise_sigma(power, det, fs)
    a = math.exp(-2.0 * math.pi * det.bandwidth / fs)
    assert 0.0 < a < 1e-22
    skipped = _bandwidth_filter(x, det, fs)
    assert skipped is x
    assert np.array_equal(skipped, one_pole((1.0 - a) * x, a, y0=x[0]))

    # a zero sample after a nonzero one keeps a * x[n-1]: no skip
    holed = x.copy()
    holed[10] = 0.0
    filtered = _bandwidth_filter(holed, det, fs)
    assert filtered[10] == a * holed[9] > 0.0
    assert np.array_equal(filtered, one_pole((1.0 - a) * holed, a, y0=holed[0]))

    # a bandwidth of fs/10 is a real low-pass
    slow = DetectorParams(bandwidth=fs / 10)
    b = math.exp(-2.0 * math.pi * slow.bandwidth / fs)
    filtered = _bandwidth_filter(x, slow, fs)
    assert not np.array_equal(filtered, x)
    assert np.array_equal(filtered, one_pole((1.0 - b) * x, b, y0=x[0]))


def test_sample_count_guard():
    det = DetectorParams()
    with pytest.raises(InvalidParameterError):
        sample_timeseries(lambda t: (1e-6,), det, 1e9, MAX_SAMPLES, seed=0)
    with pytest.raises(InvalidParameterError):
        sample_timeseries(lambda t: (1e-6,), det, -1.0, 1.0, seed=0)
    # a bare array or a third channel is not a channel tuple
    for fn in (lambda t: np.full_like(t, 1e-6), lambda t: (t, t, t)):
        with pytest.raises(InvalidParameterError):
            sample_timeseries(fn, det, 1e6, 0.01, seed=0)


def test_detector_params_validation():
    with pytest.raises(InvalidParameterError):
        DetectorParams(nep=-1.0)
    with pytest.raises(InvalidParameterError):
        DetectorParams(responsivity=0.0)
    with pytest.raises(InvalidParameterError):
        DetectorParams(wavelength=-1.0)
    assert DetectorParams().photon_energy == pytest.approx(
        sc.h * sc.c / 852.35e-9, rel=1e-12)


def test_timeseries_times():
    ts = TimeSeries(fs=10.0, samples=np.zeros(5), t0=1.0)
    assert np.allclose(ts.times(), 1.0 + np.arange(5) / 10.0)


# ---------------------------------------------------------------------------
# the full-length chain as it stood before channels could repeat by period,
# kept verbatim as the oracle of the period-wise chain


def _reference_additive_noise(rng, power, det, fs):
    """One channel's additive noise draw in optical power units."""
    nyquist = 0.5 * fs
    shot_var = 2.0 * det.photon_energy * np.clip(power, 0.0, None) * nyquist
    nep_var = det.nep**2 * nyquist
    dark_var = (
        2.0 * constants.e * det.dark_current * nyquist / det.responsivity**2
    )
    return rng.standard_normal(power.size) * np.sqrt(shot_var + nep_var + dark_var)


def _reference_common_mode_factors(rng, det, fs, t):
    """Multiplicative RIN factor and additive line waveform (may be None)."""
    factor = None
    if det.rin > 0.0:
        factor = 1.0 + det.rin * math.sqrt(0.5 * fs) * rng.standard_normal(t.size)
    line = None
    if det.line_amp_w > 0.0 and det.line_freq_hz > 0.0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        line = det.line_amp_w * np.sin(2.0 * math.pi * det.line_freq_hz * t + phase)
    return factor, line


def _reference_sample_timeseries(signal_fn, det, fs, duration, seed):
    """Noisy readout record of a one- or two-channel optical signal.

    ``signal_fn(t)`` maps an array of sample times to a tuple of clean
    channel powers in watts: ``(P,)`` for a transmitted-power record, or
    ``(P_left, P_right)`` for a split-detector eta record.  Per sample and
    channel the chain draws shot noise (variance 2 h nu P fs/2), NEP noise
    (variance nep^2 fs/2) and dark-current noise, applies any common-mode
    intensity noise and line (split evenly across the channels), low-passes
    each channel at the detector bandwidth, clamps negative powers, and
    reads out through channel_readout.  Reproducible from the seed.
    """
    n = _sample_count(fs, duration)
    if fs > 2.0 * det.bandwidth:
        warnings.warn(
            "sample rate exceeds twice the detector bandwidth; the sampled "
            "record is bandwidth-limited",
            RegimeWarning,
            stacklevel=2,
        )
    t = np.arange(n) / fs
    clean = signal_fn(t)
    if not isinstance(clean, tuple) or len(clean) not in (1, 2):
        raise InvalidParameterError(
            "signal_fn must return a tuple of 1 or 2 channel powers"
        )
    powers = [np.broadcast_to(np.asarray(p, dtype=float), t.shape).copy() for p in clean]
    del clean  # keep one full-length array per channel alive, not two

    rng = np.random.default_rng(seed)
    factor, line = _reference_common_mode_factors(rng, det, fs, t)
    noises = [_reference_additive_noise(rng, power, det, fs) for power in powers]

    channels = []
    for power, noise in zip(powers, noises):
        if factor is not None:
            power *= factor
        if line is not None:
            power += line / len(powers)
        channels.append(np.clip(_bandwidth_filter(power + noise, det, fs), 0.0, None))
    return TimeSeries(fs=fs, samples=channel_readout(channels))


def _full_length(signal_fn):
    """The same signal with every channel repeated out to the record length."""
    return lambda t: tuple(
        np.resize(np.asarray(p, dtype=float), t.size) for p in signal_fn(t)
    )


def assert_same_bits(actual, reference):
    assert actual.shape == reference.shape
    assert np.array_equal(actual.view(np.int64), reference.view(np.int64))


ORACLE_FS = 1.0e6
ORACLE_DURATION = 0.006  # 6000 samples


def _periodic_channels(channels, period):
    """Channel powers over one period (None: constant powers).

    One channel is the right one, whose clean power dips below zero, so
    the noise deviation and the record both clamp.
    """
    def signal_fn(t):
        if period is None:
            return (80e-6, 60e-6)[2 - channels :]
        phase = 2.0 * math.pi * np.arange(period) / period
        left = 80e-6 * (1.0 + 0.3 * np.sin(phase))
        right = 3e-11 * (0.2 + np.cos(phase))
        return (left, right)[2 - channels :]
    return signal_fn


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("period", [None, 20, 7, 6000], ids=["scalar", "20", "7", "n"])
def test_periodic_chain_is_bit_equal_to_full_length_chain(channels, period):
    fn = _periodic_channels(channels, period)
    base = DetectorParams()
    detectors = [
        replace(base, rin=rin, line_freq_hz=line, line_amp_w=1e-9 if line else 0.0)
        for rin in (0.0, 1e-6)
        for line in (0.0, 50e3)
    ]
    detectors += [replace(det, bandwidth=ORACLE_FS / 10) for det in detectors]
    for seed, det in enumerate(detectors):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            reference = _reference_sample_timeseries(
                _full_length(fn), det, ORACLE_FS, ORACLE_DURATION, seed)
            periodic = sample_timeseries(fn, det, ORACLE_FS, ORACLE_DURATION, seed)
            full = sample_timeseries(
                _full_length(fn), det, ORACLE_FS, ORACLE_DURATION, seed)
        assert_same_bits(periodic.samples, reference.samples)
        assert_same_bits(full.samples, reference.samples)


# thin-vapor medium and balanced pointer of tests/test_heterodyne.py
MEDIUM = LadderSystemParams(density=1.0e15, omega_c=2.0 * math.pi * 2.0e6)
POINTER = PointerSetup(
    post=PostSelection(math.pi / 4),
    coupling=WeakCoupling(10.0),
    beam=BeamPointer.centered(1.0e-3),
)


@pytest.mark.parametrize("readout", heterodyne.READOUT_SCHEMES)
@pytest.mark.parametrize("sample_rate", [0.0, 3.1e6, 3.0e6 + 1.0])
def test_heterodyne_records_equal_the_full_length_path(
    monkeypatch, readout, sample_rate
):
    cfg = HeterodyneConfig(
        integration_time=0.002, readout=readout, sample_rate=sample_rate)
    det = DetectorParams(rin=1e-7, line_freq_hz=20e3, line_amp_w=1e-9)
    operating = heterodyne.operating_point(cfg, MEDIUM, POINTER)

    def run():
        return run_beat_experiment(
            cfg, MEDIUM, POINTER, det, 5, cfg.e_signal[-1], operating).samples

    periodic = run()
    monkeypatch.setattr(
        heterodyne,
        "sample_timeseries",
        lambda fn, *args: _reference_sample_timeseries(_full_length(fn), *args),
    )
    assert_same_bits(periodic, run())


def test_periodic_chain_memory_stays_near_the_record_size():
    # two channels of a 20-sample period with RIN; the contrast readout
    # alone holds 5 records (both channels, their sum and difference, and
    # the quotient), so the chain before it must stay below that
    fs = 3.0e6
    fn = _periodic_channels(2, 20)
    det = DetectorParams(rin=1e-7)
    n = 300_000
    tracemalloc.start()
    try:
        ts = sample_timeseries(fn, det, fs, n / fs, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ts.samples.size == n
    assert peak <= 6 * ts.samples.nbytes


def test_channels_of_unequal_or_excess_length_are_rejected():
    det = DetectorParams()
    for fn in (
        lambda t: (np.ones(20), np.ones(62)),
        lambda t: (np.ones(t.size + 1),),
        lambda t: (np.ones((2, 10)),),
        lambda t: (np.ones(0),),
    ):
        with pytest.raises(InvalidParameterError):
            sample_timeseries(fn, det, 1e6, 0.01, seed=0)
