"""Balanced-detection chain: noise statistics, sampling, PSD estimation."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants as sc
from numpy.lib.stride_tricks import sliding_window_view
from scipy import constants, signal
from scipy import fft as sfft

from rydsag import heterodyne
from rydsag.detector_chain import (
    BLOCK,
    CHUNK,
    MAX_GRID_POINTS,
    DetectorParams,
    TimeSeries,
    Welch,
    _bandwidth_filter,
    _noise_sigma,
    _sample_count,
    channel_readout,
    detected_spectra,
    one_pole,
    psd,
    sample_timeseries,
)
from rydsag.eit_medium import LadderSystemParams
from rydsag.errors import InvalidParameterError, RegimeWarning
from rydsag.heterodyne import HeterodyneConfig, run_beat_experiment
from rydsag.weak_pointer import BeamPointer, PointerSetup, PostSelection, WeakCoupling


def assert_matches_oracle(actual, reference):
    """Agreement to 1e-12 of the reference's largest magnitude.

    The margin covers a different order of the same rounded operations:
    the chunked Welch sum against a mean over all segments, or an older
    scipy release, which orders the Welch scaling differently.
    """
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= 1e-12 * np.max(np.abs(reference))


def quiet_detector(**overrides):
    """Detector with every optional noise term off unless overridden."""
    base = dict(nep=0.0, dark_current=0.0, gap=0.0, bandwidth=1.0e9)
    base.update(overrides)
    return DetectorParams(**base)


def test_sample_timeseries_deterministic():
    det = DetectorParams()
    clean = (np.full(10_000, 100e-6), np.full(10_000, 90e-6))
    a = sample_timeseries(clean, det, 1e6, 0.01, seed=123)
    b = sample_timeseries(clean, det, 1e6, 0.01, seed=123)
    c = sample_timeseries(clean, det, 1e6, 0.01, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_shot_noise_variance_scaling():
    # shot-limited power record: per-sample variance 2 h nu P (fs/2)
    power = 175e-6
    fs = 1e6
    det = quiet_detector()
    ts = sample_timeseries((power,), det, fs, 0.5, seed=5)
    nu = sc.c / det.wavelength
    expected = 2.0 * sc.h * nu * power * (fs / 2.0)
    measured = float(np.var(ts.samples))
    assert measured == pytest.approx(expected, rel=0.05)


def test_nep_noise_adds_in_quadrature():
    power = 175e-6
    fs = 1e6
    nep = 7.2e-12  # exaggerated so it dominates shot noise
    det = quiet_detector(nep=nep)
    ts = sample_timeseries((power,), det, fs, 0.5, seed=6)
    nu = sc.c / det.wavelength
    expected = (2.0 * sc.h * nu * power + nep**2) * (fs / 2.0)
    assert float(np.var(ts.samples)) == pytest.approx(expected, rel=0.05)


def test_rin_cancels_in_contrast_but_not_in_power():
    power = 175e-6
    fs = 1e6
    rin = 1e-6
    clean = (np.full(200_000, 0.6 * power), np.full(200_000, 0.4 * power))
    eta_plain = sample_timeseries(clean, quiet_detector(), fs, 0.2, seed=7)
    eta_rin = sample_timeseries(clean, quiet_detector(rin=rin), fs, 0.2, seed=7)
    # common-mode multiplicative noise divides out of the eta record
    assert float(np.std(eta_rin.samples)) == pytest.approx(
        float(np.std(eta_plain.samples)), rel=0.02)

    p_plain = sample_timeseries((power,), quiet_detector(), fs, 0.2, seed=8)
    p_rin = sample_timeseries((power,), quiet_detector(rin=rin), fs, 0.2, seed=8)
    var_gain = np.var(p_rin.samples) / np.var(p_plain.samples)
    assert var_gain > 5.0  # RIN at 1e-6/sqrt(Hz) dwarfs shot noise here


def test_line_injection_shows_up_in_psd():
    power = 175e-6
    fs = 1e6
    det = quiet_detector(line_freq_hz=50e3, line_amp_w=1e-8)
    ts = sample_timeseries((power,), det, fs, 0.2, seed=9)
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


def _reference_psd(ts, segment_length, overlap=None):
    """The whole-record psd as it stood before it transformed the segments
    a chunk at a time, kept as the oracle of the chunked one."""
    samples = ts.samples
    segment_length = int(segment_length)
    if overlap is None:
        overlap = segment_length // 2
    fs = ts.fs
    hop = segment_length - overlap
    count = (samples.size - overlap) // hop
    segments = sliding_window_view(samples, segment_length)[::hop][:count]
    segments = segments - segments.mean(axis=-1, keepdims=True)
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, segment_length + 1)[:-1])
    segments *= window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
    spectra = sfft.rfft(segments, axis=-1)
    density = np.ascontiguousarray((spectra.real**2 + spectra.imag**2).T)
    density[1 : -1 if segment_length % 2 == 0 else None] *= 2.0
    return sfft.rfftfreq(segment_length, 1.0 / fs), density.mean(axis=-1)


@pytest.mark.parametrize(
    "n, segment_length, overlap",
    [
        (1_500_000, 2048, None),  # 1463 segments
        (3 * CHUNK * 256 + 100, 256, 0),  # three whole chunks
        ((5 * CHUNK + 3) * 1001, 1001, 0),  # odd length, a partial chunk
        (100_000, 1023, 500),
        (CHUNK * 64, 128, None),  # one segment short of a chunk
        (4096, 4096, None),  # a single segment
        # segment counts from a fraction of one chunk to many chunks, whole
        # and partial
        *[(64 * count, 64, 0) for count in (1, 7, 8, 128, 129, 136, 257, 1463)],
    ],
)
def test_chunked_psd_is_bit_equal_to_whole_record_psd(n, segment_length, overlap):
    # the frequencies are bit-equal; the density sums its segments chunk by
    # chunk, which a mean over all of them rounds differently
    rng = np.random.default_rng(n)
    series = TimeSeries(fs=3.3e6, samples=1.0 + 3.0 * rng.standard_normal(n))
    freqs, density = psd(series, segment_length, overlap)
    ref_freqs, ref_density = _reference_psd(series, segment_length, overlap)
    assert_same_bits(freqs, ref_freqs)
    assert_matches_oracle(density, ref_density)


@pytest.mark.parametrize(
    "segment_length, overlap",
    [(256, None), (1001, 0), (64, 60)],
    ids=["half-overlap", "odd-no-overlap", "short-hop"],
)
@pytest.mark.parametrize("block", ["1", "7", "hop-1", "hop", "BLOCK", "n"])
def test_streamed_welch_sum_is_bit_equal_to_psd(segment_length, overlap, block):
    # n is not a multiple of the hop, and the 299 to 2396 segments make
    # several chunks, which the blocks split anywhere
    hop = segment_length - (segment_length // 2 if overlap is None else overlap)
    n = 300 * segment_length + hop // 2 + 1
    series = TimeSeries(
        fs=3.3e6, samples=1.0 + 3.0 * np.random.default_rng(n).standard_normal(n))
    size = {"1": 1, "7": 7, "hop-1": hop - 1, "hop": hop, "BLOCK": BLOCK, "n": n}[block]
    welch = Welch(n, series.fs, segment_length, overlap)
    for start in range(0, n, size):
        welch.feed(series.samples[start : start + size].copy())
    freqs, density = welch.result()
    ref_freqs, ref_density = psd(series, segment_length, overlap)
    assert_same_bits(freqs, ref_freqs)
    assert_same_bits(density, ref_density)


@pytest.mark.parametrize("n", [1, 1009, 1_500_000])
@pytest.mark.parametrize("a", [0.0, 1.8e-23, 0.5, 0.939, 0.999, 0.99997])
@pytest.mark.parametrize("y0", [0.0, 2.5])
def test_one_pole_matches_lfilter(n, a, y0):
    x = np.random.default_rng(n).standard_normal(n)
    reference, _ = signal.lfilter([1.0 - a], [1.0, -a], x, zi=[a * y0])
    assert_matches_oracle(one_pole((1.0 - a) * x, a, y0), reference)


def _reference_one_pole(c, a, y0=0.0):
    """one_pole as it filtered a zero-padded copy of its input, kept as the
    oracle of the in-place one."""
    c = np.asarray(c, dtype=float)
    n = c.size
    width = math.isqrt(n // 64) | 1
    blocks = -(-n // width)
    flat = np.empty(blocks * width)
    flat[:n] = c
    flat[n:] = 0.0
    y = flat.reshape(blocks, width)
    ends = np.einsum("ij,j->i", y, np.power(a, np.arange(width - 1, -1, -1))).tolist()
    decay = a**width
    entry = [y0]
    for end in ends[:-1]:
        entry.append(end + decay * entry[-1])
    y[:, 0] += a * np.array(entry)
    for j in range(1, width):
        y[:, j] += a * y[:, j - 1]
    return flat[:n]


# rows of width 1 below 576 samples, a short last row of 3 to 108 samples,
# a full one at 763 000, the 60 s drift's white buffer of n + burn samples
@pytest.mark.parametrize(
    "n", [1, 63, 64, 65, 16_383, 16_384, 16_385, 200_001, 762_999, 763_000])
@pytest.mark.parametrize("a", [0.0, 0.3, 0.939, 0.99997])
def test_in_place_one_pole_is_bit_equal_to_padded_copy(n, a):
    c = np.random.default_rng(n).standard_normal(n)
    want = _reference_one_pole(c, a, y0=0.5)
    got = one_pole(c, a, y0=0.5)
    assert np.shares_memory(got, c)
    assert got.shape == want.shape == (n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    t = np.arange(50_000) / fs
    clean = (power * (1.0 + 0.01 * np.sin(2 * math.pi * f_sig * t)),)
    wide = sample_timeseries(clean, quiet_detector(bandwidth=25e6), fs, 0.05, seed=3)
    with pytest.warns(Warning, match="bandwidth"):
        narrow = sample_timeseries(
            clean, quiet_detector(bandwidth=2e4), fs, 0.05, seed=3)

    def tone_power(ts):
        freqs, density = psd(ts, 4096)
        idx = int(np.argmin(np.abs(freqs - f_sig)))
        return float(density[idx])

    assert tone_power(narrow) < 0.2 * tone_power(wide)


def test_bandwidth_filter_skips_a_pole_that_rounds_away():
    fs = 3.0e6
    t = np.arange(150_000) / fs
    power = 175e-6 * (1.0 + 0.01 * np.sin(2 * math.pi * 150e3 * t))
    noise = np.random.default_rng(4).standard_normal(power.size)
    x = power + noise * _noise_sigma(power, DetectorParams(), fs)
    # zero samples after nonzero ones: in the first block, on a block edge
    # and at the last sample
    holes = [10, BLOCK, x.size - 1]
    x[holes] = 0.0

    def pole(det):
        return math.exp(-2.0 * math.pi * det.bandwidth / fs)

    def detector(a):
        """Detector whose bandwidth puts the pole at about a."""
        return DetectorParams(bandwidth=-math.log(a) * fs / (2.0 * math.pi))

    # the shipped detector at the shipped heterodyne rate (20 samples per
    # 150 kHz beat), a pole of about 1.8e-23, and a pole just below 2**-54:
    # 1 - a rounds to 1, and the record is returned as it is, holes included
    for det in (DetectorParams(), detector(2.0**-54.5)):
        assert 0.0 < pole(det) < 2.0**-54 and 1.0 - pole(det) == 1.0
        record = x.copy()
        assert _bandwidth_filter(record, det, fs) is record
        assert_same_bits(record, x)

    # between 2**-54 and 2**-53, 1 - a does not round to 1: the record is
    # filtered in place, and each hole takes a * y[n-1]
    det = detector(2.0**-53.5)
    a = pole(det)
    assert 2.0**-54 < a < 2.0**-53 and 1.0 - a != 1.0
    record = x.copy()
    filtered = _bandwidth_filter(record, det, fs)
    assert np.shares_memory(filtered, record)
    assert_same_bits(filtered, one_pole((1.0 - a) * x, a, y0=x[0]))
    assert np.all(filtered[holes] > 0.0)

    # a bandwidth of fs/10 is a real low-pass
    slow = DetectorParams(bandwidth=fs / 10)
    b = math.exp(-2.0 * math.pi * slow.bandwidth / fs)
    filtered = _bandwidth_filter(x.copy(), slow, fs)
    assert not np.array_equal(filtered, x)
    assert np.array_equal(filtered, one_pole((1.0 - b) * x, b, y0=x[0]))


def test_sample_count_guard():
    det = DetectorParams()
    # one sample over the cap
    assert _sample_count(1e6, MAX_GRID_POINTS / 1e6) == MAX_GRID_POINTS
    with pytest.raises(InvalidParameterError, match="samples exceed the"):
        sample_timeseries((1e-6,), det, 1e6, (MAX_GRID_POINTS + 1) / 1e6, seed=0)
    with pytest.raises(InvalidParameterError):
        sample_timeseries((1e-6,), det, -1.0, 1.0, seed=0)
    # a bare array, a third channel or a callable is not a channel tuple
    t = np.arange(10_000) / 1e6
    for clean in (
        np.full_like(t, 1e-6),
        (t, t, t),
        lambda t: (np.full_like(t, 1e-6),),
    ):
        with pytest.raises(InvalidParameterError):
            sample_timeseries(clean, det, 1e6, 0.01, seed=0)


def test_detector_params_validation():
    with pytest.raises(InvalidParameterError):
        DetectorParams(nep=-1.0)
    with pytest.raises(InvalidParameterError):
        DetectorParams(responsivity=0.0)
    # responsivity**2 underflows to 0, and the dark-current variance divides by it
    with pytest.raises(InvalidParameterError, match="responsivity"):
        DetectorParams(responsivity=1.0e-300)
    # squares that overflow: the noise variances take nep**2 and responsivity**2
    with pytest.raises(InvalidParameterError, match="responsivity"):
        DetectorParams(responsivity=1.0e300)
    with pytest.raises(InvalidParameterError, match="nep"):
        DetectorParams(nep=1.0e300)
    with pytest.raises(InvalidParameterError):
        DetectorParams(wavelength=-1.0)
    assert DetectorParams().photon_energy == pytest.approx(
        sc.h * sc.c / 852.35e-9, rel=1e-12)


def test_timeseries_times():
    ts = TimeSeries(fs=10.0, samples=np.zeros(5))
    assert np.array_equal(ts.times(), np.arange(5) / 10.0)
    # the float range divided in place is bit-equal to the integer range
    # divided into a new array
    for fs in (1.0e4, 3.0e6, 7.0, 1.0 / 3.0):
        for n in (1, 2, 16_385, 600_001):
            times = TimeSeries(fs=fs, samples=np.zeros(n)).times()
            want = np.arange(n) / fs
            assert times.dtype == want.dtype and times.shape == want.shape
            assert np.array_equal(times.view(np.int64), want.view(np.int64))


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
    return TimeSeries(fs=fs, samples=_reference_channel_readout(channels))


def _reference_channel_readout(channels):
    """Readout of one or two channel power records.

    One channel reads out as its power; two read out as the contrast
    eta = (P_left - P_right) / (P_left + P_right), zero where no power
    arrives.
    """
    if len(channels) == 1:
        return channels[0]
    left, right = channels
    total = left + right
    return np.divide(left - right, total, out=np.zeros_like(total), where=total > 0.0)


def _repeated(clean, n):
    """The same channels, each repeated out to n samples."""
    return tuple(np.resize(np.asarray(p, dtype=float), n) for p in clean)


def assert_same_bits(actual, reference):
    assert actual.shape == reference.shape
    assert np.array_equal(actual.view(np.int64), reference.view(np.int64))


def test_in_place_readout_is_bit_equal_to_the_old_readout():
    # clamped channels with samples where one or both carry no power
    rng = np.random.default_rng(2)
    left, right = np.clip(rng.normal(1e-6, 2e-6, (2, 10_000)), 0.0, None)
    left[:100] = right[:100] = 0.0
    reference = _reference_channel_readout((left.copy(), right.copy()))
    assert np.count_nonzero((left + right) == 0.0) >= 100
    assert_same_bits(channel_readout((left, right)), reference)


ORACLE_FS = 1.0e6


def _periodic_channels(channels, period):
    """Channel powers over one period (None: constant powers).

    One channel is the right one, whose clean power dips below zero, so
    the noise deviation and the record both clamp.
    """
    if period is None:
        return (80e-6, 60e-6)[2 - channels :]
    phase = 2.0 * math.pi * np.arange(period) / period
    left = 80e-6 * (1.0 + 0.3 * np.sin(phase))
    right = 3e-11 * (0.2 + np.cos(phase))
    return (left, right)[2 - channels :]


# a record of several blocks, the last one partial
LONG = 2 * BLOCK + 7_000


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize(
    "period, samples",
    [
        (None, 6000),
        (20, 6000),
        (7, 6000),
        (6000, 6000),
        # 20 and 7 do not divide the block size, and a period longer than
        # a block is split into pieces of one period
        (None, LONG),
        (20, LONG),
        (7, LONG),
        (BLOCK + 600, LONG),
        (LONG, LONG),
    ],
    ids=["scalar", "20", "7", "n", "scalar-blocks", "20-blocks", "7-blocks",
         "over-block-blocks", "n-blocks"],
)
def test_periodic_chain_is_bit_equal_to_full_length_chain(channels, period, samples):
    duration = samples / ORACLE_FS
    clean = _periodic_channels(channels, period)
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
                lambda t: _repeated(clean, t.size), det, ORACLE_FS, duration, seed)
            periodic = sample_timeseries(clean, det, ORACLE_FS, duration, seed)
            full = sample_timeseries(
                _repeated(clean, samples), det, ORACLE_FS, duration, seed)
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
    delta_p = heterodyne.operating_point(cfg, MEDIUM, POINTER)

    def run():
        return run_beat_experiment(
            cfg, MEDIUM, POINTER, det, 5, cfg.e_signal[-1], delta_p).samples

    periodic = run()
    monkeypatch.setattr(
        heterodyne,
        "sample_timeseries",
        lambda clean, *args: _reference_sample_timeseries(
            lambda t: _repeated(clean, t.size), *args),
    )
    assert_same_bits(periodic, run())


@pytest.mark.parametrize("two_channel_first", [True, False])
@pytest.mark.parametrize(
    "det",
    [DetectorParams(), DetectorParams(rin=1e-6, line_freq_hz=50e3, line_amp_w=1e-9),
     DetectorParams(rin=1e-6, bandwidth=ORACLE_FS / 10)],
    ids=["quiet", "rin-line", "pole"],
)
def test_detected_spectra_equal_psd_of_each_readouts_own_record(two_channel_first, det):
    # one draw read out through a one-channel and a two-channel readout, in
    # either order, gives each readout's own record's spectrum; the
    # one-channel readout is the right channel, whose power clamps
    left, right = _periodic_channels(2, 20)
    readouts = ((left, right), (right,))
    if not two_channel_first:
        readouts = readouts[::-1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        spectra = detected_spectra(readouts, det, ORACLE_FS, LONG / ORACLE_FS, 3, 2048)
        for clean, (freqs, density) in zip(readouts, spectra):
            record = _reference_sample_timeseries(
                lambda t: _repeated(clean, t.size), det, ORACLE_FS, LONG / ORACLE_FS, 3)
            ref_freqs, ref_density = psd(record, 2048)
            assert_same_bits(freqs, ref_freqs)
            assert_same_bits(density, ref_density)


SHARED_DRAW_DETECTORS = {
    "quiet": DetectorParams(),
    "rin": DetectorParams(rin=1e-7),
    "line": DetectorParams(line_freq_hz=20e3, line_amp_w=1e-9),
    "rin-line": DetectorParams(rin=1e-7, line_freq_hz=20e3, line_amp_w=1e-9),
    # a pole that does not round away: every channel record is stored
    "pole": DetectorParams(rin=1e-7, bandwidth=1.0e6),
}


@pytest.mark.parametrize("detector", SHARED_DRAW_DETECTORS)
@pytest.mark.parametrize("sample_rate", [0.0, 3.1e6, 3.0e6 + 1.0])
def test_comparison_rows_equal_the_metrics_of_each_readouts_own_record(
    monkeypatch, detector, sample_rate
):
    # the comparison draws each field's noise once for both readouts; each
    # readout's rows must equal beat_metrics of the record that the
    # full-length reference chain draws for it alone from the same child
    cfg = HeterodyneConfig(
        integration_time=0.004, sample_rate=sample_rate, e_signal=(5e-4, 2e-3))
    det = SHARED_DRAW_DETECTORS[detector]
    seed = 11
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        with monkeypatch.context() as patched:
            patched.setattr(heterodyne, "comparison_from_points", lambda *sweeps: sweeps)
            sweeps = heterodyne.scheme_comparison(cfg, MEDIUM, POINTER, det, seed)
        monkeypatch.setattr(
            heterodyne,
            "sample_timeseries",
            lambda clean, *args: _reference_sample_timeseries(
                lambda t: _repeated(clean, t.size), *args),
        )
        children = np.random.SeedSequence(seed).spawn(len(cfg.e_signal))
        for scheme, sweep in zip(heterodyne.READOUT_SCHEMES, sweeps):
            scheme_cfg = replace(cfg, readout=scheme)
            delta_p = heterodyne.operating_point(scheme_cfg, MEDIUM, POINTER)
            rows = []
            for e_signal, child in zip(cfg.e_signal, children):
                record = run_beat_experiment(
                    scheme_cfg, MEDIUM, POINTER, det, child, e_signal, delta_p)
                metrics = heterodyne.beat_metrics(record)
                rows.append((e_signal, metrics.snr_db, 10.0 * math.log10(metrics.line_power),
                             metrics.peak_freq_hz, metrics.floor_density))
            for name, column in zip(
                    ("e_signal", "snr_db", "beat_db", "peak_freq_hz", "floor_density"),
                    zip(*rows)):
                assert_same_bits(getattr(sweep, name), np.array(column))


@pytest.mark.parametrize("rin", [0.0, 1e-6])
@pytest.mark.parametrize(
    "dark", [10, BLOCK, LONG - 1], ids=["first-block", "block-edge", "last-sample"])
def test_dark_sample_of_a_streamed_record_reads_zero(rin, dark):
    # with no NEP or dark current a sample that gets no light is exactly 0;
    # the pole rounds away, so the filter carries nothing into it, and the
    # right channel is streamed into the left record
    fs = 3.0e6
    det = DetectorParams(nep=0.0, dark_current=0.0, rin=rin)
    phase = 2.0 * math.pi * np.arange(LONG) / 20
    clean = (80e-6 * (1.0 + 0.3 * np.sin(phase)), 60e-6 * (1.0 + 0.3 * np.cos(phase)))
    for power in clean:
        power[dark] = 0.0
    reference = _reference_sample_timeseries(lambda t: clean, det, fs, LONG / fs, seed=1)
    ts = sample_timeseries(clean, det, fs, LONG / fs, seed=1)
    assert ts.samples[dark] == 0.0
    assert_same_bits(ts.samples, reference.samples)
    # a generator passed as the seed ends in the same state either way
    rng, again = np.random.default_rng(5), np.random.default_rng(5)
    _reference_sample_timeseries(lambda t: clean, det, fs, LONG / fs, rng)
    sample_timeseries(clean, det, fs, LONG / fs, again)
    assert rng.standard_normal() == again.standard_normal()


def _peak_bytes(fn):
    """Result of fn() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_periodic_chain_memory_stays_near_the_record_size():
    # a 20-sample period with RIN, at a rate where the bandwidth filter
    # rounds away: the first channel's record takes over the RIN factor's
    # buffer, and the second channel is read out into it a block at a time,
    # so one or two channels need about one record; the tiled period,
    # blocks and the finiteness check add a little
    fs = 3.0e6
    det = DetectorParams(rin=1e-7)
    n = 300_000
    for channels, bound in ((2, 1.5), (1, 1.5)):
        clean = _periodic_channels(channels, 20)
        ts, peak = _peak_bytes(lambda: sample_timeseries(clean, det, fs, n / fs, seed=0))
        assert ts.samples.size == n
        assert peak <= bound * ts.samples.nbytes


def test_full_length_chain_memory_stays_near_its_records():
    # full-length clean powers, filtered at fs/10: the noise deviation is
    # computed in place and the powers are read where they lie, so the two
    # stored channels and a channel's deviation make about three records
    fs = 1.0e6
    n = 200_000
    phase = 2.0 * math.pi * 1e3 * np.arange(n) / fs
    clean = (80e-6 * (1.0 + 0.3 * np.sin(phase)), 60e-6 * (1.0 + 0.2 * np.cos(phase)))
    det = DetectorParams(bandwidth=fs / 10)
    with pytest.warns(RegimeWarning, match="bandwidth"):
        ts, peak = _peak_bytes(lambda: sample_timeseries(clean, det, fs, n / fs, seed=0))
    assert peak <= 3.5 * ts.samples.nbytes


def test_psd_memory_stays_near_its_input():
    # psd holds a chunk of 32 segments and its spectra, 0.44 of the record,
    # beside its one-segment sum: the traced peak is 0.50 of the record
    series = TimeSeries(fs=3.0e6, samples=np.random.default_rng(0).standard_normal(300_000))
    _, peak = _peak_bytes(lambda: psd(series, 2048))
    assert peak <= 0.8 * series.samples.nbytes


SHIPPED_HETERODYNE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "heterodyne.json")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_two_readout_field_raises_the_peak_resident_set_by_at_most_15_8_mb(tmp_path):
    # one field of the shipped comparison at 1.5 M samples, on one thread:
    # the dispersion record and both readouts' streamed Welch sums.
    # tracemalloc does not see pocketfft's scratch or the allocator's
    # slack, so this reads the peak resident set of a fresh process;
    # drawing each readout's record in turn raised it by 15.8 MB
    code = f"""
import json, math
from rydsag import cli, heterodyne
from rydsag.weak_pointer import PointerSetup, PostSelection

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

raw = json.load(open({SHIPPED_HETERODYNE!r}))
raw["heterodyne"].update(integration_time=0.5, e_signal=[1e-3])
json.dump(raw, open("field.json", "w"))
_, models = cli.load_config("field.json")
section = models["pointer"]
pointer = PointerSetup(
    post=PostSelection(math.pi / 4), coupling=section.coupling, beam=section.beam)
before = peak_kib()
heterodyne._sweeps(models["heterodyne"], heterodyne.READOUT_SCHEMES, models["medium"],
                   pointer, models["detector"], 0, map)
print(peak_kib() - before)
"""
    src = os.path.dirname(os.path.dirname(heterodyne.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, cwd=tmp_path)
    assert int(result.stdout) <= 15.8 * 1024


def test_channels_of_unequal_or_excess_length_are_rejected():
    det = DetectorParams()
    for clean in (
        (np.ones(20), np.ones(62)),
        (np.ones(10_001),),
        (np.ones((2, 10)),),
        (np.ones(0),),
    ):
        with pytest.raises(InvalidParameterError):
            sample_timeseries(clean, det, 1e6, 0.01, seed=0)
