"""Dual-channel photodetection and intensity-contrast readout.

The split detector integrates the transverse beam profile on each side of
a small dead gap about x = 0, converts the two optical powers to the
normalized contrast eta, and supports noisy time-series sampling with
photon shot noise, NEP-equivalent white noise, dark-current noise, an
optional common-mode relative-intensity noise, an optional narrowband
line, and a single-pole bandwidth limit.  Noise is injected in optical
power units before the eta division, since the physical ratio circuit
divides noisy photocurrents; this is what makes small post-selected
powers expensive, as a real weak-value readout finds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import constants, fft
from scipy.integrate import trapezoid

from .errors import InvalidParameterError, RegimeWarning

MAX_SAMPLES = 100_000_000


@dataclass(frozen=True)
class DetectorParams:
    """Split-detector electronics and noise figures.

    ``gain`` is the dimensionless transimpedance magnification, ``nep`` the
    noise-equivalent power in W per root Hz, ``gap`` the dead zone about
    x = 0 in meters, ``rin`` a common-mode relative intensity noise density
    in 1 per root Hz shared by both channels, and ``line_freq_hz`` /
    ``line_amp_w`` an optional additive narrowband line split across the
    channels.  ``wavelength`` sets the photon energy for shot noise.
    """

    gain: float = 1.0e5
    nep: float = 7.2e-15
    dark_current: float = 0.5e-9
    bandwidth: float = 25.0e6
    gap: float = 30.0e-6
    responsivity: float = 0.6
    wavelength: float = 852.35e-9
    rin: float = 0.0
    line_freq_hz: float = 0.0
    line_amp_w: float = 0.0

    def __post_init__(self):
        for name in (
            "gain",
            "nep",
            "dark_current",
            "bandwidth",
            "gap",
            "responsivity",
            "wavelength",
            "rin",
            "line_freq_hz",
            "line_amp_w",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
        for name in ("gain", "bandwidth", "responsivity", "wavelength"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameterError(f"{name} must be > 0")

    @property
    def photon_energy(self):
        return constants.h * constants.c / self.wavelength


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued record."""

    fs: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.fs) or self.fs <= 0.0:
            raise InvalidParameterError(f"sample rate must be > 0, got {self.fs!r}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise InvalidParameterError("samples must be a nonempty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise InvalidParameterError("samples contain non-finite values")
        object.__setattr__(self, "samples", samples)

    def times(self):
        return self.t0 + np.arange(self.samples.size) / self.fs


# ---------------------------------------------------------------------------
# profile partition


def _segment_integral(x, y, a, b):
    """Trapezoid integral of sampled y over [a, b] with interpolated ends."""
    if b <= a:
        return 0.0
    inside = (x > a) & (x < b)
    xs = np.concatenate(([a], x[inside], [b]))
    ys = np.concatenate(([np.interp(a, x, y)], y[inside], [np.interp(b, x, y)]))
    return float(trapezoid(ys, xs))


def split_powers(profile, grid, det):
    """Optical power on the left and right detector halves.

    Integrates the intensity profile over x < -gap/2 and x > +gap/2;
    power falling in the gap is discarded.
    """
    grid = np.asarray(grid, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if grid.ndim != 1 or grid.shape != profile.shape or grid.size < 3:
        raise InvalidParameterError("profile and grid must be matching 1-D arrays")
    if not np.all(np.diff(grid) > 0.0):
        raise InvalidParameterError("grid must be strictly increasing")
    total = float(trapezoid(profile, grid))
    if total <= 0.0:
        raise InvalidParameterError("profile carries no power")
    half_gap = 0.5 * det.gap
    p_left = _segment_integral(grid, profile, grid[0], -half_gap)
    p_right = _segment_integral(grid, profile, half_gap, grid[-1])
    return p_left, p_right


def icr_from_powers(p_left, p_right):
    """Normalized contrast (P_left - P_right) / (P_left + P_right)."""
    if p_left < 0.0 or p_right < 0.0:
        raise InvalidParameterError("channel powers must be >= 0")
    total = p_left + p_right
    if total <= 0.0:
        raise InvalidParameterError("total detected power must be > 0")
    return (p_left - p_right) / total


# ---------------------------------------------------------------------------
# noisy sampling


def _sample_count(fs, duration):
    if not math.isfinite(fs) or fs <= 0.0:
        raise InvalidParameterError(f"sample rate must be > 0, got {fs!r}")
    if not math.isfinite(duration) or duration <= 0.0:
        raise InvalidParameterError(f"duration must be > 0, got {duration!r}")
    n = int(round(fs * duration))
    if n < 1:
        raise InvalidParameterError("duration too short for one sample")
    if n > MAX_SAMPLES:
        raise InvalidParameterError(f"{n} samples exceed the {MAX_SAMPLES} cap")
    return n


def _noise_sigma(power, det, fs):
    """Standard deviation of the additive noise at clean power ``power``.

    Shot, NEP and dark-current variances in optical power units add per
    sample; ``power`` may be one period of the channel, since the
    deviation depends on the clean power only.
    """
    nyquist = 0.5 * fs
    shot_var = 2.0 * det.photon_energy * np.clip(power, 0.0, None) * nyquist
    nep_var = det.nep**2 * nyquist
    dark_var = (
        2.0 * constants.e * det.dark_current * nyquist / det.responsivity**2
    )
    return np.sqrt(shot_var + nep_var + dark_var)


def one_pole(c, a, y0=0.0):
    """Solution of the one-pole recursion y[n] = a * y[n-1] + c[n], 0 <= a < 1.

    ``y0`` is the state before the first sample.  The record is laid out
    row by row as blocks of about sqrt(n)/8 samples.  Each row's dot
    product with the powers of ``a`` gives the block's end value from zero
    entry state, one scalar pass over the blocks turns these into each
    block's true entry state, and the recursion then runs along the
    columns, vectorized across the blocks.  The result differs from the
    sequential recursion only by rounding; no BLAS call is made, so it
    does not depend on the BLAS build or its threads.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    # sqrt(n)/8 balances the per-call cost of the column steps against the
    # scalar pass over the blocks; an odd width keeps the column stride off
    # a power of two, where cache-set conflicts slow the strided columns
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


def _bandwidth_filter(x, det, fs):
    """Single-pole low-pass at the detector bandwidth, settled at x[0]."""
    a = math.exp(-2.0 * math.pi * det.bandwidth / fs)
    # far above the sample rate the pole rounds away: skip the filter only
    # when every step of the recursion provably returns its input
    if a == 0.0 or (
        1.0 - a == 1.0
        and x[0] + a * x[0] == x[0]
        and np.array_equal(x[1:] + a * x[:-1], x[1:])
    ):
        return x
    return one_pole((1.0 - a) * x, a, y0=x[0])


def _common_mode_factors(rng, det, fs, t, size, channels):
    """RIN factor and each channel's share of the line (either may be None).

    The factor spans ``size`` samples; past the record's ``t.size`` it
    holds ones.
    """
    factor = None
    if det.rin > 0.0:
        factor = np.zeros(size)
        rng.standard_normal(out=factor[: t.size])
        factor *= det.rin * math.sqrt(0.5 * fs)
        factor += 1.0
    line = None
    if det.line_amp_w > 0.0 and det.line_freq_hz > 0.0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        line = np.multiply(t, 2.0 * math.pi * det.line_freq_hz)
        line += phase
        np.sin(line, out=line)
        line *= det.line_amp_w
        line /= channels
    return factor, line


def channel_readout(channels):
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


def sample_timeseries(signal_fn, det, fs, duration, seed):
    """Noisy readout record of a one- or two-channel optical signal.

    ``signal_fn(t)`` maps the array of n sample times to a tuple of clean
    channel powers in watts: ``(P,)`` for a transmitted-power record, or
    ``(P_left, P_right)`` for a split-detector eta record.  The channels
    share one length p <= n and repeat with period p across the record: a
    scalar is a constant power, a full-length array is period n, and a
    periodic model may return just one period; the record is the same
    whichever of these describes the signal.  Per sample and channel the
    chain draws shot noise (variance 2 h nu P fs/2), NEP noise (variance
    nep^2 fs/2) and dark-current noise, applies any common-mode intensity
    noise and line (split evenly across the channels), low-passes each
    channel at the detector bandwidth, clamps negative powers, and reads
    out through channel_readout.  Reproducible from the seed.
    """
    n = _sample_count(fs, duration)
    if fs > 2.0 * det.bandwidth:
        warnings.warn(
            "sample rate exceeds twice the detector bandwidth; the sampled "
            "record is bandwidth-limited",
            RegimeWarning,
            stacklevel=2,
        )
    t = np.arange(n, dtype=float)
    t /= fs
    clean = signal_fn(t)
    if not isinstance(clean, tuple) or len(clean) not in (1, 2):
        raise InvalidParameterError(
            "signal_fn must return a tuple of 1 or 2 channel powers"
        )
    try:
        powers = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(p, dtype=float)) for p in clean)
        )
    except ValueError as exc:
        raise InvalidParameterError("channel powers must share one length") from exc
    period = powers[0].size
    if powers[0].ndim != 1 or not 1 <= period <= n:
        raise InvalidParameterError(
            f"channel powers must be 1-D with 1 to {n} samples, "
            f"got shape {powers[0].shape}"
        )

    # each channel's record is one buffer of rows x period samples, zero
    # past n, so one period of the clean power and of the noise deviation
    # broadcasts over its (rows, period) view
    shape = (-(-n // period), period)
    size = shape[0] * period
    rng = np.random.default_rng(seed)
    factor, line = _common_mode_factors(rng, det, fs, t, size, len(powers))
    del t
    scratch = None if factor is None and line is None else np.empty(size)
    channels = []
    for power in powers:
        record = np.zeros(size)
        rng.standard_normal(out=record[:n])
        grid = record.reshape(shape)
        grid *= _noise_sigma(power, det, fs)
        if scratch is None:
            grid += power
        else:
            if factor is None:
                scratch.reshape(shape)[:] = power
            else:
                np.multiply(factor.reshape(shape), power, out=scratch.reshape(shape))
            if line is not None:
                scratch[:n] += line
            record += scratch
        channels.append(record[:n])
    # free the common-mode buffers before the filter's exactness check
    # allocates its record-sized temporaries
    del factor, line, scratch
    for i, record in enumerate(channels):
        filtered = _bandwidth_filter(record, det, fs)
        channels[i] = np.clip(filtered, 0.0, None, out=filtered)
    return TimeSeries(fs=fs, samples=channel_readout(channels))


# ---------------------------------------------------------------------------
# spectral estimation


def psd(ts, segment_length, overlap=None):
    """Averaged-periodogram density of a time series (Hann window).

    Returns (frequencies in Hz, one-sided density in units^2/Hz).  This is
    Welch's estimate with mean-removed segments, the periodic Hann window
    and density scaling, as ``scipy.signal.welch`` computes it.  The
    Hann-windowed estimate satisfies Parseval to within a few percent:
    integrating the density recovers the series variance.
    """
    samples = ts.samples
    segment_length = int(segment_length)
    if segment_length < 8:
        raise InvalidParameterError("segment_length must be at least 8")
    if segment_length > samples.size:
        raise InvalidParameterError(
            f"segment_length {segment_length} exceeds the {samples.size}-sample series"
        )
    if overlap is None:
        overlap = segment_length // 2
    overlap = int(overlap)
    if not 0 <= overlap < segment_length:
        raise InvalidParameterError("overlap must satisfy 0 <= overlap < segment_length")
    fs = ts.fs
    hop = segment_length - overlap
    count = (samples.size - overlap) // hop
    segments = sliding_window_view(samples, segment_length)[::hop][:count]
    segments = segments - segments.mean(axis=-1, keepdims=True)
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, segment_length + 1)[:-1])
    # scaled in scipy's operation order, so the two agree bit for bit
    segments *= window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
    spectra = fft.rfft(segments, axis=-1)
    del segments  # free each record-sized intermediate before the next
    # (frequency, segment) layout, as scipy averages it, so the sums round alike
    density = np.ascontiguousarray((spectra.real**2 + spectra.imag**2).T)
    del spectra
    density[1 : -1 if segment_length % 2 == 0 else None] *= 2.0
    return fft.rfftfreq(segment_length, 1.0 / fs), density.mean(axis=-1)
