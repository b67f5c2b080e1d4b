"""Dual-channel photodetection and intensity-contrast readout.

The split detector reads the clean optical power of its two halves as the
normalized contrast eta, and the noisy chain samples those powers with
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

from .errors import InvalidParameterError, RegimeWarning

MAX_SAMPLES = 100_000_000

# The chain works through a record BLOCK samples at a time, and psd
# transforms CHUNK segments at a time, so that no temporary is near the
# size of a record: 128 KiB blocks and, at 2048-sample segments, 0.5 MiB
# chunks.  A record with two channels then peaks at about two records.
BLOCK = 16_384
CHUNK = 32


@dataclass(frozen=True)
class DetectorParams:
    """Split-detector electronics and noise figures.

    ``gain`` is the dimensionless transimpedance magnification, ``nep`` the
    noise-equivalent power in W per root Hz, ``rin`` a common-mode relative
    intensity noise density in 1 per root Hz shared by both channels, and
    ``line_freq_hz`` / ``line_amp_w`` an optional additive narrowband line
    split across the channels.  ``wavelength`` sets the photon energy for
    shot noise.  ``gap``, the dead zone about x = 0 in meters, is accepted
    and echoed in the manifest but unused: the channel powers arrive
    already split.  Removing it waits for a re-record of the benchmark
    snapshots, whose manifests echo it.
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
        if self.responsivity**2 == 0.0:  # the dark-current variance divides by it
            raise InvalidParameterError(f"responsivity {self.responsivity!r} squares to 0")

    @property
    def photon_energy(self):
        return constants.h * constants.c / self.wavelength


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued record."""

    fs: float
    samples: np.ndarray

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
        return np.arange(self.samples.size) / self.fs


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
    # when every step of the recursion provably returns its input, checked
    # a block at a time
    if a == 0.0 or (
        1.0 - a == 1.0
        and x[0] + a * x[0] == x[0]
        and all(
            np.array_equal(x[i + 1 : j + 1] + a * x[i:j], x[i + 1 : j + 1])
            for i, j in _blocks(x.size - 1, 1)
        )
    ):
        return x
    return one_pole((1.0 - a) * x, a, y0=x[0])


def _blocks(n, period):
    """(start, stop) ranges of about BLOCK samples that cover n samples.

    A block holds whole periods when a period fits in BLOCK samples, and
    a piece of one period otherwise, so that a period tiled
    max(BLOCK // period, 1) times, read from start % period on, lines up
    with every block.
    """
    if period <= BLOCK:
        step = BLOCK // period * period
        return [(start, min(start + step, n)) for start in range(0, n, step)]
    return [
        (start, min(start + BLOCK, row + period, n))
        for row in range(0, n, period)
        for start in range(row, min(row + period, n), BLOCK)
    ]


def _line(det, phase, fs, start, stop, channels):
    """Each channel's share of the line over samples start:stop."""
    line = np.arange(start, stop, dtype=float)
    line /= fs
    line *= 2.0 * math.pi * det.line_freq_hz
    line += phase
    np.sin(line, out=line)
    line *= det.line_amp_w
    line /= channels
    return line


def channel_readout(channels):
    """Readout of one or two channel power records, which it consumes.

    One channel reads out as its power; two read out as the contrast
    eta = (P_left - P_right) / (P_left + P_right), zero where no power
    arrives.  The powers must be >= 0, so the difference is already zero
    wherever the sum is.  A block at a time, the difference overwrites
    the left record and the contrast the difference.
    """
    if len(channels) == 1:
        return channels[0]
    left, right = channels
    for start, stop in _blocks(left.size, 1):
        eta, other = left[start:stop], right[start:stop]
        total = eta + other
        np.subtract(eta, other, out=eta)
        np.divide(eta, total, out=eta, where=total > 0.0)
    return left


def sample_timeseries(clean, det, fs, duration, seed):
    """Noisy readout record of a one- or two-channel optical signal.

    ``clean`` is the tuple of clean channel powers in watts: ``(P,)`` for
    a transmitted-power record, or ``(P_left, P_right)`` for a
    split-detector eta record.  The channels share one length p <= n and
    repeat with period p across the record: a scalar is a constant power,
    a full-length array is period n, and a periodic signal may pass just
    one period; the record is the same whichever of these describes the
    signal.  Per sample and channel the chain draws shot noise (variance
    2 h nu P fs/2), NEP noise (variance nep^2 fs/2) and dark-current
    noise, applies any common-mode intensity noise and line (split evenly
    across the channels), low-passes each channel at the detector
    bandwidth, clamps negative powers, and reads out through
    channel_readout.  Reproducible from the seed: the RIN factor is drawn
    first, then the line's phase, then each channel's noise in turn.
    """
    n = _sample_count(fs, duration)
    if fs > 2.0 * det.bandwidth:
        warnings.warn(
            "sample rate exceeds twice the detector bandwidth; the sampled "
            "record is bandwidth-limited",
            RegimeWarning,
            stacklevel=2,
        )
    if not isinstance(clean, tuple) or len(clean) not in (1, 2):
        raise InvalidParameterError(
            "clean must be a tuple of 1 or 2 channel powers"
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

    # record = noise * sigma + (factor * power + line), one block at a time;
    # the last channel's draws come last in the stream, so its noise is
    # drawn block by block and its record takes over the factor's buffer,
    # each block once no channel needs its factor any more
    blocks = _blocks(n, period)
    reps = max(BLOCK // period, 1)
    rng = np.random.default_rng(seed)
    factor = None
    if det.rin > 0.0:
        factor = rng.standard_normal(n)
        factor *= det.rin * math.sqrt(0.5 * fs)
        factor += 1.0
    phase = None
    if det.line_amp_w > 0.0 and det.line_freq_hz > 0.0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
    channels = []
    for i, power in enumerate(powers):
        sigma = np.tile(_noise_sigma(power, det, fs), reps)
        power = np.tile(power, reps)
        in_factor = factor is not None and i == len(powers) - 1
        record = factor if in_factor else rng.standard_normal(n)
        for start, stop in blocks:
            at = start % period
            block, p = record[start:stop], power[at : at + stop - start]
            if in_factor:
                common = np.multiply(block, p, out=block)
                noise = rng.standard_normal(stop - start)
            else:
                noise = block
                common = p if factor is None else factor[start:stop] * p
            noise *= sigma[at : at + stop - start]
            if phase is not None:
                common = common + _line(det, phase, fs, start, stop, len(powers))
            np.add(noise, common, out=block)
        filtered = _bandwidth_filter(record, det, fs)
        channels.append(np.clip(filtered, 0.0, None, out=filtered))
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
    window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, segment_length + 1)[:-1])
    # scaled in scipy's operation order, and laid out (frequency, segment)
    # as scipy averages it, so the two agree bit for bit
    scale = window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
    density = np.empty((segment_length // 2 + 1, count))
    for start in range(0, count, CHUNK):
        chunk = segments[start : start + CHUNK]
        chunk = chunk - chunk.mean(axis=-1, keepdims=True)
        chunk *= scale
        spectra = fft.rfft(chunk, axis=-1)
        del chunk  # free each chunk-sized intermediate before the next
        power = np.square(spectra.real.T, out=density[:, start : start + CHUNK])
        power += np.square(spectra.imag.T)
        del spectra
    density[1 : -1 if segment_length % 2 == 0 else None] *= 2.0
    return fft.rfftfreq(segment_length, 1.0 / fs), density.mean(axis=-1)
