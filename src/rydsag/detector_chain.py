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

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import constants
from .errors import InvalidParameterError, RegimeWarning

MAX_SAMPLES = 100_000_000

# The chain works through a record BLOCK samples at a time, and psd
# transforms CHUNK segments at a time, so that no temporary is near the
# size of a record: 128 KiB blocks and, at 2048-sample segments, 0.5 MiB
# chunks.  A record then peaks at about one record length, or two where
# the bandwidth filter changes a two-channel record.  The medium's
# spectrum and the CSV writer work BLOCK points or rows at a time too.
BLOCK = 16_384
CHUNK = 32
# numpy's pairwise summation adds at most this many values in one leaf,
# and psd averages its segments in the same order
PAIRWISE_LEAF = 128


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
        # the noise variances take nep**2 and divide by responsivity**2
        square = self.responsivity * self.responsivity
        if not 0.0 < square < math.inf:
            raise InvalidParameterError(
                f"responsivity {self.responsivity!r} squares to {square}")
        if self.nep * self.nep == math.inf:
            raise InvalidParameterError(f"nep {self.nep!r} squares to inf")

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
        t = np.arange(self.samples.size, dtype=float)
        t /= self.fs
        return t


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
    var = np.clip(power, 0.0, None)  # the shot-noise variance, then the sum
    var *= 2.0 * det.photon_energy
    var *= nyquist
    var += det.nep**2 * nyquist
    var += 2.0 * constants.e * det.dark_current * nyquist / det.responsivity**2
    return np.sqrt(var, out=var)


def one_pole(c, a, y0=0.0):
    """Solution of the one-pole recursion y[n] = a * y[n-1] + c[n], 0 <= a < 1,
    written over ``c`` when it is a float64 array (and returned).

    ``y0`` is the state before the first sample.  The record is laid out
    row by row as blocks of about sqrt(n)/8 samples, the last one short.
    Each full row's dot product with the powers of ``a`` gives the block's
    end value from zero entry state, one scalar pass over the blocks turns
    these into each block's true entry state, and the recursion then runs
    along the columns, vectorized across the blocks.  The result differs
    from the sequential recursion only by rounding; no BLAS call is made,
    so it does not depend on the BLAS build or its threads.
    """
    y = np.asarray(c, dtype=float)
    n = y.size
    # sqrt(n)/8 balances the per-call cost of the column steps against the
    # scalar pass over the blocks; an odd width keeps the column stride off
    # a power of two, where cache-set conflicts slow the strided columns
    width = math.isqrt(n // 64) | 1
    # every block but the last needs its end value
    full = (n - 1) // width
    rows = y[: full * width].reshape(full, width)
    ends = np.einsum("ij,j->i", rows, np.power(a, np.arange(width - 1, -1, -1))).tolist()
    decay = a**width
    entry = [y0]
    for end in ends:
        entry.append(end + decay * entry[-1])
    # column j holds y[j::width], the short last block's samples included
    # while j is below its length
    y[::width] += a * np.array(entry)
    for j in range(1, width):
        column = y[j::width]
        column += a * y[j - 1 :: width][: column.size]
    return y


def _pole(det, fs):
    """Pole of the single-pole low-pass at the detector bandwidth."""
    return math.exp(-2.0 * math.pi * det.bandwidth / fs)


def _passes_through(x, a, before):
    """Whether every step y[i] = a * y[i-1] + x[i] over block x, entered
    with y = ``before``, returns x[i] exactly."""
    if x[0] + a * before != x[0]:
        return False
    steps = a * x[:-1]
    steps += x[1:]
    return np.array_equal(steps, x[1:])


def _bandwidth_filter(x, det, fs):
    """Single-pole low-pass at the detector bandwidth, settled at x[0].

    A record that the filter changes is filtered in place.
    """
    a = _pole(det, fs)
    # far above the sample rate the pole rounds away: skip the filter only
    # when every step of the recursion provably returns its input, checked
    # a block at a time
    if a == 0.0 or (
        1.0 - a == 1.0
        and all(
            _passes_through(x[i:j], a, x[i - 1] if i else x[0])
            for i, j in _blocks(x.size, 1)
        )
    ):
        return x
    y0 = x[0]
    x *= 1.0 - a
    return one_pole(x, a, y0=y0)


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

    rng = np.random.default_rng(seed)
    first = rng.bit_generator.state
    samples = _readout(rng, powers, det, fs, n, stream=True)
    if samples is None:  # the filter changes the streamed channel
        rng.bit_generator.state = first
        samples = _readout(rng, powers, det, fs, n, stream=False)
    return TimeSeries(fs=fs, samples=samples)


def _readout(rng, powers, det, fs, n, stream):
    """Readout samples of the channels drawn from rng, or None.

    The left channel's record takes over the RIN factor's buffer, and the
    right channel draws the factor again from a copy of the generator.
    With ``stream`` set and a pole that rounds away, the right channel is
    never stored: each block is checked against the filter, clamped and
    read out into the left record, and None is returned at the first
    block that the filter would change.
    """
    replay = copy.deepcopy(rng) if det.rin > 0.0 and len(powers) == 2 else None
    factor = None
    if det.rin > 0.0:
        factor = rng.standard_normal(n)
        factor *= det.rin * math.sqrt(0.5 * fs)
        factor += 1.0
    phase = None
    if det.line_amp_w > 0.0 and det.line_freq_hz > 0.0:
        phase = rng.uniform(0.0, 2.0 * math.pi)
    left = np.empty(n) if factor is None else factor
    for _ in _channel_blocks(rng, powers[0], det, fs, n, factor, phase, len(powers), left):
        pass
    left = _bandwidth_filter(left, det, fs)
    np.clip(left, 0.0, None, out=left)
    if len(powers) == 1:
        return left
    a = _pole(det, fs)
    if not stream or (a != 0.0 and 1.0 - a != 1.0):
        right = np.empty(n)
        for _ in _channel_blocks(rng, powers[1], det, fs, n, replay, phase, 2, right):
            pass
        right = _bandwidth_filter(right, det, fs)
        return channel_readout((left, np.clip(right, 0.0, None, out=right)))
    before = None
    for start, stop, x in _channel_blocks(rng, powers[1], det, fs, n, replay, phase, 2):
        if a != 0.0 and not _passes_through(x, a, x[0] if before is None else before):
            return None
        before = x[-1]
        channel_readout((left[start:stop], np.clip(x, 0.0, None, out=x)))
    return left


def _channel_blocks(rng, power, det, fs, n, factor, phase, channels, out=None):
    """One channel's record, noise * sigma + (factor * power + line), as
    (start, stop, samples) a block at a time.

    The noise is drawn from rng a block at a time.  ``factor`` is the RIN
    factor over the record, which the blocks overwrite, a generator that
    draws it again a block at a time, or None.  The samples are written
    into ``out`` where it is given, and into a new block otherwise.
    """
    period = power.size
    sigma = _noise_sigma(power, det, fs)
    reps = BLOCK // period
    if reps > 1:
        power, sigma = np.tile(power, reps), np.tile(sigma, reps)
    for start, stop in _blocks(n, period):
        at, size = start % period, stop - start
        p = power[at : at + size]
        if isinstance(factor, np.random.Generator):
            common = factor.standard_normal(size)
            common *= det.rin * math.sqrt(0.5 * fs)
            common += 1.0
            common *= p
        elif factor is not None:
            common = np.multiply(factor[start:stop], p, out=factor[start:stop])
        else:
            common = p
        noise = rng.standard_normal(size)
        noise *= sigma[at : at + size]
        if phase is not None:
            common = common + _line(det, phase, fs, start, stop, channels)
        block = np.add(noise, common, out=noise if out is None else out[start:stop])
        # hold no more than the block while the caller reads it
        del common, noise
        yield start, stop, block


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
    # scaled in scipy's operation order, and averaged in the order in which
    # scipy's mean adds a (frequency, segment) row, so the two agree bit
    # for bit
    scale = window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
    density = _power_sum(segments, scale, 0, count)
    density /= count
    return np.fft.rfftfreq(segment_length, 1.0 / fs), density


def _power_sum(segments, scale, start, stop):
    """Sum of the one-sided power spectra of segments start:stop.

    The segments are split as numpy's pairwise summation splits a row of
    them, at half the count rounded down to a multiple of 8, down to
    leaves of at most PAIRWISE_LEAF segments; each leaf's (frequency,
    segment) tile is summed by np.add.reduce, and the leaf sums are added
    in the tree's order, so the sum is bit-equal to the row sums of the
    whole (frequency, segment) array.
    """
    count = stop - start
    if count > PAIRWISE_LEAF:
        half = count // 2
        half -= half % 8
        return _power_sum(segments, scale, start, start + half) + _power_sum(
            segments, scale, start + half, stop)
    segment_length = segments.shape[-1]
    tile = np.empty((segment_length // 2 + 1, count))
    for at in range(start, stop, CHUNK):
        chunk = segments[at : min(at + CHUNK, stop)]
        chunk = chunk - chunk.mean(axis=-1, keepdims=True)
        chunk *= scale
        spectra = np.fft.rfft(chunk, axis=-1)
        del chunk  # free each chunk-sized intermediate before the next
        power = np.square(spectra.real.T, out=tile[:, at - start : at - start + CHUNK])
        power += np.square(spectra.imag.T)
        del spectra
    tile[1 : -1 if segment_length % 2 == 0 else None] *= 2.0
    return np.add.reduce(tile, axis=-1)
