"""Dual-channel photodetection and intensity-contrast readout.

The split detector reads the clean optical power of its two halves as the
normalized contrast eta, and the noisy chain samples those powers with
photon shot noise, NEP-equivalent white noise, dark-current noise, an
optional common-mode relative-intensity noise, an optional narrowband
line, and a single-pole bandwidth limit.  Noise is injected in optical
power units before the eta division, since the physical ratio circuit
divides noisy photocurrents; this is what makes small post-selected
powers expensive, as a real weak-value readout finds.  One noise draw
may be read out through several readouts, as a scheme comparison reads
the same technical noise through both of its schemes.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import constants
from .errors import InvalidParameterError, RegimeWarning, check_ranges

# Largest grid or record a run may ask for: 2**21 float64 samples are
# 16 MiB per array, twice the largest record in use (a 2**20-point
# spectrum; a 60 s loop is 600 000 samples) and far below what exhausts
# memory.
MAX_GRID_POINTS = 2**21
# The chain works through a record BLOCK samples at a time, and the Welch
# sum transforms CHUNK segments at a time, so that no temporary is near the
# size of a record: 128 KiB blocks and, at 2048-sample segments, 0.5 MiB
# chunks.  A record then peaks at about one record length, or two where
# the bandwidth filter low-passes a two-channel record.  The medium's
# spectrum and the CSV writer work BLOCK points or rows at a time too.
BLOCK = 16_384
CHUNK = 32
# The noise is drawn DRAW_BLOCK samples at a time: a comparison's draw
# holds about nine block-sized arrays (each channel's tiled power and
# noise deviation, the streamed readout's block and Welch buffer) beside
# a transform, and half blocks keep its peak below that of drawing each
# readout's record in turn
DRAW_BLOCK = BLOCK // 2


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
        check_ranges(
            self,
            nonnegative=("nep", "dark_current", "gap", "rin", "line_freq_hz", "line_amp_w"),
            positive=("gain", "bandwidth", "responsivity", "wavelength"),
        )
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
    if n > MAX_GRID_POINTS:
        raise InvalidParameterError(f"{n} samples exceed the {MAX_GRID_POINTS} cap")
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
    """Pole a of the single-pole low-pass at the detector bandwidth.

    Far above the sample rate the pole rounds away: where 1 - a == 1, the
    filter's memory a * y[n-1] is below one ulp of y[n-1], and the pole is
    0.0, a filter that returns its input.
    """
    a = math.exp(-2.0 * math.pi * det.bandwidth / fs)
    return 0.0 if 1.0 - a == 1.0 else a


def _bandwidth_filter(x, det, fs):
    """Single-pole low-pass at the detector bandwidth, settled at x[0].

    x is filtered in place, or returned as it is where the pole rounds
    away.
    """
    a = _pole(det, fs)
    if a == 0.0:
        return x
    y0 = x[0]
    x *= 1.0 - a
    return one_pole(x, a, y0=y0)


def _blocks(n, period, size=BLOCK):
    """(start, stop) ranges of about ``size`` samples that cover n samples.

    A block holds whole periods when a period fits in ``size`` samples,
    and a piece of one period otherwise, so that a period tiled
    max(size // period, 1) times, read from start % period on, lines up
    with every block.
    """
    if period <= size:
        step = size // period * period
        return [(start, min(start + step, n)) for start in range(0, n, step)]
    return [
        (start, min(start + size, row + period, n))
        for row in range(0, n, period)
        for start in range(row, min(row + period, n), size)
    ]


def _line(det, phase, fs, start, stop):
    """The line over samples start:stop."""
    line = np.arange(start, stop, dtype=float)
    line /= fs
    line *= 2.0 * math.pi * det.line_freq_hz
    line += phase
    np.sin(line, out=line)
    line *= det.line_amp_w
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

    This is the one-readout case of detected_spectra's draw, with the
    record kept: the left channel's record takes over the RIN factor's
    buffer, and the right channel draws the factor again from a copy of
    the generator.  Where the filter's pole rounds away (see _pole), the
    right channel is never stored: each block is clamped and read out
    into the left record as it is drawn.
    """
    return _draw((clean,), det, fs, duration, seed)[0]


def detected_spectra(readouts, det, fs, duration, seed, segment_length):
    """Welch spectra of several readouts of one noise draw: for each
    ``clean`` tuple in ``readouts``, psd(sample_timeseries(clean, det, fs,
    duration, seed), segment_length), bit for bit.

    Every readout draws the same normals in the same order, the RIN
    factor, then the first channel's noise, then the second's, so the
    draw is made once and each block of it is read out through every
    readout.  The readouts' channels share one period.  Where the pole
    rounds away, each spectrum is summed from its readout's blocks as
    they become final: a one-channel readout's as they are drawn, so its
    record is never stored, and a two-channel readout's as its right
    channel is read out into its stored left record.  Otherwise every
    channel record is stored whole and filtered, and psd sums the
    readout.  The first stored left record takes over the RIN factor's
    buffer.
    """
    return _draw(readouts, det, fs, duration, seed, segment_length)


def _channel_powers(readouts, n):
    """Each readout's channel powers as float arrays of one shared period."""
    for clean in readouts:
        if not isinstance(clean, tuple) or len(clean) not in (1, 2):
            raise InvalidParameterError(
                "clean must be a tuple of 1 or 2 channel powers"
            )
    try:
        powers = np.broadcast_arrays(*(
            np.atleast_1d(np.asarray(p, dtype=float)) for clean in readouts for p in clean
        ))
    except ValueError as exc:
        raise InvalidParameterError("channel powers must share one length") from exc
    period = powers[0].size
    if powers[0].ndim != 1 or not 1 <= period <= n:
        raise InvalidParameterError(
            f"channel powers must be 1-D with 1 to {n} samples, "
            f"got shape {powers[0].shape}"
        )
    channels = iter(powers)
    return [tuple(next(channels) for _ in clean) for clean in readouts]


def _draw(readouts, det, fs, duration, seed, segment_length=None):
    """The records of readouts (segment_length None) or their Welch
    spectra, from one draw; see detected_spectra."""
    n = _sample_count(fs, duration)
    if fs > 2.0 * det.bandwidth:
        warnings.warn(
            "sample rate exceeds twice the detector bandwidth; the sampled "
            "record is bandwidth-limited",
            RegimeWarning,
            stacklevel=3,
        )
    powers = _channel_powers(readouts, n)
    pole = _pole(det, fs)
    pairs = [index for index, channels in enumerate(powers) if len(channels) == 2]
    # where the pole rounds away, each readout's spectrum is summed from its
    # blocks as they become final, and a one-channel record is never stored
    welches = [
        Welch(n, fs, segment_length) if segment_length is not None and pole == 0.0 else None
        for _ in powers
    ]

    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng) if det.rin > 0.0 and pairs else None
    factor = None
    if det.rin > 0.0:
        factor = rng.standard_normal(n)
        factor *= det.rin * math.sqrt(0.5 * fs)
        factor += 1.0
    phase = None
    if det.line_amp_w > 0.0 and det.line_freq_hz > 0.0:
        phase = rng.uniform(0.0, 2.0 * math.pi)

    # each readout's left record, the first one in the factor's buffer
    lefts = []
    for channels, welch in zip(powers, welches):
        if welch is not None and len(channels) == 1:
            lefts.append(None)
        elif factor is not None and not any(left is factor for left in lefts):
            lefts.append(factor)
        else:
            lefts.append(np.empty(n))
    # the record in the factor's buffer comes last, since it overwrites it;
    # a left channel waiting for its right one is clamped, and a one-channel
    # record is clamped and summed, a block at a time
    order = sorted(
        range(len(lefts)), key=lambda index: factor is not None and lefts[index] is factor)
    _draw_channels(rng, factor, phase, det, fs, n, [
        (powers[index][0], len(powers[index]), lefts[index],
         None if pole > 0.0 else _reader(welch=welches[index] if index not in pairs else None))
        for index in order
    ])
    if pole > 0.0:
        for left in lefts:
            left = _bandwidth_filter(left, det, fs)
            np.clip(left, 0.0, None, out=left)
    if pairs:
        # a real low-pass needs the whole right record
        rights = [np.empty(n) if pole > 0.0 else None for _ in pairs]
        _draw_channels(rng, replay, phase, det, fs, n, [
            (powers[index][1], 2, right,
             None if pole > 0.0 else _reader(lefts[index], welches[index]))
            for index, right in zip(pairs, rights)
        ])
        if pole > 0.0:
            for index, right in zip(pairs, rights):
                right = _bandwidth_filter(right, det, fs)
                channel_readout((lefts[index], np.clip(right, 0.0, None, out=right)))
        del rights
    if segment_length is None:
        return [TimeSeries(fs=fs, samples=left) for left in lefts]
    if pole == 0.0:
        return [welch.result() for welch in welches]
    return [psd(TimeSeries(fs=fs, samples=left), segment_length) for left in lefts]


def _reader(left=None, welch=None):
    """A reader of a channel's blocks where the pole rounds away: each block
    is clamped, read out as the right channel into the ``left`` record's
    block where that is given, and the readout's final block, checked
    finite, summed into ``welch`` where that is given."""

    def read(start, stop, block):
        np.maximum(block, 0.0, out=block)
        if left is not None:
            block = channel_readout((left[start:stop], block))
        if welch is not None:
            if not np.isfinite(block).all():
                raise InvalidParameterError("samples contain non-finite values")
            welch.feed(block)

    return read


def _draw_channels(rng, factor, phase, det, fs, n, channels):
    """Draw one channel's noise, n normals a block at a time, and read it
    out as that channel of several readouts.

    ``channels`` lists each readout's (clean power over one period, channel
    count, record, reader).  The channel, noise * sigma + (factor * power
    + line / count), is written into ``record`` where that is an n-sample
    array, and into a scratch block otherwise, and each block is passed to
    reader(start, stop, samples) where that is given, once the block's
    noise is no longer held.  ``factor`` is the RIN factor over the
    record, a generator that draws it again a block at a time, or None.
    A ``record`` that is ``factor`` itself must come last: the others read
    the factor's block before it is overwritten.
    """
    period = channels[0][0].size
    reps = DRAW_BLOCK // period
    blocks = _blocks(n, period, DRAW_BLOCK)
    longest = max(stop - start for start, stop in blocks)
    tiled = []
    for power, count, record, reader in channels:
        sigma = _noise_sigma(power, det, fs)
        if reps > 1:
            power, sigma = np.tile(power, reps), np.tile(sigma, reps)
        scratch = np.empty(longest) if record is None else None
        tiled.append((power, sigma, count, record, reader, scratch))
    for start, stop in blocks:
        at, size = start % period, stop - start
        common = None
        if isinstance(factor, np.random.Generator):
            common = factor.standard_normal(size)
            common *= det.rin * math.sqrt(0.5 * fs)
            common += 1.0
        elif factor is not None:
            common = factor[start:stop]
        noise = rng.standard_normal(size)
        line = None if phase is None else _line(det, phase, fs, start, stop)
        done = []
        for index, (power, sigma, count, record, reader, scratch) in enumerate(tiled):
            p = power[at : at + size]
            block = scratch[:size] if record is None else record[start:stop]
            shared = p if common is None else np.multiply(common, p, out=block)
            if line is not None:
                shared = np.add(shared, line / count, out=block)
            # the last channel scales the noise in place
            last = index == len(tiled) - 1
            np.add(shared, np.multiply(
                noise, sigma[at : at + size], out=noise if last else None), out=block)
            if reader is not None:
                done.append((reader, block))
        # hold no more than the blocks while the readers run
        del common, noise, line
        for reader, block in done:
            reader(start, stop, block)


# ---------------------------------------------------------------------------
# spectral estimation


def psd(ts, segment_length, overlap=None):
    """Averaged-periodogram density of a time series (Hann window).

    Returns (frequencies in Hz, one-sided density in units^2/Hz).  This is
    Welch's estimate with mean-removed segments, the periodic Hann window
    and density scaling, as ``scipy.signal.welch`` computes it.  The
    Hann-windowed estimate satisfies Parseval to within a few percent:
    integrating the density recovers the series variance.  It is the
    Welch sum fed the whole record at once.
    """
    welch = Welch(ts.samples.size, ts.fs, segment_length, overlap)
    welch.feed(ts.samples)
    return welch.result()


class Welch:
    """Welch's density of an n-sample record fed to it a block at a time.

    The segments are transformed CHUNK at a time, as soon as the samples
    they span have arrived, from the fed block where it holds them all and
    from a buffer of one chunk's span otherwise, and each chunk's power
    spectra are added into one running sum.  The chunks start at fixed
    segment indices, so the density has the same bits however the record
    is split into blocks.
    """

    def __init__(self, n, fs, segment_length, overlap=None):
        segment_length = int(segment_length)
        if segment_length < 8:
            raise InvalidParameterError("segment_length must be at least 8")
        if segment_length > n:
            raise InvalidParameterError(
                f"segment_length {segment_length} exceeds the {n}-sample series"
            )
        if overlap is None:
            overlap = segment_length // 2
        overlap = int(overlap)
        if not 0 <= overlap < segment_length:
            raise InvalidParameterError("overlap must satisfy 0 <= overlap < segment_length")
        self.fs = fs
        self.length = segment_length
        self.hop = segment_length - overlap
        self.count = (n - overlap) // self.hop
        window = 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, segment_length + 1)[:-1])
        # scaled in scipy's operation order
        self.scale = window * (1.0 / np.sqrt(sum(window**2) / (1.0 / fs)))
        self.at = 0  # the first segment not yet transformed
        self.total = np.zeros(segment_length // 2 + 1)
        self.buffer = None
        self.fill = 0  # samples buffered from the first of segment at

    def feed(self, block):
        """Take the record's next samples; samples past the last segment
        are dropped."""
        while block.size and self.at < self.count:
            span = (self._chunk() - 1) * self.hop + self.length
            if self.fill == 0 and block.size >= span:
                block = block[self._transform(block) :]
                continue
            if self.buffer is None:
                self.buffer = np.empty((CHUNK - 1) * self.hop + self.length)
            take = min(block.size, span - self.fill)
            self.buffer[self.fill : self.fill + take] = block[:take]
            self.fill += take
            block = block[take:]
            if self.fill == span:
                drop = self._transform(self.buffer)
                self.fill = span - drop
                self.buffer[: self.fill] = self.buffer[drop:span]
        if self.at == self.count:
            self.buffer = None

    def result(self):
        """(frequencies in Hz, density) once every segment is fed."""
        total = self.total
        # doubling each one-sided bin's segment powers before the sum is
        # doubling the sum, bit for bit: x2 is exact and commutes with
        # every rounded addition
        total[1 : -1 if self.length % 2 == 0 else None] *= 2.0
        self.total = None
        return np.fft.rfftfreq(self.length, 1.0 / self.fs), total / self.count

    def _chunk(self):
        """Segments in the next transform: CHUNK, or the rest."""
        return min(CHUNK, self.count - self.at)

    def _transform(self, samples):
        """Transform the next chunk, whose segments start at samples[0],
        and add its power spectra to the sum; return the samples to the
        next chunk."""
        size = self._chunk()
        span = (size - 1) * self.hop + self.length
        chunk = sliding_window_view(samples[:span], self.length)[:: self.hop]
        chunk = chunk - chunk.mean(axis=-1, keepdims=True)
        chunk *= self.scale
        spectra = np.fft.rfft(chunk, axis=-1)
        del chunk  # free each chunk-sized intermediate before the next
        # the real and imaginary parts squared in place, then added
        parts = np.square(spectra.view(float), out=spectra.view(float))
        power = np.add(parts[:, 0::2], parts[:, 1::2])
        del spectra, parts
        self.total += power.sum(axis=0)
        self.at += size
        return size * self.hop
