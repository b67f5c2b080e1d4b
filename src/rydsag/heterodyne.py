"""Superheterodyne microwave field detection through the dressed medium.

A strong local microwave tone dresses the upper ladder pair while a weak
signal tone at a nearby frequency beats against it, so the total drive
amplitude oscillates at the difference frequency.  The medium converts
that amplitude modulation into probe phase and absorption, which is read
out either as transmitted power (amplitude scheme) or through the
which-path pointer contrast at the pointer's analyzer angle
``pointer.post.angle`` (dispersion scheme; the CLI sets the balanced
angle pi/4).  Field sensitivity comes from the beat line rising out of
the detected noise floor as the signal field grows.

The model assumes adiabatic following: each drive sample is mapped
through the steady-state susceptibility.  At the operating point of
``configs/heterodyne.json`` the medium's slowest pole is at 2 pi * 200 kHz,
so against a first-order solve of the coherences' dynamics the model
overstates the 150 kHz beat line by 1.08 dB (dispersion) and 1.94 dB
(amplitude); see ROADMAP item 10.

The sampled drive repeats exactly after ``HeterodyneConfig.beat_period``
samples, so the clean channel model is evaluated over one beat period
only: the detector chain repeats those channels across the record, and
the noiseless record repeats their readout.

A scheme comparison draws each signal amplitude's detector noise once
and reads it out through both readouts (``detected_spectra``), so both
schemes see the same technical noise, and each sweep is the one that
its scheme gives alone.  The amplitude record is never stored but
summed into its Welch spectrum as it is drawn, at any detector
bandwidth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .detector_chain import (
    MAX_GRID_POINTS,
    TimeSeries,
    channel_readout,
    detected_spectra,
    psd,
    sample_timeseries,
)
from .eit_medium import (
    _refine_extremum,
    detuning_grid,
    field_from_at_splitting,
    phase_and_absorption,
    rabi_from_field,
    splitting_vs_drive,
    susceptibility,
)
from .errors import FitFailureError, InvalidParameterError, RegimeWarning, check_ranges
from .weak_pointer import closed_readout

_TWO_PI = 2.0 * math.pi

READOUT_SCHEMES = ("dispersion", "amplitude")

# signal-to-local tone ratio above which the beat stops being a small
# modulation of the drive amplitude
_BEAT_RATIO_WARN = 0.5

# samples per beat period of the default record
_MIN_SAMPLES_PER_BEAT = 20

# Welch segment of the beat spectrum; a record needs at least this many
# samples
SEGMENT_LENGTH = 2048

# sweep points above 0 dB SNR, and R^2, that a sensitivity fit needs
_MIN_FIT_POINTS = 3
_R2_FLOOR = 0.99

DEFAULT_DIPOLE_MW = 1.27e-26


@dataclass(frozen=True)
class HeterodyneConfig:
    """Two-tone drive, probe budget and readout choice.

    ``f_local`` and ``f_signal`` are the microwave carrier frequencies in
    Hz and ``delta_f`` their beat; ``omega_local`` is the local-tone Rabi
    frequency in rad/s and ``p_local`` the informational source power in
    dBm.  ``e_signal`` lists the signal field amplitudes (V/m) swept by
    sensitivity runs.  ``sample_rate`` of zero picks 20 samples per beat
    period.

    Frequencies, ``omega_local``, ``dipole_mw``, ``integration_time``,
    ``probe_power`` and the ``e_signal`` amplitudes must be finite and
    > 0, ``p_local`` finite and ``sample_rate`` 0 or at least 20 samples
    per beat period.  The record, ``integration_time`` at ``fs``, must
    hold ``SEGMENT_LENGTH`` (one Welch segment) to ``MAX_GRID_POINTS``
    samples.
    """

    f_local: float = 8.565865e9
    f_signal: float = 8.566015e9
    delta_f: float = 150.0e3
    p_local: float = 6.0
    omega_local: float = _TWO_PI * 5.0e6
    dipole_mw: float = DEFAULT_DIPOLE_MW
    e_signal: tuple = (2.0e-4, 5.0e-4, 1.0e-3, 2.0e-3)
    integration_time: float = 0.02
    readout: str = "dispersion"
    probe_power: float = 175.0e-6
    sample_rate: float = 0.0

    def __post_init__(self):
        check_ranges(
            self,
            finite=("p_local",),
            nonnegative=("sample_rate",),
            positive=("f_local", "f_signal", "delta_f", "omega_local", "dipole_mw",
                      "integration_time", "probe_power"),
        )
        # exact_rabi_magnitude takes omega_local**2
        if self.omega_local * self.omega_local == math.inf:
            raise InvalidParameterError(
                f"omega_local {self.omega_local!r} is too large: its square overflows")
        beat = abs(self.f_signal - self.f_local)
        if not math.isclose(beat, self.delta_f, rel_tol=1e-9):
            raise InvalidParameterError(
                f"delta_f = {self.delta_f!r} does not match "
                f"|f_signal - f_local| = {beat!r}"
            )
        if self.readout not in READOUT_SCHEMES:
            raise InvalidParameterError(
                f"readout must be one of {READOUT_SCHEMES}, got {self.readout!r}"
            )
        fields = tuple(float(e) for e in self.e_signal)
        if not fields:
            raise InvalidParameterError("e_signal must list at least one amplitude")
        if any(e <= 0.0 or not math.isfinite(e) for e in fields):
            raise InvalidParameterError("e_signal amplitudes must be > 0")
        if any(b <= a for a, b in zip(fields, fields[1:])):
            raise InvalidParameterError("e_signal must be strictly increasing")
        object.__setattr__(self, "e_signal", fields)
        if 0.0 < self.sample_rate < _MIN_SAMPLES_PER_BEAT * self.delta_f:
            raise InvalidParameterError(
                "sample_rate must give at least 20 samples per beat period"
            )
        samples = self.fs * self.integration_time
        if not (math.isfinite(samples)
                and SEGMENT_LENGTH <= round(samples) <= MAX_GRID_POINTS):
            raise InvalidParameterError(
                f"integration_time x the {self.fs} Hz sample rate must give "
                f"{SEGMENT_LENGTH} to {MAX_GRID_POINTS} samples, got {samples}"
            )

    @property
    def fs(self):
        """Record sample rate in Hz."""
        if self.sample_rate > 0.0:
            return self.sample_rate
        return _MIN_SAMPLES_PER_BEAT * self.delta_f

    @property
    def beat_period(self):
        """Samples after which the sampled beat repeats exactly.

        The automatic sample rate is defined as 20 samples per beat, so
        its period is 20, even where 20 * delta_f rounds in floating
        point.  At an explicit rate, with fs / delta_f = p / q in lowest
        terms, sample k + p sits q whole beat cycles after sample k, so the
        period is p: 62 at 3.1 MHz.
        """
        if self.sample_rate == 0.0:
            return _MIN_SAMPLES_PER_BEAT
        a, b = float(self.fs).as_integer_ratio()
        c, d = float(self.delta_f).as_integer_ratio()
        # fs / delta_f = a d / (b c), whose numerator in lowest terms is p
        return a * d // math.gcd(a * d, b * c)


@dataclass(frozen=True)
class BeatMetrics:
    """Spectral figures of one detected record."""

    peak_freq_hz: float
    line_power: float
    floor_density: float
    snr_db: float
    bin_width_hz: float


@dataclass(frozen=True, eq=False)
class Sweep:
    """Beat detection results of a sensitivity sweep, as float64 columns
    with one entry per signal amplitude: the amplitude in V/m, the SNR and
    the beat line power in dB, the line's frequency in Hz and the noise
    floor density."""

    e_signal: np.ndarray
    snr_db: np.ndarray
    beat_db: np.ndarray
    peak_freq_hz: np.ndarray
    floor_density: np.ndarray


@dataclass(frozen=True)
class SensitivityResult:
    """Linear fit of SNR against field level and its zero-SNR crossing."""

    e_min: float
    slope_db_per_db: float
    intercept_db: float
    r_squared: float


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Calibration table and its through-origin fit of recovered field
    against root input power.

    The table is five columns with one entry per input power: the power in
    W, the applied and recovered fields in V/m, the splitting in Hz and
    whether it resolved.  ``f_at_hz`` and ``e_recovered`` are NaN where it
    did not.
    """

    power_w: np.ndarray
    e_applied: np.ndarray
    f_at_hz: np.ndarray
    e_recovered: np.ndarray
    resolved: np.ndarray
    slope: float
    r_squared: float


@dataclass(frozen=True, eq=False)
class ComparisonResult:
    """Matched-noise comparison of the two readout schemes.

    ``points_dispersion`` and ``points_amplitude`` are the two ``Sweep``
    records.  ``delta_min_field_db`` uses the 20 log10 field-amplitude
    convention and ``delta_min_field_db_power`` the 10 log10 power
    convention; both are positive when the dispersion scheme reaches
    smaller fields.
    """

    dispersion: SensitivityResult
    amplitude: SensitivityResult
    points_dispersion: Sweep
    points_amplitude: Sweep
    delta_sensitivity_db: float
    delta_min_field_db: float
    delta_min_field_db_power: float


# ---------------------------------------------------------------------------
# two-tone drive


def exact_rabi_magnitude(omega_local, omega_signal, theta):
    """Magnitude of two interfering co-aligned drive phasors at phase theta."""
    return np.sqrt(
        omega_local**2
        + 2.0 * omega_local * omega_signal * np.cos(theta)
        + omega_signal**2
    )


def instantaneous_rabi(config, t, e_signal):
    """Total drive Rabi frequency at times t for one signal amplitude.

    Evaluates the exact two-phasor magnitude; for a weak signal tone this
    is the local tone plus a cosine beat at delta_f, with the first
    harmonic below the linear value by at most (omega_s/omega_l)^2 / 8.
    """
    omega_signal = rabi_from_field(e_signal, config.dipole_mw)
    theta = _TWO_PI * config.delta_f * np.asarray(t, dtype=float)
    return exact_rabi_magnitude(config.omega_local, omega_signal, theta)


# ---------------------------------------------------------------------------
# operating point


def _require_stationary(medium):
    if medium.doppler_enabled:
        raise InvalidParameterError(
            "time-resolved heterodyne runs need a stationary-atom medium; "
            "disable the Doppler average"
        )


def _check_pointer(config, pointer):
    if config.readout == "dispersion" and pointer is None:
        raise InvalidParameterError("dispersion readout needs a pointer setup")


def _observable(config, medium, pointer, delta_p, omega_mw):
    """Readout observable: pointer contrast at ``pointer.post.angle``, or
    power transmission."""
    chi = susceptibility(medium, delta_p, omega_mw=omega_mw)
    phi, beta = phase_and_absorption(chi, medium)
    if config.readout == "dispersion":
        return closed_readout(
            phi, beta, pointer.post.angle, pointer.coupling.k, pointer.beam.w
        )[1]
    return np.exp(2.0 * beta)


def operating_point(config, medium, pointer=None):
    """Probe detuning (rad/s) maximizing the drive-amplitude response.

    Sweeps the probe over 1501 points across the dressed spectrum (at
    least 6 linewidths, and 3 local-tone Rabi frequencies), takes the central
    difference of the scheme observable against the microwave Rabi
    frequency, and parabola-refines the detuning of largest magnitude.
    """
    _require_stationary(medium)
    _check_pointer(config, pointer)
    span = max(6.0, 3.0 * config.omega_local / medium.gamma_2)
    grid = detuning_grid(medium, span, 1501)
    h = 1.0e-3 * config.omega_local
    upper = _observable(config, medium, pointer, grid, config.omega_local + h)
    lower = _observable(config, medium, pointer, grid, config.omega_local - h)
    magnitude = np.abs(upper - lower) / (2.0 * h)
    index = int(np.argmax(magnitude))
    if 0 < index < grid.size - 1:
        return float(_refine_extremum(grid, magnitude, index))
    return float(grid[index])


# ---------------------------------------------------------------------------
# detected records


def run_beat_experiment(
    config, medium, pointer, detector, seed, e_signal=None, delta_p=None
):
    """Detected record of the superheterodyne beat for one signal amplitude.

    ``e_signal`` (V/m) defaults to the first entry of ``config.e_signal``.
    Dispersion readout returns the pointer-contrast record, read through
    ``closed_readout`` at the analyzer angle ``pointer.post.angle``;
    amplitude readout the transmitted-power record in watts.  A detector
    of None gives the clean (noise-free) record.  The probe detuning
    ``delta_p`` defaults to ``operating_point``'s.
    """
    if e_signal is None:
        e_signal = config.e_signal[0]
    _require_stationary(medium)
    _check_pointer(config, pointer)
    if delta_p is None:
        delta_p = operating_point(config, medium, pointer)
    clean = _clean_channels(config, medium, pointer, e_signal, delta_p)
    if detector is None:
        n = int(round(config.fs * config.integration_time))
        return TimeSeries(fs=config.fs, samples=np.resize(channel_readout(clean), n))
    return sample_timeseries(clean, detector, config.fs, config.integration_time, seed)


def _clean_channels(config, medium, pointer, e_signal, delta_p):
    """Clean channel powers of ``config.readout`` over one beat period, in
    watts: checked finite before any noise is drawn."""
    if e_signal < 0.0 or not math.isfinite(e_signal):
        raise InvalidParameterError(f"e_signal must be >= 0, got {e_signal!r}")
    omega_signal = rabi_from_field(e_signal, config.dipole_mw)
    if omega_signal >= config.omega_local:
        raise InvalidParameterError(
            "signal Rabi frequency must stay below the local tone"
        )
    if omega_signal > _BEAT_RATIO_WARN * config.omega_local:
        warnings.warn(
            "signal tone is not small against the local tone; the beat "
            "stops being a linear amplitude modulation",
            RegimeWarning,
            stacklevel=3,
        )
    n = int(round(config.fs * config.integration_time))
    t = np.arange(min(config.beat_period, n)) / config.fs
    drive = instantaneous_rabi(config, t, e_signal)
    chi = susceptibility(medium, delta_p, omega_mw=drive)
    phi, beta = phase_and_absorption(chi, medium)
    transmitted = config.probe_power * np.exp(2.0 * beta)
    if config.readout == "amplitude":
        clean = (transmitted,)
    else:
        _, eta, p_post = closed_readout(
            phi, beta, pointer.post.angle, pointer.coupling.k, pointer.beam.w
        )
        detected = transmitted * p_post
        clean = (0.5 * detected * (1.0 + eta), 0.5 * detected * (1.0 - eta))
    if not all(np.all(np.isfinite(power)) for power in clean):
        raise InvalidParameterError(
            f"the clean {config.readout} channel powers at e_signal {e_signal!r} V/m "
            "are not finite: the medium, heterodyne.omega_local and "
            "heterodyne.e_signal sections feed them"
        )
    return clean


def median(values):
    """np.median of a non-empty 1-D float array, bit for bit, as a float:
    the mean of the middle one or two values, NaN if any value is NaN.
    np.median's own NaN check imports numpy.ma; this one does not."""
    size = values.size
    half = size // 2
    kth = [half, -1] if size % 2 else [half - 1, half, -1]
    part = np.partition(values, kth)
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[kth[0]:half + 1]))


def beat_metrics(ts):
    """Locate the beat line in a detected record and rate it against the floor.

    The line power integrates the density over the peak bin and its two
    neighbors; the floor is the median density away from the line and DC.
    SNR compares the line power with the floor in a 1 Hz bandwidth.  The
    spectrum is Welch's, over segments of ``SEGMENT_LENGTH`` samples.
    """
    return _spectrum_metrics(*psd(ts, SEGMENT_LENGTH))


def _spectrum_metrics(freqs, density):
    """beat_metrics of a record's Welch spectrum."""
    df = float(freqs[1] - freqs[0])
    searchable = freqs >= 2.5 * df
    if not np.any(searchable):
        raise InvalidParameterError("record too short to resolve any beat line")
    candidates = np.flatnonzero(searchable)
    peak = int(candidates[np.argmax(density[candidates])])
    line_power = float(np.sum(density[max(peak - 1, 0) : peak + 2]) * df)
    keep = searchable.copy()
    keep[max(peak - 5, 0) : peak + 6] = False
    floor = median(density[keep]) if np.any(keep) else 0.0
    if line_power > 0.0 and floor > 0.0:
        snr_db = 10.0 * math.log10(line_power / floor)
    elif line_power > 0.0:
        snr_db = math.inf
    else:
        snr_db = -math.inf
    return BeatMetrics(
        peak_freq_hz=float(freqs[peak]),
        line_power=line_power,
        floor_density=floor,
        snr_db=snr_db,
        bin_width_hz=df,
    )


def sensitivity_sweep(config, medium, pointer, detector, seed, map_fn=map):
    """Beat detection swept over the configured signal amplitudes, as a
    ``Sweep`` of the ``config.readout`` scheme.

    Each amplitude gets an independent child seed, so the sweep is
    reproducible and order-independent under parallel evaluation;
    ``map_fn`` may be an executor map for concurrent sweep points.  Its
    records are those of ``run_beat_experiment``; a one-channel
    (amplitude) record is never stored, but summed into its spectrum as
    it is drawn.
    """
    (sweep,) = _sweeps(config, (config.readout,), medium, pointer, detector, seed, map_fn)
    return sweep


def _sweeps(config, schemes, medium, pointer, detector, seed, map_fn):
    """One ``Sweep`` per readout scheme, from one noise draw per amplitude.

    Every scheme's operating point is found first; then each amplitude's
    task draws its noise from its child seed once and reads it out
    through every scheme (see detected_spectra).
    """
    configs = [replace(config, readout=scheme) for scheme in schemes]
    detunings = [operating_point(scheme, medium, pointer) for scheme in configs]
    children = np.random.SeedSequence(seed).spawn(len(config.e_signal))

    def one_field(job):
        e_signal, child = job
        readouts = tuple(
            _clean_channels(scheme, medium, pointer, e_signal, delta_p)
            for scheme, delta_p in zip(configs, detunings)
        )
        spectra = detected_spectra(
            readouts, detector, config.fs, config.integration_time, child, SEGMENT_LENGTH)
        rows = []
        for spectrum in spectra:
            metrics = _spectrum_metrics(*spectrum)
            beat_db = (
                10.0 * math.log10(metrics.line_power)
                if metrics.line_power > 0.0
                else -math.inf
            )
            rows.append((
                e_signal, metrics.snr_db, beat_db, metrics.peak_freq_hz,
                metrics.floor_density,
            ))
        return rows

    fields = list(map_fn(one_field, zip(config.e_signal, children)))
    return tuple(
        Sweep(*(np.array(column, dtype=float) for column in zip(*rows)))
        for rows in zip(*fields)
    )


def min_detectable_field(sweep):
    """Field amplitude whose beat would just reach the noise floor.

    Fits a ``Sweep``'s SNR in dB against 10 log10(E) over the amplitudes
    above 0 dB; the beat line power grows as the field squared, so the
    expected slope is 2 dB per dB.  The crossing of the fit with 0 dB
    gives the minimum detectable field in V/m.
    """
    usable = np.isfinite(sweep.snr_db) & (sweep.snr_db > 0.0)
    count = int(np.count_nonzero(usable))
    if count < _MIN_FIT_POINTS:
        raise FitFailureError(
            f"need at least {_MIN_FIT_POINTS} sweep points above the noise floor, "
            f"got {count}"
        )
    x = np.array([10.0 * math.log10(e) for e in sweep.e_signal[usable].tolist()])
    y = sweep.snr_db[usable]
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        raise FitFailureError("sweep SNR does not vary; fit is degenerate")
    r_squared = 1.0 - ss_res / ss_tot
    if r_squared < _R2_FLOOR:
        raise FitFailureError(
            f"sensitivity fit R^2 = {r_squared:.4f} below {_R2_FLOOR}; "
            "the sweep is not in its linear regime"
        )
    if slope <= 0.0:
        raise FitFailureError("fitted SNR slope is not positive")
    e_min = 10.0 ** (-intercept / slope / 10.0)
    return SensitivityResult(
        e_min=float(e_min),
        slope_db_per_db=float(slope),
        intercept_db=float(intercept),
        r_squared=float(r_squared),
    )


# ---------------------------------------------------------------------------
# traceable calibration


def calibration_powers(p_in_watts):
    """The input powers of a calibration as an array: at least two, finite
    and >= 0, whose positive ones span at least a decade."""
    powers = np.array(p_in_watts, dtype=float)
    if powers.ndim != 1 or powers.size < 2:
        raise InvalidParameterError("need at least two input powers")
    if not np.all(np.isfinite(powers) & (powers >= 0.0)):
        raise InvalidParameterError("input powers must be finite and >= 0")
    positive = powers[powers > 0.0]
    if positive.size < 2 or positive.max() < 10.0 * positive.min():
        raise InvalidParameterError("input powers must span at least one decade")
    return powers


def calibration_curve(
    p_in_watts,
    horn_factor,
    medium,
    dipole_mw=DEFAULT_DIPOLE_MW,
    points=8192,
):
    """Recovered field against root input power, fit through the origin.

    Each input power maps to a field through the horn factor (V/m per
    root watt), drives the medium, and is read back from the
    transparency-dip separation by ``splitting_vs_drive``, so the fitted
    slope reproduces the horn factor when the chain is consistent.
    Unresolved splittings (zero or weak drive) stay in the table flagged
    but leave the fit.  The input powers must pass ``calibration_powers``,
    and the horn factor and dipole must be finite and > 0.
    """
    powers = calibration_powers(p_in_watts)
    for name, value in (("horn_factor", horn_factor), ("dipole_mw", dipole_mw)):
        if not math.isfinite(value) or value <= 0.0:
            raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")

    e_applied = horn_factor * np.sqrt(powers)
    f_at_hz = splitting_vs_drive(
        medium, [rabi_from_field(e, dipole_mw) for e in e_applied.tolist()], points
    )
    resolved = ~np.isnan(f_at_hz)
    e_recovered = field_from_at_splitting(f_at_hz, dipole_mw)
    count = int(np.count_nonzero(resolved))
    if count < 2:
        raise FitFailureError(
            f"only {count} resolved splittings; cannot fit a calibration"
        )
    root_power = np.sqrt(powers[resolved])
    recovered = e_recovered[resolved]
    slope = float(np.dot(root_power, recovered) / np.dot(root_power, root_power))
    if slope <= 0.0:
        raise FitFailureError("calibration slope is not positive")
    ss_res = float(np.sum((recovered - slope * root_power) ** 2))
    ss_tot = float(np.sum(recovered**2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return CalibrationResult(
        power_w=powers,
        e_applied=e_applied,
        f_at_hz=f_at_hz,
        e_recovered=e_recovered,
        resolved=resolved,
        slope=slope,
        r_squared=r_squared,
    )


# ---------------------------------------------------------------------------
# scheme comparison


def comparison_from_points(points_dispersion, points_amplitude):
    """Fit both schemes' sweeps and report the dispersion advantage.

    The two ``Sweep`` records must cover the same signal amplitudes, since
    the SNR advantage pairs them amplitude by amplitude.
    """
    if not np.array_equal(points_dispersion.e_signal, points_amplitude.e_signal):
        raise InvalidParameterError(
            "the two sweeps must cover the same signal amplitudes")
    dispersion = min_detectable_field(points_dispersion)
    amplitude = min_detectable_field(points_amplitude)
    d, a = points_dispersion.snr_db, points_amplitude.snr_db
    both = np.isfinite(d) & (d > 0.0) & np.isfinite(a) & (a > 0.0)
    delta_sensitivity = float(np.mean(d[both] - a[both])) if np.any(both) else math.nan
    ratio = amplitude.e_min / dispersion.e_min
    return ComparisonResult(
        dispersion=dispersion,
        amplitude=amplitude,
        points_dispersion=points_dispersion,
        points_amplitude=points_amplitude,
        delta_sensitivity_db=delta_sensitivity,
        delta_min_field_db=20.0 * math.log10(ratio),
        delta_min_field_db_power=10.0 * math.log10(ratio),
    )


def scheme_comparison(config, medium, pointer, detector, seed, map_fn=map):
    """Dispersion against amplitude readout under matched noise and medium.

    Each signal amplitude's noise is drawn once, from the same child seed
    as ``sensitivity_sweep`` gives it, and read out through both schemes:
    the amplitude record takes the RIN factor and the first channel's
    noise that the dispersion record's left channel takes, so each
    scheme's sweep is the one ``sensitivity_sweep`` gives.  Only the
    dispersion record is stored.  The comparison fits both
    sensitivities and reports the SNR advantage (mean over amplitudes
    detected by both) and the minimum-field advantage in the two dB
    conventions.
    """
    return comparison_from_points(
        *_sweeps(config, READOUT_SCHEMES, medium, pointer, detector, seed, map_fn))
