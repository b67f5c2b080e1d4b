"""Feedback stabilization of the interferometer balance point.

A which-path auxiliary pointer with preparation phase phi_f reads the
mirror-induced momentum offset as a contrast eta_con; a PID controller
actuates the offset to hold eta_con at zero against low-frequency drift.
The drift model combines white jitter, 1/f noise built from octave-spaced
one-pole-filtered white sources, and discrete sinusoidal lines, all in
actuator units (rad/m of momentum offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector_chain import BLOCK, TimeSeries, one_pole
from .errors import DomainError, InstabilityError, InvalidParameterError
from .weak_pointer import DAWSON_SERIES, DAWSON_SHORT_EDGE, BeamPointer, dawson

_SQRTPI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)

# consecutive saturated samples that mark a diverged loop
_INSTABILITY_RUN = 100

# samples suppression_report needs on each side of loop_on_at
MIN_SEGMENT_SAMPLES = 1000

DEFAULT_PHI_F = 0.2
DEFAULT_BEAM_W = 1.0e-3

# the 1/f synthesis filters octaves down to this frequency, or to half the
# record's lowest resolved frequency where that is higher
_LOWEST_OCTAVE_HZ = 0.05


@dataclass(frozen=True)
class PidParams:
    """Discrete PID gains and actuator bounds.

    Gains act on the eta error; the output is a momentum offset in rad/m,
    clamped to ``output_limits`` with integrator anti-windup.
    """

    kp: float = 5.0
    ki: float = 3.0e5
    kd: float = 0.0
    setpoint: float = 0.0
    output_limits: tuple = (-10.0, 10.0)
    sample_rate: float = 1.0e4

    def __post_init__(self):
        for name in ("kp", "ki", "kd", "setpoint", "sample_rate"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if self.sample_rate <= 0.0:
            raise InvalidParameterError("sample_rate must be > 0")
        if len(self.output_limits) != 2:
            raise InvalidParameterError("output_limits must be an ordered finite pair")
        lo, hi = self.output_limits
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidParameterError("output_limits must be an ordered finite pair")


@dataclass(frozen=True)
class DriftModel:
    """Disturbance spectrum of the mirror offset, in rad/m.

    ``one_over_f_amplitude`` is the RMS of the 1/f component below
    ``corner_hz``, ``white_amplitude`` the per-sample RMS of white jitter,
    and ``sinusoids`` a tuple of (frequency Hz, amplitude rad/m) lines.
    """

    one_over_f_amplitude: float = 0.18
    white_amplitude: float = 0.005
    sinusoids: tuple = ((50.0, 0.05), (120.0, 0.05))
    corner_hz: float = 100.0

    def __post_init__(self):
        for amplitude in (self.one_over_f_amplitude, self.white_amplitude):
            if not 0.0 <= amplitude < math.inf:
                raise InvalidParameterError("drift amplitudes must be finite and >= 0")
        # a lower corner is a single pole whose burn-in outgrows memory
        if not _LOWEST_OCTAVE_HZ <= self.corner_hz < math.inf:
            raise InvalidParameterError(
                f"corner_hz must be finite and >= {_LOWEST_OCTAVE_HZ} Hz, the lowest "
                f"octave of the 1/f synthesis, got {self.corner_hz!r}"
            )
        for freq, amp in self.sinusoids:
            if not (0.0 < freq < math.inf and 0.0 <= amp < math.inf):
                raise InvalidParameterError(
                    "sinusoid lines need finite frequency > 0 and amplitude >= 0"
                )


@dataclass(frozen=True, eq=False)
class LoopTrace:
    """Full closed-loop record: contrast, actuator output, disturbance."""

    ts: TimeSeries
    pid_output: np.ndarray
    disturbance: np.ndarray


def _check_phi_f(phi_f):
    """The plant needs sin(phi_f) != 0 for a signal and cos(phi_f) != 1 for
    a nonzero denominator 1 - cos(phi_f) at k_offset = 0."""
    if not math.isfinite(phi_f):
        raise InvalidParameterError(f"phi_f must be finite, got {phi_f!r}")
    if math.sin(phi_f) == 0.0 or math.cos(phi_f) == 1.0:
        raise InvalidParameterError(
            "phi_f must not be a multiple of pi, nor so near an even one that "
            f"cos(phi_f) rounds to 1, got {phi_f!r}"
        )


def plant_gain(phi_f, beam):
    """Small-offset slope d(eta)/d(k_offset) of the which-path pointer."""
    _check_phi_f(phi_f)
    return (
        2.0
        * _SQRT2
        * beam.w
        / _SQRTPI
        * math.sin(phi_f)
        / (1.0 - math.cos(phi_f))
    )


# ---------------------------------------------------------------------------
# disturbance synthesis


def _octave_poles(corner_hz, duration):
    lowest = max(_LOWEST_OCTAVE_HZ, 1.0 / (2.0 * duration))
    octaves = max(1, min(14, int(math.ceil(math.log2(corner_hz / lowest))) + 1))
    return corner_hz / (2.0 ** np.arange(octaves))


def burn_in_samples(corner_hz, fs, duration):
    """Samples each 1/f filter runs before the record starts: five time
    constants of its lowest pole (a float, as it may exceed any array)."""
    return 5.0 * fs / (2.0 * math.pi * _octave_poles(corner_hz, duration)[-1])


def _one_over_f(rng, out, amplitude, fs, corner_hz, duration):
    """Write ``amplitude`` times unit-RMS 1/f-shaped noise from octave-spaced
    one-pole filters into the zeroed ``out``; returns the white buffer, burn
    samples longer than ``out``, that every octave was drawn and filtered in."""
    poles = _octave_poles(corner_hz, duration)
    burn = int(math.ceil(burn_in_samples(corner_hz, fs, duration)))
    white = np.empty(out.size + burn)
    for pole in poles:
        a = math.exp(-2.0 * math.pi * pole / fs)
        rng.standard_normal(out=white)
        # input gain for unit output variance: var(y) = gain^2 / (1 - a^2)
        white *= math.sqrt((1.0 - a) * (1.0 + a))
        one_pole(white, a)
        out += white[burn:]
    out /= math.sqrt(poles.size)
    out *= amplitude
    return white


def synthesize_drift(drift, n, fs, seed):
    """Deterministic disturbance record of the drift model, in rad/m.

    The components are built one at a time in a single reused buffer and
    added into the record, the sinusoids ``BLOCK`` samples at a time.
    Amplitudes near the float limit can sum past it; such a record is a
    ``DomainError``, not a warning and a non-finite disturbance.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if drift.one_over_f_amplitude > 0.0:
            buffer = _one_over_f(
                rng, out, drift.one_over_f_amplitude, fs, drift.corner_hz, n / fs
            )[:n]
            # the record is a sum onto zeros, where an underflowed -0.0
            # reads 0.0
            out += 0.0
        else:
            buffer = np.empty(n)
        if drift.white_amplitude > 0.0:
            rng.standard_normal(out=buffer)
            buffer *= drift.white_amplitude
            out += buffer
        if drift.sinusoids:
            phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in drift.sinusoids]
            for start in range(0, n, BLOCK):
                t = np.arange(start, min(start + BLOCK, n), dtype=float)
                t /= fs
                line = buffer[: t.size]
                for (freq, amp), phase in zip(drift.sinusoids, phases):
                    np.multiply(2.0 * math.pi * freq, t, out=line)
                    line += phase
                    np.sin(line, out=line)
                    line *= amp
                    out[start : start + t.size] += line
    if not np.isfinite(out).all():
        raise DomainError(
            "drift amplitudes sum past the float range; reduce the drift amplitudes"
        )
    return out


# ---------------------------------------------------------------------------
# closed loop


def _diverged(pid):
    return InstabilityError(
        "feedback loop diverged (actuator saturated for "
        f"{_INSTABILITY_RUN} samples) with gains kp={pid.kp}, "
        f"ki={pid.ki}, kd={pid.kd}"
    )


def simulate_closed_loop_detailed(
    pid,
    drift,
    duration,
    loop_on_at,
    seed,
    phi_f=DEFAULT_PHI_F,
    beam=None,
):
    """Run the feedback loop and keep the full actuator trace.

    The controller is enabled once t reaches ``loop_on_at``; before that
    the record shows the open-loop drift.  The loop marks itself unstable
    when the actuator stays pinned at its limits (or the contrast leaves
    its physical range) for 100 consecutive samples.  A drift so large
    that (k w)^2 of the plant overflows raises ``DomainError``.

    The plant is the pointer contrast at pi/4 through ``weak_pointer.dawson``.
    The closed half inlines its four-term series for Dawson arguments below
    ``DAWSON_SHORT_EDGE``, which the shipped loop never leaves, and calls
    ``dawson`` beyond; each sample's bits are those of a scalar ``dawson``.
    """
    if not 0.0 <= loop_on_at < duration:
        raise InvalidParameterError("need duration > loop_on_at >= 0")
    if beam is None:
        beam = BeamPointer.centered(DEFAULT_BEAM_W)
    _check_phi_f(phi_f)

    fs = pid.sample_rate
    n = int(round(duration * fs))
    if n < 1:
        raise InvalidParameterError("duration x sample_rate rounds to no samples")
    # allocated before the drift, the traces are mapped on their own rather
    # than carved from the heap that the drift's temporary buffers free
    eta = np.empty(n)
    control = np.zeros(n)
    disturbance = synthesize_drift(drift, n, fs, seed)
    on_index = int(round(loop_on_at * fs))
    lo, hi = pid.output_limits
    dt = 1.0 / fs
    sin_f = math.sin(phi_f)
    cos_f = math.cos(phi_f)
    w = beam.w
    gain = 2.0 / _SQRTPI
    # the plant sees |k| <= max|disturbance| + max|u|; bound its 2 (k w)^2 once
    largest = float(max(disturbance.max(), -disturbance.min()))
    reach = (largest + max(abs(lo), abs(hi))) * w
    if not math.isfinite(2.0 * reach * reach):
        raise DomainError(
            f"drift reaches a momentum offset of {reach / w:.3g} rad/m, where "
            "the plant's (k w)^2 overflows; reduce the drift amplitudes"
        )

    # open half: u stays 0, so the plant runs on BLOCK samples at a time
    # (+ 0.0 turns -0.0 into 0.0, as disturbance + u does); math.exp, not
    # np.exp, keeps the damping term bit-equal to the closed half's steps
    split = min(on_index, n)
    saturated_run = 0
    for start in range(0, split, BLOCK):
        stop = min(start + BLOCK, split)
        kw = (disturbance[start:stop] + 0.0) * w
        damping = np.fromiter(map(math.exp, (-2.0 * kw * kw).tolist()), float, stop - start)
        block = eta[start:stop]
        block[:] = gain * dawson(_SQRT2 * kw) * sin_f / (1.0 - damping * cos_f)
        # every open sample is saturated when the limits exclude u = 0; the
        # run carried in stands just before the block's first sample
        saturated = (np.abs(block) > 1.0) | (lo >= 0.0 or hi <= 0.0)
        free = np.flatnonzero(~saturated)
        runs = np.diff(free, prepend=-1 - saturated_run, append=stop - start) - 1
        if runs.max() >= _INSTABILITY_RUN:
            raise _diverged(pid)
        saturated_run = int(runs[-1])

    # closed half: scalar steps, with the plant inlined, written straight
    # into the traces
    kp, ki, kd, setpoint = pid.kp, pid.ki, pid.kd, pid.setpoint
    edge, (c1, c2, c3) = DAWSON_SHORT_EDGE, DAWSON_SERIES[1:4]
    exp = math.exp
    eta_out, control_out = memoryview(eta), memoryview(control)
    integrator = 0.0
    previous_error = 0.0
    u = 0.0
    for start in range(split, n, BLOCK):
        for i, offset in enumerate(disturbance[start : start + BLOCK].tolist(), start):
            kw = (offset + u) * w
            z = _SQRT2 * kw
            # dawson keeps the sign of a zero, which z + z * (...) does not
            if z and -edge < z < edge:
                zz = z * z
                f = z + z * (zz * (c1 + zz * (c2 + zz * c3)))
            else:
                f = float(dawson(z))
            value = gain * f * sin_f / (1.0 - exp(-2.0 * kw * kw) * cos_f)
            eta_out[i] = value
            if abs(value) > 1.0 or u <= lo or u >= hi:
                saturated_run += 1
                if saturated_run >= _INSTABILITY_RUN:
                    raise _diverged(pid)
            else:
                saturated_run = 0
            error = setpoint - value
            candidate = integrator + ki * error * dt
            proportional = kp * error
            derivative = kd * (error - previous_error) / dt
            raw = proportional + candidate + derivative
            if lo <= raw <= hi:
                integrator = candidate  # integrate only while unclamped
            u = proportional + integrator + derivative
            u = u if u > lo else lo
            u = u if u < hi else hi
            previous_error = error
            control_out[i] = u
    ts = TimeSeries(fs=fs, samples=eta)
    return LoopTrace(ts=ts, pid_output=control, disturbance=disturbance)


def suppression_report(ts, loop_on_at):
    """Standard deviations of the open and closed segments and their ratio.

    The ratio is NaN when the closed segment has zero spread (reported
    downstream as undefined).
    """
    split = int(round(loop_on_at * ts.fs))
    open_segment = ts.samples[:split]
    closed_segment = ts.samples[split:]
    if min(open_segment.size, closed_segment.size) < MIN_SEGMENT_SAMPLES:
        raise InvalidParameterError(
            f"need at least {MIN_SEGMENT_SAMPLES} samples on each side of loop_on_at"
        )
    std_open = float(np.std(open_segment))
    std_closed = float(np.std(closed_segment))
    ratio = std_open / std_closed if std_closed > 0.0 else math.nan
    return std_open, std_closed, ratio


def equivalent_phase_deviation(eta_std, k, w):
    """Phase deviation mapped from an eta spread via the linearized readout."""
    return eta_std * k * w * math.sqrt(math.pi / 2.0)
