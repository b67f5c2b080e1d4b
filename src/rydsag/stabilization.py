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
from scipy import special

from .detector_chain import TimeSeries, one_pole
from .errors import (
    DomainError,
    InstabilityError,
    InvalidParameterError,
    OrthogonalPostselectionError,
)
from .weak_pointer import BeamPointer, closed_icr

_SQRTPI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)

# consecutive saturated samples that mark a diverged loop
_INSTABILITY_RUN = 100

# samples suppression_report needs on each side of loop_on_at
MIN_SEGMENT_SAMPLES = 1000

DEFAULT_PHI_F = 0.2
DEFAULT_BEAM_W = 1.0e-3


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
        if not 0.0 < self.corner_hz < math.inf:
            raise InvalidParameterError("corner_hz must be finite and > 0")
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


def plant_response(k_offset, phi_f, beam):
    """Which-path pointer contrast at a given actuator momentum offset.

    Evaluates the exact closed form of the auxiliary pointer with
    preparation phase phi_f (oracle-checked in the test suite); odd in
    k_offset and zero at the balanced point.
    """
    if math.sin(phi_f) == 0.0:
        raise OrthogonalPostselectionError(
            "stabilization port is dark at phi_f = n*pi; no error signal"
        )
    return float(closed_icr(phi_f, 0.0, k_offset, beam.w))


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


def _one_over_f(rng, n, fs, corner_hz, duration):
    """Unit-RMS 1/f-shaped noise from octave-spaced one-pole filters."""
    lowest = max(0.05, 1.0 / (2.0 * duration))
    octaves = max(1, min(14, int(math.ceil(math.log2(corner_hz / lowest))) + 1))
    poles = corner_hz / (2.0 ** np.arange(octaves))
    burn = int(math.ceil(5.0 * fs / (2.0 * math.pi * poles[-1])))
    total = np.zeros(n)
    for pole in poles:
        a = math.exp(-2.0 * math.pi * pole / fs)
        white = rng.standard_normal(n + burn)
        # input gain for unit output variance: var(y) = gain^2 / (1 - a^2)
        white *= math.sqrt((1.0 - a) * (1.0 + a))
        total += one_pole(white, a)[burn:]
    return total / math.sqrt(octaves)


def synthesize_drift(drift, n, fs, seed):
    """Deterministic disturbance record of the drift model, in rad/m.

    Amplitudes near the float limit can sum past it; such a record is a
    ``DomainError``, not a warning and a non-finite disturbance.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    out = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if drift.one_over_f_amplitude > 0.0:
            out += drift.one_over_f_amplitude * _one_over_f(
                rng, n, fs, drift.corner_hz, n / fs
            )
        if drift.white_amplitude > 0.0:
            out += drift.white_amplitude * rng.standard_normal(n)
        for freq, amp in drift.sinusoids:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            out += amp * np.sin(2.0 * math.pi * freq * t + phase)
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
    disturbance = synthesize_drift(drift, n, fs, seed)
    on_index = int(round(loop_on_at * fs))
    lo, hi = pid.output_limits
    dt = 1.0 / fs
    sin_f = math.sin(phi_f)
    cos_f = math.cos(phi_f)
    w = beam.w
    # the plant sees |k| <= max|disturbance| + max|u|; bound its 2 (k w)^2 once
    reach = (float(np.max(np.abs(disturbance))) + max(abs(lo), abs(hi))) * w
    if not math.isfinite(2.0 * reach * reach):
        raise DomainError(
            f"drift reaches a momentum offset of {reach / w:.3g} rad/m, where "
            "the plant's (k w)^2 overflows; reduce the drift amplitudes"
        )

    # open half: u stays 0, so the plant runs on whole arrays (+ 0.0 turns
    # -0.0 into 0.0, as disturbance + u does); math.exp, not np.exp, keeps
    # the damping term bit-equal to the closed half's scalar steps
    split = min(on_index, n)
    kw = (disturbance[:split] + 0.0) * w
    damping = np.array(list(map(math.exp, (-2.0 * kw * kw).tolist())))
    open_eta = 2.0 / _SQRTPI * special.dawsn(_SQRT2 * kw) * sin_f / (1.0 - damping * cos_f)
    # every open sample is saturated when the limits exclude u = 0
    saturated = (np.abs(open_eta) > 1.0) | (lo >= 0.0 or hi <= 0.0)
    runs = np.diff(np.concatenate(([-1], np.flatnonzero(~saturated), [split]))) - 1
    if runs.max() >= _INSTABILITY_RUN:
        raise _diverged(pid)
    saturated_run = int(runs[-1])

    # closed half: scalar steps over lists, with the plant inlined
    kp, ki, kd, setpoint = pid.kp, pid.ki, pid.kd, pid.setpoint
    exp, dawsn = math.exp, special.dawsn
    gain = 2.0 / _SQRTPI
    closed_eta, closed_u = [], []
    push_eta, push_u = closed_eta.append, closed_u.append
    integrator = 0.0
    previous_error = 0.0
    u = 0.0
    for offset in disturbance[split:].tolist():
        kw = (offset + u) * w
        value = gain * float(dawsn(_SQRT2 * kw)) * sin_f / (1.0 - exp(-2.0 * kw * kw) * cos_f)
        push_eta(value)
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
        push_u(u)
    eta = np.concatenate((open_eta, closed_eta))
    control = np.concatenate((np.zeros(split), closed_u))
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
