"""Feedback loop: plant linearity, drift synthesis, suppression statistics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rydsag import stabilization
from rydsag.errors import DomainError, InstabilityError, InvalidParameterError
from rydsag.stabilization import (
    DriftModel,
    PidParams,
    equivalent_phase_deviation,
    plant_gain,
    simulate_closed_loop_detailed,
    suppression_report,
    synthesize_drift,
)
from rydsag.detector_chain import TimeSeries, one_pole
from rydsag.weak_pointer import (
    BeamPointer,
    PostSelection,
    PreSelection,
    WeakCoupling,
    closed_readout,
    dawson,
    quadrature_oracle,
)

PHI_F = 0.2
BEAM = BeamPointer.centered(1.0e-3)


def test_plant_response_zero_at_balance():
    assert closed_readout(PHI_F, 0.0, math.pi / 4, 0.0, BEAM.w)[1] == 0.0


def test_plant_response_is_the_pointer_contrast():
    # the plant is the which-path pointer's contrast at the balanced
    # analyzer, judged by the quadrature oracle; at k w <= 1e-6 the oracle's
    # left - right difference cancels, so the kicks stay well above that
    for phi_f in (0.2, 1.0):
        for k in (-3.0, 1.0, 5.0, 200.0):
            oracle = quadrature_oracle(
                PreSelection(phi_f), PostSelection(), WeakCoupling(k), BEAM)
            plant = closed_readout(phi_f, 0.0, math.pi / 4, k, BEAM.w)[1]
            assert plant == pytest.approx(oracle.eta, rel=1e-12)


def test_plant_response_odd_and_linear_near_balance():
    def plant(k):
        return closed_readout(PHI_F, 0.0, math.pi / 4, k, BEAM.w)[1]

    k = 1.0
    assert plant(-k) == pytest.approx(-plant(k), rel=1e-12)
    # within 1% of the tangent over +-10% of the linearization scale
    g = plant_gain(PHI_F, BEAM)
    k_lin = 0.1 / (g / abs(plant(1e-3) / 1e-3))  # sanity
    for k_off in np.linspace(-k_lin, k_lin, 7):
        if k_off == 0.0:
            continue
        assert plant(k_off) == pytest.approx(g * k_off, rel=1e-2)


@pytest.mark.parametrize("phi_f", [0.2, 1.0])
def test_loop_record_is_the_pointer_contrast(phi_f):
    # the loop inlines its plant; each sample must be the pointer contrast
    # at the offset that sample saw, the drift plus the previous output
    trace = simulate_closed_loop_detailed(
        PidParams(), DriftModel(), 2.0, 1.0, seed=0, phi_f=phi_f)
    applied = np.concatenate(([0.0], trace.pid_output[:-1]))
    _, eta, _ = closed_readout(
        phi_f, 0.0, math.pi / 4, trace.disturbance + applied, BEAM.w)
    np.testing.assert_allclose(trace.ts.samples, eta, rtol=1e-12, atol=0.0)


def test_plant_gain_closed_form():
    expected = 2.0 * math.sqrt(2.0 / math.pi) * BEAM.w * (
        math.sin(PHI_F) / (1.0 - math.cos(PHI_F)))
    assert plant_gain(PHI_F, BEAM) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "phi_f", [math.inf, -math.inf, math.nan, 0.0, 1.0e-300, 2.0 * math.pi])
def test_phi_f_without_a_plant_is_refused(phi_f):
    # sin(phi_f) = 0 leaves no error signal, and where cos(phi_f) rounds to 1
    # the plant's denominator 1 - cos(phi_f) is 0 at the balanced point
    with pytest.raises(InvalidParameterError, match="phi_f"):
        plant_gain(phi_f, BEAM)
    with pytest.raises(InvalidParameterError, match="phi_f"):
        simulate_closed_loop_detailed(
            PidParams(), DriftModel(), 0.2, 0.1, seed=0, phi_f=phi_f)


def test_synthesize_drift_deterministic_and_sized():
    drift = DriftModel()
    a = synthesize_drift(drift, 5000, 1e4, seed=11)
    b = synthesize_drift(drift, 5000, 1e4, seed=11)
    c = synthesize_drift(drift, 5000, 1e4, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (5000,)


def test_synthesize_drift_sinusoid_line():
    drift = DriftModel(one_over_f_amplitude=0.0, white_amplitude=0.0,
                       sinusoids=((50.0, 0.1),))
    fs = 1e4
    series = synthesize_drift(drift, 20000, fs, seed=4)
    # a pure line: RMS = amplitude / sqrt(2)
    assert float(np.std(series)) == pytest.approx(0.1 / math.sqrt(2.0), rel=0.01)
    spectrum = np.abs(np.fft.rfft(series))
    freqs = np.fft.rfftfreq(20000, 1.0 / fs)
    assert abs(freqs[np.argmax(spectrum)] - 50.0) < 1.0


def test_one_over_f_spectrum_slope():
    drift = DriftModel(one_over_f_amplitude=1.0, white_amplitude=0.0, sinusoids=())
    fs = 1e4
    series = synthesize_drift(drift, 200000, fs, seed=21)
    freqs = np.fft.rfftfreq(200000, 1.0 / fs)
    power = np.abs(np.fft.rfft(series)) ** 2
    # average log-log slope between 0.5 Hz and 50 Hz should be near -1
    band = (freqs > 0.5) & (freqs < 50.0)
    logf = np.log10(freqs[band])
    bins = np.linspace(logf.min(), logf.max(), 12)
    which = np.digitize(logf, bins)
    mean_logp = [np.log10(power[band][which == i].mean())
                 for i in range(1, 12) if np.any(which == i)]
    mean_logf = [logf[which == i].mean() for i in range(1, 12) if np.any(which == i)]
    slope = np.polyfit(mean_logf, mean_logp, 1)[0]
    assert -1.5 < slope < -0.5


def test_zero_drift_zero_gains_constant_output():
    drift = DriftModel(one_over_f_amplitude=0.0, white_amplitude=0.0, sinusoids=())
    pid = PidParams(kp=0.0, ki=0.0, kd=0.0)
    ts = simulate_closed_loop_detailed(pid, drift, 1.0, 0.5, seed=0).ts
    assert np.all(ts.samples == ts.samples[0])


def test_dc_rejection_within_ten_time_constants():
    # a constant disturbance enters at t=0; the loop turns on immediately
    drift = DriftModel(one_over_f_amplitude=0.0, white_amplitude=0.0,
                       sinusoids=((1e-9, 0.2),))  # ~constant over the run
    ki = 2.0e5
    pid = PidParams(kp=0.0, ki=ki, kd=0.0)
    trace = simulate_closed_loop_detailed(
        pid, drift, 0.05, 0.0, seed=0, phi_f=PHI_F, beam=BEAM)
    g = plant_gain(PHI_F, BEAM)
    tau = 1.0 / (g * ki)
    n_settle = int(10.0 * tau * pid.sample_rate)
    late = trace.ts.samples[n_settle:]
    assert np.max(np.abs(late)) < 1e-6


def test_suppression_report_exact_on_synthetic_series():
    fs = 1e4
    rng = np.random.default_rng(3)
    open_seg = 2.0 * rng.standard_normal(20000)
    closed_seg = 0.25 * rng.standard_normal(20000)
    ts = TimeSeries(fs=fs, samples=np.concatenate([open_seg, closed_seg]))
    std_open, std_closed, ratio = suppression_report(ts, loop_on_at=2.0)
    assert std_open == pytest.approx(float(np.std(open_seg)), rel=1e-12)
    assert std_closed == pytest.approx(float(np.std(closed_seg)), rel=1e-12)
    assert ratio == pytest.approx(std_open / std_closed, rel=1e-12)


def test_suppression_report_constant_series_ratio_undefined():
    ts = TimeSeries(fs=1e4, samples=np.ones(20000))
    std_open, std_closed, ratio = suppression_report(ts, loop_on_at=1.0)
    assert std_open == 0.0
    assert std_closed == 0.0
    assert math.isnan(ratio)


def test_suppression_report_needs_both_segments():
    ts = TimeSeries(fs=1e4, samples=np.zeros(1500))
    with pytest.raises(InvalidParameterError):
        suppression_report(ts, loop_on_at=0.01)  # open segment too short


def test_default_scenario_meets_suppression_targets():
    trace = simulate_closed_loop_detailed(
        PidParams(), DriftModel(), 10.0, 5.0, seed=2)
    std_open, std_closed, ratio = suppression_report(trace.ts, 5.0)
    assert 2.32e-3 <= std_open <= 3.48e-3
    assert std_closed <= 6e-4
    assert ratio >= 5.0


def test_increasing_ki_never_hurts_suppression():
    # per-seed monotonicity over the design-range gain ladder
    ladder = (1.0e5, 2.0e5, 3.0e5, 4.0e5)
    for seed in (0, 1, 2):
        closed = []
        for ki in ladder:
            trace = simulate_closed_loop_detailed(
                PidParams(kp=5.0, ki=ki), DriftModel(), 4.0, 2.0, seed=seed)
            closed.append(suppression_report(trace.ts, 2.0)[1])
        assert all(b <= a for a, b in zip(closed, closed[1:]))


def test_loop_determinism_bit_identical():
    a = simulate_closed_loop_detailed(PidParams(), DriftModel(), 2.0, 1.0, seed=42).ts
    b = simulate_closed_loop_detailed(PidParams(), DriftModel(), 2.0, 1.0, seed=42).ts
    assert np.array_equal(a.samples, b.samples)


def test_unstable_gains_raise():
    # proportional gain far above the discrete-loop stability limit
    pid = PidParams(kp=500.0, ki=3.0e5)
    with pytest.raises(InstabilityError, match="kp=500"):
        simulate_closed_loop_detailed(pid, DriftModel(), 2.0, 0.0, seed=0)


def test_loop_timing_validation():
    with pytest.raises(InvalidParameterError):
        simulate_closed_loop_detailed(PidParams(), DriftModel(), 1.0, 1.0, seed=0)
    with pytest.raises(InvalidParameterError):
        simulate_closed_loop_detailed(PidParams(), DriftModel(), 1.0, -0.1, seed=0)
    with pytest.raises(InvalidParameterError):
        simulate_closed_loop_detailed(PidParams(), DriftModel(), 1.0, math.nan, seed=0)
    # 1 s at 0.1 Hz rounds to no samples
    with pytest.raises(InvalidParameterError):
        simulate_closed_loop_detailed(
            PidParams(sample_rate=0.1), DriftModel(), 1.0, 0.0, seed=0)


def test_pid_params_validation():
    with pytest.raises(InvalidParameterError):
        PidParams(sample_rate=0.0)
    with pytest.raises(InvalidParameterError):
        PidParams(output_limits=(1.0, -1.0))
    # the open-loop actuator rests at u = 0, so limits that exclude it are
    # refused at construction, not reported later as a diverged loop
    for limits in ((), (-1.0, 0.0, 1.0), (0.5, 10.0), (0.0, 10.0), (-10.0, 0.0),
                   (-math.inf, 1.0)):
        with pytest.raises(InvalidParameterError, match="output_limits"):
            PidParams(output_limits=limits)
    with pytest.raises(InvalidParameterError):
        PidParams(kp=math.nan)


def test_drift_model_validation():
    with pytest.raises(InvalidParameterError):
        DriftModel(one_over_f_amplitude=-0.1)
    with pytest.raises(InvalidParameterError):
        DriftModel(sinusoids=((50.0, -0.1),))
    for bad in (
        dict(corner_hz=math.nan),
        dict(one_over_f_amplitude=math.nan),
        dict(white_amplitude=math.inf),
        dict(sinusoids=((50.0, math.inf),)),
        dict(sinusoids=((math.nan, 0.05),)),
    ):
        with pytest.raises(InvalidParameterError):
            DriftModel(**bad)


def test_overflowing_drift_is_a_domain_error():
    # (k w)^2 of the plant overflows for a 1e300 rad/m drift; the loop used
    # to run on with eta = 0 and report an undefined ratio
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            simulate_closed_loop_detailed(
                PidParams(), DriftModel(white_amplitude=1e300), 1.0, 0.5, seed=0)
        # 1e308 components sum past the float range inside the synthesis,
        # which used to warn and report an offset of nan rad/m
        huge = DriftModel(white_amplitude=1e308, one_over_f_amplitude=1e308)
        with pytest.raises(DomainError, match="float range") as caught:
            synthesize_drift(huge, 10000, 1e4, seed=0)
        assert "nan" not in str(caught.value)
        with pytest.raises(DomainError, match="float range"):
            simulate_closed_loop_detailed(PidParams(), huge, 1.0, 0.5, seed=0)


def test_equivalent_phase_deviation_linearization():
    # eta_std * k * w * sqrt(pi/2) maps the contrast deviation back onto
    # the differential phase
    assert equivalent_phase_deviation(1.0e-3, 10.0, 1.0e-3) == pytest.approx(
        1.0e-3 * 10.0 * 1.0e-3 * math.sqrt(math.pi / 2.0), rel=1e-12)


def test_trace_exposes_disturbance_and_actuation():
    trace = simulate_closed_loop_detailed(
        PidParams(), DriftModel(), 1.0, 0.5, seed=1)
    n = trace.ts.samples.size
    assert trace.pid_output.shape == (n,)
    assert trace.disturbance.shape == (n,)
    on_index = int(0.5 * PidParams().sample_rate)
    assert np.all(trace.pid_output[:on_index] == 0.0)
    assert np.any(trace.pid_output[on_index + 1:] != 0.0)


# ---------------------------------------------------------------------------
# bit-exactness of the loop against the plain scalar loop it replaced

_SQRTPI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
_INSTABILITY_RUN = stabilization._INSTABILITY_RUN


def _plant_eta(phi_f_sin, phi_f_cos, k, w):
    """The loop's plant, the pointer contrast at pi/4, one offset at a time."""
    kw = k * w
    z = _SQRT2 * kw
    den = 1.0 - math.exp(-2.0 * kw * kw) * phi_f_cos
    return 2.0 / _SQRTPI * float(dawson(z)) * phi_f_sin / den


def _scalar_loop(pid, drift, duration, loop_on_at, seed, phi_f=0.2, beam=None):
    """The one-sample-at-a-time loop, kept as the oracle of the fast one."""
    if beam is None:
        beam = BeamPointer.centered(1.0e-3)
    fs = pid.sample_rate
    n = int(round(duration * fs))
    disturbance = stabilization.synthesize_drift(drift, n, fs, seed)
    on_index = int(round(loop_on_at * fs))
    lo, hi = pid.output_limits
    dt = 1.0 / fs
    sin_f = math.sin(phi_f)
    cos_f = math.cos(phi_f)
    w = beam.w

    eta = np.empty(n)
    control = np.zeros(n)
    integrator = 0.0
    previous_error = 0.0
    u = 0.0
    saturated_run = 0
    for i in range(n):
        value = _plant_eta(sin_f, cos_f, disturbance[i] + u, w)
        eta[i] = value
        if abs(value) > 1.0 or u <= lo or u >= hi:
            saturated_run += 1
            if saturated_run >= _INSTABILITY_RUN:
                raise InstabilityError(
                    "feedback loop diverged (actuator saturated for "
                    f"{_INSTABILITY_RUN} samples) with gains kp={pid.kp}, "
                    f"ki={pid.ki}, kd={pid.kd}"
                )
        else:
            saturated_run = 0
        if i >= on_index:
            error = pid.setpoint - value
            candidate = integrator + pid.ki * error * dt
            proportional = pid.kp * error
            derivative = pid.kd * (error - previous_error) / dt
            raw = proportional + candidate + derivative
            if lo <= raw <= hi:
                integrator = candidate  # integrate only while unclamped
            u = min(hi, max(lo, proportional + integrator + derivative))
            previous_error = error
        control[i] = u
    return eta, control, disturbance


def _assert_matches_scalar_loop(pid, drift, duration, loop_on_at, seed=0):
    try:
        expected = _scalar_loop(pid, drift, duration, loop_on_at, seed)
    except InstabilityError as exc:
        with pytest.raises(InstabilityError) as caught:
            simulate_closed_loop_detailed(pid, drift, duration, loop_on_at, seed)
        assert str(caught.value) == str(exc)
        return "raised"
    trace = simulate_closed_loop_detailed(pid, drift, duration, loop_on_at, seed)
    for got, want in zip(
            (trace.ts.samples, trace.pid_output, trace.disturbance), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        # equal as bit patterns, so -0.0 against 0.0 counts too
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return "ran"


_WRONG_SIGN = PidParams(output_limits=(-10.0, 1.0e-3), kp=-1.0e6, ki=0.0, sample_rate=2.0e4)


@pytest.mark.parametrize("pid, duration, loop_on_at, outcome", [
    # the shipped loop
    (PidParams(), 2.0, 1.0, "ran"),
    # a derivative term and limits of unequal reach; u sits on -0.3 for
    # about 4% of the closed half
    (PidParams(kp=3.0, ki=2.0e5, kd=1.0e-4, output_limits=(-0.3, 7.0)), 2.0, 1.0, "ran"),
    # no open half
    (PidParams(), 2.0, 0.0, "ran"),
    # diverges in the closed half
    (PidParams(kp=500.0), 2.0, 1.0, "raised"),
    # limits too tight to hold the drift pin u in the closed half
    (PidParams(output_limits=(-1.0e-6, 1.0e-6)), 2.0, 0.1, "raised"),
    # a gain of the wrong sign pins u on a limit from the first closed
    # sample on: closed halves of 120 and 98 samples make saturated runs of
    # 119, which raises, and 97, which does not
    (_WRONG_SIGN, 0.011, 0.005, "raised"),
    (_WRONG_SIGN, 0.0099, 0.005, "ran"),
    # a closed half of 3 samples, and one of 55 000
    (PidParams(), 2.0, 2.0 - 3.0e-4, "ran"),
    (PidParams(), 6.0, 0.5, "ran"),
    # open and closed halves of 16 384 and 16 385 samples: one block, and
    # one block and a sample
    (PidParams(), 3.2769, 1.6384, "ran"),
    (PidParams(), 3.2769, 1.6385, "ran"),
])
def test_loop_is_bit_equal_to_scalar_loop(pid, duration, loop_on_at, outcome):
    assert _assert_matches_scalar_loop(pid, DriftModel(), duration, loop_on_at) == outcome


def test_loop_with_zero_gains_inside_tiny_limits_does_not_saturate():
    # u = 0 lies just inside the limits, so no sample counts as saturated
    pid = PidParams(output_limits=(-1.0e-300, 1.0e-300), kp=0.0, ki=0.0)
    assert _assert_matches_scalar_loop(pid, DriftModel(), 0.2, 0.1) == "ran"


def test_loop_keeps_signed_zero_of_scalar_loop(monkeypatch):
    record = np.zeros(4000)
    record[::3] = -0.0
    record[1::7] = 1.0e-3
    monkeypatch.setattr(
        stabilization, "synthesize_drift", lambda drift, n, fs, seed: record[:n].copy())
    assert np.signbit(record).any()
    for loop_on_at in (0.0, 0.2):
        assert _assert_matches_scalar_loop(
            PidParams(), DriftModel(), 0.4, loop_on_at) == "ran"


def test_loop_beyond_the_inlined_series_is_bit_equal_to_scalar_loop(monkeypatch):
    # offsets of about 100 rad/m put the Dawson argument sqrt(2) k w past
    # the four-term series that the closed half inlines on most samples,
    # and past 1/4, into dawson's polynomial ranges, on about 8% of them
    record = np.random.default_rng(4).normal(0.0, 100.0, 4000)
    z = math.sqrt(2.0) * np.abs(record) * 1.0e-3
    assert (z >= 0.25).mean() > 0.05 and (z < 2.0**-7).mean() > 0.02
    monkeypatch.setattr(
        stabilization, "synthesize_drift", lambda drift, n, fs, seed: record[:n].copy())
    for loop_on_at in (0.0, 0.2):
        assert _assert_matches_scalar_loop(
            PidParams(), DriftModel(), 0.4, loop_on_at) == "ran"


def _peak_bytes(fn):
    """Result of fn() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loop_memory_stays_near_its_traces(monkeypatch):
    # the loop fills eta and the actuator trace in place and reads the
    # disturbance a block at a time, so it holds the three traces, 3 * 8n
    # bytes, and about 1 MB of blocks in flight; the float lists of the two
    # halves made it 6.1 times 8n (a closed half alone 7.1, an open one 10.0)
    n = 200_000
    record = synthesize_drift(DriftModel(), n, 1.0e4, seed=0)
    monkeypatch.setattr(
        stabilization, "synthesize_drift", lambda drift, n, fs, seed: record[:n].copy())
    simulate_closed_loop_detailed(PidParams(), DriftModel(), 0.2, 0.1, seed=0)
    trace, peak = _peak_bytes(lambda: simulate_closed_loop_detailed(
        PidParams(), DriftModel(), 20.0, 10.0, seed=0))
    assert trace.ts.samples.size == n
    assert peak <= 4.5 * 8 * n


def test_drift_memory_stays_near_its_buffers():
    # the record, the white buffer of n + burn samples that every octave is
    # drawn into, and one_pole's filtered copy of it, plus a little
    n, fs = 200_000, 1.0e4
    burn = math.ceil(stabilization.burn_in_samples(DriftModel().corner_hz, fs, n / fs))
    synthesize_drift(DriftModel(), 1000, fs, seed=0)
    _, peak = _peak_bytes(lambda: synthesize_drift(DriftModel(), n, fs, seed=0))
    assert peak <= 1.1 * 8 * (n + 2 * (n + burn))


def test_drift_filters_its_white_buffer_in_place():
    # one_pole filters the white buffer where it lies, and the sinusoids
    # take their time base a block at a time: the record and the white
    # buffer, plus the filter's block states; a padded copy per octave made
    # it 1.6 times this bound
    n, fs = 200_000, 1.0e4
    burn = math.ceil(stabilization.burn_in_samples(DriftModel().corner_hz, fs, n / fs))
    synthesize_drift(DriftModel(), 1000, fs, seed=0)
    _, peak = _peak_bytes(lambda: synthesize_drift(DriftModel(), n, fs, seed=0))
    assert peak <= 1.1 * 8 * (2 * n + burn)


# ---------------------------------------------------------------------------
# bit-exactness of the drift against the whole-array synthesis it replaced


def _reference_one_over_f(rng, n, fs, corner_hz, duration):
    """Unit-RMS 1/f-shaped noise from octave-spaced one-pole filters."""
    poles = stabilization._octave_poles(corner_hz, duration)
    burn = int(math.ceil(stabilization.burn_in_samples(corner_hz, fs, duration)))
    total = np.zeros(n)
    for pole in poles:
        a = math.exp(-2.0 * math.pi * pole / fs)
        white = rng.standard_normal(n + burn)
        # input gain for unit output variance: var(y) = gain^2 / (1 - a^2)
        white *= math.sqrt((1.0 - a) * (1.0 + a))
        total += one_pole(white, a)[burn:]
    return total / math.sqrt(poles.size)


def _reference_synthesize_drift(drift, n, fs, seed):
    """The drift synthesis with a fresh array per octave and component,
    kept as the oracle of the in-place one."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    out = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        if drift.one_over_f_amplitude > 0.0:
            out += drift.one_over_f_amplitude * _reference_one_over_f(
                rng, n, fs, drift.corner_hz, n / fs
            )
        if drift.white_amplitude > 0.0:
            out += drift.white_amplitude * rng.standard_normal(n)
        for freq, amp in drift.sinusoids:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            out += amp * np.sin(2.0 * math.pi * freq * t + phase)
    return out


_DRIFTS = {
    "default": DriftModel(),
    "one_over_f": DriftModel(white_amplitude=0.0, sinusoids=()),
    "white": DriftModel(one_over_f_amplitude=0.0, sinusoids=()),
    "sinusoids": DriftModel(one_over_f_amplitude=0.0, white_amplitude=0.0),
    "zero": DriftModel(one_over_f_amplitude=0.0, white_amplitude=0.0, sinusoids=()),
}


@pytest.mark.parametrize("n", [1, 16_383, 16_384, 16_385, 600_000])
@pytest.mark.parametrize("name", list(_DRIFTS))
def test_drift_is_bit_equal_to_whole_array_synthesis(name, n):
    got = synthesize_drift(_DRIFTS[name], n, 1.0e4, seed=5)
    want = _reference_synthesize_drift(_DRIFTS[name], n, 1.0e4, seed=5)
    assert got.shape == want.shape == (n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_drift_of_fourteen_octaves_is_bit_equal_to_whole_array_synthesis():
    drift = DriftModel(corner_hz=1.0e4, sinusoids=((3.0e3, 0.05),))
    n, fs = 50_000, 1.0e4
    assert stabilization._octave_poles(drift.corner_hz, n / fs).size == 14
    got = synthesize_drift(drift, n, fs, seed=9)
    want = _reference_synthesize_drift(drift, n, fs, seed=9)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
