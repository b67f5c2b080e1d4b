"""End-to-end acceptance checks, one test and one verdict line per criterion."""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from rydsag.cli import main
from rydsag.detector_chain import DetectorParams
from rydsag.eit_medium import (
    LadderSystemParams,
    at_splitting,
    detuning_grid,
    kk_residual,
    splitting_vs_drive,
    susceptibility_spectrum,
)
from rydsag.errors import OrthogonalPostselectionError
from rydsag.heterodyne import (
    HeterodyneConfig,
    SweepPoint,
    beat_metrics,
    calibration_curve,
    min_detectable_field,
    run_beat_experiment,
    scheme_comparison,
    sensitivity_sweep,
)
from rydsag.noise_limits import (
    atomic_shot_noise,
    photon_rate,
    photon_shot_noise,
)
from rydsag.stabilization import (
    DriftModel,
    PidParams,
    simulate_closed_loop_detailed,
    suppression_report,
)
from rydsag.weak_pointer import (
    BeamPointer,
    PointerSetup,
    PostSelection,
    PreSelection,
    WeakCoupling,
    centroid_approx,
    closed_centroid,
    closed_icr,
    closed_p_post,
    closed_readout,
    icr_approx,
    quadrature_oracle,
    weak_value,
)

ANALYZER = PostSelection(math.pi / 4)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}", flush=True)
        raise
    else:
        print(f"PASS criterion {number}: {description}", flush=True)


def rel_err(value, reference):
    return abs(value - reference) / abs(reference)


def test_criterion_01_pointer_quadrature_matches_closed_forms():
    with criterion(1, "numerical pointer readout matches closed forms to 1e-9"):
        started = time.perf_counter()
        worst = 0.0
        for delta_phi in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            for k in (5.0, 10.0, 50.0, 100.0, 200.0):
                for w in (2e-4, 5e-4, 1e-3, 2e-3, 5e-3):
                    pre = PreSelection(delta_phi, 0.0)
                    readout = quadrature_oracle(
                        pre, ANALYZER, WeakCoupling(k), BeamPointer.centered(w))
                    general = closed_readout(delta_phi, 0.0, ANALYZER.angle, k, w)
                    worst = max(
                        worst,
                        rel_err(readout.centroid, closed_centroid(delta_phi, 0.0, k, w)),
                        rel_err(readout.eta, closed_icr(delta_phi, 0.0, k, w)),
                        rel_err(readout.p_post, closed_p_post(delta_phi, 0.0, k, w)),
                        *map(rel_err, (readout.centroid, readout.eta, readout.p_post),
                             general),
                    )
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
        assert elapsed < 10.0, f"grid took {elapsed:.1f} s"


def test_criterion_02_small_signal_approximations():
    with criterion(2, "first-order readout formulas hold at small phase and coupling"):
        coupling = WeakCoupling(10.0)
        beam = BeamPointer.centered(1.0e-3)  # k w = 0.01

        def errors(delta_phi, coupling, beam):
            centroid, eta, _ = closed_readout(
                delta_phi, 0.0, ANALYZER.angle, coupling.k, beam.w)
            c = rel_err(centroid_approx(delta_phi, coupling), centroid)
            e = rel_err(icr_approx(delta_phi, coupling, beam), eta)
            return c, e

        base_c, base_e = errors(1.0e-3, coupling, beam)
        assert base_c < 0.01 and base_e < 0.01
        # tenfold phase or tenfold coupling strength leaves the small-signal
        # window and the linearization error must grow
        phase_c, phase_e = errors(1.0e-2, coupling, beam)
        strong_c, strong_e = errors(1.0e-3, WeakCoupling(100.0), beam)
        assert phase_c > base_c and phase_e > base_e
        assert strong_c > base_c and strong_e > base_e


def test_criterion_03_centroid_scales_inversely_with_coupling():
    with criterion(3, "centroid times coupling strength is flat to 1 percent"):
        products = []
        for k in np.linspace(10.0, 100.0, 10):
            readout = quadrature_oracle(
                PreSelection(1.0e-3, 0.0),
                ANALYZER,
                WeakCoupling(float(k)),
                BeamPointer.centered(1.0e-3),
            )
            products.append(readout.centroid * k)
        spread = (max(products) - min(products)) / abs(np.mean(products))
        assert spread < 0.01, f"spread {spread:.4f}"


def test_criterion_04_weak_value_amplification_geometry():
    with criterion(4, "balanced analyzer gives -i weak value, dark port rejected"):
        value = weak_value(PreSelection(math.pi / 2, 0.0), ANALYZER)
        assert value == complex(0.0, -1.0)
        with pytest.raises(OrthogonalPostselectionError):
            weak_value(PreSelection(0.0, 0.0), ANALYZER)


def test_criterion_05_susceptibility_is_causal():
    with criterion(5, "dispersion and absorption are Kramers-Kronig consistent"):
        started = time.perf_counter()
        medium = LadderSystemParams()
        grid = detuning_grid(medium, 40.0, 4096)
        eit = susceptibility_spectrum(medium, grid)
        at = susceptibility_spectrum(
            replace(medium, omega_mw=2.0 * math.pi * 10.0e6), grid)
        residual_eit = kk_residual(eit)
        residual_at = kk_residual(at)
        elapsed = time.perf_counter() - started
        assert residual_eit < 2e-2, f"EIT residual {residual_eit:.4f}"
        assert residual_at < 2e-2, f"AT residual {residual_at:.4f}"
        assert elapsed < 5.0, f"spectra took {elapsed:.1f} s"


def test_criterion_06_drive_recovery_and_calibration():
    with criterion(6, "dip separation recovers the drive and calibrates the horn"):
        medium = LadderSystemParams()
        for omega in (2.0 * math.pi * 5.0e6,
                      2.0 * math.pi * 10.0e6,
                      2.0 * math.pi * 20.0e6):
            swept = replace(medium, omega_mw=omega)
            span = max(40.0, 3.0 * omega / medium.gamma_2)
            spectrum = susceptibility_spectrum(
                swept, detuning_grid(swept, span, 4096))
            f_at = at_splitting(spectrum)
            recovered = 2.0 * math.pi * f_at
            assert rel_err(recovered, omega) <= 0.05
        result = calibration_curve(
            [1.0e-7, 1.0e-6, 1.0e-5, 1.0e-4], 1000.0, medium)
        assert result.r_squared > 0.999
        assert result.slope == pytest.approx(1000.0, rel=0.05)


def test_criterion_07_splitting_threshold_and_monotonicity():
    with criterion(7, "dip separation appears at threshold then grows with drive"):
        drives = [2.0 * math.pi * f for f in (0.05e6, 0.2e6, 1.0e6, 3.0e6, 10.0e6)]
        result = splitting_vs_drive(LadderSystemParams(), drives)
        splittings = [f_at for _, f_at in result]
        assert splittings[0] is None
        resolved = [s for s in splittings[1:]]
        assert all(s is not None for s in resolved)
        assert all(b >= a for a, b in zip(resolved, resolved[1:]))


def test_criterion_08_absorption_asymmetry_tracks_coupling_detuning():
    with criterion(8, "absorption asymmetry flips sign once through zero detuning"):
        medium = LadderSystemParams(omega_mw=2.0 * math.pi * 8.0e6)
        detunings = 2.0 * math.pi * np.linspace(-2e6, 2e6, 9)

        def odd_moment(dc):
            swept = replace(medium, delta_c=float(dc))
            spectrum = susceptibility_spectrum(
                swept, detuning_grid(swept, 40.0, 2048))
            im = spectrum.chi.imag
            dp = spectrum.delta_p
            return float(np.trapezoid(im * np.sign(dp), dp))

        moments = np.array([odd_moment(dc) for dc in detunings])
        scale = np.max(np.abs(moments))
        assert abs(moments[4]) < 1e-6 * scale
        signs = np.sign(moments[np.abs(moments) > 1e-6 * scale])
        assert np.sum(np.abs(np.diff(signs)) > 0) == 1


def test_criterion_09_feedback_suppresses_drift():
    with criterion(9, "closed loop suppresses drift at least fivefold"):
        started = time.perf_counter()
        ts = simulate_closed_loop_detailed(
            PidParams(), DriftModel(), duration=10.0, loop_on_at=5.0, seed=2).ts
        std_open, std_closed, ratio = suppression_report(ts, 5.0)
        elapsed = time.perf_counter() - started
        assert 2.32e-3 <= std_open <= 3.48e-3, f"open-loop std {std_open:.3e}"
        assert std_closed <= 6.0e-4, f"closed-loop std {std_closed:.3e}"
        assert 4.04e-4 <= std_closed <= 6.06e-4
        assert ratio >= 5.0, f"suppression ratio {ratio:.2f}"
        assert elapsed < 30.0, f"loop took {elapsed:.1f} s"


def test_criterion_10_beat_detection_and_sensitivity():
    with criterion(10, "beat sits at 150 kHz and SNR extrapolates to a floor"):
        config = HeterodyneConfig(integration_time=0.05)
        medium = LadderSystemParams(
            density=1.0e15, omega_c=2.0 * math.pi * 2.0e6)
        pointer = PointerSetup(
            post=ANALYZER,
            coupling=WeakCoupling(10.0),
            beam=BeamPointer.centered(1.0e-3),
        )
        detector = DetectorParams(rin=7.0e-7)

        clean = run_beat_experiment(config, medium, pointer, None, seed=2)
        metrics = beat_metrics(clean, config.delta_f)
        assert abs(metrics.peak_freq_hz - config.delta_f) <= metrics.bin_width_hz

        points = sensitivity_sweep(config, medium, pointer, detector, seed=2)
        fit = min_detectable_field(points)
        assert fit.slope_db_per_db == pytest.approx(2.0, abs=0.05)
        assert 0.0 < fit.e_min < points[0].e_signal

        # extrapolation exactness on a synthetic sweep with a known crossing
        e_min_true = 3.7e-7
        synthetic = [
            SweepPoint(
                e_signal=e,
                snr_db=20.0 * math.log10(e / e_min_true),
                beat_db=0.0,
                peak_freq_hz=config.delta_f,
                floor_density=1e-20,
            )
            for e in (1e-4, 3e-4, 1e-3, 3e-3)
        ]
        exact = min_detectable_field(synthetic)
        assert rel_err(exact.e_min, e_min_true) < 1e-6

        comparison = scheme_comparison(config, medium, pointer, detector, seed=2)
        ratio = comparison.amplitude.e_min / comparison.dispersion.e_min
        assert 2.0 <= ratio <= 5.0, f"scheme ratio {ratio:.2f}"


def test_criterion_11_counting_noise_floors():
    with criterion(11, "projection and shot-noise floors have the right magnitudes"):
        assert atomic_shot_noise(1.0, 1.0e12) == 1.0e-6
        assert photon_shot_noise(1.0e15) == pytest.approx(
            3.1622776601683794e-8, rel=1e-12)
        rate = photon_rate(175.0e-6, 852.35e-9)
        assert rate == pytest.approx(750895119860379.9, rel=1e-12)
        assert 1e14 < rate < 1e16


def test_criterion_12_cli_runs_are_reproducible(tmp_path):
    with criterion(12, "same config and seed give byte-identical outputs"):
        config_path = tmp_path / "loop.json"
        config_path.write_text(json.dumps({
            "experiment": "stabilize",
            "seed": 11,
            "loop": {"duration": 1.0, "loop_on_at": 0.5},
        }), encoding="utf-8")
        dirs = (tmp_path / "first", tmp_path / "second")
        for out_dir in dirs:
            assert main([
                "simulate", str(config_path), "--output-dir", str(out_dir),
            ]) == 0
        manifests = [
            json.loads((d / "manifest.json").read_text()) for d in dirs]
        for name in manifests[0]["outputs"]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for manifest in manifests:
            manifest.pop("wall_time_s")
        assert manifests[0] == manifests[1]


def test_criterion_13_loss_imbalance_breaks_pure_phase_reading():
    with criterion(13, "readout deviation from arm loss follows the closed form"):
        k, w = 10.0, 1.0e-3
        delta_phi = 1.0e-3
        coupling = WeakCoupling(k)
        beam = BeamPointer.centered(w)

        def centroid(delta_beta):
            return quadrature_oracle(
                PreSelection(delta_phi, delta_beta), ANALYZER, coupling, beam
            ).centroid

        reference = centroid(0.0)
        d0 = 1.0 - math.exp(-2.0 * k * k * w * w) * math.cos(delta_phi)

        def predicted(delta_beta):
            loss = 2.0 * math.sinh(delta_beta) ** 2
            return loss / (d0 + loss)

        for delta_beta in (0.05, 0.005):
            deviation = abs(centroid(delta_beta) - reference) / abs(reference)
            assert deviation == pytest.approx(predicted(delta_beta), rel=1e-6)
        # a 5 percent arm loss already moves the reading by ~96 percent
        assert predicted(0.05) > 0.9
        # small-loss deviation grows quadratically, amplified by the shallow
        # balanced-point denominator
        tiny = 5.0e-4
        deviation_tiny = abs(centroid(tiny) - reference) / abs(reference)
        quadratic = 2.0 * tiny * tiny / d0
        assert deviation_tiny == pytest.approx(quadratic, rel=5e-3)
