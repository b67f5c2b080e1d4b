"""Simulator for a vapor-cell microwave receiver read out interferometrically.

The package splits into five physics layers plus plumbing:

- ``eit_medium``: four-level ladder susceptibility of a thermal Cs vapor,
  optional Doppler averaging, transparency-dip splitting analysis.
- ``weak_pointer``: polarization pre/post-selection algebra and transverse
  beam-pointer readout (centroid and integrated contrast).
- ``detector_chain``: balanced photodetection with shot, NEP, dark and
  intensity noise, sampling and PSD estimation.
- ``stabilization``: PID loop closure against synthesized phase drift.
- ``heterodyne``: two-tone dressing-field beat readout, sensitivity sweeps,
  scheme comparison, and power-to-field calibration.
- ``noise_limits``: vapor-pressure based atom numbers and projection-noise
  floors.

``cli`` wires the layers into a deterministic experiment runner.
"""

from .detector_chain import DetectorParams, TimeSeries, psd, sample_timeseries
from .eit_medium import (
    LadderSystemParams,
    at_splitting,
    detuning_grid,
    doppler_average,
    field_from_at_splitting,
    kk_residual,
    phase_and_absorption,
    rabi_from_field,
    splitting_vs_drive,
    susceptibility,
    susceptibility_spectrum,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    FitFailureError,
    GridPolicyError,
    InstabilityError,
    InvalidParameterError,
    OrthogonalPostselectionError,
    RegimeWarning,
    SimulationError,
    UnresolvedSplittingError,
)
from .heterodyne import (
    HeterodyneConfig,
    beat_metrics,
    calibration_curve,
    min_detectable_field,
    operating_point,
    run_beat_experiment,
    scheme_comparison,
    sensitivity_sweep,
)
from .noise_limits import (
    CellGeometry,
    LimitInputs,
    atom_number_estimate,
    atomic_shot_noise,
    cs_number_density,
    cs_vapor_pressure,
    equivalent_frequency_noise,
    limits_report,
    photon_rate,
    photon_shot_noise,
)
from .stabilization import (
    DriftModel,
    PidParams,
    plant_gain,
    plant_response,
    simulate_closed_loop,
    suppression_report,
    synthesize_drift,
)
from .weak_pointer import (
    BeamPointer,
    PointerReadout,
    PointerSetup,
    PostSelection,
    PreSelection,
    WeakCoupling,
    centroid_approx,
    centroid_exact,
    closed_centroid,
    closed_icr,
    closed_p_post,
    closed_readout,
    icr_approx,
    icr_exact,
    quadrature_oracle,
    weak_value,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BeamPointer",
    "CellGeometry",
    "ConfigError",
    "DetectorParams",
    "DomainError",
    "DriftModel",
    "FitFailureError",
    "GridPolicyError",
    "HeterodyneConfig",
    "InstabilityError",
    "InvalidParameterError",
    "LadderSystemParams",
    "LimitInputs",
    "OrthogonalPostselectionError",
    "PidParams",
    "PointerReadout",
    "PointerSetup",
    "PostSelection",
    "PreSelection",
    "RegimeWarning",
    "SimulationError",
    "TimeSeries",
    "UnresolvedSplittingError",
    "WeakCoupling",
    "at_splitting",
    "atom_number_estimate",
    "atomic_shot_noise",
    "beat_metrics",
    "calibration_curve",
    "centroid_approx",
    "centroid_exact",
    "closed_centroid",
    "closed_icr",
    "closed_p_post",
    "closed_readout",
    "cs_number_density",
    "cs_vapor_pressure",
    "detuning_grid",
    "doppler_average",
    "equivalent_frequency_noise",
    "field_from_at_splitting",
    "icr_approx",
    "icr_exact",
    "kk_residual",
    "limits_report",
    "min_detectable_field",
    "operating_point",
    "phase_and_absorption",
    "photon_rate",
    "photon_shot_noise",
    "plant_gain",
    "plant_response",
    "psd",
    "quadrature_oracle",
    "rabi_from_field",
    "run_beat_experiment",
    "sample_timeseries",
    "scheme_comparison",
    "sensitivity_sweep",
    "simulate_closed_loop",
    "splitting_vs_drive",
    "suppression_report",
    "susceptibility",
    "susceptibility_spectrum",
    "synthesize_drift",
    "weak_value",
]
