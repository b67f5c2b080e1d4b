"""Simulator for a vapor-cell microwave receiver read out interferometrically.

The package splits into six physics layers plus plumbing:

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

``cli`` wires the layers into a deterministic experiment runner.  Import
the names you need from these submodules; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
