"""Fundamental sensitivity floors of the vapor-cell receiver.

Counting statistics set two independent limits: the quantum projection
noise of the interrogated atoms and the shot noise of the detected probe
photons.  Both are expressed as equivalent frequency uncertainties so
they can be compared directly.  Atom numbers come from the saturated Cs
vapor pressure (Alcock, Itkin and Horrigan 1984 correlation) and the
interrogation volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants
from .errors import DomainError, InvalidParameterError, check_ranges

# saturated-vapor correlation coefficients, log10(p/atm) = a - b / T
_CS_MELTING_K = 301.59
_CS_SOLID = (4.711, 3999.0)
_CS_LIQUID = (4.165, 3830.0)
_CS_T_MIN = 250.0
_CS_T_MAX = 400.0

_ATM_PA = 101325.0


@dataclass(frozen=True)
class CellGeometry:
    """Vapor-cell bore and probe-beam cross section, in meters."""

    length: float = 0.10
    beam_radius: float = 1.2e-3
    cell_radius: float = 12.5e-3

    def __post_init__(self):
        check_ranges(self, positive=("length", "beam_radius", "cell_radius"))
        if self.beam_radius > self.cell_radius:
            raise InvalidParameterError("beam_radius must not exceed cell_radius")
        # bore_volume takes cell_radius**2 (and beam_volume the smaller one's)
        if self.cell_radius * self.cell_radius == math.inf:
            raise InvalidParameterError(
                f"cell_radius {self.cell_radius!r} is too large: its square overflows")

    def beam_volume(self):
        return math.pi * self.beam_radius**2 * self.length

    def bore_volume(self):
        return math.pi * self.cell_radius**2 * self.length


@dataclass(frozen=True)
class LimitInputs:
    """Operating conditions of one sensitivity-floor evaluation.

    ``n_atoms`` and ``n_photons_rate`` of zero mean "derive them" from
    the vapor density and probe power; positive values override the
    derivation (the counts are order-of-magnitude lab quantities).  The
    counts must be finite and >= 0, the other numbers finite and > 0, and
    ``temperature`` within the 250 K to 400 K that the vapor-pressure
    correlation covers (``DomainError`` outside it).  The beam must hold
    atoms, and neither t_meas times the root of each atom number nor the
    photon count, t_meas times the photon rate, may underflow to 0.
    """

    t_meas: float = 1.0
    n_atoms: float = 0.0
    n_photons_rate: float = 0.0
    probe_power: float = 175.0e-6
    probe_wavelength: float = 852.35e-9
    temperature: float = 299.15
    geometry: CellGeometry = CellGeometry()

    def __post_init__(self):
        check_ranges(
            self,
            nonnegative=("n_atoms", "n_photons_rate"),
            positive=("t_meas", "probe_power", "probe_wavelength"),
        )
        _check_temperature(self.temperature)
        geometry = self.geometry
        n_beam = cs_number_density(self.temperature) * geometry.beam_volume()
        if n_beam == 0.0:
            raise InvalidParameterError(
                f"geometry.beam_radius {geometry.beam_radius!r} and geometry.length "
                f"{geometry.length!r} leave the beam no atoms: its atom number "
                "underflows to 0")
        # atomic_shot_noise divides by t_meas * sqrt(N), and the bore holds
        # more atoms than the beam
        for name, count in (("the beam's atom number", n_beam), ("n_atoms", self.n_atoms)):
            if count > 0.0 and self.t_meas * math.sqrt(count) == 0.0:
                raise InvalidParameterError(
                    f"t_meas {self.t_meas!r} x the root of {name} underflows to 0")
        # photon_shot_noise needs a photon count, rate x t_meas, above 0
        if self.n_photons_rate > 0.0:
            key, rate = "n_photons_rate", self.n_photons_rate
        else:
            key, rate = "probe_power", photon_rate(self.probe_power, self.probe_wavelength)
        if rate * self.t_meas == 0.0:
            raise InvalidParameterError(
                f"t_meas {self.t_meas!r} x the photon rate of {key} "
                f"{getattr(self, key)!r} underflows to 0 photons")


# ---------------------------------------------------------------------------
# vapor density


def _check_temperature(temperature):
    if not _CS_T_MIN <= temperature <= _CS_T_MAX:
        raise DomainError(
            f"temperature must lie within the {_CS_T_MIN:.0f} K to {_CS_T_MAX:.0f} K "
            f"of the vapor-pressure correlation, got {temperature!r}"
        )


def cs_vapor_pressure(temperature):
    """Saturated Cs vapor pressure in Pa over 250 K to 400 K.

    Uses the solid-phase correlation below the 301.59 K melting point and
    the liquid-phase one above it.
    """
    _check_temperature(temperature)
    a, b = _CS_SOLID if temperature < _CS_MELTING_K else _CS_LIQUID
    return _ATM_PA * 10.0 ** (a - b / temperature)


def cs_number_density(temperature):
    """Cs vapor number density in atoms per cubic meter (ideal gas)."""
    return cs_vapor_pressure(temperature) / (constants.k * temperature)


# ---------------------------------------------------------------------------
# counting limits


def atomic_shot_noise(t_meas, n_atoms):
    """Projection-noise frequency floor 1 / (t sqrt(N)) in Hz."""
    if t_meas <= 0.0 or n_atoms <= 0.0:
        raise InvalidParameterError("need t_meas > 0 and n_atoms > 0")
    return 1.0 / (t_meas * math.sqrt(n_atoms))


def photon_shot_noise(n_photons):
    """Phase uncertainty 1 / sqrt(n) of an n-photon measurement, in rad."""
    if n_photons <= 0.0:
        raise InvalidParameterError(f"n_photons must be > 0, got {n_photons!r}")
    return 1.0 / math.sqrt(n_photons)


def photon_rate(probe_power, wavelength):
    """Detected photon flux P lambda / (h c) in photons per second."""
    if probe_power <= 0.0 or wavelength <= 0.0:
        raise InvalidParameterError("need probe_power > 0 and wavelength > 0")
    return probe_power * wavelength / (constants.h * constants.c)


def equivalent_frequency_noise(delta_phi, t_meas):
    """Frequency uncertainty of a phase uncertainty over one integration."""
    if t_meas <= 0.0:
        raise InvalidParameterError("t_meas must be > 0")
    if delta_phi < 0.0:
        raise InvalidParameterError("delta_phi must be >= 0")
    return delta_phi / (2.0 * math.pi * t_meas)


def limits_report(inputs):
    """All sensitivity floors of one operating condition, as a flat dict.

    Atom-limited figures are given for both the beam volume and the full
    cell bore, since the interrogated ensemble depends on how much of the
    vapor the readout actually samples; an explicit ``n_atoms`` input adds
    a third figure for that count.
    """
    density = cs_number_density(inputs.temperature)
    n_beam = density * inputs.geometry.beam_volume()
    n_bore = density * inputs.geometry.bore_volume()
    rate = (
        inputs.n_photons_rate
        if inputs.n_photons_rate > 0.0
        else photon_rate(inputs.probe_power, inputs.probe_wavelength)
    )
    photons = rate * inputs.t_meas
    phase = photon_shot_noise(photons)
    photon_floor = equivalent_frequency_noise(phase, inputs.t_meas)
    atom_floor_input = (
        atomic_shot_noise(inputs.t_meas, inputs.n_atoms)
        if inputs.n_atoms > 0.0
        else math.nan
    )
    return {
        "t_meas_s": inputs.t_meas,
        "temperature_k": inputs.temperature,
        "vapor_pressure_pa": cs_vapor_pressure(inputs.temperature),
        "number_density_per_m3": density,
        "beam_atom_number": n_beam,
        "bore_atom_number": n_bore,
        "input_atom_number": inputs.n_atoms if inputs.n_atoms > 0.0 else math.nan,
        "photon_rate_per_s": rate,
        "photon_number": photons,
        "photon_phase_noise_rad": phase,
        "photon_frequency_noise_hz": photon_floor,
        "atomic_frequency_noise_beam_hz": atomic_shot_noise(inputs.t_meas, n_beam),
        "atomic_frequency_noise_bore_hz": atomic_shot_noise(inputs.t_meas, n_bore),
        "atomic_frequency_noise_input_hz": atom_floor_input,
        "photon_below_atomic": bool(
            photon_floor < atomic_shot_noise(inputs.t_meas, n_bore)
        ),
    }
