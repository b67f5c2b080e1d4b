"""Steady-state response of a warm four-level ladder vapor.

Level chain: ground -> first excited (probe laser), first excited ->
Rydberg (coupling laser), Rydberg -> neighbor Rydberg (microwave field).
The probe coherence is evaluated in the weak-probe limit as a nested
resolvent, written division-free so that zero decoherence and zero drive
edge cases stay finite.  The complex susceptibility is reduced to the
interferometer phase/absorption pair, transparency-window splitting reads
the microwave field, and a discrete Hilbert transform checks dispersion
against absorption.

Sign conventions:

- detunings are field frequency minus transition frequency (rad/s);
- Im(chi) >= 0 is absorption; single-pass power transmission is
  exp(2 * delta_beta) with delta_beta = -(pi L / lambda) Im(chi);
- the interferometer phase is delta_phi = (pi L / lambda) Re(chi);
- Doppler shifts for counter-propagating probe and coupling beams enter
  as delta_p -> delta_p - k_p v and delta_c -> delta_c + k_c v.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .detector_chain import BLOCK
from .errors import (
    AccuracyError,
    GridPolicyError,
    InvalidParameterError,
    RegimeWarning,
    UnresolvedSplittingError,
    check_ranges,
)

_TWO_PI = 2.0 * math.pi

CS_MASS_KG = 132.905451931 * constants.atomic_mass

GH_NODES_START = 64
GH_NODES_MAX = 32768
GH_RTOL = 1e-6

# Absorption must have decayed to below this fraction of its peak at the
# grid edges before the Hilbert-transform comparison is meaningful.
KK_EDGE_FRACTION = 0.01
_KK_PAD_FACTOR = 4

# Probe drive above this fraction of the intermediate-state decay rate
# leaves the weak-probe regime the model assumes.
_WEAK_PROBE_FRACTION = 0.2


@dataclass(frozen=True)
class LadderSystemParams:
    """Drive fields, decay rates and cell constants of the ladder medium.

    Rabi frequencies, detunings and decay rates are in rad/s; decay rates
    are full population rates.  ``density`` is atoms per cubic meter and
    ``dipole_probe`` is the effective probe transition moment in C*m
    (an effective value keeps the 10 cm cell in the thin-medium regime
    that the single (delta_phi, delta_beta) parameterization assumes).
    """

    omega_p: float = _TWO_PI * 1.0e5
    omega_c: float = _TWO_PI * 2.0e6
    omega_mw: float = 0.0
    delta_p: float = 0.0
    delta_c: float = 0.0
    delta_mw: float = 0.0
    gamma_2: float = _TWO_PI * 5.2e6
    gamma_3: float = _TWO_PI * 1.0e5
    gamma_4: float = _TWO_PI * 1.0e5
    density: float = 5.40e16
    dipole_probe: float = 1.0e-30
    cell_length: float = 0.10
    lambda_p: float = 852.35e-9
    lambda_c: float = 509.93e-9
    temperature: float = 299.15
    atomic_mass: float = CS_MASS_KG
    doppler_enabled: bool = False

    def __post_init__(self):
        check_ranges(
            self,
            finite=("delta_p", "delta_c", "delta_mw"),
            nonnegative=("omega_p", "omega_c", "omega_mw", "gamma_3", "gamma_4", "density"),
            positive=("gamma_2", "dipole_probe", "cell_length", "lambda_p", "lambda_c",
                      "temperature", "atomic_mass"),
        )
        # the resolvent takes (omega_c / 2)**2 and chi takes dipole_probe**2
        for name, value in (("omega_c", 0.5 * self.omega_c),
                            ("dipole_probe", self.dipole_probe)):
            if value * value == math.inf:
                raise InvalidParameterError(
                    f"{name} {getattr(self, name)!r} is too large: its square overflows")
        if self.omega_p > _WEAK_PROBE_FRACTION * self.gamma_2:
            warnings.warn(
                "probe Rabi frequency is not small against gamma_2; the "
                "weak-probe steady state degrades",
                RegimeWarning,
                stacklevel=2,
            )

    @property
    def k_p(self):
        return _TWO_PI / self.lambda_p

    @property
    def k_c(self):
        return _TWO_PI / self.lambda_c

    @property
    def thermal_speed(self):
        """Most-probable 1-D speed scale sqrt(2 kB T / m) in m/s."""
        return math.sqrt(2.0 * constants.k * self.temperature / self.atomic_mass)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Susceptibility sampled on a detuning grid, as two aligned arrays."""

    delta_p: np.ndarray
    chi: np.ndarray

    def __len__(self):
        return self.delta_p.size


# ---------------------------------------------------------------------------
# steady state


def _resolvent_ratio(params, delta_p, velocity=0.0, omega_mw=None):
    """rho_21 divided by (i omega_p / 2), in a division-free rational form.

    Vectorized over any one of delta_p, velocity, omega_mw.  The rational
    form keeps zero-decoherence and zero-drive corners finite: every
    denominator is nonzero for gamma_2 > 0 and real detunings.
    """
    dp = np.asarray(delta_p, dtype=float)
    omw = params.omega_mw if omega_mw is None else omega_mw
    d2 = dp - params.k_p * velocity
    d3 = dp + params.delta_c + (params.k_c - params.k_p) * velocity
    d4 = d3 + params.delta_mw

    outer = 0.5 * params.gamma_2 - 1j * d2
    if params.omega_c == 0.0:
        return 1.0 / outer

    mid = params.gamma_3 - 1j * d3
    c2 = (0.5 * params.omega_c) ** 2
    if np.ndim(omw) == 0 and omw == 0.0:
        return mid / (outer * mid + c2)

    inner = params.gamma_4 - 1j * d4
    m2 = np.square(np.multiply(0.5, omw))
    nested = mid * inner + m2
    return nested / (outer * nested + c2 * inner)


def _chi_prefactor(params):
    return params.density * params.dipole_probe**2 / (constants.epsilon_0 * constants.hbar)


def susceptibility(params, delta_p, velocity=0.0, omega_mw=None):
    """Complex probe susceptibility of a single velocity class.

    Vectorized over any one of delta_p, velocity and omega_mw (None reads
    params.omega_mw); a 0-d result is a Python complex.  The weak-probe
    coherence is linear in the probe field, so the probe amplitude cancels
    and chi is well defined even as omega_p -> 0.
    """
    chi = (
        _chi_prefactor(params)
        * 1j
        * _resolvent_ratio(params, delta_p, velocity, omega_mw)
    )
    if np.ndim(chi) == 0:
        return complex(chi)
    return chi


def susceptibility_spectrum(params, grid):
    """Susceptibility sampled on a strictly increasing detuning grid.

    Returns a ``Spectrum`` holding a copy of the grid and the matching
    complex susceptibility array.  Without Doppler averaging chi is
    evaluated BLOCK points at a time, so the resolvent's temporaries stay
    block-sized on any grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("detuning grid is empty")
    if grid.ndim != 1 or (grid.size > 1 and not np.all(np.diff(grid) > 0.0)):
        raise InvalidParameterError("detuning grid must be 1-D strictly increasing")
    if params.doppler_enabled:
        chi = np.array([doppler_average(params, dp) for dp in grid])
    else:
        chi = np.empty(grid.size, dtype=complex)
        for start in range(0, grid.size, BLOCK):
            chi[start:start + BLOCK] = susceptibility(params, grid[start:start + BLOCK])
    return Spectrum(delta_p=grid.copy(), chi=chi)


@functools.cache
def _gauss_hermite_table():
    """The packaged half rules, read once per process."""
    return np.load(os.path.join(os.path.dirname(__file__), "gauss_hermite.npy"))


@functools.cache
def _gauss_hermite(n):
    """Read-only Gauss-Hermite nodes and weights of the ``n``-node rule,
    built once per ``n`` for n = GH_NODES_START, 2 GH_NODES_START, ...,
    GH_NODES_MAX.

    ``gauss_hermite.npy`` holds ``scipy.special.roots_hermite(n)`` of
    scipy 1.17.1 for these ten n, as their nonnegative halves: row 0 the
    nodes and row 1 the weights ``[n//2:]``, concatenated in ladder order,
    one (2, 32736) float64 array.  Those rules are exactly antisymmetric
    in the nodes and symmetric in the weights, so the mirrored half gives
    them back bit for bit.  The file was written by::

        rules = [roots_hermite(64 << k) for k in range(10)]
        np.save(path, np.array([np.concatenate([r[i][len(r[i]) // 2:]
                                                for r in rules]) for i in (0, 1)]))
    """
    start = (n - GH_NODES_START) // 2
    half_x, half_w = _gauss_hermite_table()[:, start:start + n // 2]
    nodes = np.concatenate((-half_x[::-1], half_x))
    weights = np.concatenate((half_w[::-1], half_w))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def doppler_average(params, delta_p):
    """Thermal-ensemble susceptibility via adaptive Gauss-Hermite quadrature.

    Node count doubles from 64 until successive levels agree to ``GH_RTOL``,
    raising an accuracy error past 32768 nodes.  The rules are scipy's,
    read from the package's table (``_gauss_hermite``).  Narrow-line warm
    vapors legitimately exhaust the ladder: their velocity integrand varies
    on a scale far below the node spacing.
    """
    if not params.doppler_enabled:
        raise InvalidParameterError(
            "doppler_average requires doppler_enabled=True on the parameter set"
        )
    u = params.thermal_speed
    previous = None
    n = GH_NODES_START
    while n <= GH_NODES_MAX:
        nodes, weights = _gauss_hermite(n)
        values = susceptibility(params, float(delta_p), velocity=u * nodes)
        current = complex(np.dot(weights, values) / math.sqrt(math.pi))
        if previous is not None and abs(current - previous) <= GH_RTOL * abs(current):
            return current
        previous = current
        n *= 2
    raise AccuracyError(
        "Doppler average did not converge within 32768 Gauss-Hermite nodes; "
        "the velocity integrand is narrower than the node spacing"
    )


def phase_and_absorption(chi, params):
    """Map susceptibility values onto the interferometer pair.

    Returns (delta_phi, delta_beta), the single-pass probe phase shift and
    log-amplitude change in radians: floats for a scalar susceptibility,
    arrays of its shape otherwise.  Warns once per call if any |chi|
    leaves the thin-medium regime.
    """
    chi = np.asarray(chi)
    if np.any(np.abs(chi) > 0.1):
        warnings.warn(
            "|chi| is not small; the thin-medium phase/absorption mapping degrades",
            RegimeWarning,
            stacklevel=2,
        )
    factor = math.pi * params.cell_length / params.lambda_p
    delta_phi = factor * np.real(chi)
    delta_beta = -factor * np.imag(chi)
    if chi.ndim == 0:
        return float(delta_phi), float(delta_beta)
    return delta_phi, delta_beta


def rabi_from_field(e_field, dipole):
    """Rabi frequency dipole * E / hbar in rad/s."""
    if dipole <= 0.0:
        raise InvalidParameterError(f"dipole moment must be > 0, got {dipole!r}")
    if e_field < 0.0:
        raise InvalidParameterError(f"field amplitude must be >= 0, got {e_field!r}")
    return dipole * e_field / constants.hbar


# ---------------------------------------------------------------------------
# spectral structure


def detuning_grid(params, span_linewidths=40.0, points=4096):
    """Symmetric probe-detuning grid, span in units of gamma_2."""
    if span_linewidths <= 0.0 or points < 16:
        raise InvalidParameterError("grid needs positive span and >= 16 points")
    half = 0.5 * span_linewidths * params.gamma_2
    return np.linspace(-half, half, int(points))


def _spectrum_arrays(spectrum):
    if len(spectrum) < 3:
        raise InvalidParameterError("spectrum needs at least 3 points")
    if not np.all(np.diff(spectrum.delta_p) > 0.0):
        raise InvalidParameterError("spectrum detunings must be strictly increasing")
    return spectrum.delta_p, spectrum.chi


def kk_residual(spectrum):
    """Dispersion-vs-absorption consistency of a sampled spectrum.

    Reconstructs Re(chi) from Im(chi) with a real-input (``rfft``/``irfft``)
    discrete Hilbert transform, zero-padded to four times the grid, and
    returns the max-norm relative residual over the central half of the
    grid.  Preconditions: uniform grid of at least 64 points with the
    absorption decayed below 1 percent of its peak at both edges.
    """
    detunings, chi = _spectrum_arrays(spectrum)
    if detunings.size < 64:
        raise GridPolicyError("Hilbert-transform check needs at least 64 samples")
    step = detunings[1] - detunings[0]
    if not np.allclose(np.diff(detunings), step, rtol=1e-9, atol=0.0):
        raise GridPolicyError("Hilbert-transform check needs a uniform grid")
    absorption = np.imag(chi)
    dispersion = np.real(chi)
    peak = float(np.max(np.abs(absorption)))
    if peak == 0.0:
        return 0.0
    edge = max(abs(absorption[0]), abs(absorption[-1]))
    if edge > KK_EDGE_FRACTION * peak:
        raise GridPolicyError(
            "absorption has not decayed at the grid edges "
            f"(edge/peak = {edge / peak:.3g} > {KK_EDGE_FRACTION}); widen the span"
        )
    n = absorption.size
    padded = _KK_PAD_FACTOR * n
    # -H[y] <-> i sgn(f) Y; DC and Nyquist (padded is even) carry no sign
    transform = np.fft.rfft(absorption, padded)
    transform[0] = 0.0
    transform[-1] = 0.0
    transform *= 1j
    reconstructed = np.fft.irfft(transform, padded, out=np.empty(padded))[:n]
    del transform
    lo, hi = n // 4, n - n // 4
    scale = float(np.max(np.abs(dispersion[lo:hi])))
    worst = float(np.max(np.abs(dispersion[lo:hi] - reconstructed[lo:hi])))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def _refine_extremum(x, y, index):
    """Vertex of the parabola through three samples around a grid extremum."""
    x0, x1, x2 = x[index - 1 : index + 2]
    y0, y1, y2 = y[index - 1 : index + 2]
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0.0:
        return x1
    shift = 0.5 * (y0 - y2) / denom
    # a degenerate fit (vertex outside the bracket) keeps the grid point
    if abs(shift) > 1.0:
        return x1
    return x1 + shift * (x1 - x0)


def at_splitting(spectrum):
    """Separation in Hz of the two transparency dips of the absorption.

    The split transparency window puts two local minima of Im(chi) at
    probe detunings of plus and minus half the microwave Rabi frequency
    (exact in the low-decoherence limit), so the dip separation reads the
    microwave field.  Exactly two interior minima are required; fewer
    means the window has not split (sub-threshold drive), more means the
    spectrum is not a resolved doublet.
    """
    detunings, chi = _spectrum_arrays(spectrum)
    absorption = np.imag(chi)
    interior = (
        np.flatnonzero(
            (absorption[1:-1] < absorption[:-2])
            & (absorption[1:-1] < absorption[2:])
        )
        + 1
    )
    if interior.size != 2:
        raise UnresolvedSplittingError(
            f"expected two transparency dips, found {interior.size}; "
            "the splitting is unresolved at this drive and decoherence"
        )
    left = _refine_extremum(detunings, absorption, int(interior[0]))
    right = _refine_extremum(detunings, absorption, int(interior[1]))
    return (right - left) / _TWO_PI


def field_from_at_splitting(f_at, dipole_mw):
    """Microwave field amplitude E = h f_AT / dipole in V/m.

    Vectorized over f_at; a NaN splitting gives a NaN field.
    """
    if dipole_mw <= 0.0:
        raise InvalidParameterError(f"dipole_mw must be > 0, got {dipole_mw!r}")
    if np.any(np.less(f_at, 0.0)):
        raise InvalidParameterError(f"f_at must be >= 0, got {f_at!r}")
    return constants.h * f_at / dipole_mw


def splitting_vs_drive(params, omega_mw_values, points=8192):
    """at_splitting swept over microwave drive amplitudes.

    Each drive is read on a grid of ``points`` points over 40 linewidths,
    or over 3 omega_mw where that is wider, so a strong drive's dips stay
    inside the grid.  Returns an array of f_at in Hz, one per drive, NaN
    where the transparency window did not resolve into two dips.
    """
    omegas = np.asarray(omega_mw_values, dtype=float)
    f_at = np.full(omegas.shape, math.nan)
    for index, omega in enumerate(omegas.tolist()):
        swept = replace(params, omega_mw=omega)
        grid = detuning_grid(params, max(40.0, 3.0 * omega / params.gamma_2), points)
        try:
            f_at[index] = at_splitting(susceptibility_spectrum(swept, grid))
        except UnresolvedSplittingError:
            continue  # the drive keeps its NaN
    return f_at
