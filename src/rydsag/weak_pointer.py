"""Weak-measurement pointer algebra for a Sagnac-loop polarization readout.

The measured system lives on two counter-propagating polarization modes
H and V.  A small transverse momentum kick ``exp(-i k x A)`` with
``A = |H><H| - |V><V|`` entangles the system with the transverse beam
profile, the prepared state carries the inter-arm phase ``delta_phi`` and
log-amplitude imbalance ``delta_beta``, and post-selection is a linear
polarizer at ``angle``.  Pointer observables are the beam centroid and
the left/right intensity-contrast ratio eta.

Conventions fixed here and enforced against mpmath references and the
quadrature oracle:

- meter amplitude ``phi(x) = (2 pi w^2)**-0.25 * exp(-x^2 / (4 w^2))``,
  so ``|phi|^2`` is a normal density with RMS width ``w``;
- prepared state ``e^{+i dphi/2 + dbeta} |H> + e^{-i dphi/2 - dbeta} |V>``,
  renormalized to unit power;
- post-selection onto ``cos(angle) |H> - sin(angle) |V>``;
- ``eta > 0`` means more power in the left half-plane ``x < 0``, which is
  the side the centroid ``~ -delta_phi / k`` moves to for small positive
  ``delta_phi``; with these signs the linearized forms
  ``centroid = -delta_phi / k`` and ``eta = sqrt(2/pi) delta_phi / (k w)``
  hold simultaneously.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    AccuracyError,
    DomainError,
    InvalidParameterError,
    OrthogonalPostselectionError,
    RegimeWarning,
)

_SQRTPI = math.sqrt(math.pi)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Post-selected power below this fraction of the input power is treated as
# an orthogonal post-selection (numerical floor, not a physical cutoff).
ORTHOGONAL_POWER_FLOOR = 1e-30

_QUAD_EPSREL = 1e-13
_QUAD_LIMIT = 400

# The prepared state's squared norm 2 cosh(2 delta_beta) overflows past this.
_MAX_ABS_DELTA_BETA = 354.0


def _check_finite(**named):
    for name, value in named.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class PreSelection:
    """Inter-arm phase and log-amplitude imbalance of the prepared state."""

    delta_phi: float
    delta_beta: float = 0.0

    def __post_init__(self):
        _check_finite(delta_phi=self.delta_phi, delta_beta=self.delta_beta)
        if abs(self.delta_beta) > _MAX_ABS_DELTA_BETA:
            raise DomainError(
                f"|delta_beta| must be <= {_MAX_ABS_DELTA_BETA} (the state norm "
                f"overflows), got {self.delta_beta!r}"
            )


@dataclass(frozen=True)
class PostSelection:
    """Linear-polarizer angle of the analysis port, in (0, pi/2)."""

    angle: float = math.pi / 4

    def __post_init__(self):
        _check_finite(angle=self.angle)
        if not 0.0 < self.angle < math.pi / 2:
            raise InvalidParameterError(
                f"post-selection angle must lie in (0, pi/2), got {self.angle!r}"
            )


@dataclass(frozen=True)
class WeakCoupling:
    """Transverse momentum kick k in rad/m (sign = kick direction)."""

    k: float

    def __post_init__(self):
        _check_finite(k=self.k)


@dataclass(frozen=True, eq=False)
class BeamPointer:
    """Gaussian meter: RMS width w and a symmetric transverse sample grid."""

    w: float
    grid: np.ndarray

    def __post_init__(self):
        _check_finite(w=self.w)
        # the meter amplitude's (2 pi w^2)**-0.25 needs w^2 > 0, not just w
        if self.w <= 0.0 or self.w * self.w == 0.0:
            raise InvalidParameterError(f"beam width w and w**2 must be > 0, got {self.w!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise InvalidParameterError("beam grid must be 1-D with >= 3 samples")
        if not np.all(np.isfinite(grid)):
            raise InvalidParameterError("beam grid contains non-finite samples")
        if not np.allclose(grid, -grid[::-1], rtol=0.0, atol=1e-12 * self.w):
            raise InvalidParameterError("beam grid must be symmetric about x = 0")
        if grid[-1] - grid[0] < 8.0 * self.w:
            raise InvalidParameterError(
                "beam grid span must cover at least 8 beam widths"
            )
        object.__setattr__(self, "grid", grid)

    @classmethod
    def centered(cls, w, span_w=10.0, points=1001):
        """Symmetric grid covering span_w beam widths about x = 0."""
        if int(points) < 3:
            raise InvalidParameterError("beam grid must be 1-D with >= 3 samples")
        half = 0.5 * span_w * w
        return cls(w=w, grid=np.linspace(-half, half, int(points)))


@dataclass(frozen=True, eq=False)
class PointerSetup:
    """Post-selection, coupling and beam grouped for pipeline calls."""

    post: PostSelection
    coupling: WeakCoupling
    beam: BeamPointer


@dataclass(frozen=True, eq=False)
class PointerReadout:
    """Observables of one pointer measurement (unit input power)."""

    centroid: float
    eta: float
    p_post: float
    profile: np.ndarray


# ---------------------------------------------------------------------------
# special function


def scaled_erfi(z):
    """exp(-z^2) * erfi(z), overflow-free for any real z (vectorized).

    Equals 2/sqrt(pi) times the Dawson function; used by the closed pointer
    forms so large actuator excursions stay finite.
    """
    return 2.0 / _SQRTPI * special.dawsn(z)


# ---------------------------------------------------------------------------
# state algebra


def _arm_amplitudes(delta_phi, delta_beta, angle):
    """Post-selected (cos(angle)*a_H, sin(angle)*a_V) arm coefficients.

    Vectorized: the arguments broadcast against each other.
    """
    norm = np.sqrt(2.0 * np.cosh(2.0 * delta_beta))
    a_h = np.exp(delta_beta + 0.5j * delta_phi) / norm
    a_v = np.exp(-delta_beta - 0.5j * delta_phi) / norm
    return np.cos(angle) * a_h, np.sin(angle) * a_v


def _interference(delta_phi, delta_beta, angle):
    """Arm imbalance (|ch| - |sv|)^2, cross term |ch conj(sv)| and its phase.

    At transverse phase theta - 2 k x the post-selected intensity factor
    |ch|^2 + |sv|^2 - 2 |ch conj(sv)| cos(theta - 2 k x) equals
    imbalance + 4 cross sin^2((theta - 2 k x)/2), a sum of nonnegative
    terms, so deep destructive interference is computed without
    cancellation.
    """
    ch, sv = _arm_amplitudes(delta_phi, delta_beta, angle)
    cross = ch * np.conj(sv)
    return (np.abs(ch) - np.abs(sv)) ** 2, np.abs(cross), np.angle(cross)


def weak_value(pre, post):
    """Weak value of A = |H><H| - |V><V| for the given pre/post selection.

    Equals coth(delta_beta + i delta_phi / 2) at the symmetric analyzer
    angle pi/4, hence -i cot(delta_phi / 2) for a pure phase.  The pure
    phase branch is computed through the half-angle identity
    cot(x/2) = (1 + cos x)/sin x, which keeps special points exact.
    """
    if pre.delta_beta == 0.0 and post.angle == math.pi / 4:
        c = math.cos(pre.delta_phi)
        s = math.sin(pre.delta_phi)
        if 1.0 - c < 1e-30:
            raise OrthogonalPostselectionError(
                "pre- and post-selection are orthogonal; weak value diverges"
            )
        return complex(0.0, -(1.0 + c) / s) if s != 0.0 else complex(0.0, 0.0)
    ch, sv = _arm_amplitudes(pre.delta_phi, pre.delta_beta, post.angle)
    numerator = ch + sv
    denominator = ch - sv
    if abs(denominator) ** 2 < ORTHOGONAL_POWER_FLOOR:
        raise OrthogonalPostselectionError(
            "pre- and post-selection are orthogonal; weak value diverges"
        )
    return numerator / denominator


def final_wavefunction(pre, post, coupling, beam):
    """Post-selected meter amplitude on the beam grid (unit input power)."""
    x = beam.grid
    ch, sv = _arm_amplitudes(pre.delta_phi, pre.delta_beta, post.angle)
    envelope = (2.0 * math.pi * beam.w**2) ** -0.25 * np.exp(
        -(x**2) / (4.0 * beam.w**2)
    )
    phase = np.exp(-1j * coupling.k * x)
    return envelope * (ch * phase - sv * np.conj(phase))


# ---------------------------------------------------------------------------
# closed forms


def closed_readout(delta_phi, delta_beta, angle, k, w):
    """Exact (centroid in meters, eta, p_post) for any analyzer angle.

    Vectorized: the arguments broadcast against each other.  With the arm
    terms of _interference and b = 2 k w, the Gaussian integrals of the
    post-selected intensity over u = x / w give

    - p_post = imbalance + 2 cross (-expm1(-b^2/2) + 2 e^{-b^2/2} sin^2(theta/2)),
      a sum of nonnegative terms;
    - left - right = 4 cross sin(theta) dawsn(b / sqrt 2) / sqrt(pi);
    - first moment = -2 cross b e^{-b^2/2} sin(theta);

    so eta = (left - right) / p_post and centroid = w moment / p_post, the
    weak-value pointer integrals of Dixon et al., PRL 102, 173601 (2009)
    and Jordan, Martinez-Rincon & Howell, PRX 4, 011031 (2014).
    """
    imbalance, cross, theta = _interference(delta_phi, delta_beta, angle)
    b = 2.0 * np.multiply(k, w)
    half_b2 = 0.5 * b * b
    damp = np.exp(-half_b2)
    p_post = imbalance + 2.0 * cross * (
        -np.expm1(-half_b2) + 2.0 * damp * np.sin(0.5 * theta) ** 2
    )
    if np.any(p_post < ORTHOGONAL_POWER_FLOOR):
        raise OrthogonalPostselectionError(
            "post-selected power below 1e-30 of input; pointer readout undefined"
        )
    sin_theta = np.sin(theta)
    eta = 4.0 / _SQRTPI * cross * sin_theta * special.dawsn(b / math.sqrt(2.0)) / p_post
    centroid = -2.0 * np.multiply(w, b) * cross * damp * sin_theta / p_post
    return centroid, eta, p_post


# The symmetric analyzer (angle = pi/4) in the cosh/cos form.  The
# heterodyne and stabilization records are computed with these, and their
# output bytes depend on this exact arithmetic.


def closed_p_post(delta_phi, delta_beta, k, w):
    """Post-selection probability, symmetric analyzer, any delta_beta."""
    kw2 = np.square(np.multiply(k, w))
    cosh2b = np.cosh(2.0 * np.asarray(delta_beta, dtype=float))
    return (cosh2b - np.exp(-2.0 * kw2) * np.cos(delta_phi)) / (2.0 * cosh2b)


def closed_centroid(delta_phi, delta_beta, k, w):
    """Beam centroid in meters, symmetric analyzer, any delta_beta."""
    kw2 = np.square(np.multiply(k, w))
    damp = np.exp(-2.0 * kw2)
    den = np.cosh(2.0 * np.asarray(delta_beta, dtype=float)) - damp * np.cos(delta_phi)
    _guard_closed_denominator(den, delta_beta)
    return -2.0 * np.multiply(k, np.square(w)) * damp * np.sin(delta_phi) / den


def closed_icr(delta_phi, delta_beta, k, w):
    """Left/right intensity contrast, symmetric analyzer, any delta_beta."""
    kw = np.multiply(k, w)
    den = np.cosh(2.0 * np.asarray(delta_beta, dtype=float)) - np.exp(
        -2.0 * np.square(kw)
    ) * np.cos(delta_phi)
    _guard_closed_denominator(den, delta_beta)
    return scaled_erfi(math.sqrt(2.0) * kw) * np.sin(delta_phi) / den


def _guard_closed_denominator(den, delta_beta):
    floor = 2.0 * np.cosh(2.0 * np.asarray(delta_beta, dtype=float))
    if np.any(den < ORTHOGONAL_POWER_FLOOR * floor):
        raise OrthogonalPostselectionError(
            "post-selected power below 1e-30 of input; pointer readout undefined"
        )


def centroid_exact(pre, post, coupling, beam):
    """Exact post-selected beam centroid in meters (closed_readout)."""
    _warn_coupling_regime(coupling, beam)
    return float(
        closed_readout(pre.delta_phi, pre.delta_beta, post.angle, coupling.k, beam.w)[0]
    )


def centroid_approx(delta_phi, coupling):
    """First-order centroid -delta_phi / k of the weak-value regime."""
    _check_finite(delta_phi=delta_phi)
    if coupling.k == 0.0:
        raise InvalidParameterError("centroid_approx requires a nonzero kick k")
    if abs(delta_phi) > 0.1:
        warnings.warn(
            "small-phase approximation degrades for |delta_phi| > 0.1 rad",
            RegimeWarning,
            stacklevel=2,
        )
    return -delta_phi / coupling.k


def icr_exact(pre, post, coupling, beam):
    """Exact intensity-contrast ratio, left minus right over total (closed_readout)."""
    _warn_coupling_regime(coupling, beam)
    return float(
        closed_readout(pre.delta_phi, pre.delta_beta, post.angle, coupling.k, beam.w)[1]
    )


def icr_approx(delta_phi, coupling, beam):
    """First-order contrast sqrt(2/pi) * delta_phi / (k w)."""
    _check_finite(delta_phi=delta_phi)
    if coupling.k == 0.0 or beam.w == 0.0:
        raise InvalidParameterError("icr_approx requires nonzero k and w")
    kw = coupling.k * beam.w
    if abs(delta_phi) > 0.1 or abs(kw) > 0.15:
        warnings.warn(
            "contrast linearization degrades outside |delta_phi| <= 0.1, |k w| <= 0.15",
            RegimeWarning,
            stacklevel=2,
        )
    return math.sqrt(2.0 / math.pi) * delta_phi / kw


def _warn_coupling_regime(coupling, beam):
    if (coupling.k * beam.w) ** 2 > 0.5:
        warnings.warn(
            "k^2 w^2 is not small; pointer leaves the weak-coupling regime",
            RegimeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# quadrature oracle


def quadrature_oracle(pre, post, coupling, beam):
    """Direct numerical readout of the post-selected meter state.

    Integrates |Phi(x)|^2 adaptively (relative tolerance 1e-13 per
    sign-definite piece) for the total power, the left/right partition and
    the first moment.  Handles arbitrary delta_beta and analyzer angle;
    this is the test oracle the closed forms are validated against.
    """
    imbalance_sq, cross, dphi = map(
        float, _interference(pre.delta_phi, pre.delta_beta, post.angle)
    )
    wk = coupling.k * beam.w

    def interference(theta):
        return imbalance_sq + 4.0 * cross * math.sin(0.5 * theta) ** 2

    def intensity(u):
        # standard-normal envelope times the two-arm interference factor
        return (
            math.exp(-0.5 * u * u)
            / _SQRT2PI
            * interference(dphi - 2.0 * wk * u)
        )

    if coupling.k == 0.0:
        # interference factor is constant: profile symmetric by construction
        p_post = interference(dphi)
        if p_post < ORTHOGONAL_POWER_FLOOR:
            raise OrthogonalPostselectionError(
                "post-selected power below 1e-30 of input"
            )
        centroid = 0.0
        eta = 0.0
    else:
        left = _quad(intensity, -np.inf, 0.0)
        right = _quad(intensity, 0.0, np.inf)
        p_post = left + right
        if p_post < ORTHOGONAL_POWER_FLOOR:
            raise OrthogonalPostselectionError(
                "post-selected power below 1e-30 of input"
            )
        moment = _quad(lambda u: u * intensity(u), -np.inf, 0.0) + _quad(
            lambda u: u * intensity(u), 0.0, np.inf
        )
        centroid = beam.w * moment / p_post
        eta = (left - right) / p_post
        eta = min(1.0, max(-1.0, eta))

    profile = np.abs(final_wavefunction(pre, post, coupling, beam)) ** 2
    return PointerReadout(centroid=centroid, eta=eta, p_post=p_post, profile=profile)


def _quad(fn, a, b):
    # imported here so that no closed-form caller loads scipy.integrate
    from scipy import integrate

    value, abserr, info, *tail = integrate.quad(
        fn, a, b, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=_QUAD_LIMIT, full_output=True
    )
    if tail:
        raise AccuracyError(f"pointer quadrature did not converge: {tail[0]}")
    return value
