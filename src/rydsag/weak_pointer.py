"""Weak-measurement pointer algebra for a Sagnac-loop polarization readout.

The measured system lives on two counter-propagating polarization modes
H and V.  A small transverse momentum kick ``exp(-i k x A)`` with
``A = |H><H| - |V><V|`` entangles the system with the transverse beam
profile, the prepared state carries the inter-arm phase ``delta_phi`` and
log-amplitude imbalance ``delta_beta``, and post-selection is a linear
polarizer at ``angle``.  Pointer observables are the beam centroid and
the left/right intensity-contrast ratio eta, whose closed form needs
Dawson's integral (``dawson``, elementwise in numpy).

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

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

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
        # the meter amplitude's (2 pi w^2)**-0.25 needs a finite w^2 > 0, not just w
        if self.w <= 0.0 or not 0.0 < self.w * self.w < math.inf:
            raise InvalidParameterError(
                f"beam width w and w**2 must be finite and > 0, got {self.w!r}")
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
        # checked before np.linspace, which warns on a non-finite end
        _check_finite(w=w, span_w=span_w)
        half = 0.5 * span_w * w
        if not math.isfinite(half):
            raise InvalidParameterError(
                f"beam grid half-span 0.5 * span_w * w overflows at w = {w!r}, "
                f"span_w = {span_w!r}")
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
    cancellation.  With h = cos(angle) e^{dbeta} and v = sin(angle)
    e^{-dbeta} the arm moduli are h and v over the state norm and the
    phase is delta_phi itself, so everything is elementwise real
    arithmetic: an element's bits do not depend on the array around it.
    """
    norm2 = 2.0 * np.cosh(2.0 * delta_beta)
    h = np.cos(angle) * np.exp(delta_beta)
    v = np.sin(angle) * np.exp(-delta_beta)
    return (h - v) ** 2 / norm2, h * v / norm2, delta_phi


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
# Dawson's integral

# Below DAWSON_SHORT_EDGE the first four terms of the Taylor series
# x sum_k (-2 x^2)^k / (2k + 1)!! reach double precision (the fifth is
# 2e-19 of the sum); up to the first of _DAWSON_EDGES, 1/4, its first ten do.
DAWSON_SHORT_EDGE = 2.0**-7
DAWSON_SERIES = tuple((-2.0) ** k / math.prod(range(1, 2 * k + 2, 2)) for k in range(10))

# Between the first and the last edge, interval [lo, hi] is a
# degree-18 polynomial in t = (|x| - c) / h with c = (lo + hi) / 2 and
# h = (hi - lo) / 2, both exact, as is t.  Row i holds F(c) as a sum of two
# doubles, then the coefficients of t, t^2, ..., t^18: Chebyshev fits from
# mpmath 1.3 at mp.dps = 40,
#
#   import mpmath as mp; mp.mp.dps = 40
#   F = lambda x: mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)
#   edges = [0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8]
#   for lo, hi in zip(edges, edges[1:]):
#       c, h = mp.mpf(lo + hi) / 2, mp.mpf(hi - lo) / 2
#       poly = mp.chebyfit(lambda t: F(c + h * t), [-1, 1], 19)[::-1]
#       head = float(poly[0])
#       print([head, float(poly[0] - head)] + [float(p) for p in poly[1:]])
_DAWSON_EDGES = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0)
_DAWSON_MIDDLE = (
    (
        0.3417442551906101, -1.4136326940497246e-18, 0.0929614760758803,
        -0.009697323178410171, -0.0006653073597984353, 9.13534785766053e-05,
        2.4452932754288714e-06, -5.140070750150621e-07,
        -4.0324645106414546e-09, 2.0550955802616656e-09,
        -7.405632743544692e-12, -6.352745881346534e-12, 7.518144994112591e-14,
        1.5956253987261315e-14, -2.9579374230427645e-16,
        -3.363587507592739e-17, 8.264279880901482e-19, 6.085126256842541e-20,
        -1.8381496874457185e-21, -9.535447343538623e-23,
    ),
    (
        0.5230127677445182, 3.875318843422736e-17, 0.053870212095805656,
        -0.04278896275199595, 0.003104028173340925, 0.0010461524447491618,
        -0.00015606213768971024, -1.2040958993333991e-05,
        3.431875261959088e-06, 2.7270831366608584e-08, -4.8801218833895444e-08,
        1.4891603137649996e-09, 5.037924753995277e-10, -3.1255600376282286e-11,
        -3.942553555023625e-12, 3.8467030543459837e-13, 2.323693538548958e-14,
        -3.548324548130104e-15, -9.212761852460658e-17, 2.5795484168774045e-17,
    ),
    (
        0.4958270739643261, -6.793066113322567e-18, -0.05989192122770382,
        -0.012272966739112937, 0.005052364788469522, -0.00040590178760108343,
        -7.557139626160262e-05, 1.6328307685606184e-05,
        -1.0839539582899059e-07, -2.4666141728851103e-07,
        1.863475669784202e-08, 1.918595422732286e-09, -3.2076970145100696e-10,
        -3.27861432610032e-12, 3.2419482749288016e-12, -1.1545552210408974e-13,
        -2.2204247552389428e-14, 1.7684561272233089e-15, 9.757876459611164e-17,
        -1.5219507813009154e-17,
    ),
    (
        0.3594364206717429, 2.712168750840027e-18, -0.06450686808777506,
        0.005756978496417655, 0.001008667442202145, -0.00040055158099477087,
        4.4879840619031295e-05, 1.7998478471156608e-06,
        -1.0264067062293858e-06, 8.414061088267697e-08, 6.075311528844151e-09,
        -1.5833473949022661e-09, 5.691045629702651e-11, 1.2343481513602279e-11,
        -1.3780257592219187e-12, -2.4083453435249457e-14,
        1.2887115181846041e-14, -5.162299604563242e-16, -6.753689170953089e-17,
        6.6729869295955255e-18,
    ),
    (
        0.2230837221674355, -1.3083335181873594e-17, -0.0577093054185887,
        0.016365701231377008, -0.004019866789716284, 0.00046670408965040117,
        0.00016863463415040574, -0.00010915643836505951,
        2.6939111230729723e-05, -1.5961948729371506e-06,
        -1.0532296884769516e-06, 3.431172054403149e-07,
        -3.0107455600803304e-08, -8.024249973360552e-09,
        2.7016407847507923e-09, -1.95738780900261e-10, -5.792176690114105e-11,
        1.5071432259007312e-11, -2.6793238106884044e-13,
        -3.378856195389427e-13,
    ),
    (
        0.14962159308075648, 2.7448439286895483e-18, -0.023675575782647697,
        0.004026859349444348, -0.0007520732772437919, 0.00015470669890777086,
        -3.308736151102598e-05, 6.408735972502054e-06, -8.409850214500692e-07,
        -3.2615051764780196e-08, 5.9405022490740187e-08,
        -1.9161003796912743e-08, 3.396451782980644e-09,
        -1.9226021422063264e-10, -7.88658938606334e-11, 2.65882524175145e-11,
        -3.579150930051564e-12, -5.2691839273808146e-14,
        1.1814967239213775e-13, -1.9188822548288264e-14,
    ),
    (
        0.11408861022682498, -2.269453674565177e-18, -0.01339874602071241,
        0.0016250259898966792, -0.00020441464805961653, 2.6838230329984018e-05,
        -3.7129424910293308e-06, 5.481876741033452e-07, -8.719618394995804e-08,
        1.4786123858897547e-08, -2.5488296739661405e-09,
        4.0766710104598044e-10, -5.091653668651122e-11, 2.1076875297475374e-12,
        1.228014803617474e-12, -4.701323230660848e-13, 1.0077284099107837e-13,
        -1.3550587236895824e-14, 2.8948192360477793e-16,
        2.6434344654265003e-16,
    ),
    (
        0.09249323231075476, -3.846820103274399e-18, -0.00871277770915118,
        0.0008368306224770545, -8.20598563494033e-05, 8.22847467079773e-06,
        -8.453365029371411e-07, 8.918557179259098e-08, -9.693199056068434e-09,
        1.0899761138882316e-09, -1.275854542566122e-10, 1.5673194522715302e-11,
        -2.037261275849196e-12, 2.806942808869121e-13, -4.0394688122640457e-14,
        5.845337088272621e-15, -8.008113266862782e-16, 9.208361871704813e-17,
        -4.231126420685553e-18, -1.076558663183323e-18,
    ),
    (
        0.0721809746582363, -1.7450315091955667e-18, -0.010533645215308089,
        0.0015545418489203266, -0.00023209848475613158, 3.507377218629958e-05,
        -5.3671682191988665e-06, 8.321351160042701e-07,
        -1.3079359784985266e-07, 2.085501738990369e-08, -3.375894638166751e-09,
        5.552485021408787e-10, -9.287975690678097e-11, 1.5819346447686543e-11,
        -2.7487678161759173e-12, 4.875356526512224e-13, -8.693522713697589e-14,
        1.6142493463295334e-14, -3.865327670736419e-15, 7.808703417072549e-16,
    ),
)

# Beyond the last edge, F(x) = (1 + sum_k (2k - 1)!! u^k) / 2x with
# u = 1 / (2 x^2); these are the (2k - 1)!! for k = 1 ... 17, and at x = 8
# the first term left out is 3e-18 of the sum.
_DAWSON_ASYMPTOTIC = tuple(float(math.prod(range(1, 2 * k, 2))) for k in range(1, 18))


def _horner(coefficients, t):
    """sum_k coefficients[k] t^k, coefficients in ascending powers."""
    total = coefficients[-1]
    for coefficient in coefficients[-2::-1]:
        total = total * t + coefficient
    return total


# each range of dawson for |x| as a float or an array, with the same
# operations either way


def _dawson_series(a, terms):
    y = a * a
    return a + a * (y * _horner(DAWSON_SERIES[1:terms], y))


def _dawson_middle(a, lo, hi, rows):
    t = (a - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
    return _horner(rows[1:], t) + rows[0]


def _dawson_far(a):
    q = 0.5 / a  # a * a would overflow past 1e154
    u = 2.0 * q * q
    return q + q * (u * _horner(_DAWSON_ASYMPTOTIC, u))


_EDGE_ARRAY, _MIDDLE_ARRAY = np.array(_DAWSON_EDGES), np.array(_DAWSON_MIDDLE)


def dawson(x):
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt, elementwise.

    A Taylor series in x^2 below |x| = 1/4, degree-18 polynomials on
    nine intervals up to |x| = 8 and the asymptotic series beyond, after
    W. J. Cody, K. A. Paciorek and H. C. Thacher, Math. Comp. 24, 171
    (1970).  At most 1 ulp from mpmath over 23 000 sampled points (the
    tests allow 2), and odd down to the sign of zero.  Built from + - * /
    alone, so an element's bits depend on neither the array around it
    nor numpy's SIMD dispatch, and a float argument, which takes a scalar
    path, gets the bits that it would get in an array.  Returns a numpy
    float for a scalar argument.
    """
    if isinstance(x, float):
        a = abs(x)
        if a < DAWSON_SHORT_EDGE:
            value = _dawson_series(a, 4)
        elif a < _DAWSON_EDGES[0]:
            value = _dawson_series(a, len(DAWSON_SERIES))
        elif a < _DAWSON_EDGES[-1]:
            i = bisect.bisect(_DAWSON_EDGES, a) - 1
            value = _dawson_middle(a, *_DAWSON_EDGES[i : i + 2], _DAWSON_MIDDLE[i])
        else:
            value = a if math.isnan(a) else _dawson_far(a)
        return np.float64(math.copysign(value, x))
    x = np.asarray(x, dtype=float)
    a = np.abs(x.reshape(-1))
    out = a.copy()  # NaN stays NaN
    short = a < DAWSON_SHORT_EDGE
    out[short] = _dawson_series(a[short], 4)
    series = (a >= DAWSON_SHORT_EDGE) & (a < _DAWSON_EDGES[0])
    out[series] = _dawson_series(a[series], len(DAWSON_SERIES))
    middle = (a >= _DAWSON_EDGES[0]) & (a < _DAWSON_EDGES[-1])
    if middle.any():
        m = a[middle]
        i = np.searchsorted(_EDGE_ARRAY, m, side="right") - 1
        out[middle] = _dawson_middle(m, _EDGE_ARRAY[i], _EDGE_ARRAY[i + 1], _MIDDLE_ARRAY[i].T)
    far = a >= _DAWSON_EDGES[-1]
    if far.any():
        out[far] = _dawson_far(a[far])
    return np.copysign(out.reshape(x.shape), x)


# ---------------------------------------------------------------------------
# closed forms


def closed_readout(delta_phi, delta_beta, angle, k, w):
    """Exact (centroid in meters, eta, p_post) for any analyzer angle.

    Vectorized: the arguments broadcast against each other.  With the arm
    terms of _interference and b = 2 k w, the Gaussian integrals of the
    post-selected intensity over u = x / w give

    - p_post = imbalance + 2 cross (-expm1(-b^2/2) + 2 e^{-b^2/2} sin^2(theta/2)),
      a sum of nonnegative terms;
    - left - right = 4 cross sin(theta) F(b / sqrt 2) / sqrt(pi), F being
      Dawson's integral (``dawson``);
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
    eta = 4.0 / _SQRTPI * cross * sin_theta * dawson(b / math.sqrt(2.0)) / p_post
    centroid = -2.0 * np.multiply(w, b) * cross * damp * sin_theta / p_post
    return centroid, eta, p_post



# closed_readout at the symmetric analyzer angle pi/4, under the names that
# perfbench/check.py's pointer invariant imports


def closed_p_post(delta_phi, delta_beta, k, w):
    """Post-selection probability, symmetric analyzer, any delta_beta."""
    return closed_readout(delta_phi, delta_beta, math.pi / 4, k, w)[2]


def closed_centroid(delta_phi, delta_beta, k, w):
    """Beam centroid in meters, symmetric analyzer, any delta_beta."""
    return closed_readout(delta_phi, delta_beta, math.pi / 4, k, w)[0]


def closed_icr(delta_phi, delta_beta, k, w):
    """Left/right intensity contrast, symmetric analyzer, any delta_beta."""
    return closed_readout(delta_phi, delta_beta, math.pi / 4, k, w)[1]


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
