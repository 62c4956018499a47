"""Forward/inverse maps between link parameters and the gain surface.

Physical configurations are reduced to the carrier-independent tuple
(fbar, rbar, dbar, lbar, theta) and further to the two gain-surface
coordinates (gamma1, gamma2).  Inverting a gain threshold through those
maps yields the design limits exposed here:

* :func:`product_max` -- largest |gamma1*gamma2| on the main-lobe
  superlevel set of the gain surface,
* :func:`far_field_product` -- its gamma2 -> 0 limit, the first root of
  |sinc(p)| = tau, which it equals above about -2.81 dB,
* :func:`aperture_bandwidth_bound` / :func:`bmax` -- the implied cap on
  bandwidth times aperture and the maximum usable bandwidth,
* :func:`band_distance` -- smallest range beyond which the gain stays
  above the threshold at a given frequency offset (diverges to the
  ``inf`` sentinel past the far-field edge),
* :func:`effective_rayleigh_distance` / :func:`fraunhofer_distance` --
  the classical narrowband boundaries recovered as special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .constants import SPEED_OF_LIGHT_M_S
from .fresnel import GammaPair, _gain_pq, gain_narrowband

__all__ = [
    "Regime",
    "ThresholdSpec",
    "NoCrossingError",
    "gamma_from_regime",
    "fbar_from_gamma",
    "rbar_from_gamma",
    "product_max",
    "far_field_product",
    "main_lobe_boundary",
    "aperture_bandwidth_bound",
    "bmax",
    "band_distance",
    "effective_rayleigh_distance",
    "fraunhofer_distance",
]

# Linear gain level defining the effective Rayleigh distance, and the
# associated boundary coefficient 1/(4 gamma2^2) at that level.
RAYLEIGH_GAIN_LINEAR = 0.95
RAYLEIGH_COEFF = 0.367


class NoCrossingError(RuntimeError):
    """A threshold inversion found no crossing inside its search window."""


@dataclass(frozen=True)
class Regime:
    """Normalized, carrier-independent description of a link geometry.

    fbar = f / f_c, rbar = r / lambda_c, dbar = d / lambda_c,
    lbar = N * dbar, theta_rad = incidence angle.
    """

    fbar: float
    rbar: float
    dbar: float
    lbar: float
    theta_rad: float

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"regime requires a finite {field.name}")
        if not (1.0 + self.fbar > 0.0):
            raise ValueError("regime requires 1 + fbar > 0")
        if not (self.rbar > 0.0):
            raise ValueError("regime requires rbar > 0")
        if not (0.0 < self.dbar <= self.lbar):
            raise ValueError("regime requires lbar >= dbar > 0")
        if not (abs(self.theta_rad) < math.pi / 2):
            raise ValueError("regime requires |theta| < pi/2")


@dataclass(frozen=True)
class ThresholdSpec:
    """Gain threshold in both units: the solvers take ``tau_linear`` in (0, 1),
    documents echo ``tau_db``.  ``from_db`` and ``from_linear`` keep the value
    given exactly and derive the other unit once."""

    tau_linear: float
    tau_db: float

    def __post_init__(self):
        _check_threshold(self.tau_linear, "ThresholdSpec")

    @classmethod
    def from_db(cls, tau_db: float) -> "ThresholdSpec":
        return cls(10.0 ** (min(tau_db, 0.0) / 10.0), tau_db)  # min: >= 0 dB must not overflow

    @classmethod
    def from_linear(cls, tau_linear: float) -> "ThresholdSpec":
        return cls(tau_linear, 10.0 * math.log10(tau_linear) if tau_linear > 0.0 else math.nan)


def _gamma_map(fbar: float, rbar, lbar: float, theta_rad: float):
    """(gamma1, gamma2) at normalized distance(s) rbar, scalar or array."""
    g2 = lbar * math.cos(theta_rad) * np.sqrt((1.0 + fbar) / (2.0 * rbar))
    return -fbar * lbar * math.sin(theta_rad) / g2, g2


def gamma_from_regime(regime: Regime) -> GammaPair:
    """Map a normalized configuration to its gain-surface coordinates.

    gamma1 = -tan(theta) * fbar * sqrt(2 rbar / (1 + fbar))
    gamma2 = lbar * cos(theta) * sqrt((1 + fbar) / (2 rbar))
    """
    g1, g2 = _gamma_map(regime.fbar, regime.rbar, regime.lbar, regime.theta_rad)
    return GammaPair(float(g1), float(g2))


def fbar_from_gamma(pair: GammaPair, lbar: float, theta_rad: float) -> float:
    """Recover the normalized frequency: fbar = -gamma1*gamma2 / (lbar sin theta).

    Singular at broadside (gamma1 is identically zero there, so fbar cannot
    be recovered); raises ``ValueError`` for theta = 0.
    """
    sin_t = math.sin(theta_rad)
    if sin_t == 0.0:
        raise ValueError("fbar is not recoverable at broadside (sin theta = 0)")
    if lbar <= 0.0:
        raise ValueError("lbar must be positive")
    return -pair.gamma1 * pair.gamma2 / (lbar * sin_t)


def rbar_from_gamma(fbar: float, gamma2: float, lbar: float, theta_rad: float) -> float:
    """Recover the normalized distance: rbar = lbar^2 cos^2(theta) (1+fbar) / (2 gamma2^2).

    gamma2 = 0 corresponds to infinite distance and returns the ``inf``
    sentinel rather than raising.  Raises ``ValueError`` naming the argument
    unless every input is finite, 1 + fbar > 0, gamma2 >= 0, lbar > 0 and
    |theta| < pi/2.
    """
    _check_finite(fbar=fbar, gamma2=gamma2)
    if not 1.0 + fbar > 0.0:
        raise ValueError(f"fbar must satisfy 1 + fbar > 0, got {fbar!r}")
    if gamma2 < 0.0:
        raise ValueError("gamma2 must be nonnegative")
    _check_positive(lbar=lbar)
    _check_angle(theta_rad)
    if gamma2 == 0.0:
        return math.inf
    cos_t = math.cos(theta_rad)
    return lbar * lbar * cos_t * cos_t * (1.0 + fbar) / (2.0 * gamma2 * gamma2)


def _check_finite(**args: float) -> None:
    """Raise ``ValueError`` naming the first non-finite keyword argument."""
    for name, value in args.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_positive(**args: float) -> None:
    """Raise ``ValueError`` naming the first argument not positive and finite."""
    for name, value in args.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_angle(theta_rad: float) -> None:
    if not abs(theta_rad) < math.pi / 2:
        raise ValueError(f"theta_rad must satisfy |theta_rad| < pi/2, got {theta_rad!r}")


def _check_threshold(tau_linear: float, caller: str) -> None:
    if not (0.0 < tau_linear < 1.0):
        raise ValueError(f"{caller} requires a linear gain threshold tau_linear in (0, 1), "
                         f"got {tau_linear!r}")


# ---------------------------------------------------------------------------
# threshold inversion on the gain surface
# ---------------------------------------------------------------------------

# The first crossing of each gamma2 column is marched outward in fixed
# steps of p = gamma1*gamma2, one chunk of steps at a time over the columns
# still open, then bisected.  product_max searches a log grid of gamma2 and
# refines the maximizer on shrinking linear brackets.  Near -10 dB the
# boundary product jumps between nulls and peaks on gamma2 intervals only
# 0.3% wide; 4096 log points resolve them (2048 miss the peak at 0.1).
_PRODUCT_STEP = 0.01
_PRODUCT_CHUNK = 32
_PRODUCT_LIMIT = 64.0
_BISECT_STEPS = 48
_GAMMA2_FLOOR = 1e-3
_GAMMA2_POINTS = 4096
_REFINE_POINTS = 33
_REFINE_ROUNDS = 5


def _first_crossing_products(tau: float, gamma2: np.ndarray, prune: bool = False) -> np.ndarray:
    """First tau-crossing of the product gamma1*gamma2 per gamma2 column.

    Columns whose on-axis gain is already below tau (outside the main-lobe
    superlevel set) report 0.  Raises ``NoCrossingError`` when a column
    keeps its gain at or above tau up to the march limit.  With ``prune``,
    a column whose upper bracket falls below the best lower bracket cannot
    hold the maximum; it leaves the bisection and reports 0.  Bisection is
    elementwise, so the maximum and its argmax keep their exact bits.
    """
    g2 = np.asarray(gamma2, dtype=float).ravel()
    hi = np.zeros_like(g2)
    open_idx = np.flatnonzero(gain_narrowband(g2) >= tau)
    steps = np.arange(1, _PRODUCT_CHUNK + 1)
    k0 = 0
    while open_idx.size:
        if k0 * _PRODUCT_STEP >= _PRODUCT_LIMIT:
            raise NoCrossingError(
                f"gain never crossed below tau={tau!r} for gamma1*gamma2 <= {_PRODUCT_LIMIT!r}"
            )
        p = _PRODUCT_STEP * (k0 + steps)
        col = g2[open_idx, None]
        below = _gain_pq(p, col) < tau
        hit = below.any(axis=1)
        hi[open_idx[hit]] = p[below[hit].argmax(axis=1)]
        open_idx = open_idx[~hit]
        k0 += _PRODUCT_CHUNK

    live = np.flatnonzero(hi > 0.0)
    g2, hi = g2[live], hi[live]
    lo = hi - _PRODUCT_STEP
    for _ in range(_BISECT_STEPS):
        if prune:
            keep = hi >= lo.max(initial=0.0)
            live, g2, lo, hi = live[keep], g2[keep], lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        below = _gain_pq(mid, g2) < tau
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    products = np.zeros(np.size(gamma2))
    products[live] = 0.5 * (lo + hi)
    return products.reshape(np.shape(gamma2))


def main_lobe_boundary(tau_linear: float, gamma2: np.ndarray) -> np.ndarray:
    """First tau-crossing gamma1 >= 0 per gamma2 column.

    Traces the boundary of the main-lobe superlevel set; columns whose
    on-axis gain is already below tau return NaN (outside the region).
    """
    _check_threshold(tau_linear, "main_lobe_boundary")
    g2 = np.asarray(gamma2, dtype=float)
    products = _first_crossing_products(tau_linear, g2)
    out = np.full_like(g2, np.nan)
    live = products > 0.0
    out[live] = products[live] / g2[live]
    return out


# x - sin(x) = x^3 * sum_k (-x^2)^k / (2k+3)!, summed to below one ulp for
# x <= pi; the direct difference cancels for small x
_X_MINUS_SIN = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(14))


def _x_minus_sin(x: float) -> float:
    z = x * x
    acc = 0.0
    for c in reversed(_X_MINUS_SIN):
        acc = acc * z + c
    return acc * z * x


def far_field_product(tau_linear: float) -> float:
    """First root p of sin(pi p)/(pi p) = tau on (0, 1), to a few ulp.

    The far-field (gamma2 -> 0) limit of the main-lobe boundary product:
    an offset whose |gamma1*gamma2| exceeds it has gain below tau at every
    large distance.  Solved as x - sin(x) = (1 - tau) x with x = pi p,
    which keeps full relative precision when tau is close to 1.
    Raises ``ValueError`` when tau is not a linear gain in (0, 1).
    """
    _check_threshold(tau_linear, "far_field_product")
    loss = 1.0 - tau_linear

    def residual(q: float) -> float:
        x = math.pi * q
        return _x_minus_sin(x) - loss * x

    lo, hi = 0.0, 1.0
    mid = 0.5
    while lo < mid < hi:
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return min((lo, hi), key=lambda q: abs(residual(q)))


@lru_cache(maxsize=64)
def product_max(tau_linear: float) -> float:
    """Supremum of |gamma1*gamma2| over the main-lobe region with gain >= tau.

    The supremum is at least :func:`far_field_product`, the gamma2 -> 0
    limit of the boundary.  It certifies that limit first on a log grid of
    gamma2 over [1e-3, 1/tau]: a column whose gain at p_ff is below tau
    crosses tau at or before p_ff.  When every live column does, the result
    is p_ff itself (above about -2.81 dB).  Otherwise it finds the first
    tau-crossing product per column, re-solves on linear brackets around
    the maximizer, each round spanning the two neighbouring grid cells,
    and returns the larger of that and p_ff.  No column beyond 1/tau can
    hold gain >= tau, since max|C + jS| < 1 bounds the on-axis gain by
    1/gamma2.  Raises ``ValueError`` when tau is not a linear gain in
    (0, 1) and ``NoCrossingError`` when a crossing lies beyond the march
    limit.
    """
    _check_threshold(tau_linear, "product_max")
    p_ff = far_field_product(tau_linear)
    g2 = np.geomspace(_GAMMA2_FLOOR, 1.0 / tau_linear, _GAMMA2_POINTS)
    live = g2[gain_narrowband(g2) >= tau_linear]
    if not (_gain_pq(p_ff, live) >= tau_linear).any():
        return p_ff
    best = 0.0
    for _ in range(_REFINE_ROUNDS + 1):
        products = _first_crossing_products(tau_linear, g2, prune=True)
        i = int(products.argmax())
        best = max(best, float(products[i]))
        g2 = np.linspace(g2[max(i - 1, 0)], g2[min(i + 1, g2.size - 1)], _REFINE_POINTS)
    return max(best, p_ff)


def aperture_bandwidth_bound(tau_linear: float, theta_worst_rad: float) -> float:
    """Cap on bandwidth*aperture (Hz*m): |2 c [g1 g2]_max(tau) / sin(theta_worst)|.

    Broadside worst-case angle makes the bound vacuous and returns the
    ``inf`` sentinel, once tau is known to be a linear gain in (0, 1).
    """
    _check_finite(theta_worst_rad=theta_worst_rad)
    _check_threshold(tau_linear, "aperture_bandwidth_bound")
    sin_t = math.sin(theta_worst_rad)
    if sin_t == 0.0:
        return math.inf
    return abs(2.0 * SPEED_OF_LIGHT_M_S * product_max(tau_linear) / sin_t)


def bmax(aperture_m: float, tau_linear: float, theta_worst_rad: float) -> float:
    """Maximum usable bandwidth (Hz) for a fixed aperture at a gain threshold."""
    _check_positive(aperture_m=aperture_m)
    return aperture_bandwidth_bound(tau_linear, theta_worst_rad) / aperture_m


# ---------------------------------------------------------------------------
# frequency-selective near-field boundary
# ---------------------------------------------------------------------------

_BAND_POINTS_PER_DECADE = 64
_BAND_REL_TOL = 1e-6


def band_distance(
    f_hz: float,
    fc_hz: float,
    tau_linear: float,
    aperture_m: float,
    theta_rad: float,
) -> float:
    """Smallest distance (m) beyond which the gain stays >= tau at offset f.

    Scans log-spaced distances from the Fresnel-region floor up to 1e6x
    the Fraunhofer distance, locates the largest down-crossing of tau and
    refines it by bisection to a relative tolerance of 1e-6.  Returns the
    ``inf`` sentinel when no finite distance qualifies: past the far-field
    edge |f| > far_field_product(tau) * fc / (lbar |sin theta|), where the
    large-distance gain limit falls below tau.  That edge is B_max/2 only
    where product_max equals the far-field root (above about -2.81 dB).
    If the gain already holds above tau over the whole scanned range, the
    scan floor is returned.  Along the ray p = gamma1*gamma2 =
    -fbar lbar sin(theta) is fixed, so the gain is evaluated at that p.
    """
    _check_finite(f_hz=f_hz)
    _check_positive(fc_hz=fc_hz, aperture_m=aperture_m)
    _check_angle(theta_rad)
    fbar = f_hz / fc_hz
    if 1.0 + fbar <= 0.0:
        raise ValueError("band_distance requires 1 + f/fc > 0")
    _check_threshold(tau_linear, "band_distance")

    lam = SPEED_OF_LIGHT_M_S / fc_hz
    lbar = aperture_m / lam
    r_lo = max(_fresnel_distance(aperture_m, lam), 1e-3 * lam * lbar * lbar)
    r_hi = 1e6 * _fraunhofer_distance(lbar, lam)

    p = abs(fbar * lbar * math.sin(theta_rad))

    def gain(rbar):
        return _gain_pq(p, _gamma_map(fbar, rbar, lbar, theta_rad)[1])

    if gain(r_hi / lam) < tau_linear:
        return math.inf

    decades = math.log10(r_hi / r_lo)
    n = max(int(math.ceil(decades * _BAND_POINTS_PER_DECADE)), 2) + 1
    rbars = np.geomspace(r_lo / lam, r_hi / lam, n)
    gains = gain(rbars)
    below = gains < tau_linear
    if not below.any():
        return r_lo
    i = int(np.flatnonzero(below)[-1])

    lo, hi = float(rbars[i]), float(rbars[i + 1])
    while (hi - lo) > _BAND_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if gain(mid) < tau_linear:
            lo = mid
        else:
            hi = mid
    return hi * lam


def effective_rayleigh_distance(theta_rad: float, lbar: float, wavelength_m: float) -> float:
    """Angle-dependent near-field boundary at the 0.95 linear gain level:
    0.367 * cos^2(theta) * 2 * lbar^2 * lambda_c.  Raises ``ValueError``
    unless |theta| < pi/2 and lbar, wavelength_m are positive and finite."""
    _check_angle(theta_rad)
    cos_t = math.cos(theta_rad)
    return RAYLEIGH_COEFF * cos_t * cos_t * fraunhofer_distance(lbar, wavelength_m)


def fraunhofer_distance(lbar: float, wavelength_m: float) -> float:
    """Classical far-field boundary 2 * lbar^2 * lambda_c (= 2 L^2 / lambda).
    Raises ``ValueError`` unless lbar and wavelength_m are positive and finite."""
    _check_positive(lbar=lbar, wavelength_m=wavelength_m)
    return _fraunhofer_distance(lbar, wavelength_m)


def _fraunhofer_distance(lbar: float, wavelength: float) -> float:
    return 2.0 * lbar * lbar * wavelength  # unchecked, for band_distance


def _fresnel_distance(aperture: float, wavelength: float) -> float:
    """Radiating near-field floor 0.5 * sqrt(L^3 / lambda), in the unit of
    its arguments (metres, or wavelengths with wavelength = 1)."""
    return 0.5 * math.sqrt(aperture**3 / wavelength)
