"""Spherical-wave geometry, channel models, and exact beamforming gains.

A uniform linear array of N isotropic elements sits on the x axis with
spacing d; the single receive antenna is at range r and angle theta from
broadside.  Four channel models cover the near-field/far-field and
wideband/narrowband assumptions; the gain functions measure the loss of
the frequency-flat, plane-wave beamformer (``ff_nb``) against each of
them.  Path loss is normalized to 1 throughout: every gain here divides
it out, so it never affects a result.

Phases are computed relative to the array center (exact path difference
``rho_n - r`` in a cancellation-free form) -- a common phase shift that
is invisible to every gain, but keeps phases small enough that carriers
in the tens of GHz lose no precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT_M_S
from .regimes import (Regime, _check_angle, _check_finite, _check_offset, _check_positive,
                      _fresnel_distance)

__all__ = [
    "VARIANTS",
    "ArrayGeometry",
    "ObserverPoint",
    "FresnelRegionWarning",
    "antenna_positions",
    "distance_to_rx",
    "channel",
    "beamformer",
    "gain_exact",
    "gain_fresnel_sum",
    "check_fresnel_region",
    "as_regime",
]

VARIANTS = ("nf_wb", "nf_nb", "ff_wb", "ff_nb")
_NARROWBAND = ("nf_nb", "ff_nb")


class FresnelRegionWarning(UserWarning):
    """The geometry violates the radiating near-field condition; the
    quadratic-phase approximation still evaluates but degrades."""


# far above any phased array; keeps n_antennas * spacing a finite float and
# the per-element arrays of gain_fresnel_sum and gain_exact small
_MAX_ANTENNAS = 1_000_000


def _check_count(n_antennas) -> None:
    """Raise ``ValueError`` unless the element count is a whole number in
    [1, 1000000] (a float or numpy integer of integral value counts as one)."""
    if not (n_antennas >= 1 and n_antennas % 1 == 0):
        raise ValueError("n_antennas must be >= 1 and a whole number")
    if not n_antennas <= _MAX_ANTENNAS:
        raise ValueError(f"n_antennas must be <= {_MAX_ANTENNAS}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count, spacing (m) and carrier (Hz)."""

    n_antennas: int
    spacing_m: float
    carrier_hz: float

    def __post_init__(self):
        _check_count(self.n_antennas)
        _check_positive(spacing_m=self.spacing_m, carrier_hz=self.carrier_hz)

    @property
    def aperture_m(self) -> float:
        return self.n_antennas * self.spacing_m

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @property
    def dbar(self) -> float:
        return self.spacing_m / self.wavelength_m

    @property
    def lbar(self) -> float:
        return self.n_antennas * self.dbar


@dataclass(frozen=True)
class ObserverPoint:
    """Receive antenna at range r > 0 (m) and angle theta in (-pi/2, pi/2)."""

    range_m: float
    angle_rad: float

    def __post_init__(self):
        _check_positive(range_m=self.range_m)
        _check_angle(angle_rad=self.angle_rad)


def antenna_positions(geom: ArrayGeometry) -> np.ndarray:
    """Element x coordinates d_n = (2n - N + 1) d / 2, symmetric about 0."""
    n = np.arange(geom.n_antennas)
    return (2.0 * n - geom.n_antennas + 1) * (geom.spacing_m / 2.0)


def distance_to_rx(geom: ArrayGeometry, point: ObserverPoint) -> np.ndarray:
    """Exact element-to-receiver distances r_n = sqrt(r^2 - 2 r d_n sin(theta) + d_n^2)."""
    return _element_distances(antenna_positions(geom), point.range_m, point.angle_rad)


def _element_distances(d_n, r: float, theta_rad: float) -> np.ndarray:
    """Element distances from positions d_n and range r, both in metres or
    both in wavelengths."""
    return np.sqrt(r * r - 2.0 * r * d_n * math.sin(theta_rad) + d_n * d_n)


def _path_minus_center(geom: ArrayGeometry, point: ObserverPoint, variant: str) -> np.ndarray:
    """rho_n - r without cancellation; rho_n is the model path length."""
    d_n = antenna_positions(geom)
    sin_t = math.sin(point.angle_rad)
    if variant.startswith("ff"):
        return -d_n * sin_t
    r = point.range_m
    r_n = _element_distances(d_n, r, point.angle_rad)
    return (d_n * d_n - 2.0 * r * d_n * sin_t) / (r_n + r)


def _check_variant(variant: str, baseband_hz: float, carrier_hz: float) -> float:
    if variant not in VARIANTS:
        raise ValueError(f"unknown channel variant {variant!r}; expected one of {VARIANTS}")
    _check_finite(baseband_hz=baseband_hz)
    _check_offset(baseband_hz / carrier_hz, "baseband_hz")
    if variant in _NARROWBAND and baseband_hz != 0.0:
        raise ValueError(f"narrowband variant {variant!r} requires baseband_hz = 0")
    return 0.0 if variant in _NARROWBAND else baseband_hz


def channel(geom: ArrayGeometry, point: ObserverPoint, variant: str,
            baseband_hz: float = 0.0) -> np.ndarray:
    """Frequency-domain channel for one of the four model variants.

    Unit-modulus entries: entry n carries the phase -2*pi*rho_n*(fc + f)/c
    with rho_n = r_n for near-field variants and rho_n = r - d_n sin(theta)
    for far-field ones; narrowband variants force f = 0.  The common center
    phase is removed.
    """
    f = _check_variant(variant, baseband_hz, geom.carrier_hz)
    delta = _path_minus_center(geom, point, variant)
    phase = -2.0 * np.pi * delta * (geom.carrier_hz + f) / SPEED_OF_LIGHT_M_S
    return np.exp(1j * phase)


def beamformer(geom: ArrayGeometry, point: ObserverPoint, variant: str,
               baseband_hz: float = 0.0) -> np.ndarray:
    """Unit-norm weights, conjugate-matched to the same-variant channel."""
    return channel(geom, point, variant, baseband_hz) / math.sqrt(geom.n_antennas)


def gain_exact(geom: ArrayGeometry, point: ObserverPoint, channel_variant: str,
               baseband_hz: float = 0.0) -> float:
    """Normalized gain of the fixed plane-wave narrowband beamformer.

    Evaluates |h* f_ffnb| / sqrt(N) for the selected channel variant; the
    matched case (``ff_nb`` channel) gives exactly 1.
    """
    inner = np.vdot(channel(geom, point, channel_variant, baseband_hz),
                    beamformer(geom, point, "ff_nb"))
    return float(abs(inner) / math.sqrt(geom.n_antennas))


def check_fresnel_region(geom: ArrayGeometry, point: ObserverPoint) -> bool:
    """True iff every element distance satisfies r_n > 0.5 sqrt(L^3 / lambda_c)."""
    threshold = _fresnel_distance(geom.aperture_m, geom.wavelength_m)
    return bool(distance_to_rx(geom, point).min() > threshold)


def as_regime(geom: ArrayGeometry, point: ObserverPoint, baseband_hz: float = 0.0) -> Regime:
    """Normalized (carrier-independent) view of a physical configuration."""
    lam = geom.wavelength_m
    _check_offset(baseband_hz / geom.carrier_hz, "baseband_hz")
    return Regime(
        fbar=baseband_hz / geom.carrier_hz,
        rbar=point.range_m / lam,
        dbar=geom.dbar,
        lbar=geom.lbar,
        theta_rad=point.angle_rad,
    )


def gain_fresnel_sum(regime: Regime, n_antennas: int) -> float:
    """Finite-N gain from the quadratic-phase (Fresnel region) expansion.

    Sums exp(j 2 pi (phi_wb + phi_nf)) over elements, with the linear
    squint phase phi_wb = -n dbar sin(theta) fbar and the quadratic
    curvature phase phi_nf = (fbar+1) dbar^2 cos^2(theta) (n-(N-1)/2)^2
    / (2 rbar).  Depends only on the normalized parameters, so it is
    carrier-independent by construction.

    Outside the radiating near-field region a ``FresnelRegionWarning`` is
    emitted and the formula still evaluates.  Raises ``ValueError`` unless
    n_antennas * regime.dbar equals regime.lbar to rounding.
    """
    _check_count(n_antennas)
    if not math.isclose(n_antennas * regime.dbar, regime.lbar, rel_tol=1e-9):
        raise ValueError(f"n_antennas * dbar must equal the regime's lbar, got {n_antennas!r}")
    n = np.arange(n_antennas)
    centered = n - (n_antennas - 1) / 2.0
    # element distances and the near-field floor, both in wavelengths
    rn = _element_distances(centered * regime.dbar, regime.rbar, regime.theta_rad)
    if not rn.min() > _fresnel_distance(regime.lbar, 1.0):
        warnings.warn(
            "configuration violates the Fresnel-region condition; the "
            "quadratic-phase gain may be inaccurate",
            FresnelRegionWarning,
            stacklevel=2,
        )
    sin_t = math.sin(regime.theta_rad)
    cos_t = math.cos(regime.theta_rad)
    phi_wb = -n * regime.dbar * sin_t * regime.fbar
    phi_nf = (regime.fbar + 1.0) * (regime.dbar**2 / (2.0 * regime.rbar)) \
        * cos_t * cos_t * centered * centered
    total = np.exp(2j * np.pi * (phi_wb + phi_nf)).sum()
    return float(abs(total) / n_antennas)
