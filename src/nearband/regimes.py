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
        _check_offset(self.fbar, "fbar")
        _check_positive(rbar=self.rbar)
        if not (0.0 < self.dbar <= self.lbar):
            raise ValueError("regime requires lbar >= dbar > 0")
        _check_angle(theta_rad=self.theta_rad)


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


def _check_angle(**args: float) -> None:
    """Raise ``ValueError`` naming the first argument not in (-pi/2, pi/2)."""
    for name, value in args.items():
        if not abs(value) < math.pi / 2:
            raise ValueError(f"{name} must satisfy |{name}| < pi/2, got {value!r}")


def _check_offset(fbar: float, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless the absolute frequency
    (1 + fbar) f_c is positive."""
    if not 1.0 + fbar > 0.0:
        raise ValueError(f"{name} must keep the absolute frequency positive "
                         f"(1 + fbar > 0), got fbar = {fbar!r}")


def _check_threshold(tau_linear: float, caller: str) -> None:
    if not (0.0 < tau_linear < 1.0):
        raise ValueError(f"{caller} requires a linear gain threshold tau_linear in (0, 1), "
                         f"got {tau_linear!r}")


# ---------------------------------------------------------------------------
# threshold inversion on the gain surface
# ---------------------------------------------------------------------------

# Kernel calls (rounds), not points, are the cost of these solvers.  Near
# -10 dB the boundary product jumps between nulls and peaks on gamma2
# intervals only 0.3% wide; 4096 log points resolve them (2048 miss the
# peak at 0.1).
_PRODUCT_STEP = 0.01
_PRODUCT_CHUNK = 32
_PRODUCT_LIMIT = 64.0
_MARCH_POINTS = 65536
_COARSE_STRIDE = 16
_FINISH_ROUNDS = 48
_FINISH_ULPS = 8
_GUARD_ULPS = 2
_GAMMA2_FLOOR = 1e-3
_GAMMA2_POINTS = 4096
_REFINE_POINTS = 33
_REFINE_ROUNDS = 5


def _march(tau, g2: np.ndarray):
    """Bracket [hi - _PRODUCT_STEP, hi] of each column's first crossing, with
    G - tau at both ends; hi is 0 for columns whose on-axis gain is below tau.
    For a 1-D array of thresholds the arrays gain a leading threshold axis,
    and each grid point's gain is evaluated once for all thresholds still open
    on its column.  Raises ``NoCrossingError``, naming the first threshold
    still open, when a column keeps its gain at or above it up to the march
    limit; no grid point past the limit is evaluated."""
    taus = np.atleast_1d(tau)
    hi, f_lo, f_hi = (np.zeros((taus.size, g2.size)) for _ in range(3))
    g0 = gain_narrowband(g2)
    live = g0 >= taus[:, None]
    cols = np.flatnonzero(live.any(axis=0))
    open_, g_k = live[:, cols], g0[cols]  # open: live and not yet crossed
    last = int(_PRODUCT_LIMIT / _PRODUCT_STEP + 1e-9)  # the last grid index marched
    k0 = 0
    while cols.size:
        if k0 >= last:
            failed = float(taus[open_.any(axis=1).argmax()])
            raise NoCrossingError(
                f"gain never crossed below tau={failed!r} for gamma1*gamma2 <= {_PRODUCT_LIMIT!r}"
            )
        # a chunk as long as the march so far, within the point budget
        chunk = max(_PRODUCT_CHUNK, min(k0, _MARCH_POINTS // cols.size))
        k = np.arange(k0 + 1, min(k0 + chunk, last) + 1)
        p = _PRODUCT_STEP * k
        g = _gain_pq(p, g2[cols, None])
        below = g < taus[:, None, None]
        t, rows = np.nonzero(below.any(axis=2) & open_)
        j = below[t, rows].argmax(axis=1)
        hi[t, cols[rows]] = p[j]
        f_hi[t, cols[rows]] = g[rows, j] - taus[t]
        f_lo[t, cols[rows]] = np.where(j > 0, g[rows, j - 1], g_k[rows]) - taus[t]
        open_[t, rows] = False
        more = open_.any(axis=0)
        cols, open_, g_k = cols[more], open_[:, more], g[more, -1]
        k0 = int(k[-1])
    if np.ndim(tau) == 0:
        return hi[0], f_lo[0], f_hi[0]
    return hi, f_lo, f_hi


def _top_level_march(tau: float, g2: np.ndarray):
    """``_march``'s brackets on every column of the top grid level (the
    largest hi), and on some lower columns; hi is 0 on the columns not
    marched.  Every _COARSE_STRIDE-th column is marched and gives a level
    h0; another column is marched only if its gain at the grid point below
    h0 is at or above tau, since otherwise it crosses below h0.  ``_march``
    drops the columns whose on-axis gain is below tau."""
    hi, f_lo, f_hi = np.zeros_like(g2), np.zeros_like(g2), np.zeros_like(g2)
    coarse = np.zeros(g2.size, dtype=bool)
    coarse[::_COARSE_STRIDE] = True
    hi[coarse], f_lo[coarse], f_hi[coarse] = _march(tau, g2[coarse])
    rest = np.flatnonzero(~coarse)
    k0 = round(hi.max() / _PRODUCT_STEP)
    if k0 > 1:  # below that, the grid point is p = 0, where every live column holds
        rest = rest[_gain_pq(_PRODUCT_STEP * (k0 - 1), g2[rest]) >= tau]
    hi[rest], f_lo[rest], f_hi[rest] = _march(tau, g2[rest])
    return hi, f_lo, f_hi


def _finish(tau, g2: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray):
    """Midpoint of each bracket [hi - _PRODUCT_STEP, hi] from ``_march``,
    narrowed to 8 ulp (at most 48 rounds) by bracketed secant steps.  ``tau``
    is one threshold or one per column.  Each column is refined on its own
    values, so its result does not depend on which other columns share the
    call."""
    tau = np.broadcast_to(tau, hi.shape)
    lo, hi, f_lo, f_hi = hi - _PRODUCT_STEP, hi.copy(), f_lo.copy(), f_hi.copy()
    side = np.zeros(hi.size, dtype=np.int8)  # endpoint kept last round: -1 lo, 1 hi
    for _ in range(_FINISH_ROUNDS):
        ulp = np.spacing(hi)
        o = np.flatnonzero(hi - lo > _FINISH_ULPS * ulp)
        if not o.size:
            break
        a, b, fa, fb, d, t = lo[o], hi[o], f_lo[o], f_hi[o], _GUARD_ULPS * ulp[o], tau[o]
        w = b - a
        # fb < 0 <= fa puts the secant point in [a, b]; the clamp keeps it
        # and its guards strictly inside
        x = np.clip(b - fb * w / (fb - fa), a + 2.0 * d, b - 2.0 * d)
        pts = x[:, None] + d[:, None] * np.array([-1.0, 0.0, 1.0])
        # G can equal tau exactly over many ulp of p, and at fa == 0 the
        # secant point is a itself; there three probes step from a by the
        # width of that band, ulp(tau) / |slope|, or a quarter of the bracket
        flat = np.flatnonzero(fa == 0.0)
        if flat.size:
            q = np.maximum(w[flat] * np.minimum(0.25, np.spacing(t[flat]) / -fb[flat]), d[flat])
            pts[flat] = a[flat, None] + q[:, None] * np.array([1.0, 2.0, 3.0])
        # the new bracket: the first point below tau among a, pts, b (b is)
        # and the point before it
        pts = np.column_stack((a, pts, b))
        f = np.column_stack((fa, _gain_pq(pts[:, 1:4], g2[o, None]) - t[:, None], fb))
        j = (f[:, 1:] < 0.0).argmax(axis=1) + 1
        r = np.arange(o.size)
        fa, fb = f[r, j - 1], f[r, j]
        # Illinois: an endpoint kept twice in a row has its value halved
        kept = np.where(j == 1, -1, np.where(j == 4, 1, 0)).astype(np.int8)
        again = kept == side[o]
        f_lo[o] = np.where(again & (kept == -1), 0.5 * fa, fa)
        f_hi[o] = np.where(again & (kept == 1), 0.5 * fb, fb)
        lo[o], hi[o], side[o] = pts[r, j - 1], pts[r, j], kept
    return 0.5 * (lo + hi)


def main_lobe_boundary(tau_linear, gamma2: np.ndarray) -> np.ndarray:
    """First tau-crossing gamma1 >= 0 per gamma2 column.

    Traces the boundary of the main-lobe superlevel set; columns whose
    on-axis gain is already below tau return NaN (outside the region).
    ``tau_linear`` is one threshold or a 1-D sequence of them; a sequence
    returns one row per threshold, stacked on a leading axis, from one march
    and one finish, so each gain point is evaluated once and each row has
    the bits of its own one-threshold call.  Raises ``ValueError`` unless
    every tau is a linear gain in (0, 1) and every gamma2 is positive and
    finite.
    """
    taus = np.array(tau_linear, dtype=float)
    if taus.ndim > 1:
        raise ValueError("main_lobe_boundary takes one threshold or a 1-D sequence of them")
    for tau in [tau_linear] if taus.ndim == 0 else tau_linear:
        _check_threshold(tau, "main_lobe_boundary")
    g2 = np.asarray(gamma2, dtype=float)
    bad = g2[~((g2 > 0.0) & (g2 < math.inf))]
    if bad.size:
        _check_positive(gamma2=float(bad.flat[0]))
    taus, cols = taus.reshape(-1), g2.ravel()
    hi, f_lo, f_hi = _march(taus, cols)
    t, live = np.nonzero(hi > 0.0)
    out = np.full((taus.size, g2.size), np.nan)
    out[t, live] = _finish(taus[t], cols[live], hi[t, live], f_lo[t, live],
                           f_hi[t, live]) / cols[live]
    out = out.reshape(taus.shape + g2.shape)
    return out if np.ndim(tau_linear) else out[0]


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

    The region is taken per column: it holds the gamma2 columns whose
    on-axis gain is at least tau, each from gamma1 = 0 to its first crossing.

    The supremum is at least :func:`far_field_product`, the gamma2 -> 0
    limit of the boundary.  It certifies that limit first on a log grid of
    gamma2 over [1e-3, 1/tau]: a column whose gain at p_ff is below tau
    crosses tau at or before p_ff, so when no column reaches tau at p_ff
    the result is p_ff itself (above about -2.81 dB).  Otherwise it finds
    the first tau-crossing product on the columns of the top grid level,
    marching only the columns that can reach it (every 16th column sets a
    level; another is marched only if its gain one grid point below that
    level is still at or above tau), re-solves on linear brackets around
    the maximizer, each round spanning the two neighbouring grid cells,
    and returns the larger of that and p_ff.  The march alone tells the
    live columns, by their on-axis gain.  No column beyond 1/tau can hold
    gain >= tau, since max|C + jS| < 1 bounds the on-axis gain by
    1/gamma2.  Raises ``ValueError`` when tau is not a linear gain in
    (0, 1) and ``NoCrossingError`` when a crossing lies beyond the march
    limit p = 64: -11.25 dB still solves (62.40), while -11.3 dB raises, as
    every deeper threshold tried down to -50 dB does.
    """
    _check_threshold(tau_linear, "product_max")
    p_ff = far_field_product(tau_linear)
    g2 = np.geomspace(_GAMMA2_FLOOR, 1.0 / tau_linear, _GAMMA2_POINTS)
    if not (_gain_pq(p_ff, g2) >= tau_linear).any():
        return p_ff
    best = 0.0
    for r in range(_REFINE_ROUNDS + 1):
        # a column one grid level below the top crosses before the top
        # level's lower bracket end, so only the top level can hold the maximum
        hi, f_lo, f_hi = _march(tau_linear, g2) if r else _top_level_march(tau_linear, g2)
        top = np.flatnonzero((hi == hi.max()) & (hi > 0.0))
        products = np.zeros_like(g2)
        products[top] = _finish(tau_linear, g2[top], hi[top], f_lo[top], f_hi[top])
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
    The far-field check and the scan do not depend on tau and are cached,
    so a run's thresholds share them at each offset; each bisects alone.
    """
    _check_finite(f_hz=f_hz)
    _check_positive(fc_hz=fc_hz, aperture_m=aperture_m)
    _check_angle(theta_rad=theta_rad)
    fbar = f_hz / fc_hz
    _check_offset(fbar, "f_hz")
    _check_threshold(tau_linear, "band_distance")

    lam = SPEED_OF_LIGHT_M_S / fc_hz
    lbar = aperture_m / lam
    r_lo = max(_fresnel_distance(aperture_m, lam), 1e-3 * lam * lbar * lbar)
    r_hi = 1e6 * fraunhofer_distance(lbar, lam)
    if _far_gain(fbar, lbar, theta_rad, r_hi / lam) < tau_linear:
        return math.inf

    decades = math.log10(r_hi / r_lo)
    n = max(int(math.ceil(decades * _BAND_POINTS_PER_DECADE)), 2) + 1
    rbars, gains = _scan(fbar, lbar, theta_rad, r_lo / lam, r_hi / lam, n)
    below = gains < tau_linear
    if not below.any():
        return r_lo
    i = int(np.flatnonzero(below)[-1])

    lo, hi = float(rbars[i]), float(rbars[i + 1])
    while (hi - lo) > _BAND_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _ray_gain(fbar, lbar, theta_rad, mid) < tau_linear:
            lo = mid
        else:
            hi = mid
    return hi * lam


def _ray_gain(fbar: float, lbar: float, theta_rad: float, rbar):
    """Gain at normalized distance(s) rbar along the ray of offset fbar."""
    p = abs(fbar * lbar * math.sin(theta_rad))
    return _gain_pq(p, _gamma_map(fbar, rbar, lbar, theta_rad)[1])


@lru_cache(maxsize=4)
def _far_gain(fbar: float, lbar: float, theta_rad: float, rbar_hi: float) -> float:
    """``band_distance``'s far-field check: the gain at the scan's far end."""
    return float(_ray_gain(fbar, lbar, theta_rad, rbar_hi))


@lru_cache(maxsize=4)
def _scan(fbar: float, lbar: float, theta_rad: float, rbar_lo: float, rbar_hi: float, n: int):
    """``band_distance``'s scan: n log-spaced distances and their gains, read-only."""
    rbars = np.geomspace(rbar_lo, rbar_hi, n)
    gains = _ray_gain(fbar, lbar, theta_rad, rbars)
    rbars.flags.writeable = gains.flags.writeable = False
    return rbars, gains


def effective_rayleigh_distance(theta_rad: float, lbar: float, wavelength_m: float) -> float:
    """Angle-dependent near-field boundary at the 0.95 linear gain level:
    0.367 * cos^2(theta) * 2 * lbar^2 * lambda_c.  Raises ``ValueError``
    unless |theta| < pi/2 and lbar, wavelength_m are positive and finite."""
    _check_angle(theta_rad=theta_rad)
    cos_t = math.cos(theta_rad)
    return RAYLEIGH_COEFF * cos_t * cos_t * fraunhofer_distance(lbar, wavelength_m)


def fraunhofer_distance(lbar: float, wavelength_m: float) -> float:
    """Classical far-field boundary 2 * lbar^2 * lambda_c (= 2 L^2 / lambda).
    Raises ``ValueError`` unless lbar and wavelength_m are positive and finite."""
    _check_positive(lbar=lbar, wavelength_m=wavelength_m)
    return 2.0 * lbar * lbar * wavelength_m


def _fresnel_distance(aperture: float, wavelength: float) -> float:
    """Radiating near-field floor 0.5 * sqrt(L^3 / lambda), in the unit of
    its arguments (metres, or wavelengths with wavelength = 1)."""
    return 0.5 * math.sqrt(aperture**3 / wavelength)
