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
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .constants import SPEED_OF_LIGHT_M_S
from .fresnel import GammaPair, _gain_pq, gain_narrowband

__all__ = [
    "Regime",
    "ThresholdSpec",
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
        if not (self.tau_linear == 10.0 ** (min(self.tau_db, 0.0) / 10.0)
                or self.tau_db == 10.0 * math.log10(self.tau_linear)):
            raise ValueError(f"ThresholdSpec tau_linear = {self.tau_linear!r} and "
                             f"tau_db = {self.tau_db!r} are not the same threshold")

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


def _check_threshold(tau_linear: float, caller: str, marches: bool = False) -> None:
    if not (0.0 < tau_linear < 1.0):
        raise ValueError(f"{caller} requires a linear gain threshold tau_linear in (0, 1), "
                         f"got {tau_linear!r}")
    if marches and tau_linear < _MARCH_FLOOR:
        raise ValueError(f"{caller} solves thresholds down to {_MARCH_FLOOR_DB} dB "
                         f"(tau_linear >= {_MARCH_FLOOR!r}), got {tau_linear!r}")


# ---------------------------------------------------------------------------
# threshold inversion on the gain surface
# ---------------------------------------------------------------------------

# Kernel calls (rounds), not points, are the cost of these solvers.  Near
# -10 dB the boundary product jumps between nulls and peaks on gamma2
# intervals only 0.3% wide; 4096 log points resolve them (2048 miss the
# peak at 0.1).
_PRODUCT_STEP = 0.01
_PRODUCT_CHUNK = 32
_MARCH_POINTS = 65536
_COARSE_STRIDE = 16
_FINISH_ROUNDS = 48
_FINISH_ULPS = 8
_GUARD_ULPS = 2
_PROBE_STEPS = np.array([-1.0, 0.0, 1.0])  # guard steps of the three secant probes
_GAMMA2_FLOOR = 1e-3
_GAMMA2_POINTS = 4096
_REFINE_POINTS = 33
_REFINE_ROUNDS = 5
# The deepest threshold the marching solvers take, as ThresholdSpec.from_db
# converts it.  The march ends at any depth, but the 4096-column grid
# already misses narrow peaks here, so a deeper range needs a certified search.
_MARCH_FLOOR_DB = -11.25
_MARCH_FLOOR = 10.0 ** (_MARCH_FLOOR_DB / 10.0)


def _march(tau, g2: np.ndarray):
    """Bracket [hi - _PRODUCT_STEP, hi] of each column's first crossing, with
    G - tau at both ends; hi is 0 for columns whose on-axis gain is below tau.
    For a 1-D array of thresholds the arrays gain a leading threshold axis,
    and each grid point's gain is evaluated once for all thresholds still open
    on its column.  The march ends once every live column has crossed, which
    the chirp envelope guarantees: for p > gamma2^2 the gain is at most
    1/(pi (p - gamma2^2)) (van der Corput's first-derivative test), so a
    column crosses tau by p = gamma2^2 + 1/(pi tau)."""
    taus = np.atleast_1d(tau)
    hi, f_lo, f_hi = (np.zeros((taus.size, g2.size)) for _ in range(3))
    g0 = gain_narrowband(g2)
    live = g0 >= taus[:, None]
    cols = np.flatnonzero(live.any(axis=0))
    open_, g_k = live[:, cols], g0[cols]  # open: live and not yet crossed
    k0 = 0
    while cols.size:
        # a chunk as long as the march so far, within the point budget
        chunk = max(_PRODUCT_CHUNK, min(k0, _MARCH_POINTS // cols.size))
        k = np.arange(k0 + 1, k0 + chunk + 1)
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


def _finish(tau, gain, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray):
    """Midpoint of each bracket [lo, hi], where f = G - tau is >= 0 at lo and
    < 0 at hi, narrowed to 8 ulp (at most 48 rounds) by bracketed secant
    steps.  ``gain(x, rows)`` returns G at the probe points x, one row of
    them per open bracket, of the brackets ``rows`` indexes (an index array,
    or a full slice while every bracket is open).  ``tau`` is
    one threshold or one per bracket.  Each bracket is refined on its own
    values, so its result does not depend on which others share the call."""
    tau = np.broadcast_to(tau, hi.shape)
    lo, hi, f_lo, f_hi = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    side = np.zeros(hi.size, dtype=np.int8)  # endpoint kept last round: -1 lo, 1 hi
    for _ in range(_FINISH_ROUNDS):
        ulp = np.spacing(hi)
        live = hi - lo > _FINISH_ULPS * ulp
        n = np.count_nonzero(live)
        if not n:
            break
        o = slice(None) if n == hi.size else np.flatnonzero(live)
        a, b, fa, fb, d, t = lo[o], hi[o], f_lo[o], f_hi[o], _GUARD_ULPS * ulp[o], tau[o]
        w = b - a
        # the new bracket: the first point below tau among a, three probes
        # and b (b is), and the point before it
        pts, f = np.empty((2, n, 5))
        pts[:, 0], pts[:, 4], f[:, 0], f[:, 4] = a, b, fa, fb
        # fb < 0 <= fa puts the secant point in [a, b]; the clamp keeps it
        # and its guards strictly inside
        x = np.clip(b - fb * w / (fb - fa), a + 2.0 * d, b - 2.0 * d)
        pts[:, 1:4] = x[:, None] + d[:, None] * _PROBE_STEPS
        # G can equal tau exactly over many ulp of p, and at fa == 0 the
        # secant point is a itself; there three probes step from a by the
        # width of that band, ulp(tau) / |slope|, or a quarter of the bracket
        flat = np.flatnonzero(fa == 0.0)
        if flat.size:
            q = np.maximum(w[flat] * np.minimum(0.25, np.spacing(t[flat]) / -fb[flat]), d[flat])
            pts[flat, 1:4] = a[flat, None] + q[:, None] * np.array([1.0, 2.0, 3.0])
        f[:, 1:4] = gain(pts[:, 1:4], o) - t[:, None]
        j = (f[:, 1:] < 0.0).argmax(axis=1) + 1
        r = np.arange(n)
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
    the bits of its own one-threshold call.  Raises ``ValueError``, before
    any gain is evaluated, unless every tau is a linear gain in (0, 1) at or
    above the -11.25 dB floor and every gamma2 is positive and finite.
    """
    taus = np.array(tau_linear, dtype=float)
    if taus.ndim > 1:
        raise ValueError("main_lobe_boundary takes one threshold or a 1-D sequence of them")
    for tau in [tau_linear] if taus.ndim == 0 else tau_linear:
        _check_threshold(tau, "main_lobe_boundary", marches=True)
    g2 = np.asarray(gamma2, dtype=float)
    bad = g2[~((g2 > 0.0) & (g2 < math.inf))]
    if bad.size:
        _check_positive(gamma2=float(bad.flat[0]))
    taus, cols = taus.reshape(-1), g2.ravel()
    hi, f_lo, f_hi = _march(taus, cols)
    t, live = np.nonzero(hi > 0.0)
    out = np.full((taus.size, g2.size), np.nan)
    g2_live, hi = cols[live], hi[t, live]
    out[t, live] = _finish(taus[t], lambda x, rows: _gain_pq(x, g2_live[rows, None]),
                           hi - _PRODUCT_STEP, hi, f_lo[t, live], f_hi[t, live]) / g2_live
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
    1/gamma2, and every live column crosses by the chirp-envelope bound
    p = gamma2^2 + 1/(pi tau), so no search window caps the result.  Raises
    ``ValueError``, before any gain is evaluated, when tau is not a linear
    gain in (0, 1) or lies below the -11.25 dB floor (which solves: 62.40).
    """
    _check_threshold(tau_linear, "product_max", marches=True)
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
        g2_top, hi = g2[top], hi[top]
        products[top] = _finish(tau_linear, lambda x, rows: _gain_pq(x, g2_top[rows, None]),
                                hi - _PRODUCT_STEP, hi, f_lo[top], f_hi[top])
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
    """Maximum usable bandwidth (Hz) for a fixed aperture at a gain threshold: ``inf``
    at broadside; ``ValueError`` naming aperture_m when a finite band overflows."""
    _check_positive(aperture_m=aperture_m)
    bound = aperture_bandwidth_bound(tau_linear, theta_worst_rad)
    if bound / aperture_m == math.inf > bound:
        raise ValueError(f"aperture_m = {aperture_m!r} is too small: the band over it overflows")
    return bound / aperture_m


# ---------------------------------------------------------------------------
# frequency-selective near-field boundary
# ---------------------------------------------------------------------------

_BAND_POINTS_PER_DECADE = 64
_NORMAL_MIN = sys.float_info.min


def band_distance(
    f_hz: float,
    fc_hz: float,
    tau_linear: float,
    aperture_m: float,
    theta_rad: float,
) -> float:
    """Smallest distance (m) beyond which the gain stays >= tau at offset f.

    Scans log-spaced distances from the Fresnel-region floor up to 1e6x
    the Fraunhofer distance and locates the largest down-crossing of tau.
    Along the ray p = gamma1*gamma2 = -fbar lbar sin(theta) is fixed, and
    the crossing's scan cell is finished in gamma2 by the solvers' shared
    secant, to a few ulp, and mapped back to metres.  Returns the ``inf``
    sentinel when no finite distance qualifies: when the large-distance
    gain limit |sinc(p)| is below tau, found with no kernel call, or when
    the scan's far end is, so the crossing lies past the scan.  |sinc(p)|
    first falls below tau at the main-lobe edge |f| = far_field_product(tau)
    * fc / (lbar |sin theta|), B_max/2 above about -2.81 dB; below about
    -6.6 dB, sidelobe offsets past that edge can be finite.  If the gain
    holds above tau over the whole scan, the scan floor is returned.  Only
    the scan is cached: it does not depend on tau, so thresholds share it.
    Raises ``ValueError`` naming aperture_m when the scan range under- or
    overflows: at 28 GHz, below about 5e-154 m or above about 1.2e102 m.
    """
    _check_finite(f_hz=f_hz)
    _check_positive(fc_hz=fc_hz, aperture_m=aperture_m)
    _check_angle(theta_rad=theta_rad)
    fbar = f_hz / fc_hz
    _check_offset(fbar, "f_hz")
    _check_threshold(tau_linear, "band_distance")

    lam = SPEED_OF_LIGHT_M_S / fc_hz
    lbar = aperture_m / lam
    r_lo, r_hi = _scan_range(aperture_m, lam, lbar)
    p = abs(fbar * lbar * math.sin(theta_rad))
    if abs(np.sinc(p)) < tau_linear:
        return math.inf

    decades = math.log10(r_hi / r_lo)
    n = max(int(math.ceil(decades * _BAND_POINTS_PER_DECADE)), 2) + 1
    g2, gains = _scan(fbar, lbar, theta_rad, r_lo / lam, r_hi / lam, n)
    if gains[-1] < tau_linear:  # the gain rises back to |sinc(p)| past the scan
        return math.inf
    below = gains < tau_linear
    if not below.any():
        return r_lo
    i = int(np.flatnonzero(below)[-1])

    # the gain falls as gamma2 grows: the cell's far end is the bracket's lower end
    g2, f = g2[i:i + 2], gains[i:i + 2] - tau_linear
    x = _finish(tau_linear, lambda x, rows: _gain_pq(p, x), g2[1:], g2[:1], f[1:], f[:1])[0]
    return float(lam * 0.5 * (1.0 + fbar) * (lbar * math.cos(theta_rad) / x) ** 2)


def _scan_range(aperture_m: float, lam: float, lbar: float) -> tuple[float, float]:
    """``band_distance``'s scan range [r_lo, r_hi] in metres: the Fresnel-region
    floor, or 1e-3 lbar^2 wavelengths if larger, up to 1e6x the Fraunhofer
    distance.  Raises ``ValueError`` naming aperture_m unless lbar^2, both
    ends and both ends in wavelengths are normal floats, as the scan's gamma
    map needs: a subnormal end has lost bits, and a zero or infinite one
    divides by zero or overflows."""
    try:
        ends = (max(_fresnel_distance(aperture_m, lam), 1e-3 * lam * lbar * lbar),
                1e6 * fraunhofer_distance(lbar, lam))
    except (OverflowError, ValueError):  # aperture_m**3 overflows, or lbar is 0
        ends = (math.inf, math.inf)
    if not all(_NORMAL_MIN <= v < math.inf for v in (lbar * lbar, *ends, *(r / lam for r in ends))):
        raise ValueError(f"aperture_m = {aperture_m!r} at a {lam!r} m wavelength puts "
                         "band_distance's scan range out of the normal float range")
    return ends


@lru_cache(maxsize=4)
def _scan(fbar: float, lbar: float, theta_rad: float, rbar_lo: float, rbar_hi: float, n: int):
    """``band_distance``'s scan along the ray of offset fbar: gamma2 at n
    log-spaced distances from rbar_lo to rbar_hi and the gain there, read-only."""
    g2 = _gamma_map(fbar, np.geomspace(rbar_lo, rbar_hi, n), lbar, theta_rad)[1]
    gains = _gain_pq(abs(fbar * lbar * math.sin(theta_rad)), g2)
    g2.flags.writeable = gains.flags.writeable = False
    return g2, gains


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
