"""Independent reference paths used only by the tests.

Extended-precision (80-bit longdouble) summations evaluate the gains
directly from naive full-length phases, deliberately avoiding the
package's phase-stabilized production path.  ``csv_rows`` formats table
rows one cell at a time, the reference for the column-blocked CSV
emitter.
"""

import math

import mpmath
import numpy as np

C_M_S = 299_792_458.0


def gain_exact_longdouble(n_antennas, spacing_m, carrier_hz, range_m, angle_rad,
                          baseband_hz=0.0, variant="nf_wb"):
    """Direct N-term complex summation of the plane-wave beamformer gain."""
    ld = np.longdouble
    n = np.arange(n_antennas, dtype=ld)
    d_n = (2 * n - n_antennas + 1) * ld(spacing_m) / 2
    r = ld(range_m)
    sin_t = np.sin(ld(angle_rad))
    r_n = np.sqrt(r * r - 2 * r * d_n * sin_t + d_n * d_n)
    rho = r_n if variant.startswith("nf") else r - d_n * sin_t
    fc = ld(carrier_hz)
    f = ld(0.0 if variant.endswith("nb") else baseband_hz)
    phase = 2 * np.pi * (rho * (fc + f) - (r - d_n * sin_t) * fc) / ld(C_M_S)
    total = np.exp(1j * phase.astype(np.clongdouble)).sum()
    return float(abs(total) / n_antennas)


def gain_quadratic_sum_longdouble(fbar, rbar, dbar, theta_rad, n_antennas):
    """Quadratic-phase summation at extended precision."""
    ld = np.longdouble
    n = np.arange(n_antennas, dtype=ld)
    sin_t = np.sin(ld(theta_rad))
    cos_t = np.cos(ld(theta_rad))
    phi_wb = -n * ld(dbar) * sin_t * ld(fbar)
    centered = n - ld(n_antennas - 1) / 2
    phi_nf = (ld(fbar) + 1) * ld(dbar) ** 2 / (2 * ld(rbar)) * cos_t * cos_t \
        * centered * centered
    total = np.exp(2j * np.pi * (phi_wb + phi_nf).astype(np.clongdouble)).sum()
    return float(abs(total) / n_antennas)


def sinc_threshold_root(tau_linear, lo=1e-9, hi=1.0):
    """First p > 0 where sin(pi p)/(pi p) = tau; far-field squint inversion.

    Serves as an independent oracle for product_max: the boundary product
    approaches this root as gamma2 -> 0.  A float bisection brackets the
    root, and a 40-digit mpmath solve refines it, so the result is the
    correctly rounded root of the given float tau.
    """
    def f(p):
        return math.sin(math.pi * p) / (math.pi * p) - tau_linear

    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    with mpmath.workdps(40):
        tau = mpmath.mpf(tau_linear)
        root = mpmath.findroot(
            lambda p: mpmath.sin(mpmath.pi * p) / (mpmath.pi * p) - tau,
            mpmath.mpf(0.5 * (lo + hi)))
        return float(root)


def gain_40(gamma1, gamma2):
    """The gain surface G(gamma1, gamma2) from 40-digit mpmath Fresnel
    integrals at the exact float arguments, as an mpmath number."""
    with mpmath.workdps(40):
        g1, g2 = mpmath.mpf(gamma1), mpmath.mpf(gamma2)
        c = mpmath.fresnelc(g1 + g2) - mpmath.fresnelc(g1 - g2)
        s = mpmath.fresnels(g1 + g2) - mpmath.fresnels(g1 - g2)
        return mpmath.sqrt(c * c + s * s) / (2 * g2)


def first_crossing_root(tau_linear, gamma2, lo, hi):
    """The product p = gamma1*gamma2 in [lo, hi] where G(p / gamma2, gamma2)
    = tau at 40 digits, rounded to a float; G - tau must change sign on
    the bracket."""
    with mpmath.workdps(40):
        tau, g2 = mpmath.mpf(tau_linear), mpmath.mpf(gamma2)

        def excess(p):
            return gain_40(p / g2, g2) - tau

        assert excess(mpmath.mpf(lo)) >= 0 > excess(mpmath.mpf(hi))
        root = mpmath.findroot(excess, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        assert lo <= root <= hi
        return float(root)


def band_crossing_40(f_hz, fc_hz, tau_linear, aperture_m, theta_rad, lo, hi):
    """The distance r in [lo, hi] (metres) where the gain along the ray of
    offset f_hz equals tau at 40 digits, rounded to a float.  The ray holds
    p = |fbar lbar sin(theta)| fixed while gamma2 = lbar cos(theta)
    sqrt((1 + fbar) / (2 r / lambda)) falls with r; G - tau must change
    sign from below to at or above tau on the bracket."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(C_M_S) / mpmath.mpf(fc_hz)
        fbar = mpmath.mpf(f_hz) / mpmath.mpf(fc_hz)
        lbar = mpmath.mpf(aperture_m) / lam
        theta, tau = mpmath.mpf(theta_rad), mpmath.mpf(tau_linear)
        p = abs(fbar * lbar * mpmath.sin(theta))

        def excess(r):
            g2 = lbar * mpmath.cos(theta) * mpmath.sqrt((1 + fbar) * lam / (2 * r))
            return gain_40(p / g2, g2) - tau

        assert excess(mpmath.mpf(lo)) < 0 <= excess(mpmath.mpf(hi))
        root = mpmath.findroot(excess, (mpmath.mpf(lo), mpmath.mpf(hi)), solver="anderson")
        assert lo <= root <= hi
        return float(root)


def random_fresnel_configs(rng, count, n_choices=(128, 192, 256, 384, 512)):
    """Seeded configurations with >= 4x margin over the Fresnel threshold.

    The dropped cubic phase term scales as 1/margin^2 and stays below the
    0.01 consistency tolerance from margin 4 upward.
    """
    configs = []
    for _ in range(count):
        n = int(rng.choice(n_choices))
        dbar = float(rng.uniform(0.25, 0.5))
        fc = float(rng.uniform(20e9, 45e9))
        lbar = n * dbar
        theta = float(rng.uniform(-1.2, 1.2))
        rbar = float(2.0 * lbar ** 1.5 * 10 ** rng.uniform(0.0, 1.5))
        fbar = float(rng.uniform(-0.05, 0.05))
        configs.append((n, dbar, fc, rbar, theta, fbar))
    return configs


def csv_cell(value) -> str:
    """One CSV cell: ``str`` for an int, shortest round-trip ``repr`` otherwise."""
    if isinstance(value, bool):
        raise TypeError("boolean table cells are not supported")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def csv_rows(rows) -> bytes:
    """Data rows as CSV bytes: cells joined by ',', each row ended by LF."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in rows).encode("utf-8")
