"""Built-in verification suite behind the ``verify`` CLI subcommand.

Every check pits a production path against an independent route: the
quadrature oracle for the Fresnel integrals, the exact spherical-wave
summation against the quadratic-phase and closed-form approximations,
and the published reference constants for the threshold inversions.
Checks report their measured error so regressions are visible even
while they still pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, ObserverPoint, as_regime, gain_exact, gain_fresnel_sum
from .constants import SPEED_OF_LIGHT_M_S
from .fresnel import fresnel_cs, gain_closed_form, gain_narrowband
from .oracle import quadrature_cs
from .regimes import (
    RAYLEIGH_GAIN_LINEAR,
    ThresholdSpec,
    band_distance,
    effective_rayleigh_distance,
    fraunhofer_distance,
    gamma_from_regime,
    product_max,
)

__all__ = ["CheckResult", "run_verify", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    limit: float
    passed: bool


def _result(name: str, measured: float, limit: float) -> CheckResult:
    return CheckResult(name, measured, limit, bool(measured <= limit))


def _fresnel_checks() -> list:
    rng = np.random.default_rng(20260808)
    xs = rng.uniform(-30.0, 30.0, 200)
    qc, qs = quadrature_cs(xs)
    c, s = fresnel_cs(xs)
    odd_c, odd_s = fresnel_cs(-xs)
    return [
        _result("fresnel-c-vs-quadrature", float(np.abs(c - qc).max()), 1e-9),
        _result("fresnel-s-vs-quadrature", float(np.abs(s - qs).max()), 1e-9),
        _result("fresnel-oddness", float(max(np.abs(c + odd_c).max(),
                                              np.abs(s + odd_s).max())), 1e-12),
    ]


def _gain_chain_checks() -> list:
    rng = np.random.default_rng(9157)
    worst_exact_sum = 0.0
    worst_sum_closed = 0.0
    tol_sum_closed = 0.0
    for _ in range(20):
        n = int(rng.choice([128, 192, 256, 384]))
        dbar = rng.uniform(0.25, 0.5)
        fc = rng.uniform(20e9, 45e9)
        lam = SPEED_OF_LIGHT_M_S / fc
        geom = ArrayGeometry(n, dbar * lam, fc)
        lbar = n * dbar
        theta = rng.uniform(-1.2, 1.2)
        # 4x over the Fresnel-region threshold 0.5*lbar^1.5: the dropped
        # cubic phase term decays as 1/margin^2 and is ~0.01 at margin 4
        rbar = 2.0 * lbar**1.5 * 10 ** rng.uniform(0.0, 1.5)
        f = rng.uniform(-0.05, 0.05) * fc
        point = ObserverPoint(rbar * lam, theta)
        regime = as_regime(geom, point, f)
        exact = gain_exact(geom, point, "nf_wb", f)
        approx = gain_fresnel_sum(regime, n)
        closed = gain_closed_form(*gamma_from_regime(regime))
        worst_exact_sum = max(worst_exact_sum, abs(exact - approx))
        worst_sum_closed = max(worst_sum_closed, abs(approx - closed))
        tol_sum_closed = max(tol_sum_closed, max(0.02, 5.0 / n))
    return [
        _result("gain-exact-vs-fresnel-sum", worst_exact_sum, 0.01),
        _result("gain-fresnel-sum-vs-closed-form", worst_sum_closed, tol_sum_closed),
    ]


def _constant_checks() -> list:
    pm2 = product_max(ThresholdSpec.from_db(-2.0).tau_linear)
    pm1 = product_max(ThresholdSpec.from_db(-1.0).tau_linear)
    lam28 = SPEED_OF_LIGHT_M_S / 28e9
    d_fa = fraunhofer_distance(64.0, lam28)

    lam39 = SPEED_OF_LIGHT_M_S / 39e9
    aperture = 32.0 * lam39
    theta = math.radians(60.0)
    band0 = band_distance(0.0, 39e9, RAYLEIGH_GAIN_LINEAR, aperture, theta)
    d_erd = effective_rayleigh_distance(theta, 32.0, lam39)
    return [
        _result("contour-constant-minus2db", abs(pm2 - 0.5044), 0.005),
        _result("contour-constant-minus1db", abs(pm1 - 0.3654), 0.005),
        _result("fraunhofer-anchor-128x28ghz", abs(d_fa - 87.7), 0.5),
        _result("rayleigh-boundary-consistency", abs(band0 - d_erd) / d_erd, 0.02),
    ]


def _identity_checks() -> list:
    g2 = np.linspace(0.05, 5.0, 64)
    nb = gain_narrowband(g2)
    surf = gain_closed_form(np.zeros_like(g2), g2)
    return [_result("narrowband-identity", float(np.abs(nb - surf).max()), 0.0)]


def run_verify() -> list:
    """Run every check; deterministic (seeded) and independent of call order."""
    results = []
    results.extend(_fresnel_checks())
    results.extend(_identity_checks())
    results.extend(_gain_chain_checks())
    results.extend(_constant_checks())
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: measured={r.measured:.3e} limit={r.limit:.3e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
