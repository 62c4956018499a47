"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np

from nearband.arrays import ArrayGeometry, ObserverPoint, as_regime, gain_exact, gain_fresnel_sum
from nearband.cli import main
from nearband.constants import SPEED_OF_LIGHT_M_S as C
from nearband.fresnel import fresnel_cs, gain_closed_form
from nearband.oracle import quadrature_cs
from nearband.regimes import (
    band_distance,
    effective_rayleigh_distance,
    fraunhofer_distance,
    gamma_from_regime,
    product_max,
)
from nearband.verify import (
    BOUNDARY_REL_TOL,
    EXACT_VS_SUM_TOL,
    FRAUNHOFER_ANCHOR_M,
    FRAUNHOFER_TOL_M,
    PRODUCT_MAX_ANCHORS,
    PRODUCT_MAX_TOL,
    sum_vs_closed_tol,
)

from _oracles import random_fresnel_configs

_DB = lambda db: 10.0 ** (db / 10.0)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


def test_criterion_1_fresnel_oracle():
    rng = np.random.default_rng(1001)
    xs = rng.uniform(-30.0, 30.0, 1000)
    t0 = time.perf_counter()
    qc, qs = quadrature_cs(xs)
    c, s = fresnel_cs(xs)
    err_c = float(np.abs(c - qc).max())
    err_s = float(np.abs(s - qs).max())
    elapsed = time.perf_counter() - t0
    ok = err_c <= 1e-9 and err_s <= 1e-9 and elapsed < 5.0
    assert _verdict(1, ok, f"1000-point quadrature match |dC|={err_c:.2e} "
                           f"|dS|={err_s:.2e} (tol 1e-9), {elapsed:.2f} s < 5 s")


def test_criterion_2_contour_constants():
    product_max.cache_clear()
    t0 = time.perf_counter()
    pm2 = product_max(_DB(-2.0))
    t1 = time.perf_counter()
    pm1 = product_max(_DB(-1.0))
    t2 = time.perf_counter()
    want2, want1 = PRODUCT_MAX_ANCHORS[-2.0], PRODUCT_MAX_ANCHORS[-1.0]
    ok = (abs(pm2 - want2) <= PRODUCT_MAX_TOL and abs(pm1 - want1) <= PRODUCT_MAX_TOL
          and (t1 - t0) < 2.0 and (t2 - t1) < 2.0)
    assert _verdict(2, ok, f"product_max(-2dB)={pm2:.5f} ({want2}+-{PRODUCT_MAX_TOL}, "
                           f"{t1-t0:.2f} s), product_max(-1dB)={pm1:.5f} "
                           f"({want1}+-{PRODUCT_MAX_TOL}, {t2-t1:.2f} s)")


def test_criterion_3_fraunhofer_anchor():
    d_fa = fraunhofer_distance(64.0, C / 28e9)
    ok = abs(d_fa - FRAUNHOFER_ANCHOR_M) <= FRAUNHOFER_TOL_M
    assert _verdict(3, ok, f"d_FA(N=128, dbar=0.5, 28 GHz) = {d_fa:.3f} m "
                           f"({FRAUNHOFER_ANCHOR_M} +- {FRAUNHOFER_TOL_M})")


def test_criterion_4_rayleigh_consistency():
    worst = 0.0
    for fc in (28e9, 39e9):
        lam = C / fc
        for n in (64, 128):
            lbar = n * 0.5
            for theta_deg in (0.0, 30.0, 60.0):
                theta = math.radians(theta_deg)
                got = band_distance(0.0, fc, 0.95, lbar * lam, theta)
                want = effective_rayleigh_distance(theta, lbar, lam)
                worst = max(worst, abs(got - want) / want)
    ok = worst <= BOUNDARY_REL_TOL
    assert _verdict(4, ok, f"band_distance(f=0, tau=0.95) vs 0.367 cos^2 * 2 lbar^2 lam: "
                           f"worst rel err {worst:.4%} (tol {BOUNDARY_REL_TOL:.0%})")


def test_criterion_5_fraunhofer_consistency():
    worst = 0.0
    for fc in (28e9, 39e9):
        lam = C / fc
        for n in (64, 128):
            lbar = n * 0.5
            got = band_distance(0.0, fc, 0.99317, lbar * lam, 0.0)
            want = fraunhofer_distance(lbar, lam)
            worst = max(worst, abs(got - want) / want)
    ok = worst <= BOUNDARY_REL_TOL
    assert _verdict(5, ok, f"band_distance(f=0, tau=0.99317) vs 2 lbar^2 lam: "
                           f"worst rel err {worst:.4%} (tol {BOUNDARY_REL_TOL:.0%})")


def test_criterion_6_band_shape_and_divergence():
    fc = 39e9
    lam = C / fc
    lbar = 64 * 0.5
    aperture = lbar * lam
    theta = math.radians(60.0)
    tau = _DB(-1.0)
    b_max = abs(2.0 * C * product_max(tau) / (aperture * math.sin(theta)))
    fs = np.linspace(0.0, 0.98 * b_max / 2.0, 64)
    dist = np.array([band_distance(float(f), fc, tau, aperture, theta) for f in fs])
    finite = np.isfinite(dist).all()
    # allow the 1e-6 relative bisection tolerance when comparing neighbours
    nondecreasing = bool(np.all(dist[1:] >= dist[:-1] * (1.0 - 3e-6)))
    minimal_at_zero = dist[0] == dist.min()
    diverged = all(
        math.isinf(band_distance(k * b_max / 2.0, fc, tau, aperture, theta))
        for k in (1.02, 1.2, 1.8)
    )
    ok = finite and nondecreasing and minimal_at_zero and diverged
    assert _verdict(6, ok, f"band_distance nondecreasing on 64-point |f| grid up to "
                           f"0.98*Bmax/2 (Bmax={b_max/1e9:.3f} GHz), min at f=0 "
                           f"({dist[0]:.3f} m), inf sentinel past Bmax/2")


def test_criterion_7_consistency_chain():
    rng = np.random.default_rng(2024)
    worst_exact = 0.0
    worst_closed = 0.0
    ok = True
    for n, dbar, fc, rbar, theta, fbar in random_fresnel_configs(rng, 200):
        lam = C / fc
        geom = ArrayGeometry(n, dbar * lam, fc)
        pt = ObserverPoint(rbar * lam, theta)
        regime = as_regime(geom, pt, fbar * fc)
        exact = gain_exact(geom, pt, "nf_wb", fbar * fc)
        approx = gain_fresnel_sum(regime, n)
        closed = gain_closed_form(*gamma_from_regime(regime))
        worst_exact = max(worst_exact, abs(exact - approx))
        worst_closed = max(worst_closed, abs(approx - closed))
        ok = ok and abs(exact - approx) <= EXACT_VS_SUM_TOL \
            and abs(approx - closed) <= sum_vs_closed_tol(n)
    assert _verdict(7, ok, f"200 Fresnel-region configs (N >= 128): "
                           f"max|exact-sum|={worst_exact:.4f} (tol {EXACT_VS_SUM_TOL}), "
                           f"max|sum-closed|={worst_closed:.4f} (tol max(0.02, 5/N))")


def test_criterion_8_carrier_invariance():
    rng = np.random.default_rng(515)
    ok = True
    for _ in range(50):
        n = int(rng.choice([64, 128, 256]))
        dbar = float(rng.uniform(0.25, 0.5))
        lbar = n * dbar
        fbar = float(rng.uniform(-0.05, 0.05))
        rbar = float(2.0 * lbar**1.5 * 10 ** rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(-1.2, 1.2))
        # the same normalized tuple realizes fc and 10 fc physically: the
        # implied ranges r = rbar * lambda_c differ by 10x while every input
        # the gain consumes is identical
        from nearband.regimes import Regime
        reg_at_fc = Regime(fbar, rbar, dbar, lbar, theta)
        reg_at_10fc = Regime(fbar, rbar, dbar, lbar, theta)
        ok = ok and gain_fresnel_sum(reg_at_fc, n) == gain_fresnel_sum(reg_at_10fc, n)
    assert _verdict(8, ok, "50 normalized-parameter pairs at fc vs 10*fc give "
                           "bit-identical quadratic-phase gains")


def test_criterion_9_sandwich_relation():
    values = [2.0 * product_max(_DB(db)) for db in (-2.0, -1.5, -1.0)]
    in_range = all(0.73 - 0.02 <= v <= 1.0 + 0.02 for v in values)
    monotone = values[0] >= values[1] >= values[2]
    ok = in_range and monotone
    assert _verdict(9, ok, f"|2 product_max| for tau=-2,-1.5,-1 dB = "
                           f"{[round(v, 4) for v in values]} within [0.71, 1.02], monotone")


def test_criterion_10_bmax_scaling_and_reproducibility(tmp_path):
    doc = """\
[scenario]
schema_version = 1
preset = n261
n_antennas = 64
tau_db = -1

[sweep]
axis = tau_db
min = -3
max = -0.1
points = 25
"""
    cfg = tmp_path / "fig4.cfg"
    cfg.write_text(doc)
    out1, out2 = tmp_path / "fig4a.csv", tmp_path / "fig4b.csv"
    assert main(["bmax-curve", "--scenario", str(cfg), "--out", str(out1)]) == 0
    product_max.cache_clear()
    assert main(["bmax-curve", "--scenario", str(cfg), "--out", str(out2)]) == 0
    reproducible = out1.read_bytes() == out2.read_bytes()

    rows = [line.split(",") for line in out1.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    by_tau = {}
    for tau_db, aperture_m, carrier_hz, bmax_hz in rows:
        if carrier_hz == "28000000000.0":
            by_tau.setdefault(tau_db, {})[aperture_m] = float(bmax_hz)
    exact_double = True
    for tau_db, entry in by_tau.items():
        small, large = sorted(entry, key=float)
        exact_double = exact_double and entry[small] == 2.0 * entry[large]
    ok = reproducible and exact_double and len(by_tau) == 25
    assert _verdict(10, ok, f"(0.34 m, 28 GHz) bmax is exactly 2x (0.68 m, 28 GHz) at all "
                            f"{len(by_tau)} sweep points; CSV byte-identical across runs")
