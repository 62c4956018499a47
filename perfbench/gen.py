"""Seeded input generators for the benchmark workloads.

Everything the program sees comes from here: scenario documents and CLI
argument lists for the CLI workloads, and the configuration stream for the
library loop.  The same seed always yields the same inputs; a different
seed yields different ones.  Work per session is held fixed (grid sizes,
sweep lengths, number of thresholds) so that seeds vary the values the
program sees, not how much it has to do.
"""

from __future__ import annotations

import math
import random

SPEED_OF_LIGHT_M_S = 299_792_458.0
PRESETS = {"n260": 39e9, "n261": 28e9}
ANCHORS_DB = {-1.0: 0.3654, -2.0: 0.5044}

# bmax-curve: the README threshold range, at a fixed number of thresholds
BMAX_SWEEP = (-3.0, -0.1, 12)
# band-map: points per sweep, and how far past the widest +-B_max/2 it reaches
BAND_POINTS = 33
BAND_REACH = 1.4
# surface-grid sizes (1.2e5 surface cells, 6 cuts of 15000 points)
SURFACE_POINTS = (401, 300)
CUT_POINTS = 15_000
# library loop: thresholds come from a small fixed set, so product_max is a
# cache hit after warm-up; offsets reach past B_max/2 by up to LIB_REACH
LIB_TAUS_DB = (-0.2, -0.5, -1.0, -2.0)
LIB_REACH = (0.2, 2.6)
LIB_CHUNK = 250  # configurations per library-loop session


def far_field_product(tau_linear: float) -> float:
    """Root p of sin(pi p) / (pi p) = tau on (0, 1): where the gain of an
    offset falls below tau as the distance grows without bound."""
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.sin(math.pi * mid) / (math.pi * mid) >= tau_linear:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def db_to_linear(tau_db: float) -> float:
    return 10.0 ** (tau_db / 10.0)


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _scenario_text(sections: dict) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out.extend(f"{k} = {v}" for k, v in items.items())
        out.append("")
    return "\n".join(out)


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def solver_session(seed: int, index: int) -> dict:
    """One README-style session: contours, bmax-curve, band-map and verify.

    Thresholds sit near the README levels (-0.2, -1, -2 dB); the -1/-2 dB
    anchors appear exactly in about half of the sessions each.
    """
    rng = _rng("solver-sweeps", seed, index)
    preset = rng.choice(sorted(PRESETS))
    fc = PRESETS[preset]
    n = rng.randrange(64, 257, 16)
    dbar = round(rng.uniform(0.4, 0.5), 4)
    theta = round(rng.uniform(20.0, 75.0), 3)
    theta_worst = round(rng.uniform(30.0, 75.0), 3)
    taus = (
        round(rng.uniform(-0.35, -0.1), 3),
        -1.0 if rng.random() < 0.5 else round(rng.uniform(-1.3, -0.7), 3),
        -2.0 if rng.random() < 0.5 else round(rng.uniform(-2.4, -1.6), 3),
    )
    # sweep reaches BAND_REACH times the widest half-band, so every
    # threshold has both finite and inf rows
    lbar = n * dbar
    half_band = max(far_field_product(db_to_linear(t)) for t in taus) * fc \
        / (lbar * abs(math.sin(math.radians(theta))))
    reach = float(f"{BAND_REACH * half_band:.6e}")
    lo, hi, pts = BMAX_SWEEP
    scenario = {
        "scenario": {"schema_version": 1, "preset": preset, "n_antennas": n,
                     "tau_db": taus[1], "dbar": dbar, "theta_deg": theta,
                     "theta_worst_deg": theta_worst, "tau_list_db": _fmt(taus)},
        "sweep": {"axis": "f_hz", "min": repr(-reach), "max": repr(reach),
                  "points": BAND_POINTS, "scale": "linear"},
    }
    bmax_set = ["sweep.axis=tau_db", f"sweep.min={lo!r}", f"sweep.max={hi!r}",
                f"sweep.points={pts}"]
    return {
        "scenario": _scenario_text(scenario),
        "params": {"carrier_hz": fc, "n_antennas": n, "dbar": dbar, "theta_deg": theta,
                   "theta_worst_deg": theta_worst, "taus_db": list(taus),
                   "band_sweep": [-reach, reach, BAND_POINTS],
                   "bmax_sweep": [lo, hi, pts]},
        "jobs": [
            {"kind": "contours", "args": []},
            {"kind": "bmax-curve", "args": [a for s in bmax_set for a in ("--set", s)]},
            {"kind": "band-map", "args": []},
            {"kind": "verify", "args": None},
        ],
    }


def surface_session(seed: int, index: int) -> dict:
    """A large gain-surface grid and long gain cuts, both with --svg."""
    rng = _rng("surface-grid", seed, index)
    g1max = round(rng.uniform(2.0, 4.0), 3)
    g2max = round(rng.uniform(2.0, 4.0), 3)
    g1_values = tuple(sorted(round(rng.uniform(0.0, g1max), 3) for _ in range(3)))
    g2_values = tuple(sorted(round(rng.uniform(0.05, g2max), 3) for _ in range(3)))
    p1, p2 = SURFACE_POINTS
    scenario = {
        "scenario": {"schema_version": 1, "preset": rng.choice(sorted(PRESETS)),
                     "n_antennas": 64, "tau_db": -1},
        "grid": {"gamma1_max": g1max, "gamma2_max": g2max,
                 "gamma1_points": p1, "gamma2_points": p2},
        "cuts": {"gamma1_values": _fmt(g1_values), "gamma2_values": _fmt(g2_values),
                 "points": CUT_POINTS},
    }
    return {
        "scenario": _scenario_text(scenario),
        "params": {"gamma1_max": g1max, "gamma2_max": g2max, "gamma1_points": p1,
                   "gamma2_points": p2, "gamma1_values": list(g1_values),
                   "gamma2_values": list(g2_values), "cut_points": CUT_POINTS},
        "jobs": [
            {"kind": "gain-surface", "args": ["--svg"]},
            {"kind": "gain-cuts", "args": ["--svg"]},
        ],
    }


SESSIONS = {"solver-sweeps": solver_session, "surface-grid": surface_session}


def library_configs(seed: int, stream: int):
    """Endless seeded stream of library-loop configurations.

    N 64-1024, spacing 0.25-0.5 wavelengths, carrier 20-45 GHz, range 1-31x
    the Fresnel-region floor 2*lbar^1.5 wavelengths (as in ``verify``),
    offsets within +-5% of the carrier for the gain chain.  The band offset
    is a random multiple in LIB_REACH of the far-field half band, so about
    two thirds of ``band_distance`` calls return ``inf``.  |theta| stays at
    or above 0.1 rad so that offsets up to 2.6 B_max/2 stay below the
    carrier, which ``band_distance`` requires.
    """
    rng = _rng("library-loop", seed, stream)
    far_field = {t: far_field_product(db_to_linear(t)) for t in LIB_TAUS_DB}
    while True:
        n = rng.randint(64, 1024)
        dbar = rng.uniform(0.25, 0.5)
        fc = rng.uniform(20e9, 45e9)
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.2)
        lbar = n * dbar
        rbar = 2.0 * lbar ** 1.5 * 10.0 ** rng.uniform(0.0, 1.5)
        fbar = rng.uniform(-0.05, 0.05)
        tau_db = rng.choice(LIB_TAUS_DB)
        half_band = far_field[tau_db] * fc / (lbar * abs(math.sin(theta)))
        f_band = rng.choice((-1.0, 1.0)) * rng.uniform(*LIB_REACH) * half_band
        yield {"n": n, "dbar": dbar, "fc": fc, "theta": theta, "rbar": rbar,
               "fbar": fbar, "tau_db": tau_db, "f_band": f_band}
