"""Library-loop worker: a warm, in-process loop over seeded configurations.

Usage: python libloop.py --seed S --stream K (--seconds T | --configs N)
                         --out PATH [--trace]

After ``import nearband`` the worker warms up (product_max for every
threshold in the fixed set, then a few configurations), records the
monotonic clock, and times each configuration: gain_exact,
gain_fresnel_sum, a scalar gain_closed_form, bmax and band_distance.  It
stops after T seconds of loop time or N configurations and writes the
latencies and every result to PATH for checking outside the timed loop.
"""

import argparse
import json
import math
import time

import nearband as nb
import speed
from gen import LIB_CHUNK, LIB_TAUS_DB, SPEED_OF_LIGHT_M_S, db_to_linear, library_configs

WARM_CONFIGS = 8


def run_config(c: dict) -> dict:
    lam = SPEED_OF_LIGHT_M_S / c["fc"]
    geom = nb.ArrayGeometry(c["n"], c["dbar"] * lam, c["fc"])
    point = nb.ObserverPoint(c["rbar"] * lam, c["theta"])
    f = c["fbar"] * c["fc"]
    regime = nb.as_regime(geom, point, f)
    tau = db_to_linear(c["tau_db"])
    return {
        "exact": nb.gain_exact(geom, point, "nf_wb", f),
        "fsum": nb.gain_fresnel_sum(regime, c["n"]),
        "closed": nb.gain_closed_form(*nb.gamma_from_regime(regime)),
        "bmax": nb.bmax(geom.aperture_m, tau, c["theta"]),
        "band": nb.band_distance(c["f_band"], c["fc"], tau, geom.aperture_m, c["theta"]),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    budget = ap.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--configs", type=int)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    tracer = originals = None
    if args.trace:
        from trace_hooks import Tracer, finish, install
        tracer = Tracer()
        originals = install(tracer)

    for tau_db in LIB_TAUS_DB:
        nb.product_max(db_to_linear(tau_db))
    warm = library_configs(args.seed, f"warm-{args.stream}")
    for _ in range(WARM_CONFIGS):
        run_config(next(warm))
    setup_end = time.monotonic()

    configs, latencies, chunks, probes = [], [], [], [speed.probe()]
    stream = library_configs(args.seed, args.stream)
    loop_start = time.perf_counter()
    stop = loop_start + args.seconds if args.seconds is not None else math.inf
    chunk_s = 0.0
    while len(latencies) < (args.configs or math.inf) and time.perf_counter() < stop:
        c = next(stream)
        t0 = time.perf_counter()
        try:
            c.update(run_config(c))
        except Exception as exc:  # a failed configuration is counted, not fatal
            c["error"] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        latencies.append(dt)
        configs.append(c)
        chunk_s += dt
        if len(latencies) % LIB_CHUNK == 0:
            chunks.append(chunk_s)
            chunk_s = 0.0
            probes.append(speed.probe())
    loop_s = time.perf_counter() - loop_start

    result = {"setup_end": setup_end, "loop_s": loop_s, "latencies": latencies,
              "chunks": chunks, "probes": probes, "configs": configs,
              "trace": finish(tracer, originals) if tracer else None}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
