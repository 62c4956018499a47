"""Tests of the benchmark itself: input generation, output checks, tracing.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import compare
import gen
from trace_hooks import Tracer

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


def _env():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _take(it, n):
    return [next(it) for _ in range(n)]


@pytest.mark.parametrize("workload", sorted(gen.SESSIONS))
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    make = gen.SESSIONS[workload]
    first = [make(7, i) for i in range(3)]
    assert first == [make(7, i) for i in range(3)]
    assert first != [make(8, i) for i in range(3)]
    assert first[0] != first[1]


def test_library_stream_repeats_per_seed():
    assert _take(gen.library_configs(7, 0), 50) == _take(gen.library_configs(7, 0), 50)
    assert _take(gen.library_configs(7, 0), 50) != _take(gen.library_configs(8, 0), 50)
    assert _take(gen.library_configs(7, 0), 50) != _take(gen.library_configs(7, 1), 50)


def _cli(tmp_path, kind, scenario, *extra):
    from nearband.cli import main

    cfg = tmp_path / "s.cfg"
    cfg.write_text(scenario)
    out = tmp_path / f"{kind}.csv"
    assert main([kind, "--scenario", str(cfg), "--out", str(out), *extra]) == 0
    return out


def _rewrite_cell(path, row, col, new):
    lines = path.read_text().split("\n")
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = lines[body[row]].split(",")
    old = cells[col]
    cells[col] = new(old)
    lines[body[row]] = ",".join(cells)
    bad = path.with_name("bad-" + path.name)
    bad.write_text("\n".join(lines))
    return bad


def test_checker_rejects_one_corrupted_cell(tmp_path):
    p = {"gamma1_max": 3.0, "gamma2_max": 2.5, "gamma1_points": 21, "gamma2_points": 10}
    out = _cli(tmp_path, "gain-surface", "[scenario]\nschema_version = 1\npreset = n260\n"
               "n_antennas = 64\ntau_db = -1\n[grid]\n"
               + "".join(f"{k} = {v}\n" for k, v in p.items()))
    rng = random.Random(0)
    assert checks.check_gain_surface(out, p, random.Random(1)) == []
    for _ in range(12):
        row, col = rng.randrange(210), rng.randrange(3)
        bad = _rewrite_cell(out, row, col, lambda c: repr(float(c) * (1 - 1e-6) - 1e-6))
        assert checks.check_gain_surface(bad, p, random.Random(1)), (row, col)
    bad = _rewrite_cell(out, 5, 2, lambda c: "x" + c)
    assert checks.check_gain_surface(bad, p, random.Random(1))


def _band_case(tmp_path):
    taus = [-0.2, -1.0, -2.0]
    fc, n, dbar, theta = 39e9, 64, 0.5, 60.0
    reach = 6e8
    p = {"carrier_hz": fc, "n_antennas": n, "dbar": dbar, "theta_deg": theta,
         "taus_db": taus, "band_sweep": [-reach, reach, 9]}
    out = _cli(tmp_path, "band-map",
               f"[scenario]\nschema_version = 1\npreset = n260\nn_antennas = {n}\n"
               f"tau_db = -1\ndbar = {dbar}\ntheta_deg = {theta}\n"
               f"tau_list_db = -0.2, -1, -2\n[sweep]\naxis = f_hz\nmin = {-reach!r}\n"
               f"max = {reach!r}\npoints = 9\n")
    from nearband import product_max

    products = {t: product_max(gen.db_to_linear(t)) for t in taus}
    return out, p, products


def test_checker_rejects_wrong_inf_sentinel(tmp_path):
    out, p, products = _band_case(tmp_path)
    assert checks.check_band_map(out, p, products) == []
    rows = checks.read_rows(out, ("f_hz", "tau_db", "band_m", "d_erd_m", "d_fa_m"))
    inf_row = next(k for k, r in enumerate(rows) if r[2] == float("inf"))
    finite_row = next(k for k, r in enumerate(rows) if r[2] != float("inf"))
    for row, new in ((inf_row, "1e+308"), (inf_row, "Infinity"), (inf_row, "1.5"),
                     (finite_row, "inf")):
        bad = _rewrite_cell(out, row, 2, lambda c: new)
        assert checks.check_band_map(bad, p, products), (row, new)


@pytest.mark.xfail(strict=True, reason="below about -2.83 dB product_max exceeds the far-field "
                   "root, so band_distance is inf for offsets just under B_max/2")
def test_band_map_inf_edge_matches_bmax_at_minus_3_db(tmp_path):
    from nearband import product_max

    fc, n, dbar, theta, tau_db = 39e9, 64, 0.5, 60.0, -3.0
    pm = product_max(gen.db_to_linear(tau_db))
    half = pm * fc / (n * dbar * math.sin(math.radians(theta)))
    lo, hi = repr(0.99 * half), repr(0.999 * half)
    p = {"carrier_hz": fc, "n_antennas": n, "dbar": dbar, "theta_deg": theta,
         "taus_db": [tau_db], "band_sweep": [float(lo), float(hi), 5]}
    out = _cli(tmp_path, "band-map",
               f"[scenario]\nschema_version = 1\npreset = n260\nn_antennas = {n}\n"
               f"tau_db = {tau_db}\ndbar = {dbar}\ntheta_deg = {theta}\n"
               f"[sweep]\naxis = f_hz\nmin = {lo}\nmax = {hi}\npoints = 5\n")
    assert checks.check_band_map(out, p, {tau_db: pm}) == []


def test_traced_self_times_nest_inside_parents():
    tracer = Tracer()

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = tracer.wrap("leaf", lambda: spin(0.002))

    def middle_fn():
        spin(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_fn)
    root = tracer.wrap("root", lambda: (middle(), leaf(), spin(0.001)))
    root()

    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {"root": 1, "middle": 1, "leaf": 3}
    for entry in summary.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"]
    assert summary["leaf"]["self_s"] == pytest.approx(summary["leaf"]["total_s"])
    root_idx = next(i for i, span in enumerate(tracer.spans) if span[0] == "root")
    children = sum(end - start for _, start, end, parent in tracer.spans if parent == root_idx)
    assert summary["root"]["self_s"] == pytest.approx(summary["root"]["total_s"] - children)
    assert summary["root"]["self_s"] >= 0.001


def _counts(summary):
    return {n: {k: v for k, v in e.items() if not k.endswith("_s")} for n, e in summary.items()}


def test_per_layer_counts_repeat_for_a_fixed_seed(tmp_path):
    sess = gen.solver_session(3, 0)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(sess["scenario"])
    traces = []
    for k in range(2):
        trace = tmp_path / f"band{k}.json"
        subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(trace), "band-map",
                        "--scenario", str(cfg), "--out", str(tmp_path / f"b{k}.csv")],
                       env=_env(), check=True, capture_output=True, timeout=120)
        out = tmp_path / f"lib{k}.json"
        subprocess.run([sys.executable, str(BENCH / "libloop.py"), "--seed", "3", "--stream",
                        "0", "--configs", "25", "--out", str(out), "--trace"],
                       env=_env(), check=True, capture_output=True, timeout=120)
        traces.append((json.loads(trace.read_text()), json.loads(out.read_text())["trace"]))
    (band_a, lib_a), (band_b, lib_b) = traces
    assert _counts(band_a) == _counts(band_b)
    assert _counts(lib_a) == _counts(lib_b)
    assert band_a["regimes.band_distance"]["calls"] == 3 * gen.BAND_POINTS
    assert lib_a["arrays.gain_exact"]["calls"] == 25 + 8
    assert lib_a["regimes.product_max"]["misses"] == len(gen.LIB_TAUS_DB)


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99], [1.05, 1.06, 1.04], "lower", 0.1) == "within bound"
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.1) == "worse"
    assert compare.verdict([1.0, 1.01, 0.99], [0.5, 0.51, 0.49], "lower", 0.1) == "better"
    assert compare.verdict([1.0, 2.0, 0.5, 1.5], [1.0, 1.1, 0.9], "lower", 0.1) == "unresolved"
    assert compare.verdict([100.0, 101.0], [90.0, 91.0], "higher", 0.15) == "within bound"
    assert compare.verdict([3, 3], [3, 3], "lower", None) == "same"
    assert compare.verdict([3, 3], [4, 4], "lower", None) == "changed"
