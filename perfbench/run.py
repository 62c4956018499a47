#!/usr/bin/env python3
"""nearband benchmark: one command, three workloads, seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE NEW

Workloads (see perfbench/README.md for why each exists):

* ``solver-sweeps`` -- README-style sessions of ``contours``,
  ``bmax-curve``, ``band-map`` and ``verify``, each a fresh
  ``python -m nearband.cli`` process;
* ``surface-grid`` -- a 401 x 300 ``gain-surface`` and 6 x 15000-point
  ``gain-cuts``, both with ``--svg``;
* ``library-loop`` -- a warm in-process loop over seeded configurations
  (perfbench/libloop.py).

Load is a closed loop with one client: each job starts when the previous
one ends.  Children run with ``src`` on PYTHONPATH and BLAS/OpenMP thread
counts of 1.  Every output is checked after the measured window.

``session_s`` is scaled to a reference machine speed measured next to
each job (speed.py); the raw wall times stay in the result as detail.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the runner alternates untraced and
traced passes over a fixed job list and reports the per-layer metrics.
The full result, with provenance and sample counts, goes to
perfbench/_results/ (or ``--out``).  ``--compare`` reads two result
files (or directories of them) and prints medians, quartiles, ratios and
verdicts against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import compare
import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("solver-sweeps", "surface-grid", "library-loop")

JOB_TIMEOUT_S = 150.0
SETUP_PROBES = 7
LIB_WORKERS = 3
TRACE_LIB_CONFIGS = 400

KIND_METRIC = {"contours": "contours_s", "bmax-curve": "bmax_curve_s",
               "band-map": "band_map_s", "verify": "verify_s",
               "gain-surface": "gain_surface_s", "gain-cuts": "gain_cuts_s"}
# detail metrics printed and compared besides BENCHMARK.json's end_to_end;
# each takes the bound of the end-to-end metric it rolls up into
DETAIL = {**{m: ("s", "lower", "session_s") for m in KIND_METRIC.values()},
          "lib_configs_per_s": ("1/s", "higher", "session_s"),
          "lib_config_p50_ms": ("ms", "lower", "session_s"),
          "lib_config_p99_ms": ("ms", "lower", "session_s"),
          "session_wall_s": ("s", "lower", "session_s"),
          "failed_frac": ("1", "lower", None)}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_job(argv: list, work: Path, label: str) -> dict:
    """Run one child to completion; wall time from spawn to reap, peak RSS
    from the child's own rusage."""
    out_path, err_path = work / f"{label}.stdout", work / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"start": start, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rc": proc.returncode, "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace")}


def cli_argv(kind: str, job: dict, scenario: Path, out: Path, trace_to: Path | None) -> list:
    if trace_to is None:
        head = [sys.executable, "-m", "nearband.cli"]
    else:
        head = [sys.executable, str(HERE / "traced_cli.py"), str(trace_to)]
    if job["args"] is None:
        return head + [kind]
    return head + [kind, "--scenario", str(scenario), "--out", str(out), *job["args"]]


def measure_setup(work: Path) -> list:
    """Fresh interpreter until ``import nearband`` returns, SETUP_PROBES
    times after one untimed import that fills the bytecode cache."""
    code = "import time, nearband; print(repr(time.monotonic()))"
    samples = []
    for k in range(SETUP_PROBES + 1):
        res = run_job([sys.executable, "-c", code], work, f"setup{k}")
        if res["rc"] != 0:
            fail(f"import nearband failed:\n{res['stderr']}")
        if k:
            samples.append(float(res["stdout"].strip()) - res["start"])
    return samples


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def run_session(sess: dict, work: Path, tag: str, traced: bool = False) -> list:
    scenario = work / f"{tag}.cfg"
    scenario.write_text(sess["scenario"], encoding="utf-8")
    return [run_cli_job(sess, job, work, tag, traced) for job in sess["jobs"]]


def run_cli_job(sess: dict, job: dict, work: Path, tag: str, traced: bool) -> dict:
    kind = job["kind"]
    out = work / f"{tag}-{kind}.csv"
    trace_to = work / f"{tag}-{kind}.trace.json" if traced else None
    res = run_job(cli_argv(kind, job, work / f"{tag}.cfg", out, trace_to), work, f"{tag}-{kind}")
    res.update(kind=kind, out=out, params=sess["params"], session=tag, label=f"{tag}/{kind}")
    if traced:
        res["trace"] = json.loads(trace_to.read_text()) if trace_to.exists() else {}
    return res


def check_cli(results: list, seed: int) -> list:
    """(label, reasons) for every job whose output is wrong."""
    rng = random.Random(f"check:{seed}")
    failures, products = [], {}
    for res in results:
        kind, out, p = res["kind"], res["out"], res["params"]
        if res["rc"] != 0:
            reasons = [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
        elif kind == "verify":
            reasons = checks.check_verify(res["stdout"])
        elif kind == "contours":
            reasons = checks.check_contours(out, p, rng)
            if not reasons:
                products[res["session"]] = checks.contour_products(out)
        elif kind == "bmax-curve":
            reasons = checks.check_bmax_curve(out, p)
        elif kind == "band-map":
            reasons = checks.check_band_map(out, p, products.get(res["session"], {}))
        elif kind == "gain-surface":
            reasons = checks.check_gain_surface(out, p, rng) + checks.check_svg(out.with_suffix(".svg"))
        else:
            reasons = checks.check_gain_cuts(out, p, rng) + checks.check_svg(out.with_suffix(".svg"))
        if reasons:
            failures.append({"job": res["label"], "reasons": reasons})
    return failures


def cli_measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    setup = measure_setup(work)
    deadline = time.monotonic() + seconds
    results, index, probes = [], 0, [speed.probe()]
    while index == 0 or time.monotonic() < deadline:
        sess = gen.SESSIONS[workload](seed, index)
        (work / f"s{index}.cfg").write_text(sess["scenario"], encoding="utf-8")
        for job in sess["jobs"]:
            # the first session always completes, so every kind has a sample
            if index and time.monotonic() >= deadline:
                break
            res = run_cli_job(sess, job, work, f"s{index}", False)
            probes.append(speed.probe())
            res["scaled"] = speed.scale(res["wall"], probes[-2], probes[-1])
            results.append(res)
        index += 1
    failures = check_cli(results, seed)
    walls, scaled = {}, {}
    for res in results:
        walls.setdefault(res["kind"], []).append(res["wall"])
        scaled.setdefault(res["kind"], []).append(res["scaled"])
    m = {"setup_s": sample_metric(setup, "s")}
    # share of job wall time spent on a CPU; low values flag outside contention
    m["cpu_per_wall"] = sample_metric([r["cpu"] / r["wall"] for r in results], "1")
    m["speed_probe_s"] = sample_metric(probes, "s")
    for kind, samples in walls.items():
        m[KIND_METRIC[kind]] = sample_metric(samples, "s")
    n = min(len(s) for s in walls.values())
    m["session_s"] = {"value": sum(statistics.median(s) for s in scaled.values()),
                      "unit": "s", "n": n}
    m["session_wall_s"] = {"value": sum(m[KIND_METRIC[k]]["value"] for k in walls),
                           "unit": "s", "n": n}
    m["peak_rss_mb"] = {"value": max(r["rss_mb"] for r in results), "unit": "MB",
                        "n": len(results)}
    return {"metrics": m, "attempted": len(results), "failures": failures}


def cli_trace(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Alternate untraced and traced passes over session 0 until the time
    is up; counts must repeat exactly from pass to pass."""
    sess = gen.SESSIONS[workload](seed, 0)
    deadline = time.monotonic() + seconds
    passes, failures, attempted = [], [], 0
    while not passes or time.monotonic() < deadline:
        k = len(passes)
        # alternate which side runs first so that drift does not bias overhead
        runs = {t: run_session(sess, work, f"{'t' if t else 'u'}{k}", traced=t)
                for t in (k % 2 == 1, k % 2 == 0)}
        plain, traced = runs[False], runs[True]
        attempted += len(plain) + len(traced)
        failures += check_cli(plain, seed) + check_cli(traced, seed)
        for a, b in zip(plain, traced):
            if a["out"].exists() and b["out"].exists() \
                    and a["out"].read_bytes() != b["out"].read_bytes():
                failures.append({"job": b["label"], "reasons": ["output differs when traced"]})
        passes.append({"plain_s": sum(r["wall"] for r in plain),
                       "traced_s": sum(r["wall"] for r in traced),
                       "summary": merge_summaries(r["trace"] for r in traced)})
    return layer_result(passes, attempted, failures)


# ---------------------------------------------------------------------------
# library loop
# ---------------------------------------------------------------------------

def lib_worker(seed: int, stream: int, budget: list, work: Path, trace: bool) -> dict:
    out = work / f"lib-{stream}-{int(trace)}.json"
    argv = [sys.executable, str(HERE / "libloop.py"), "--seed", str(seed),
            "--stream", str(stream), *budget, "--out", str(out)] + (["--trace"] if trace else [])
    res = run_job(argv, work, f"lib-{stream}-{int(trace)}")
    if res["rc"] != 0:
        return {**res, "data": None}
    return {**res, "data": json.loads(out.read_text())}


def check_lib(res: dict, label: str) -> tuple:
    """(attempted, failures) for one worker."""
    if res["data"] is None:
        return 1, [{"job": label, "reasons": [f"exit code {res['rc']}: "
                                              f"{res['stderr'].strip()[-300:]}"]}]
    data = res["data"]
    failures = []
    for k, c in enumerate(data["configs"]):
        reasons = [c["error"]] if "error" in c else checks.check_library_config(c)
        if reasons:
            failures.append({"job": f"{label}/config {k}", "reasons": reasons})
    return len(data["configs"]), failures


def lib_measure(seed: int, seconds: float, work: Path) -> dict:
    workers, attempted, failures = [], 0, []
    for stream in range(LIB_WORKERS):
        res = lib_worker(seed, stream, ["--seconds", repr(seconds / LIB_WORKERS)], work, False)
        n, bad = check_lib(res, f"worker {stream}")
        attempted += n
        failures += bad
        workers.append(res)
    done = [w for w in workers if w["data"] is not None]
    if not done:
        fail("every library-loop worker failed:\n" + workers[0]["stderr"])
    lat = [x for w in done for x in w["data"]["latencies"]]
    chunks = [x for w in done for x in w["data"]["chunks"]]
    probes = [w["data"]["probes"] for w in done]
    scaled = [speed.scale(c, p[i], p[i + 1]) for w, p in zip(done, probes)
              for i, c in enumerate(w["data"]["chunks"])]
    loop_s = sum(w["data"]["loop_s"] for w in done)
    m = {
        "setup_s": sample_metric([w["data"]["setup_end"] - w["start"] for w in done], "s"),
        # a session is a batch of LIB_CHUNK configurations
        "session_s": sample_metric(scaled, "s") if scaled else
        {"value": gen.LIB_CHUNK * statistics.fmean(lat), "unit": "s", "n": len(lat)},
        "session_wall_s": sample_metric(chunks, "s") if chunks else
        {"value": gen.LIB_CHUNK * statistics.fmean(lat), "unit": "s", "n": len(lat)},
        "speed_probe_s": sample_metric([x for p in probes for x in p], "s"),
        "peak_rss_mb": {"value": max(w["rss_mb"] for w in workers), "unit": "MB",
                        "n": len(workers)},
        "cpu_per_wall": sample_metric([w["cpu"] / w["wall"] for w in workers], "1"),
        "lib_configs_per_s": {"value": len(lat) / loop_s, "unit": "1/s", "n": len(lat)},
        "lib_config_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms", "n": len(lat)},
        "lib_config_p99_ms": {"value": 1e3 * statistics.quantiles(lat, n=100)[98],
                              "unit": "ms", "n": len(lat)},
    }
    return {"metrics": m, "attempted": attempted, "failures": failures}


def lib_trace(seed: int, seconds: float, work: Path) -> dict:
    budget = ["--configs", str(TRACE_LIB_CONFIGS)]
    deadline = time.monotonic() + seconds
    passes, failures, attempted = [], [], 0
    while not passes or time.monotonic() < deadline:
        first_traced = len(passes) % 2 == 1
        runs = {t: lib_worker(seed, 0, budget, work, t) for t in (first_traced, not first_traced)}
        plain, traced = runs[False], runs[True]
        for res, label in ((plain, "untraced"), (traced, "traced")):
            n, bad = check_lib(res, f"{label} pass {len(passes)}")
            attempted += n
            failures += bad
        if traced["data"] is None:
            break
        if plain["data"] is not None and plain["data"]["configs"] != traced["data"]["configs"]:
            failures.append({"job": f"traced pass {len(passes)}",
                             "reasons": ["results differ when traced"]})
        passes.append({"plain_s": plain["wall"], "traced_s": traced["wall"],
                       "summary": traced["data"]["trace"]})
    return layer_result(passes, attempted, failures)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def merge_summaries(summaries) -> dict:
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value
    return out


def counts_of(summary: dict) -> dict:
    return {name: {k: v for k, v in entry.items() if not k.endswith("_s")}
            for name, entry in summary.items()}


def layer_result(passes: list, attempted: int, failures: list) -> dict:
    if not passes:
        return {"metrics": {}, "attempted": max(attempted, 1), "failures": failures}
    first = counts_of(passes[0]["summary"])
    if any(counts_of(p["summary"]) != first for p in passes[1:]):
        failures.append({"job": "trace", "reasons": ["per-layer counts differ between passes"]})
    metrics = {}
    for entry in spec()["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name == "trace.overhead_s":
            value = statistics.median(p["traced_s"] for p in passes) \
                - statistics.median(p["plain_s"] for p in passes)
        else:
            layer, field = name.rsplit(".", 1)
            self_s = statistics.median(p["summary"].get(layer, {}).get("self_s", 0.0)
                                       for p in passes)
            counts = first.get(layer, {})
            if field == "s":
                value = self_s
            elif field == "ns_per_point":
                value = 1e9 * self_s / counts["points"] if counts.get("points") else 0.0
            else:
                value = counts.get(field, 0)
        metrics[name] = {"value": value, "unit": unit, "n": len(passes)}
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "passes": [{k: p[k] for k in ("plain_s", "traced_s")} for p in passes]}


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def sample_metric(samples: list, unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
            "samples": samples}


def provenance(seed: int) -> dict:
    sha = "unknown"  # a checkout that is not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nearband").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "seed": seed,
            "threads": {var: "1" for var in THREAD_VARS}}


def report(result: dict) -> None:
    print(f"nearband benchmark: workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} seconds={result['seconds']}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print(f"{'metric':40s} {'value':>14s} {'unit':6s} {'n':>6s}")
    for name, m in {**result["metrics"], **result["detail"]}.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} {m['n']:6d}")
    failures = result["failures"]
    print(f"failed jobs: {len(failures)}" + ("" if failures else " (none)"))
    for f in failures[:50]:
        print(f"  {f['job']}: " + "; ".join(f["reasons"]))


def run(args) -> None:
    if not (SRC / "nearband" / "__init__.py").is_file():
        fail(f"no nearband sources under {SRC}; run from a checkout of the repository")
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            out = lib_trace(args.seed, args.seconds, work) if args.workload == "library-loop" \
                else cli_trace(args.workload, args.seed, args.seconds, work)
        else:
            out = lib_measure(args.seed, args.seconds, work) if args.workload == "library-loop" \
                else cli_measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = [e["name"] for e in spec()["per_layer" if args.trace else "end_to_end"]]
    measured = out["metrics"]
    failed = len({f["job"] for f in out["failures"]})
    attempted = max(out["attempted"], 1)
    detail = {k: v for k, v in measured.items() if k not in declared}
    if not args.trace:
        detail["failed_frac"] = {"value": failed / attempted, "unit": "1", "n": attempted}
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(args.seed),
        "correct": not out["failures"] and all(n in measured for n in declared),
        "attempted": attempted, "failed": failed, "failures": out["failures"],
        "metrics": {n: measured[n] for n in declared if n in measured},
        "detail": detail, "passes": out.get("passes"),
    }
    path = Path(args.out) if args.out else \
        HERE / "_results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    print(f"result written to {path}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                                  for n, m in result["metrics"].items()}}))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result file (default perfbench/_results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two result files or directories of them")
    args = ap.parse_args(argv)
    if args.compare:
        compare.main(args.compare, spec(), DETAIL)
    elif args.workload is None:
        ap.error("--workload is required unless --compare is given")
    else:
        run(args)


if __name__ == "__main__":
    main()
