"""Compare two sets of benchmark results metric by metric.

Each side is a result file written by run.py or a directory of them; a
side with several files (runs of one commit) gives each metric a median
and quartiles over runs.  For every workload and metric the table shows
both medians and quartiles, the ratio NEW/BASE and a verdict:

* ``better``       -- NEW beats BASE by more than either side's quartile
                      spread (at least 3 runs a side), or every NEW run
                      beats every BASE run;
* ``within bound`` -- NEW is worse by no more than the bound;
* ``worse``        -- NEW is worse by more than the bound;
* ``unresolved``   -- a side's quartile spread exceeds the bound.

Bounds are BENCHMARK.json's; detail metrics take the bound of the
end-to-end metric they roll up into.  Per-layer metrics have no bound:
counts are reported ``same`` or ``changed``; per-layer times and
diagnostics such as ``cpu_per_wall`` carry no verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(path: str) -> list:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, new: list, better: str, bound) -> str:
    if bound is None:
        return "same" if set(base) == set(new) and len(set(base)) == 1 else "changed"
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bm == 0:
        return "within bound" if sign * nm <= 0 else "worse"
    worse_by = sign * (nm - bm) / abs(bm)
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * n < sign * b for n in new for b in base)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if all_better or (min(len(base), len(new)) >= 3 and -worse_by > spread):
        return "better"
    return "within bound"


def main(paths: list, spec: dict, detail: dict) -> None:
    base, new = load(paths[0]), load(paths[1])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    def rule(name):
        if name in e2e:
            return e2e[name]["better"], e2e[name]["bound"]
        if name in detail:
            _, better, parent = detail[name]
            return better, e2e[parent]["bound"] if parent else 0.0
        if name in layer and layer[name]["unit"] not in ("s", "ns"):
            return "lower", None
        return None, None

    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for workload, trace in groups:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        n_runs = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"== {workload} (trace={trace}): {len(b_runs)} base run(s), {len(n_runs)} new run(s)")
        if not b_runs or not n_runs:
            print("   missing on one side")
            continue
        names = [n for r in b_runs for n in {**r["metrics"], **r["detail"]}]
        print(f"   {'metric':40s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} "
              f"{'ratio':>7s}  verdict")
        for name in dict.fromkeys(names):
            bv = [({**r["metrics"], **r["detail"]}).get(name, {}).get("value") for r in b_runs]
            nv = [({**r["metrics"], **r["detail"]}).get(name, {}).get("value") for r in n_runs]
            if None in bv or None in nv:
                continue
            better, bound = rule(name)
            bq, nq = quartiles(bv), quartiles(nv)
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            v = "-" if better is None else verdict(bv, nv, better, bound)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"   {name:40s} {fmt(bq):>32s} {fmt(nq):>32s} {ratio:7.3f}  {v}")
