"""Spans and counters around calls into nearband's public functions.

The benchmark traces the library without editing it: :func:`install`
replaces each target function with a wrapper in every loaded ``nearband``
module that bound it (``from .fresnel import gain_closed_form`` makes a
separate binding in each importer).  A wrapper records one span (name,
start, end, parent span) and the counts of work its arguments carry.
Spans stay in memory; :meth:`Tracer.summary` folds them into per-function
calls, total time, self time (span time minus the time of its child
spans) and summed counters.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _points_gain(args, kwargs, result):
    g1, g2 = _arg(args, kwargs, 0, "gamma1"), _arg(args, kwargs, 1, "gamma2")
    shape = np.broadcast_shapes(np.shape(g1), np.shape(g2))
    return {"points": math.prod(shape), "scalar_calls": int(shape == ())}


# (module, function, layer metric prefix, counters(args, kwargs, result) -> dict)
TARGETS = (
    ("fresnel", "fresnel_cs", "fresnel.fresnel_cs",
     lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "x")))}),
    ("fresnel", "gain_closed_form", "fresnel.gain_closed_form", _points_gain),
    ("regimes", "product_max", "regimes.product_max", None),
    ("regimes", "main_lobe_boundary", "regimes.main_lobe_boundary", None),
    ("regimes", "bmax", "regimes.bmax", None),
    ("regimes", "band_distance", "regimes.band_distance",
     lambda a, k, r: {"inf": int(math.isinf(r))}),
    ("arrays", "gain_exact", "arrays.gain_exact",
     lambda a, k, r: {"elements": _arg(a, k, 0, "geom").n_antennas}),
    ("arrays", "gain_fresnel_sum", "arrays.gain_fresnel_sum",
     lambda a, k, r: {"elements": int(_arg(a, k, 1, "n_antennas"))}),
    ("scenarios", "parse_scenario", "scenarios.parse_scenario", None),
    ("scenarios", "emit_csv", "scenarios.emit_csv",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "table").rows), "bytes": len(r)}),
    ("cli", "main", "cli.main", None),
    ("svgplot", "svg_line_chart", "svgplot.svg_line_chart",
     lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ("oracle", "quadrature_cs", "oracle.quadrature_cs",
     lambda a, k, r: {"points": int(np.size(_arg(a, k, 0, "x")))}),
)


class Tracer:
    """Collects spans (name, start, end, parent index) and per-span counts."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []

    def wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            self.counts.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if counters is not None:
                self.counts[idx] = counters(args, kwargs, result)
            return result
        return wrapper

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s", <counter>: sum}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
            for key, value in (self.counts[i] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out


def install(tracer: Tracer) -> dict:
    """Wrap every target in all loaded nearband modules; returns the
    original functions by metric prefix."""
    import nearband.cli  # noqa: F401  (loads every module that binds a target)
    import nearband.verify  # noqa: F401

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "nearband" or name.startswith("nearband."))]
    originals = {}
    for mod_name, fn_name, prefix, counters in TARGETS:
        original = getattr(sys.modules[f"nearband.{mod_name}"], fn_name)
        wrapper = tracer.wrap(prefix, original, counters)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
        originals[prefix] = original
    return originals


def finish(tracer: Tracer, originals: dict) -> dict:
    """Summary plus the product_max cache misses of this process."""
    summary = tracer.summary()
    pm = summary.setdefault("regimes.product_max", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    pm["misses"] = originals["regimes.product_max"].cache_info().misses
    return summary
