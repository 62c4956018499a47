"""Command-line surface: scenario-driven sweeps written as CSV (and SVG).

Subcommands mirror the library's analyses: the gain surface and its 1D
cuts, traced threshold contours with the extracted product constant, the
bandwidth-vs-threshold curves for the built-in band presets, the
frequency-resolved near-field boundary map, and a self-verification
suite.  Exit codes: 0 success, 1 usage error, 2 computation error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .constants import SPEED_OF_LIGHT_M_S
from .fresnel import gain_closed_form, to_db
from .regimes import (
    NoCrossingError,
    ThresholdSpec,
    band_distance,
    bmax,
    effective_rayleigh_distance,
    fraunhofer_distance,
    main_lobe_boundary,
    product_max,
)
from .scenarios import Scenario, ScenarioError, SweepTable, emit_csv, parse_scenario
from .svgplot import svg_line_chart
from .verify import format_report, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

_CONTOUR_GAMMA2_POINTS = 512
_BMAX_PRESETS = ((128, 28e9), (64, 28e9), (128, 39e9), (64, 39e9))


class ComputationError(RuntimeError):
    """A sweep hit a state it cannot produce output for."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _base_metadata(scenario: Scenario, command: str) -> list:
    meta = [
        ("tool", f"nearband {__version__}"),
        ("command", command),
        ("scenario.preset", scenario.band_preset),
        ("scenario.carrier_hz", repr(scenario.carrier_hz)),
        ("scenario.n_antennas", str(scenario.n_antennas)),
        ("scenario.dbar", repr(scenario.dbar)),
        ("scenario.theta_deg", repr(scenario.theta_deg)),
        ("scenario.theta_worst_deg", repr(scenario.theta_worst_deg)),
        ("scenario.tau_db", repr(scenario.tau_db)),
    ]
    if scenario.tau_list_db:
        meta.append(("scenario.tau_list_db",
                     ", ".join(repr(t) for t in scenario.tau_list_db)))
    if scenario.sweep is not None:
        s = scenario.sweep
        meta.append(("scenario.sweep",
                     f"axis={s.axis} min={s.lo!r} max={s.hi!r} "
                     f"points={s.points} scale={s.scale}"))
    return meta


def _sweep_values(scenario: Scenario) -> np.ndarray:
    s = scenario.sweep
    if s.scale == "log":
        return np.geomspace(s.lo, s.hi, s.points)
    return np.linspace(s.lo, s.hi, s.points)


def run_gain_surface(scenario: Scenario) -> SweepTable:
    """Gain (dB) over a rectangular (gamma1, gamma2) grid."""
    g = scenario.grid
    g1 = np.linspace(-g.gamma1_max, g.gamma1_max, g.gamma1_points)
    g2 = np.linspace(g.gamma2_max / g.gamma2_points, g.gamma2_max, g.gamma2_points)
    gains_db = to_db(gain_closed_form(g1[:, None], g2[None, :]))
    rows = [
        (float(g1[i]), float(g2[j]), float(gains_db[i, j]))
        for i in range(g.gamma1_points)
        for j in range(g.gamma2_points)
    ]
    meta = _base_metadata(scenario, "gain-surface")
    meta.append(("grid", f"gamma1 linspace(+-{g.gamma1_max!r}, {g.gamma1_points}) x "
                         f"gamma2 linspace(0, {g.gamma2_max!r}, {g.gamma2_points}]"))
    return SweepTable(("gamma1", "gamma2", "gain_db"), rows, meta)


def run_gain_cuts(scenario: Scenario) -> SweepTable:
    """1D cuts: gain vs gamma2 at fixed gamma1 values and vice versa."""
    g, cuts = scenario.grid, scenario.cuts
    rows = []
    meta = _base_metadata(scenario, "gain-cuts")
    cut_id = 0
    for g1_fixed in cuts.gamma1_values:
        x = np.linspace(g.gamma2_max / cuts.points, g.gamma2_max, cuts.points)
        y = to_db(gain_closed_form(g1_fixed, x))
        meta.append((f"cut.{cut_id}", f"fixed gamma1 = {g1_fixed!r}, sweep gamma2"))
        rows.extend((cut_id, float(g1_fixed), float(xx), float(yy))
                    for xx, yy in zip(x, y))
        cut_id += 1
    for g2_fixed in cuts.gamma2_values:
        x = np.linspace(-g.gamma1_max, g.gamma1_max, cuts.points)
        y = to_db(gain_closed_form(x, g2_fixed))
        meta.append((f"cut.{cut_id}", f"fixed gamma2 = {g2_fixed!r}, sweep gamma1"))
        rows.extend((cut_id, float(xx), float(g2_fixed), float(yy))
                    for xx, yy in zip(x, y))
        cut_id += 1
    return SweepTable(("cut_id", "gamma1", "gamma2", "gain_db"), rows, meta)


def run_contours(scenario: Scenario) -> SweepTable:
    """Main-lobe boundary points and the extracted product constant per tau."""
    rows = []
    meta = _base_metadata(scenario, "contours")
    meta.append(("contour.gamma2_grid",
                 f"geomspace(0.001, 6.0, {_CONTOUR_GAMMA2_POINTS})"))
    g2_grid = np.geomspace(1e-3, 6.0, _CONTOUR_GAMMA2_POINTS)
    for tau_db in scenario.taus_db:
        if tau_db >= 0:
            raise ComputationError(f"no contour exists for tau = {tau_db} dB >= 0 dB")
        tau_lin = ThresholdSpec.from_db(tau_db).tau_linear
        pm = product_max(tau_lin)
        g1 = main_lobe_boundary(tau_lin, g2_grid)
        for g1_i, g2_i in zip(g1, g2_grid):
            if math.isfinite(g1_i):
                rows.append((float(tau_db), float(g1_i), float(g2_i),
                             float(g1_i * g2_i), pm))
    return SweepTable(("tau_db", "gamma1", "gamma2", "product", "product_max"),
                      rows, meta)


def run_bmax_curve(scenario: Scenario) -> SweepTable:
    """Maximum usable bandwidth vs gain threshold for the band presets."""
    if scenario.sweep is None or scenario.sweep.axis != "tau_db":
        raise ScenarioError("sweep.axis: bmax-curve requires a tau_db sweep")
    taus_db = _sweep_values(scenario)
    if taus_db[-1] >= 0:
        raise ScenarioError("sweep.max: tau_db sweep must stay below 0 dB")
    meta = _base_metadata(scenario, "bmax-curve")
    meta.append(("presets", "; ".join(
        f"N={n} carrier={fc/1e9:g}GHz" for n, fc in _BMAX_PRESETS)))
    rows = []
    for tau_db in taus_db:
        tau_lin = ThresholdSpec.from_db(float(tau_db)).tau_linear
        for n, fc in _BMAX_PRESETS:
            lam = SPEED_OF_LIGHT_M_S / fc
            aperture = n * scenario.dbar * lam
            rows.append((float(tau_db), aperture, fc,
                         bmax(aperture, tau_lin, scenario.theta_worst_rad)))
    return SweepTable(("tau_db", "aperture_m", "carrier_hz", "bmax_hz"), rows, meta)


def run_band_map(scenario: Scenario) -> SweepTable:
    """Near-field boundary distance vs frequency offset, per threshold."""
    if scenario.sweep is None or scenario.sweep.axis != "f_hz":
        raise ScenarioError("sweep.axis: band-map requires an f_hz sweep")
    fc = scenario.carrier_hz
    if not (-fc < scenario.sweep.lo and scenario.sweep.hi < fc):
        raise ScenarioError("sweep.min: band-map offsets must lie within (-carrier, +carrier)")
    freqs = _sweep_values(scenario)
    lam = SPEED_OF_LIGHT_M_S / fc
    lbar = scenario.n_antennas * scenario.dbar
    aperture = lbar * lam
    d_erd = effective_rayleigh_distance(scenario.theta_rad, lbar, lam)
    d_fa = fraunhofer_distance(lbar, lam)
    meta = _base_metadata(scenario, "band-map")
    meta.append(("band_m.sentinel",
                 "inf = diverged: offset beyond the usable bandwidth"))
    rows = []
    for f in freqs:
        for tau_db in scenario.taus_db:
            tau_lin = ThresholdSpec.from_db(tau_db).tau_linear
            dist = band_distance(float(f), fc, tau_lin, aperture, scenario.theta_rad)
            rows.append((float(f), float(tau_db), dist, d_erd, d_fa))
    return SweepTable(("f_hz", "tau_db", "band_m", "d_erd_m", "d_fa_m"), rows, meta)


_COMMANDS = {
    "gain-surface": run_gain_surface,
    "gain-cuts": run_gain_cuts,
    "contours": run_contours,
    "bmax-curve": run_bmax_curve,
    "band-map": run_band_map,
}


def _svg_for(command: str, table: SweepTable) -> str:
    cols = {name: i for i, name in enumerate(table.columns)}
    rows = table.rows

    def series_by(key_col: str, x_col: str, y_col: str, label: str, max_series=8):
        keys = []
        for r in rows:
            if r[cols[key_col]] not in keys:
                keys.append(r[cols[key_col]])
        if len(keys) > max_series:
            keys = keys[:: max(1, len(keys) // max_series)][:max_series]
        out = []
        for k in keys:
            xs = [r[cols[x_col]] for r in rows if r[cols[key_col]] == k]
            ys = [r[cols[y_col]] for r in rows if r[cols[key_col]] == k]
            out.append((f"{label}={k:g}" if isinstance(k, float) else f"{label}={k}",
                        xs, ys))
        return out

    if command == "gain-surface":
        return svg_line_chart(series_by("gamma2", "gamma1", "gain_db", "gamma2", 6),
                              "gain surface cuts", "gamma1", "gain (dB)")
    if command == "gain-cuts":
        # a cut with gamma1 held fixed sweeps gamma2, and vice versa
        return svg_line_chart(
            [(label, [r[cols["gamma2" if "gamma1" in label else "gamma1"]]
                      for r in rows if r[cols["cut_id"]] == k],
              [r[cols["gain_db"]] for r in rows if r[cols["cut_id"]] == k])
             for k, label in _cut_labels(table)],
            "gain cuts", "swept gamma", "gain (dB)")
    if command == "contours":
        return svg_line_chart(series_by("tau_db", "gamma1", "gamma2", "tau_db"),
                              "main-lobe contours", "gamma1", "gamma2")
    if command == "bmax-curve":
        return svg_line_chart(series_by("aperture_m", "tau_db", "bmax_hz", "L", 4),
                              "max usable bandwidth", "tau (dB)", "B_max (Hz)",
                              logy=True)
    if command == "band-map":
        return svg_line_chart(series_by("tau_db", "f_hz", "band_m", "tau_db"),
                              "near-field boundary vs offset", "f (Hz)",
                              "distance (m)", logy=True)
    raise ValueError(f"no chart defined for {command!r}")


def _cut_labels(table: SweepTable):
    labels = {}
    for key, value in table.metadata:
        if key.startswith("cut."):
            labels[int(key.split(".", 1)[1])] = value.split(",")[0]
    return sorted(labels.items())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nearband",
                     description="Wideband/near-field beamforming-gain design tool")
    parser.add_argument("--version", action="version", version=f"nearband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__, description=fn.__doc__)
        p.add_argument("--scenario", required=True, metavar="PATH",
                       help="scenario config document (see README for the schema)")
        p.add_argument("--out", required=True, metavar="PATH",
                       help="output CSV path")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario key (may repeat); "
                            "KEY is 'key' or 'section.key'")
        p.add_argument("--svg", action="store_true",
                       help="also write a simple SVG chart next to the CSV")
        p.add_argument("--linear", action="store_true",
                       help="read tau values in the scenario/overrides as "
                            "linear gains in (0, 1) instead of dB")

    sub.add_parser("verify", help="run the self-check suite",
                   description="Run oracle and reference-constant checks; "
                               "exit 0 only if all pass.")
    return parser


def _parse_overrides(pairs) -> dict:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--set expects KEY=VALUE, got {item!r}")
        out[key.strip()] = value.strip()
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        results = run_verify()
        print(format_report(results))
        return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY

    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"nearband: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        scenario = parse_scenario(text, _parse_overrides(args.set),
                                  taus_are_linear=args.linear)
        table = _COMMANDS[args.command](scenario)
    except ScenarioError as exc:
        print(f"nearband: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ComputationError, NoCrossingError, ValueError) as exc:
        print(f"nearband: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    out = Path(args.out)
    try:
        out.write_bytes(emit_csv(table))
        if args.svg:
            out.with_suffix(".svg").write_text(_svg_for(args.command, table),
                                               encoding="utf-8")
    except OSError as exc:
        print(f"nearband: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {out}" + (f" and {out.with_suffix('.svg')}" if args.svg else ""))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
