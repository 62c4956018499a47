"""Command-line surface: scenario-driven sweeps written as CSV (and SVG).

Subcommands mirror the library's analyses: the gain surface and its 1D
cuts, traced threshold contours with the extracted product constant, the
bandwidth-vs-threshold curves for the built-in band presets, the
frequency-resolved near-field boundary map, and a self-verification
suite.  Each ``run_*`` sweep returns its table together with the
arguments of the ``--svg`` chart, built from the arrays it swept: at most
6 gamma2 columns of the gain surface, 8 thresholds of the contours and
the band map, every gain cut, and the four bmax-curve presets.  Exit
codes: 0 success, 1 usage error, 2 computation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
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
from .scenarios import (PRESET_CARRIER_HZ, Scenario, ScenarioError, SweepTable, _key_text,
                        _threshold, emit_csv, parse_scenario)
from .svgplot import svg_line_chart
from .verify import format_report, run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

_CONTOUR_GAMMA2_POINTS = 512
# N = 128 and 64 at each preset carrier: n261 (28 GHz), then n260 (39 GHz)
_BMAX_PRESETS = tuple((n, fc) for fc in PRESET_CARRIER_HZ.values() for n in (128, 64))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _base_metadata(scenario: Scenario, command: str) -> list:
    meta = [("tool", f"nearband {__version__}"), ("command", command),
            ("scenario.preset", scenario.band_preset)]
    meta += [(f"scenario.{key}", _key_text(getattr(scenario, key))) for key in
             ("carrier_hz", "n_antennas", "dbar", "theta_deg", "theta_worst_deg", "tau_db")]
    if scenario.tau_list_db:
        meta.append(("scenario.tau_list_db", _key_text(scenario.tau_list_db)))
    if scenario.sweep is not None:
        s = scenario.sweep
        meta.append(("scenario.sweep",
                     f"axis={s.axis} min={s.lo!r} max={s.hi!r} "
                     f"points={s.points} scale={s.scale}"))
    return meta


def _sweep_values(scenario: Scenario) -> np.ndarray:
    s = scenario.sweep
    return (np.geomspace if s.scale == "log" else np.linspace)(s.lo, s.hi, s.points)


def _stride(seq, k: int):
    """At most k evenly strided items of seq, starting with the first."""
    return seq[:: max(1, len(seq) // k)][:k]


def run_gain_surface(scenario: Scenario) -> tuple[SweepTable, tuple]:
    """Gain (dB) over a rectangular (gamma1, gamma2) grid."""
    g = scenario.grid
    g1 = np.linspace(-g.gamma1_max, g.gamma1_max, g.gamma1_points)
    g2 = np.linspace(g.gamma2_max / g.gamma2_points, g.gamma2_max, g.gamma2_points)
    gains_db = to_db(gain_closed_form(g1[:, None], g2[None, :]))
    # gamma1 outer, gamma2 inner
    data = (np.repeat(g1, len(g2)), np.tile(g2, len(g1)), gains_db.ravel())
    meta = _base_metadata(scenario, "gain-surface")
    meta.append(("grid", f"gamma1 linspace(+-{g.gamma1_max!r}, {g.gamma1_points}) x "
                         f"gamma2 linspace(0, {g.gamma2_max!r}, {g.gamma2_points}]"))
    series = [(f"gamma2={g2[j]:g}", g1, gains_db[:, j]) for j in _stride(range(len(g2)), 6)]
    return (SweepTable(("gamma1", "gamma2", "gain_db"), data, meta),
            (series, "gain surface cuts", "gamma1", "gain (dB)"))


def run_gain_cuts(scenario: Scenario) -> tuple[SweepTable, tuple]:
    """1D cuts: gain vs gamma2 at fixed gamma1 values and vice versa."""
    g, cuts = scenario.grid, scenario.cuts
    g1_axis = np.linspace(-g.gamma1_max, g.gamma1_max, cuts.points)
    g2_axis = np.linspace(g.gamma2_max / cuts.points, g.gamma2_max, cuts.points)
    # a cut with gamma1 held fixed sweeps gamma2, and vice versa
    layout = [(f"fixed gamma1 = {v!r}", "gamma2", v, g2_axis) for v in cuts.gamma1_values]
    layout += [(f"fixed gamma2 = {v!r}", "gamma1", g1_axis, v) for v in cuts.gamma2_values]
    parts, series = [], []
    meta = _base_metadata(scenario, "gain-cuts")
    for cut_id, (label, swept, g1, g2) in enumerate(layout):
        meta.append((f"cut.{cut_id}", f"{label}, sweep {swept}"))
        g1, g2 = np.broadcast_arrays(g1, g2)
        ys = to_db(gain_closed_form(g1, g2))
        parts.append((np.full(len(ys), cut_id), g1, g2, ys))
        series.append((label, g2 if swept == "gamma2" else g1, ys))
    return (SweepTable(("cut_id", "gamma1", "gamma2", "gain_db"),
                       [np.concatenate(col) for col in zip(*parts)], meta),
            (series, "gain cuts", "swept gamma", "gain (dB)"))


def run_contours(scenario: Scenario) -> tuple[SweepTable, tuple]:
    """Main-lobe boundary points and the extracted product constant per tau."""
    parts, series = [], []
    meta = _base_metadata(scenario, "contours")
    meta.append(("contour.gamma2_grid",
                 f"geomspace(0.001, 6.0, {_CONTOUR_GAMMA2_POINTS})"))
    g2_grid = np.geomspace(1e-3, 6.0, _CONTOUR_GAMMA2_POINTS)
    # every product_max first: its error on a deep threshold precedes the march's
    pms = [product_max(tau.tau_linear) for tau in scenario.taus]
    g1s = main_lobe_boundary([tau.tau_linear for tau in scenario.taus], g2_grid)
    for tau, pm, g1 in zip(scenario.taus, pms, g1s):
        live = np.isfinite(g1)
        xs, ys = g1[live], g2_grid[live]
        parts.append((np.full(len(xs), tau.tau_db), xs, ys, xs * ys, np.full(len(xs), pm)))
        if len(xs):
            series.append((f"tau_db={tau.tau_db:g}", xs, ys))
    return (SweepTable(("tau_db", "gamma1", "gamma2", "product", "product_max"),
                       [np.concatenate(col) for col in zip(*parts)], meta),
            (_stride(series, 8), "main-lobe contours", "gamma1", "gamma2"))


def run_bmax_curve(scenario: Scenario) -> tuple[SweepTable, tuple]:
    """Maximum usable bandwidth vs gain threshold for the band presets."""
    if scenario.sweep is None or scenario.sweep.axis != "tau_db":
        raise ScenarioError("sweep.axis: bmax-curve requires a tau_db sweep")
    # the sweep's ends are its extremes: it reaches 0 dB at sweep.max first
    # and underflows to a linear 0 at sweep.min first
    _threshold("sweep.max", scenario.sweep.hi)
    _threshold("sweep.min", scenario.sweep.lo)
    taus_db = _sweep_values(scenario)
    taus = [ThresholdSpec.from_db(tau_db) for tau_db in taus_db.tolist()]
    meta = _base_metadata(scenario, "bmax-curve")
    meta.append(("presets", "; ".join(
        f"N={n} carrier={fc/1e9:g}GHz" for n, fc in _BMAX_PRESETS)))
    apertures = [n * scenario.dbar * (SPEED_OF_LIGHT_M_S / fc) for n, fc in _BMAX_PRESETS]
    bw = np.array([[bmax(aperture, tau.tau_linear, scenario.theta_worst_rad)
                    for aperture in apertures] for tau in taus])
    # tau outer, preset inner
    data = (np.repeat(taus_db, len(apertures)), np.tile(apertures, len(taus_db)),
            np.tile([fc for _, fc in _BMAX_PRESETS], len(taus_db)), bw.ravel())
    # one series per preset, so at most four
    series = [(f"L={aperture:g}", taus_db, bw[:, k]) for k, aperture in enumerate(apertures)]
    return (SweepTable(("tau_db", "aperture_m", "carrier_hz", "bmax_hz"), data, meta),
            (series, "max usable bandwidth", "tau (dB)", "B_max (Hz)", True))


def run_band_map(scenario: Scenario) -> tuple[SweepTable, tuple]:
    """Near-field boundary distance vs frequency offset, per threshold."""
    if scenario.sweep is None or scenario.sweep.axis != "f_hz":
        raise ScenarioError("sweep.axis: band-map requires an f_hz sweep")
    fc = scenario.carrier_hz
    if not (-fc < scenario.sweep.lo and scenario.sweep.hi < fc):
        key = "max" if -fc < scenario.sweep.lo else "min"
        raise ScenarioError(f"sweep.{key}: band-map offsets must lie within (-carrier, +carrier)")
    freqs = _sweep_values(scenario)
    lam = SPEED_OF_LIGHT_M_S / fc
    lbar = scenario.n_antennas * scenario.dbar
    aperture = lbar * lam
    d_erd = effective_rayleigh_distance(scenario.theta_rad, lbar, lam)
    d_fa = fraunhofer_distance(lbar, lam)
    meta = _base_metadata(scenario, "band-map")
    meta.append(("band_m.sentinel",
                 "inf = diverged: offset past the far-field edge "
                 "far_field_product(tau)*fc/(lbar*|sin(theta)|), "
                 "which equals B_max/2 only above about -2.81 dB"))
    taus_db = [tau.tau_db for tau in scenario.taus]
    dist = np.array([[band_distance(f, fc, tau.tau_linear, aperture, scenario.theta_rad)
                      for tau in scenario.taus] for f in freqs.tolist()])
    # offset outer, threshold inner
    data = (np.repeat(freqs, len(taus_db)), np.tile(taus_db, len(freqs)), dist.ravel(),
            np.full(dist.size, d_erd), np.full(dist.size, d_fa))
    series = [(f"tau_db={tau_db:g}", freqs, dist[:, k])
              for k, tau_db in _stride(list(enumerate(taus_db)), 8)]
    return (SweepTable(("f_hz", "tau_db", "band_m", "d_erd_m", "d_fa_m"), data, meta),
            (series, "near-field boundary vs offset", "f (Hz)", "distance (m)", True))


_COMMANDS = {
    "gain-surface": run_gain_surface,
    "gain-cuts": run_gain_cuts,
    "contours": run_contours,
    "bmax-curve": run_bmax_curve,
    "band-map": run_band_map,
}


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
        table, chart = _COMMANDS[args.command](scenario)
    except ScenarioError as exc:
        print(f"nearband: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoCrossingError, ValueError) as exc:
        print(f"nearband: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    out = Path(args.out)
    try:
        out.write_bytes(emit_csv(table))
        if args.svg:
            out.with_suffix(".svg").write_text(svg_line_chart(*chart), encoding="utf-8")
    except OSError as exc:
        print(f"nearband: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # from svg_line_chart: nothing finite to draw
        print(f"nearband: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    print(f"wrote {out}" + (f" and {out.with_suffix('.svg')}" if args.svg else ""))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
