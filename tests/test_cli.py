"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearband
import nearband.cli as cli
from nearband.cli import EXIT_COMPUTE, EXIT_OK, EXIT_USAGE, main
from nearband.regimes import main_lobe_boundary
from nearband.scenarios import parse_scenario
from nearband.verify import PRODUCT_MAX_ANCHORS, PRODUCT_MAX_TOL

MINIMAL = """\
[scenario]
schema_version = 1
preset = n260
n_antennas = 64
tau_db = -1
tau_list_db = -0.2, -1, -2
"""

BAND_SWEEP = MINIMAL + """
[sweep]
axis = f_hz
min = -560e6
max = 560e6
points = 17
"""

TAU_SWEEP = MINIMAL + """
[sweep]
axis = tau_db
min = -3
max = -0.2
points = 8
"""


@pytest.fixture
def scenario_file(tmp_path):
    def write(text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return path
    return write


def _read_table(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    rows = [l.split(",") for l in data[1:]]
    return meta, header, rows


def test_gain_surface_output(tmp_path, scenario_file):
    cfg = scenario_file(MINIMAL)
    out = tmp_path / "surface.csv"
    assert main(["gain-surface", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    meta, header, rows = _read_table(out)
    assert header == ["gamma1", "gamma2", "gain_db"]
    assert len(rows) == 121 * 120
    assert any("tool = nearband" in m for m in meta)
    # symmetric rows carry equal gain; near the axis at small gamma2 it is ~0 dB
    data = {(r[0], r[1]): float(r[2]) for r in rows}
    assert data[("-3.0", "0.025")] == data[("3.0", "0.025")]
    assert abs(data[("0.0", "0.025")]) < 1e-3


def test_gain_surface_determinism(tmp_path, scenario_file):
    cfg = scenario_file(MINIMAL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gain-surface", "--scenario", str(cfg), "--out", str(a)]) == EXIT_OK
    assert main(["gain-surface", "--scenario", str(cfg), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gain_cuts_output(tmp_path, scenario_file):
    cfg = scenario_file(MINIMAL)
    out = tmp_path / "cuts.csv"
    assert main(["gain-cuts", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    meta, header, rows = _read_table(out)
    assert header == ["cut_id", "gamma1", "gamma2", "gain_db"]
    cut_ids = {r[0] for r in rows}
    assert len(cut_ids) == 6  # three gamma1 cuts + three gamma2 cuts by default
    per_cut = [sum(1 for r in rows if r[0] == cid) for cid in sorted(cut_ids)]
    assert set(per_cut) == {200}
    # a larger fixed gamma2 lowers the achievable peak over gamma1
    peak_small = max(float(r[3]) for r in rows if r[0] == "3")  # gamma2 = 0.5
    peak_large = max(float(r[3]) for r in rows if r[0] == "5")  # gamma2 = 2.0
    assert peak_small > peak_large


def test_contours_output(tmp_path, scenario_file):
    cfg = scenario_file(MINIMAL)
    out = tmp_path / "contours.csv"
    assert main(["contours", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_table(out)
    assert header == ["tau_db", "gamma1", "gamma2", "product", "product_max"]
    pm = {float(r[0]): float(r[4]) for r in rows}
    for tau_db, anchor in PRODUCT_MAX_ANCHORS.items():
        assert pm[tau_db] == pytest.approx(anchor, abs=PRODUCT_MAX_TOL)
    # every emitted boundary point reproduces its threshold gain
    from nearband.fresnel import gain_closed_form
    for r in rows[:50]:
        tau_lin = 10 ** (float(r[0]) / 10)
        assert gain_closed_form(float(r[1]), float(r[2])) == pytest.approx(tau_lin, abs=1e-6)


def test_contour_rows_equal_per_threshold_boundaries():
    # contours marches all thresholds at once; each threshold's rows, a
    # duplicate's too, must hold the bits of its own main_lobe_boundary
    taus_db = (-2.0, -0.1, -2.0, -6.0, -10.0)
    scenario = parse_scenario(MINIMAL, {"tau_list_db": ", ".join(map(str, taus_db))})
    table, _ = cli.run_contours(scenario)
    tau_col, g1_col, g2_col = table.data[:3]
    grid = np.geomspace(1e-3, 6.0, cli._CONTOUR_GAMMA2_POINTS)
    start = 0
    for tau_db in taus_db:
        g1 = main_lobe_boundary(10.0 ** (tau_db / 10.0), grid)
        live = np.isfinite(g1)
        rows = slice(start, start + int(live.sum()))
        assert (tau_col[rows] == tau_db).all()
        assert np.array_equal(g1_col[rows], g1[live])
        assert np.array_equal(g2_col[rows], grid[live])
        start = rows.stop
    assert start == tau_col.size


def test_contours_makes_one_boundary_call_for_every_threshold(monkeypatch):
    calls = []

    def boundary(taus, gamma2):
        calls.append(list(taus))
        return main_lobe_boundary(taus, gamma2)

    monkeypatch.setattr(cli, "main_lobe_boundary", boundary)
    scenario = parse_scenario(MINIMAL)
    cli.run_contours(scenario)
    assert calls == [[tau.tau_linear for tau in scenario.taus]]
    assert len(calls[0]) == 3


def test_bmax_curve_output(tmp_path, scenario_file):
    cfg = scenario_file(TAU_SWEEP)
    out = tmp_path / "bmax.csv"
    assert main(["bmax-curve", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_table(out)
    assert header == ["tau_db", "aperture_m", "carrier_hz", "bmax_hz"]
    assert len(rows) == 8 * 4
    by_preset = {}
    for r in rows:
        by_preset.setdefault((r[1], r[2]), []).append(float(r[3]))
    # the four presets: N = 64 and 128 elements at lambda/2, at 39 and 28 GHz
    apertures = sorted({float(a) for a, _ in by_preset})
    assert apertures == [0.2459835552820513, 0.342619952, 0.4919671105641026, 0.685239904]
    # bmax strictly decreasing in tau within every preset (sweep ascends in tau)
    for values in by_preset.values():
        assert all(a > b for a, b in zip(values, values[1:]))


def test_band_map_output(tmp_path, scenario_file):
    cfg = scenario_file(BAND_SWEEP)
    out = tmp_path / "bandmap.csv"
    assert main(["band-map", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    meta, header, rows = _read_table(out)
    assert header == ["f_hz", "tau_db", "band_m", "d_erd_m", "d_fa_m"]
    assert any("band_m.sentinel" in m for m in meta)
    assert len(rows) == 17 * 3
    inf_rows = [r for r in rows if r[2] == "inf"]
    assert inf_rows, "expected diverged offsets at the band edges"
    # reference distances are constant over frequency
    assert len({r[3] for r in rows}) == 1
    assert len({r[4] for r in rows}) == 1
    # the minimum over f occurs at f = 0 for each tau (ties allowed where the
    # boundary sits at the Fresnel-region scan floor)
    for tau in ("-0.2", "-1.0", "-2.0"):
        sub = {float(r[0]): float(r[2]) for r in rows if r[1] == tau}
        finite = {f: d for f, d in sub.items() if math.isfinite(d)}
        assert finite[0.0] == min(finite.values())


def test_band_map_inf_marks_far_field_edge(tmp_path, scenario_file):
    # at -3 dB product_max exceeds the far-field root by 1.6 %, so offsets
    # between the far-field edge and B_max/2 already diverge
    from nearband import far_field_product, product_max
    from nearband.scenarios import PRESET_CARRIER_HZ

    fc, lbar, theta = PRESET_CARRIER_HZ["n260"], 64 * 0.5, math.radians(60)
    tau = 10.0 ** (-3.0 / 10.0)
    edge = far_field_product(tau) * fc / (lbar * math.sin(theta))
    half_band = product_max(tau) * fc / (lbar * math.sin(theta))
    assert half_band > 1.01 * edge
    doc = MINIMAL.replace("tau_list_db = -0.2, -1, -2", "tau_list_db = -3") + f"""
[sweep]
axis = f_hz
min = {0.999 * edge!r}
max = {0.999 * half_band!r}
points = 3
"""
    out = tmp_path / "edge.csv"
    assert main(["band-map", "--scenario", str(scenario_file(doc)), "--out", str(out)]) == EXIT_OK
    meta, _, rows = _read_table(out)
    sentinel = next(m for m in meta if "band_m.sentinel" in m)
    assert "far-field edge far_field_product(tau)*fc/(lbar*|sin(theta)|)" in sentinel
    assert [r[2] == "inf" for r in rows] == [False, True, True]


def test_band_map_matches_rayleigh_at_exact_linear_level(tmp_path, scenario_file):
    # the classical boundary is tied to the 0.95 *linear* level (-0.223 dB);
    # feed it via --linear so no dB rounding creeps in
    doc = MINIMAL.replace("tau_db = -1", "tau_db = 0.794328").replace(
        "tau_list_db = -0.2, -1, -2", "tau_list_db = 0.95") + """
[sweep]
axis = f_hz
min = -100e6
max = 100e6
points = 5
"""
    cfg = scenario_file(doc)
    out = tmp_path / "bm.csv"
    assert main(["band-map", "--scenario", str(cfg), "--out", str(out),
                 "--linear"]) == EXIT_OK
    _, _, rows = _read_table(out)
    at_zero = next(r for r in rows if float(r[0]) == 0.0)
    band_m, d_erd_m = float(at_zero[2]), float(at_zero[3])
    assert band_m == pytest.approx(d_erd_m, rel=0.02)


def test_svg_emission(tmp_path, scenario_file):
    cfg = scenario_file(BAND_SWEEP)
    out = tmp_path / "bandmap.csv"
    assert main(["band-map", "--scenario", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
    svg = (tmp_path / "bandmap.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg


def _svg_legends(tmp_path, scenario_file, command, doc):
    cfg = scenario_file(doc)
    out = tmp_path / f"{command}.csv"
    assert main([command, "--scenario", str(cfg), "--out", str(out), "--svg"]) == EXIT_OK
    svg = out.with_suffix(".svg").read_text()
    return re.findall(r'font-size="11">([^<]*)</text>', svg)


def test_svg_gain_cuts_legends(tmp_path, scenario_file):
    assert _svg_legends(tmp_path, scenario_file, "gain-cuts", MINIMAL) == [
        "fixed gamma1 = 0.0", "fixed gamma1 = 0.5", "fixed gamma1 = 1.0",
        "fixed gamma2 = 0.5", "fixed gamma2 = 1.0", "fixed gamma2 = 2.0"]


def test_svg_gain_surface_draws_six_gamma2_columns(tmp_path, scenario_file):
    legends = _svg_legends(tmp_path, scenario_file, "gain-surface", MINIMAL)
    # 120 gamma2 columns of width 0.025, every 20th drawn
    assert legends == [f"gamma2={0.025 * (1 + 20 * k):g}" for k in range(6)]


def test_svg_bmax_curve_draws_each_preset(tmp_path, scenario_file):
    legends = _svg_legends(tmp_path, scenario_file, "bmax-curve", TAU_SWEEP)
    assert len(legends) == 4 and all(l.startswith("L=") for l in legends)


def test_svg_contours_caps_at_eight_series(tmp_path, scenario_file):
    taus = [-0.1, -0.3, -0.5, -0.8, -1.0, -1.5, -2.0, -2.5, -3.0]
    doc = MINIMAL.replace("tau_list_db = -0.2, -1, -2",
                          "tau_list_db = " + ", ".join(map(str, taus)))
    legends = _svg_legends(tmp_path, scenario_file, "contours", doc)
    assert legends == [f"tau_db={t:g}" for t in taus[:8]]


def test_svg_without_finite_points_is_a_compute_error(tmp_path, scenario_file, capsys):
    # every offset lies past B_max/2, so each band distance is inf and the
    # chart has nothing to draw
    doc = BAND_SWEEP.replace("min = -560e6", "min = 5e9").replace(
        "max = 560e6", "max = 6e9").replace(
        "tau_list_db = -0.2, -1, -2", "tau_list_db = -0.2")
    cfg = scenario_file(doc)
    out = tmp_path / "bandmap.csv"
    assert main(["band-map", "--scenario", str(cfg), "--out", str(out),
                 "--svg"]) == EXIT_COMPUTE
    assert "nearband: no finite data to plot" in capsys.readouterr().err
    assert not out.with_suffix(".svg").exists()

def test_linear_flag(tmp_path, scenario_file):
    doc = MINIMAL.replace("tau_db = -1", "tau_db = 0.794328").replace(
        "tau_list_db = -0.2, -1, -2", "tau_list_db = 0.95")
    cfg = scenario_file(doc)
    out = tmp_path / "c.csv"
    assert main(["contours", "--scenario", str(cfg), "--out", str(out),
                 "--linear"]) == EXIT_OK
    _, _, rows = _read_table(out)
    taus = {float(r[0]) for r in rows}
    assert min(taus) == pytest.approx(10 * math.log10(0.95), abs=1e-6)


def test_linear_flag_hands_the_written_threshold_to_the_solver(tmp_path, scenario_file):
    # 0.595 does not survive a dB round trip (10**(log10(v)) is
    # 0.5949999999999999), and the far-field root of the two values differs
    from nearband import product_max
    doc = MINIMAL.replace("tau_db = -1", "tau_db = 0.595").replace(
        "tau_list_db = -0.2, -1, -2\n", "")
    out = tmp_path / "c.csv"
    assert main(["contours", "--scenario", str(scenario_file(doc)), "--out", str(out),
                 "--linear"]) == EXIT_OK
    meta, _, rows = _read_table(out)
    assert "# scenario.tau_db = " + repr(10.0 * math.log10(0.595)) in meta
    assert {r[4] for r in rows} == {repr(product_max(0.595))}


def test_threshold_rounding_to_0_db_is_a_usage_error(tmp_path, scenario_file, capsys):
    # -1e-17 dB is negative, but its linear value rounds to 1.0
    out = tmp_path / "c.csv"
    assert main(["contours", "--scenario", str(scenario_file(MINIMAL)), "--out", str(out),
                 "--set", "tau_db=-1e-17"]) == EXIT_USAGE
    assert "nearband: scenario.tau_db: too shallow: its linear gain" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("sweep.min", "-4000", "sweep.min: too deep: its linear gain"),
    ("sweep.max", "0", "sweep.max: must be negative"),
    ("sweep.max", "-1e-17", "sweep.max: too shallow: its linear gain"),
])
def test_bmax_curve_names_the_sweep_end_that_broke(tmp_path, scenario_file, capsys,
                                                   key, value, message):
    # a tau_db sweep underflows to a linear 0 at its deep end, sweep.min
    out = tmp_path / "b.csv"
    assert main(["bmax-curve", "--scenario", str(scenario_file(TAU_SWEEP)), "--out", str(out),
                 "--set", f"{key}={value}"]) == EXIT_USAGE
    assert f"nearband: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("sweep.min", "-40e9"), ("sweep.max", "40e9")])
def test_band_map_names_the_offset_past_the_carrier(tmp_path, scenario_file, capsys, key, value):
    out = tmp_path / "b.csv"
    assert main(["band-map", "--scenario", str(scenario_file(BAND_SWEEP)), "--out", str(out),
                 "--set", f"{key}={value}"]) == EXIT_USAGE
    message = f"nearband: {key}: band-map offsets must lie within (-carrier, +carrier)"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("dbar", ["1e-200", "1e200"])
def test_band_map_names_an_aperture_out_of_float_range(tmp_path, scenario_file, capsys, dbar):
    out = tmp_path / "b.csv"
    assert main(["band-map", "--scenario", str(scenario_file(BAND_SWEEP)), "--out", str(out),
                 "--set", f"dbar={dbar}"]) == EXIT_COMPUTE
    assert "nearband: aperture_m = " in capsys.readouterr().err


def test_bmax_curve_names_an_aperture_whose_band_overflows(tmp_path, scenario_file, capsys):
    out = tmp_path / "b.csv"
    assert main(["bmax-curve", "--scenario", str(scenario_file(TAU_SWEEP)), "--out", str(out),
                 "--set", "dbar=1e-320"]) == EXIT_COMPUTE
    assert "nearband: aperture_m = 1.37" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("gain-cuts", "cuts.gamma1_values", "2e10"),
    ("gain-surface", "grid.gamma1_max", "1e308"),
])
def test_gain_tables_name_an_extent_past_the_kernel_cutoff(tmp_path, scenario_file, capsys,
                                                           command, key, value):
    out = tmp_path / "g.csv"
    assert main([command, "--scenario", str(scenario_file(MINIMAL)), "--out", str(out),
                 "--set", f"{key}={value}"]) == EXIT_USAGE
    assert f"nearband: {key}: |gamma1| + gamma2 must stay below" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_n_antennas_is_a_usage_error(tmp_path, scenario_file, capsys):
    # n_antennas * dbar must stay a finite float in band-map
    out = tmp_path / "b.csv"
    assert main(["band-map", "--scenario", str(scenario_file(BAND_SWEEP)), "--out", str(out),
                 "--set", "n_antennas=" + "9" * 401]) == EXIT_USAGE
    assert "nearband: scenario.n_antennas: must be <= 1000000" in capsys.readouterr().err


def test_set_overrides_change_output(tmp_path, scenario_file):
    cfg = scenario_file(MINIMAL)
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["gain-surface", "--scenario", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["gain-surface", "--scenario", str(cfg), "--out", str(out2),
                 "--set", "grid.gamma1_points=11", "--set", "grid.gamma2_points=10",
                 "--set", "grid.gamma1_max=2.0", "--set", "grid.gamma2_max=2.0"]) == EXIT_OK
    _, _, rows2 = _read_table(out2)
    assert len(rows2) == 110
    assert out1.read_bytes() != out2.read_bytes()


def test_usage_errors(tmp_path, scenario_file, capsys):
    cfg = scenario_file(MINIMAL)
    out = str(tmp_path / "x.csv")
    # unknown flag and unknown subcommand exit 1 via argparse
    with pytest.raises(SystemExit) as exc:
        main(["gain-surface", "--scenario", str(cfg), "--out", out, "--frobnicate"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["does-not-exist"])
    assert exc.value.code == EXIT_USAGE
    # missing scenario file
    assert main(["gain-surface", "--scenario", str(tmp_path / "nope.cfg"),
                 "--out", out]) == EXIT_USAGE
    # malformed scenario document
    bad = scenario_file("[scenario]\nschema_version = 1\n", "bad.cfg")
    assert main(["gain-surface", "--scenario", str(bad), "--out", out]) == EXIT_USAGE
    # malformed --set
    assert main(["gain-surface", "--scenario", str(cfg), "--out", out,
                 "--set", "oops"]) == EXIT_USAGE
    # wrong sweep axis for the command
    assert main(["band-map", "--scenario", str(cfg), "--out", out]) == EXIT_USAGE
    # and bmax-curve on an offset sweep names the key
    band = scenario_file(BAND_SWEEP, "band.cfg")
    capsys.readouterr()
    assert main(["bmax-curve", "--scenario", str(band), "--out", out]) == EXIT_USAGE
    assert "nearband: sweep.axis: bmax-curve requires a tau_db sweep" in capsys.readouterr().err
    # an output path inside a missing directory
    missing = str(tmp_path / "missing" / "x.csv")
    assert main(["gain-surface", "--scenario", str(cfg), "--out", missing]) == EXIT_USAGE
    assert "nearband: cannot write output" in capsys.readouterr().err
    # a negative cut gamma2 is a scenario error, not a computation error
    assert main(["gain-cuts", "--scenario", str(cfg), "--out", out,
                 "--set", "cuts.gamma2_values=-0.5"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("command, doc, sets, status", [
    ("contours", MINIMAL.replace("tau_db = -1", "tau_db = -11.3").replace(
        "tau_list_db = -0.2, -1, -2\n", ""), [], EXIT_COMPUTE),
    ("bmax-curve", TAU_SWEEP, ["sweep.min=-11.3"], EXIT_COMPUTE),
    ("band-map", BAND_SWEEP, ["tau_list_db=-11.3"], EXIT_OK),
    ("gain-surface", MINIMAL, ["tau_db=-11.3"], EXIT_OK),
], ids=["contours", "bmax-curve", "band-map", "gain-surface"])
def test_march_floor_is_a_compute_error_only_where_a_solver_marches(
        tmp_path, scenario_file, capsys, command, doc, sets, status):
    # contours and bmax-curve march the gain, which is supported down to
    # -11.25 dB; band-map and gain-surface do not march
    out = tmp_path / "x.csv"
    args = [command, "--scenario", str(scenario_file(doc)), "--out", str(out)]
    assert main(args + [a for s in sets for a in ("--set", s)]) == status
    floor_named = "solves thresholds down to -11.25 dB" in capsys.readouterr().err
    assert floor_named == (status == EXIT_COMPUTE)
    assert out.exists() == (status == EXIT_OK)


def test_compute_error_exit_code(tmp_path, scenario_file, monkeypatch):
    cfg = scenario_file(MINIMAL)
    out = str(tmp_path / "x.csv")
    monkeypatch.setitem(cli._COMMANDS, "gain-surface",
                        lambda sc: (_ for _ in ()).throw(ValueError("boom")))
    assert main(["gain-surface", "--scenario", str(cfg), "--out", out]) == EXIT_COMPUTE


def test_help_mentions_flags(capsys):
    for name in ("gain-surface", "gain-cuts", "contours", "bmax-curve", "band-map"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--scenario", "--out", "--set", "--svg", "--linear"):
            assert flag in text


def test_verify_subcommand(capsys):
    assert main(["verify"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert "contour-constant-minus2db" in text
    assert "contour-constant-minus1db" in text


def test_verify_does_not_import_numpy_ma():
    # np.unique without options imports numpy.ma; the report does not need it
    env = dict(os.environ, PYTHONPATH=str(Path(nearband.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "nearband.cli", "verify"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
    assert "nearband.verify" in imported and "numpy.ma" not in imported


def test_gain_surface_imports_neither_fractions_nor_decimal(tmp_path, scenario_file):
    # the CSV formatter builds its tables from Python ints; a fractions import
    # would load decimal into every CLI job
    env = dict(os.environ, PYTHONPATH=str(Path(nearband.__file__).parents[1]))
    cfg = scenario_file(MINIMAL + "\n[grid]\ngamma1_points = 5\ngamma2_points = 4\n")
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "nearband.cli", "gain-surface",
                          "--scenario", str(cfg), "--out", str(tmp_path / "s.csv"), "--svg"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_OK
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
    assert "nearband.scenarios" in imported
    assert "fractions" not in imported and "decimal" not in imported


def test_import_nearband_leaves_scenarios_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(nearband.__file__).parents[1]))
    code = "import sys, nearband; print('nearband.scenarios' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.strip() == "False"


def _fresh_process(code: str) -> str:
    """The last stdout line of ``python -c code`` run against this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(nearband.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_process_entry_freezes_the_import_time_heap():
    # the console script and python -m nearband.cli call main() without argv
    code = ("import gc, sys\nfrom nearband.cli import main\n"
            "sys.argv = ['nearband', 'verify']\nmain()\nprint(gc.get_freeze_count())")
    assert int(_fresh_process(code)) > 0


@pytest.mark.parametrize("setup", ["", "gc.disable()"])
def test_import_and_in_process_main_leave_the_collector_alone(setup):
    code = (f"import contextlib, gc, io\n{setup}\n"
            "state = lambda: (gc.get_freeze_count(), gc.isenabled())\n"
            "before = state()\nimport nearband\nafter_import = state()\n"
            "from nearband.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n    main(['verify'])\n"
            "print(before == after_import == state())")
    assert _fresh_process(code) == "True"


def test_verify_detects_tampering(monkeypatch, capsys):
    import nearband.fresnel as fresnel_mod
    from nearband.cli import EXIT_VERIFY
    tampered = fresnel_mod._CHEB.copy()
    tampered[0, 0] += 1e-6
    monkeypatch.setattr(fresnel_mod, "_CHEB", tampered)
    assert main(["verify"]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_cut_sweeps_honour_scenario(tmp_path, scenario_file):
    doc = MINIMAL + "\n[cuts]\ngamma1_values = 0\ngamma2_values = 1.5\npoints = 50\n"
    cfg = scenario_file(doc)
    out = tmp_path / "cuts.csv"
    assert main(["gain-cuts", "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    _, _, rows = _read_table(out)
    assert len(rows) == 100
    # the gamma1 = 0 cut reproduces the narrowband gain
    from nearband.fresnel import gain_narrowband, to_db
    nb_rows = [r for r in rows if r[0] == "0"]
    for r in nb_rows[:10]:
        assert float(r[3]) == pytest.approx(to_db(gain_narrowband(float(r[2]))), abs=1e-9)
