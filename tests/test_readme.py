"""The README's scenario block parses, its library quickstart runs, and
the CLI lays its gain tables out as the README describes."""

import importlib.util
import os
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

from nearband.cli import EXIT_OK, main
from nearband.fresnel import gain_closed_form, to_db
from nearband.scenarios import parse_scenario

from _oracles import csv_rows

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_scenario_block_parses():
    scenario = parse_scenario(_block("ini"))
    assert (scenario.band_preset, scenario.carrier_hz) == ("n260", 39e9)
    assert tuple(t.tau_db for t in scenario.tau_list_db) == (-0.2, -1.0, -2.0)
    assert (scenario.sweep.axis, scenario.sweep.points) == ("f_hz", 33)


def test_quickstart_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the bmax line the README annotates as ~1.03 GHz
    assert float(lines[1]) == pytest.approx(1.03e9, rel=0.01)


def _cli_csv(tmp_path, command):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(_block("ini"))
    out = tmp_path / f"{command}.csv"
    assert main([command, "--scenario", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_bytes().split(b"\n")
    n_meta = sum(line.startswith(b"#") for line in lines)
    # metadata lines, the header, then the data rows as bytes
    return lines[:n_meta], lines[n_meta], b"\n".join(lines[n_meta + 1:])


def test_gain_surface_rows_gamma1_outer(tmp_path):
    g = parse_scenario(_block("ini")).grid
    g1 = np.linspace(-g.gamma1_max, g.gamma1_max, g.gamma1_points).tolist()
    g2 = np.linspace(g.gamma2_max / g.gamma2_points, g.gamma2_max, g.gamma2_points)
    rows = [(x, y, v) for x in g1
            for y, v in zip(g2.tolist(), to_db(gain_closed_form(x, g2)).tolist())]
    _, header, data = _cli_csv(tmp_path, "gain-surface")
    assert header == b"gamma1,gamma2,gain_db"
    assert data == csv_rows(rows)


def test_gain_cuts_rows_in_metadata_order(tmp_path):
    scenario = parse_scenario(_block("ini"))
    g, n = scenario.grid, scenario.cuts.points
    axes = {"gamma1": np.linspace(-g.gamma1_max, g.gamma1_max, n),
            "gamma2": np.linspace(g.gamma2_max / n, g.gamma2_max, n)}
    meta, header, data = _cli_csv(tmp_path, "gain-cuts")
    cuts = [re.fullmatch(rb"# cut\.(\d+) = fixed (gamma[12]) = (\S+), sweep (gamma[12])", line)
            for line in meta if line.startswith(b"# cut.")]
    assert [int(c[1]) for c in cuts] == list(range(6))
    rows = []
    for c in cuts:
        value, swept = float(c[3]), c[4].decode()
        assert c[2] != c[4]
        xs = axes[swept]
        pairs = [(x, value) if swept == "gamma1" else (value, x) for x in xs.tolist()]
        gains = to_db(gain_closed_form(*map(np.array, zip(*pairs)))).tolist()
        rows += [(int(c[1]), x1, x2, v) for (x1, x2), v in zip(pairs, gains)]
    assert header == b"cut_id,gamma1,gamma2,gain_db"
    assert data == csv_rows(rows)


def test_readme_session_passes_absolute_pythonpath(tmp_path, monkeypatch):
    # the commands run in OUTDIR, so a relative entry would not reach them
    spec = importlib.util.spec_from_file_location("readme_session",
                                                  ROOT / "scripts" / "readme_session.py")
    session = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(session)
    envs = []

    def run(cmd, cwd, env=None):
        envs.append(os.environ if env is None else env)
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(session.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["src", "lib/extra"]))
    assert session.main("out") == 0
    assert len(envs) == len(session.SESSION)
    here = os.getcwd()
    for env in envs:
        assert env["PYTHONPATH"].split(os.pathsep) == [os.path.join(here, "src"),
                                                        os.path.join(here, "lib", "extra")]
