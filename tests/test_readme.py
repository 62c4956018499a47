"""The README's scenario block parses and its library quickstart runs."""

import re
from pathlib import Path

import pytest

from nearband import parse_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_scenario_block_parses():
    scenario = parse_scenario(_block("ini"))
    assert (scenario.band_preset, scenario.carrier_hz) == ("n260", 39e9)
    assert scenario.tau_list_db == (-0.2, -1.0, -2.0)
    assert (scenario.sweep.axis, scenario.sweep.points) == ("f_hz", 33)


def test_quickstart_runs(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    # the bmax line the README annotates as ~1.03 GHz
    assert float(lines[1]) == pytest.approx(1.03e9, rel=0.01)
