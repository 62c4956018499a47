"""Run the README's example session against the importable nearband package.

Writes the README's scenario block to ``scenario.cfg`` in OUTDIR, then
runs, each in a fresh ``python -m nearband.cli`` process: ``verify``, the
README's ``contours``, ``bmax-curve`` and ``band-map --svg`` commands,
``gain-surface`` and ``gain-cuts`` with ``--svg``, and one ``contours
--linear`` run.  Exits 1 at the first command that fails.

    python scripts/readme_session.py OUTDIR

Needs only the package and numpy, so it checks that a runtime-only install
(``pip install .``, no extras) works end to end.  The commands run in
OUTDIR, so each ``PYTHONPATH`` entry is first made absolute against the
caller's directory; ``PYTHONPATH=src python scripts/readme_session.py OUT``
from the repository root runs the source tree.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TAU_SWEEP = ["--set", "sweep.axis=tau_db", "--set", "sweep.min=-3",
             "--set", "sweep.max=-0.1", "--set", "sweep.points=25"]
SESSION = [
    ["verify"],
    ["contours", "--out", "contours.csv"],
    ["bmax-curve", "--out", "bmax.csv", *TAU_SWEEP],
    ["band-map", "--out", "bandmap.csv", "--svg"],
    ["gain-surface", "--out", "surface.csv", "--svg"],
    ["gain-cuts", "--out", "cuts.csv", "--svg"],
    ["contours", "--out", "linear.csv", "--linear",
     "--set", "tau_db=0.595", "--set", "tau_list_db=0.95, 0.595"],
]


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    block = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    (out / "scenario.cfg").write_text(block[0], encoding="utf-8")
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    for args in SESSION:
        if args[0] != "verify":
            args = [args[0], "--scenario", "scenario.cfg", *args[1:]]
        cmd = [sys.executable, "-m", "nearband.cli", *args]
        if subprocess.run(cmd, cwd=out, env=env).returncode != 0:
            print(f"failed: {' '.join(args)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
