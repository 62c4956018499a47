"""Run the README's example session against the importable nearband package.

Writes the README's scenario block to ``scenario.cfg`` in OUTDIR, then
runs, each in a fresh ``python -m nearband.cli`` process: ``verify``, the
README's ``contours``, ``bmax-curve`` and ``band-map --svg`` commands,
``gain-surface`` and ``gain-cuts`` with ``--svg``, and one ``contours
--linear`` run.  Exits 1 at the first command that fails.

    python scripts/readme_session.py OUTDIR
    python scripts/readme_session.py --phases N OUTDIR

``--phases N`` runs the session N times instead, the commands taking turns,
and prints where each command's wall time goes, as medians in ms over its N
fresh processes: ``start`` from the spawn until the interpreter runs its
first line, ``import`` of ``nearband.cli``, ``main`` (the command itself,
entered as the console script enters it, ``main()`` without arguments) and
``exit`` from ``main``'s return until the parent sees the process end:
interpreter shutdown and the process teardown.  The CLI's stdout is dropped
in this mode; it makes no timing assertion.

Needs only the package and numpy, so it checks that a runtime-only install
(``pip install .``, no extras) works end to end.  The commands run in
OUTDIR, so each ``PYTHONPATH`` entry is first made absolute against the
caller's directory; ``PYTHONPATH=src python scripts/readme_session.py OUT``
from the repository root runs the source tree.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys
import time
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
PHASES = ("start", "import", "main", "exit")
# the child of --phases: argv is STAMP_FILE SUBCOMMAND [ARG...]; it writes the
# wall-clock ns at its first line, after the import and after main returns
PHASE_CHILD = """\
import sys, time
t_start = time.time_ns()
from nearband.cli import main
t_import = time.time_ns()
stamp_file = sys.argv.pop(1)
try:
    code = main()
finally:
    t_main = time.time_ns()
    with open(stamp_file, "w") as fh:
        fh.write(f"{t_start} {t_import} {t_main}")
raise SystemExit(code)
"""


def _label(args: list) -> str:
    return " ".join([args[0], *(a for a in args[1:] if a in ("--linear", "--svg"))])


def _phases(cmd: list, cwd: Path, env: dict) -> list | None:
    """Phase durations (s) of one fresh process of cmd, or None if it failed."""
    stamp = cwd / "phases.stamp"
    t_spawn = time.time_ns()
    code = subprocess.run([sys.executable, "-c", PHASE_CHILD, str(stamp), *cmd], cwd=cwd,
                          env=env, stdout=subprocess.DEVNULL).returncode
    t_end = time.time_ns()
    if code != 0:
        return None
    t_start, t_import, t_main = map(int, stamp.read_text().split())
    stamp.unlink()
    return [(b - a) / 1e9 for a, b in
            zip((t_spawn, t_start, t_import, t_main), (t_start, t_import, t_main, t_end))]


def main(outdir: str, phases: int = 0) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    block = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    (out / "scenario.cfg").write_text(block[0], encoding="utf-8")
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    commands = [args if args[0] == "verify" else
                [args[0], "--scenario", "scenario.cfg", *args[1:]] for args in SESSION]
    times = {_label(args): [] for args in SESSION}
    for _ in range(max(phases, 1)):
        for label, args in zip(times, commands):
            if phases:
                split = _phases(args, out, env)
                times[label].append(split)
                ok = split is not None
            else:
                cmd = [sys.executable, "-m", "nearband.cli", *args]
                ok = subprocess.run(cmd, cwd=out, env=env).returncode == 0
            if not ok:
                print(f"failed: {' '.join(args)}", file=sys.stderr)
                return 1
    if phases:
        print(f"median ms over {phases} fresh process(es) per command")
        print("| command | " + " | ".join(PHASES) + " | sum |")
        print("|---" * (len(PHASES) + 2) + "|")
        for label, splits in times.items():
            ms = [1e3 * statistics.median(col) for col in zip(*splits)]
            print(f"| {label} | " + " | ".join(f"{v:.1f}" for v in ms) + f" | {sum(ms):.1f} |")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phases", type=int, metavar="N",
                        help="time each command's phases over N fresh processes")
    parser.add_argument("outdir")
    opts = parser.parse_args()
    if opts.phases is not None and opts.phases < 1:
        parser.error("--phases must be >= 1")
    sys.exit(main(opts.outdir, opts.phases or 0))
