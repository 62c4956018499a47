"""Cost per call of the gain kernel and the scalar calls built on it.

Prints a markdown table: a one-point ``_gain_pq`` call on each branch of
the kernel, one 4096-point call, a scalar ``gain_closed_form``, and a
scalar ``band_distance`` that is finite and one that is ``inf``.  Each
figure is the minimum over ``--repeat`` timings of ``--number`` calls
(a twentieth as many for the 4096-point call, the finite
``band_distance`` and the CSV rows), per call.  Three more rows give the
cost per cell of ``emit_csv`` on one 8192-row column, next to ``repr`` of
the same cells: gains in dB (16-17 digit floats), a sweep axis of short
decimals (401 values, each on 21 rows in a row, formatted once per cell
like any other column), and integers.

    python scripts/kernel_cost.py                          # 15 x 200 calls
    python scripts/kernel_cost.py --repeat 2 --number 5    # a quick smoke run

The finite ``band_distance`` cycles through eight geometries, more than
its scan cache holds, so every call scans and finishes; the ``inf`` call
stops at the far-field check, |sinc(p)| below tau, which costs no kernel
call and which nothing caches.  It imports nearband from
the ``src`` directory of the checkout it sits in, ahead of any installed
copy, so it times that working tree and needs no install.
"""

import argparse
import math
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from nearband.constants import SPEED_OF_LIGHT_M_S
from nearband.fresnel import _gain_pq, gain_closed_form, to_db
from nearband.regimes import band_distance, far_field_product
from nearband.scenarios import SweepTable, emit_csv

# one (p, gamma2) per branch of the kernel, named by how x+- = p/gamma2 +- gamma2
# are evaluated
BRANCHES = [
    ("series C/S", 0.25, 0.5),  # x+- = 1.0, 0.0
    ("C/S with Chebyshev", 1.0, 1.0),  # 2.0, 0.0
    ("auxiliary Chebyshev", 1.5, 0.5),  # 3.5, 2.5
    ("asymptotic", 10.0, 1.0),  # 11.0, 9.0
    (r"\|sinc\|", 0.3, 1e-7),  # below the small-gamma2 cutoff
]

# a march column: p = 0.01 k, k = 1 ... 4096, at gamma2 = 1, which crosses
# the series, Chebyshev and asymptotic branches
ARRAY_P = 0.01 * np.arange(1, 4097)

# (N, spacing in wavelengths, carrier Hz, theta rad, offset as a fraction of
# the far-field half band) at -1 dB, as in the benchmark's library loop
BAND_TAU = 10.0 ** (-1.0 / 10.0)
BAND_GEOMETRIES = [
    (64, 0.5, 28e9, 0.3, 0.5),
    (128, 0.5, 39e9, -0.7, 0.8),
    (256, 0.4, 20e9, 1.1, 0.3),
    (512, 0.25, 45e9, -0.1, 0.6),
    (1024, 0.5, 30e9, 0.5, 0.2),
    (96, 0.3, 35e9, -1.2, 0.9),
    (700, 0.45, 25e9, 0.9, 0.4),
    (300, 0.35, 42e9, -0.4, 0.7),
]


# one 8192-row emit_csv column each: gains in dB, a sweep axis with repeats, integers
CSV_COLUMNS = [
    ("gain_db", to_db(gain_closed_form(np.linspace(-3.0, 3.0, 8192), 1.3))),
    ("sweep axis", np.repeat(np.linspace(-3.2, 3.2, 401), 21)[:8192]),
    ("int", np.arange(-4096, 4096) * 997),
]


def band_args(n, dbar, fc, theta, reach):
    """band_distance arguments at ``reach`` times the far-field half band."""
    lam = SPEED_OF_LIGHT_M_S / fc
    lbar = n * dbar
    half_band = far_field_product(BAND_TAU) * fc / (lbar * abs(math.sin(theta)))
    return math.copysign(reach * half_band, theta), fc, BAND_TAU, lbar * lam, theta


def per_call(stmt, repeat: int, number: int, calls: int = 1) -> float:
    """Minimum over ``repeat`` timings of ``number`` runs of ``stmt``, per call
    (``stmt`` makes ``calls`` calls), in seconds."""
    return min(timeit.repeat(stmt, repeat=repeat, number=number)) / (number * calls)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=15)
    ap.add_argument("--number", type=int, default=200)
    args = ap.parse_args()
    rep, num = args.repeat, args.number

    rows = []
    for name, p, g2 in BRANCHES:
        p_arr, g2_arr = np.array([p]), np.array([g2])
        rows.append((f"one point, {name}", per_call(lambda: _gain_pq(p_arr, g2_arr), rep, num)))
    rows.append(("4096 points", per_call(lambda: _gain_pq(ARRAY_P, 1.0), rep, max(num // 20, 1))))
    rows.append(("scalar gain_closed_form", per_call(lambda: gain_closed_form(3.0, 0.5), rep, num)))

    finite = [band_args(*g) for g in BAND_GEOMETRIES]
    if not all(math.isfinite(band_distance(*a)) for a in finite):
        sys.exit("a finite band_distance geometry returned inf")

    def finite_calls():
        for a in finite:
            band_distance(*a)

    rows.append(("finite band_distance", per_call(finite_calls, rep, max(num // 20, 1), len(finite))))
    beyond = band_args(*BAND_GEOMETRIES[0][:4], 1.5)
    if not math.isinf(band_distance(*beyond)):
        sys.exit("the inf band_distance geometry returned a finite distance")
    rows.append(("inf band_distance, no kernel call",
                 per_call(lambda: band_distance(*beyond), rep, num)))
    for name, col in CSV_COLUMNS:
        table = SweepTable(("x",), (col,), ())
        emit = per_call(lambda: emit_csv(table), rep, max(num // 20, 1), col.size)
        text = per_call(lambda: [repr(v) for v in col.tolist()], rep, max(num // 20, 1), col.size)
        rows.append((f"emit_csv, {name} column, per cell",
                     f"{emit * 1e9:.0f} ns (repr {text * 1e9:.0f} ns)"))

    print(f"minimum of {rep} x {num} calls; numpy {np.__version__}, Python {sys.version.split()[0]}")
    print("| call | cost per call |")
    print("|---|---|")
    for name, cost in rows:
        print(f"| {name} | {cost if isinstance(cost, str) else f'{cost * 1e6:.1f} µs'} |")


if __name__ == "__main__":
    main()
