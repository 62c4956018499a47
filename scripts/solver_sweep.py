"""Cold product_max at every 0.25 dB step on [-11.25, -0.1] dB.

For each threshold prints tau_db, product_max as float.hex and as a
decimal and the kernel rounds (calls of the gain kernel) the solve took,
as CSV on stdout, and the wall time of each cold solve on stderr.

    python scripts/solver_sweep.py > scripts/solver_sweep.csv   # rewrite the table
    python scripts/solver_sweep.py --check                      # compare with it

``--check`` exits 1 when a value differs from scripts/solver_sweep.csv by
more than 4 ulp, a threshold is missing, or a solve takes more rounds
than the committed count plus max(2, 10 %) of it.  Fewer rounds pass, and
the slack allows for an ulp of difference in the kernel on another
platform, which can move the secant finish by a round.  It imports
nearband from the ``src`` directory of the checkout it sits in, ahead of
any installed copy, so it checks that working tree and needs no install.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nearband.regimes as regimes

COMMITTED = Path(__file__).resolve().with_name("solver_sweep.csv")
HEADER = "tau_db,product_max_hex,product_max,rounds"
TAUS_DB = [-11.25 + 0.25 * k for k in range(45)] + [-0.1]
TOL_ULP = 4


def sweep() -> list:
    rounds = 0
    kernel = regimes._gain_pq

    def counted(p, gamma2):
        nonlocal rounds
        rounds += 1
        return kernel(p, gamma2)

    regimes._gain_pq = counted
    rows = []
    try:
        for tau_db in TAUS_DB:
            regimes.product_max.cache_clear()
            rounds = 0
            start = time.perf_counter()
            value = regimes.product_max(10.0 ** (tau_db / 10.0))
            wall = time.perf_counter() - start
            rows.append(f"{tau_db!r},{value.hex()},{value!r},{rounds}")
            print(f"{tau_db!r} dB: {wall:.4f} s", file=sys.stderr)
    finally:
        regimes._gain_pq = kernel
    return rows


def check(rows: list) -> int:
    committed = {}
    lines = COMMITTED.read_text(encoding="utf-8").splitlines()
    for line in lines[lines.index(HEADER) + 1:]:
        tau_db, bits, _, rounds = line.split(",")
        committed[tau_db] = float.fromhex(bits), int(rounds)
    failures = 0
    for row in rows:
        tau_db, bits, _, rounds = row.split(",")
        value = float.fromhex(bits)
        if tau_db not in committed:
            print(f"{tau_db} dB: not in {COMMITTED.name}", file=sys.stderr)
            failures += 1
            continue
        want, want_rounds = committed[tau_db]
        ulps = abs(value - want) / math.ulp(want)
        if ulps > TOL_ULP:
            print(f"{tau_db} dB: {bits} is {ulps:.0f} ulp from {want.hex()}", file=sys.stderr)
            failures += 1
        elif int(rounds) > want_rounds + max(2, 0.1 * want_rounds):
            print(f"{tau_db} dB: {rounds} rounds, committed {want_rounds}", file=sys.stderr)
            failures += 1
    print(f"{len(rows) - failures}/{len(rows)} within {TOL_ULP} ulp and the rounds of "
          f"{COMMITTED.name}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {COMMITTED.name}, allowing {TOL_ULP} ulp "
                             "and max(2, 10%%) more rounds")
    args = parser.parse_args()
    rows = sweep()
    print("\n".join([HEADER, *rows]))
    return check(rows) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
