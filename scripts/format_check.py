"""Check the CSV float formatter against ``repr`` on seeded random doubles.

Sends ``--count`` doubles through ``emit_csv``, in chunks of 10**6: in each
chunk, a third are random 64-bit patterns (NaN and -inf dropped, as tables
reject them), a third are log-uniform magnitudes over [1e-30, 1e30) and a
third log-uniform over [1e-5, 1e17), where most cells are in fixed notation
and so formatted in numpy; both log-uniform kinds have random signs.  Every
cell must equal ``repr(float(x))``; the first mismatch is printed and the
script exits 1.  At the end it prints how many cells the numpy formatter
left to ``repr``, per kind of draw: those ``repr`` writes in exponent form.

    python scripts/format_check.py                         # 10**7 values
    python scripts/format_check.py --count 1000000 --seed 7

It imports nearband from the ``src`` directory of the checkout it sits in,
ahead of any installed copy, so it checks that working tree.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from nearband.scenarios import _EMIT_BLOCK_ROWS, SweepTable, _float_cells, emit_csv


def draws(rng, n: int) -> dict:
    bits = np.frombuffer(rng.bytes(8 * n), np.float64)
    return {"bit pattern": bits[~np.isnan(bits) & (bits != -math.inf)],
            "log-uniform": 10.0 ** rng.uniform(-30, 30, n) * rng.choice([-1.0, 1.0], n),
            "log-uniform 1e-5..1e17": 10.0 ** rng.uniform(-5, 17, n) * rng.choice([-1.0, 1.0], n)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=10_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    cells, fallback = {}, {}
    for start in range(0, args.count, 1_000_000):
        for kind, col in draws(rng, min(1_000_000, args.count - start) // 3).items():
            got = emit_csv(SweepTable(("x",), (col,), ())).split(b"\n")[1:-1]
            for value, text in zip(col.tolist(), got):
                if text != repr(value).encode():
                    print(f"mismatch ({kind}): {value!r} written as {text.decode()}")
                    return 1
            cells[kind] = cells.get(kind, 0) + len(col)
            fallback[kind] = fallback.get(kind, 0) + sum(
                int(_float_cells(col[i:i + _EMIT_BLOCK_ROWS])[1].sum())
                for i in range(0, len(col), _EMIT_BLOCK_ROWS))
    for kind, n in cells.items():
        print(f"{kind}: {n} cells match repr; {fallback[kind]} written by repr "
              f"({fallback[kind] / max(n, 1):.3%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
