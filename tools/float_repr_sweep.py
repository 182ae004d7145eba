"""Check ``timeseries.repr_rows`` against ``repr`` on a seeded sweep of doubles, decade by decade.

    python tools/float_repr_sweep.py [--tree DIR] [--values 10000000] [--seed 0]
                                     [--block 100000]

The decades 10^d <= |x| < 10^(d+1) run from d = -324, the subnormals, to
d = 308, the largest doubles, so every form of repr is drawn, down to the
24 characters of ``-2.2250738585072014e-308``.  Half the values go to the
decades -12 to 19, around the window 1e-4 to 1e14 in which repr_rows writes
the digits itself, half to all the others, in which repr writes them; each
decade of a group gets the same number.  In each decade, each of random sign:

* a third log-uniform over the decade, so with random 53-bit mantissas;
* a third short decimals: D * 10^j for a random integer D of 1 to 15 digits,
  the double nearest the decimal, so shortest forms of every length up to 15;
* a third the neighbours (one step up or down) of those.

Values past the largest double (inf) are dropped, so the top decade has
fewer.  Every block of ``--block`` values is formatted by ``repr_rows``, one
value a row, and by ``repr``; each value whose texts differ is printed.  The
table gives, per decade, the values drawn, the mismatches and the share
certified, that is formatted without ``repr``.  Exit status 1 if any value
differs.

``--tree`` names the source tree whose ``src/`` is imported (default: this
checkout), so one checkout sweeps two trees.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

DECADES = range(-324, 309)
CORE = range(-12, 20)
LOG10_MAX = math.log10(sys.float_info.max)


def decade_values(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """``n`` doubles in [10^d, 10^(d+1)) or just across its edges, of random sign, less any inf."""
    third = n // 3
    logs = 10.0 ** (d + rng.random(n - 2 * third) * (min(d + 1, LOG10_MAX) - d))
    digits = rng.integers(1, 16, third)
    mantissa = rng.integers(10 ** (digits - 1), 10**digits)
    shift = d - digits + 1  # the decimal is mantissa * 10^shift
    short = np.array([float(f"{m}e{j}") for m, j in zip(mantissa.tolist(), shift.tolist())])
    step = np.where(rng.random(third) < 0.5, 0.0, np.inf)
    x = np.concatenate([logs, short, np.nextafter(short, step)])
    x = np.where(rng.random(n) < 0.5, -x, x)
    return x[np.isfinite(x)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                        help="source tree whose src/ is swept (default: this checkout)")
    parser.add_argument("--values", type=int, default=10_000_000,
                        help="doubles to draw in all (default 10^7)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block", type=int, default=100_000,
                        help="values formatted at once (default 10^5)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    from thermokmd.timeseries import repr_rows

    rng = np.random.default_rng(args.seed)
    per_core = args.values // 2 // len(CORE)
    per_outer = (args.values - per_core * len(CORE)) // (len(DECADES) - len(CORE))
    start = time.perf_counter()
    total = wrong = certified_total = 0
    print(f"{'decade':>8} {'values':>9} {'mismatches':>10} {'certified':>9}")
    for d in DECADES:
        x = decade_values(rng, d, per_core if d in CORE else per_outer)
        bad = certified = 0
        for block in np.array_split(x, max(1, len(x) // args.block)):
            rows, fast = repr_rows(block[:, None])
            certified += fast
            for v, text in zip(block.tolist(), rows):
                if text[1:] != repr(v):
                    bad += 1
                    print(f"mismatch: {v!r} written as {text[1:]!r}")
        print(f"{f'1e{d}':>8} {len(x):>9} {bad:>10} {certified / len(x):>9.4f}")
        total, wrong, certified_total = total + len(x), wrong + bad, certified_total + certified
    print(f"{'all':>8} {total:>9} {wrong:>10} {certified_total / total:>9.4f}"
          f"   ({time.perf_counter() - start:.1f} s, seed {args.seed}, "
          f"tree {Path(args.tree).resolve()})")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
