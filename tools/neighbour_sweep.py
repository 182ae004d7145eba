"""Time the scattered neighbour search and the gradient field against the sensor count M.

    python tools/neighbour_sweep.py [--tree DIR] [--sensors 28 256 512 1024 4096]
                                    [--neighbors 6] [--repeat 9] [--seed 0]
                                    [--factors 0.8 1.0 1.2 2.0]

For each M it draws a seeded layout of M distinct sensors on the 1 mm grid of
the default 14 m x 7 m room (uniform, as the sensor-wide benchmark draws
them, but never two on one point) and a complex mode on it, and prints the best of ``--repeat`` wall
times of ``gradient._nearest(positions, k)`` and of
``gradient.gradient_field(mode, layout, k)``, in milliseconds.  These two
columns work on any tree.

When the tree has the sorted-strip search (``gradient._WINDOW_FACTOR``), it
also prints how many rows each pass kept, first pass first, and, for each
value of ``--factors``, the time of ``_nearest`` with the window factor set
to that value; the best of those columns is where ``_WINDOW_FACTOR``
belongs.

``--tree`` names the source tree whose ``src/`` is imported (default: this
checkout), so one checkout times two trees: run the tool once per tree, one
after the other, on an otherwise idle machine.  The tool pins the BLAS to
one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def layout_points(m: int, seed: int) -> np.ndarray:
    """``m`` distinct points on the 1 mm grid of the 14 m x 7 m room, in draw order."""
    rng = np.random.default_rng(seed)
    mm = rng.integers((0, 0), (14001, 7001), size=(2 * m, 2))
    _, first = np.unique(mm, axis=0, return_index=True)
    return mm[np.sort(first)[:m]] / 1000.0


def best_ms(call, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def rows_per_pass(gradient, pos, k) -> list[int]:
    """How many rows each pass of the strip search kept, from the widths of its distance blocks."""
    searched: dict[int, int] = {}  # rows searched at each window width, in pass order
    distances = gradient._distances

    def spy(others, rows):
        block = distances(others, rows)
        n, width = block.shape
        searched[width] = searched.get(width, 0) + n
        return block

    gradient._distances = spy
    try:
        gradient._nearest(pos, k)
    finally:
        gradient._distances = distances
    counts = list(searched.values())
    return [n - later for n, later in zip(counts, counts[1:] + [0])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                        help="source tree whose src/ is timed (default: this checkout)")
    parser.add_argument("--sensors", type=int, nargs="+", default=[28, 256, 512, 1024, 4096])
    parser.add_argument("--neighbors", type=int, default=6)
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--factors", type=float, nargs="*", default=[],
                        help="window factors to time _nearest at, on a strip tree")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    from thermokmd import gradient
    from thermokmd.timeseries import SensorLayout

    factor = getattr(gradient, "_WINDOW_FACTOR", None)
    factors = args.factors if factor is not None else []
    print(f"tree {Path(args.tree).resolve()}, k = {args.neighbors}, best of {args.repeat}"
          + ("" if factor is None else f", window factor {factor}"))
    print(f"{'M':>6} {'_nearest ms':>12} {'gradient_field ms':>18}"
          + "".join(f" {f'c={c:g} ms':>10}" for c in factors)
          + ("" if factor is None else "  rows kept per pass"))
    for m in args.sensors:
        pos = layout_points(m, args.seed + m)
        layout = SensorLayout(tuple(f"S{i}" for i in range(m)), pos)
        x, y = pos.T
        mode = np.exp(1j * (0.4 * x - 0.3 * y)) * (1.0 + 0.1 * y)
        k = min(args.neighbors, m - 1)
        near = best_ms(lambda: gradient._nearest(pos, k), args.repeat)
        field = best_ms(lambda: gradient.gradient_field(mode, layout, args.neighbors),
                        args.repeat)
        line = f"{m:>6} {near:>12.3f} {field:>18.3f}"
        for c in factors:
            gradient._WINDOW_FACTOR = c
            line += f" {best_ms(lambda: gradient._nearest(pos, k), args.repeat):>10.3f}"
        if factor is not None:
            gradient._WINDOW_FACTOR = factor
            line += "  " + " ".join(map(str, rows_per_pass(gradient, pos, k)))
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
