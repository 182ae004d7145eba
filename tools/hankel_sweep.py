"""Sweep the Hankel delay count q on the three record families the q rule must serve.

    python tools/hankel_sweep.py [--delays 1 3 5 10 20] [--room-seeds 8]
                                 [--analytic-seeds 27] [--sensor-seeds 3]

For each q it runs ``spectral.hankel_dmd(record, delays=q)`` on mean-free
records of three kinds, and prints one row per (record kind, q): how many
records ranked the right period first, the median and worst relative period
error, the range of the rank r, and the median seconds per fit.

* ``room``: the default thermostat room (M = 28, N = 241) with seeds
  0 .. ``--room-seeds`` - 1.  The truth is the median AC-2 switch interval;
  a record succeeds when the dominant period is within 60 s of it
  (acceptance criterion 4).
* ``analytic-long``: the shipped two-tone oracle at N = 1441 with noise 0.05
  and seeds 0 .. ``--analytic-seeds`` - 1.  The truth is the 853.8 s tone;
  success is a relative error of at most 1e-4.
* ``sensors-1024``: the same oracle at N = 241 and noise 0.05 on 1024
  sensors drawn uniformly in the 14 m x 7 m room (distinct points, 1 mm
  grid), seeds 0 .. ``--sensor-seeds`` - 1.  Same truth and success rule.
* ``standing-128``: one standing wave on 128 channels, (1 + x_i) sin(2 pi k / 16
  + 0.3) with x_i = linspace(0, 1, 128), N = 241 at 60 s, plus noise 0.05,
  seeds 0 .. ``--sensor-seeds`` - 1.  The truth is 960 s; success as above.
  A standing wave is rank 1 per tone, so it shows where q = 1 is too few.

The row marked ``*`` is the q that :func:`thermokmd.spectral.hankel_delays`
picks for that record shape.  Run with one BLAS thread for comparable times
(``OPENBLAS_NUM_THREADS=1``).  The rule q = max(1, min(ceil(128 / M),
(N - 1) // 4)) was chosen from this sweep, together with peak memory: the
embedded record has q M rows, and q = 19 on the default room raised the peak
RSS of a ``pipeline`` process from 40.8 to 45.7 MiB (one BLAS thread).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from thermokmd import spectral, synth, timeseries  # noqa: E402

TONE_S = 853.8
STANDING_S = 960.0
ANALYTIC_RTOL = 1e-4
ROOM_ATOL_S = 60.0


def room_records(seeds: int):
    spec = synth.default_room_spec()
    for seed in range(seeds):
        record, events = synth.simulate_room(replace(spec, seed=seed))
        yield timeseries.remove_mean(record), synth.switch_cycle_period(events, "AC-2")


def analytic_records(seeds: int):
    base = replace(synth.default_analytic_spec(), n_snapshots=1441, noise_std=0.05)
    for seed in range(seeds):
        record, _ = synth.generate_analytic(replace(base, seed=seed))
        yield timeseries.remove_mean(record), TONE_S


def sensor_records(seeds: int, m: int = 1024):
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        mm = rng.choice(14000 * 7000, size=m, replace=False)  # distinct 1 mm cells
        points = np.column_stack([mm % 14000, mm // 14000]) / 1000.0
        ids = tuple(f"S-{i + 1:04d}" for i in range(m))
        layout = timeseries.SensorLayout(ids, points)
        spec = replace(synth.default_analytic_spec(layout), noise_std=0.05, seed=seed)
        record, _ = synth.generate_analytic(spec)
        yield timeseries.remove_mean(record), TONE_S


def standing_records(seeds: int):
    k = np.arange(241)
    clean = np.outer(1.0 + np.linspace(0.0, 1.0, 128), np.sin(2 * np.pi * k / 16 + 0.3))
    ids = tuple(f"W-{i + 1:03d}" for i in range(128))
    for seed in range(seeds):
        noise = 0.05 * np.random.default_rng(seed).standard_normal(clean.shape)
        record = timeseries.SnapshotMatrix(clean + noise, 60.0, 0.0, ids)
        yield timeseries.remove_mean(record), STANDING_S


def sweep(name: str, records, delays, ok) -> None:
    records = list(records)
    m, n = records[0][0].values.shape
    rule = spectral.hankel_delays(m, n)
    for q in delays:
        errors, ranks, times, hits = [], [], [], 0
        for record, truth in records:
            t0 = time.perf_counter()
            table = spectral.hankel_dmd(record, delays=q)
            times.append(time.perf_counter() - t0)
            dominant = table.dominant()
            period = None if dominant is None else dominant.period_seconds
            err = np.inf if period is None else abs(period - truth) / truth
            errors.append(err)
            ranks.append(table.fit["rank"])
            hits += ok(period, truth)
        mark = "*" if q == rule else " "
        print(f"{name:<14} M={m:<5d} N={n:<5d} q={q:<3d}{mark} ok {hits:>2d}/{len(records):<2d} "
              f"err median {statistics.median(errors):.2e} worst {max(errors):.2e}  "
              f"r {min(ranks)}-{max(ranks)}  {statistics.median(times):.3f} s/fit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delays", type=int, nargs="+", default=[1, 3, 5, 10, 20])
    parser.add_argument("--room-seeds", type=int, default=8)
    parser.add_argument("--analytic-seeds", type=int, default=27)
    parser.add_argument("--sensor-seeds", type=int, default=3)
    args = parser.parse_args(argv)

    def room_ok(period, relay):
        return period is not None and abs(period - relay) <= ROOM_ATOL_S

    def tone_ok(period, tone):
        return period is not None and abs(period - tone) <= ANALYTIC_RTOL * tone

    sweep("room", room_records(args.room_seeds), args.delays, room_ok)
    sweep("analytic-long", analytic_records(args.analytic_seeds), args.delays, tone_ok)
    sweep("sensors-1024", sensor_records(args.sensor_seeds), args.delays, tone_ok)
    sweep("standing-128", standing_records(args.sensor_seeds), args.delays, tone_ok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
