"""The benchmark's workloads: inputs made from a seed, and output checks.

Each workload writes its inputs (configs and layouts) from ``--seed``, names
the two CLI calls a repetition makes, and checks one repetition's artifacts
against a truth it knows independently of the program.

* ``room-default``: the shipped room with the seed substituted, then
  ``pipeline --flux-sources``.  The paper's end-to-end path; the simulator is
  nearly all of the generator time.
* ``analytic-long``: the shipped two-tone oracle at one day of 60 s samples
  (N = 1441) with noise 0.05.  The companion KMD is nearly all of the
  pipeline and no simulator runs.
* ``sensor-wide``: the two-tone oracle on 1024 scattered sensors (N = 241),
  then ``pipeline --gradient-source dmd_mode``.  Serialization, per-sensor
  loops and CSV I/O dominate, and the complex gradient path runs.
"""

from __future__ import annotations

import configparser
import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRUTH_PERIOD_S = 853.8  # dominant tone of the shipped two-tone config
ANALYTIC_DT_S = 60.0
# Relative period error allowed on analytic-long.  On the seeds where the
# tone ranks first the error stays below 2e-5.  On some seeds (10, 13 and 17
# of 0-19) the companion fit ranks a damped spurious mode above the tone
# (seed 13: 219.6 s, |lam| = 0.35), the pipeline phase-averages at the wrong
# period, and the repetition fails: a defect of the program that the check
# is there to show.  spectral.energy_gap reports the margin on every run.
ANALYTIC_PERIOD_RTOL = 1e-4
ROOM_PERIOD_ATOL_S = 60.0  # acceptance criterion 4
ROOM_MIN_FLUX_SCORE = 0.7  # acceptance criterion 4
ACTIVE_AC = "AC-2"


@dataclass
class Inputs:
    synth: list[str]
    pipeline: list[str]
    sim_steps: int = 0
    required: tuple[str, ...] = ()


@dataclass
class Check:
    failures: list[str] = field(default_factory=list)
    facts: dict[str, float] = field(default_factory=dict)


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    return parser


def _write_ini(parser: configparser.ConfigParser, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        parser.write(fh)


def _program_seed(seed: int) -> int:
    return seed % 2**32


def _common_facts(rep: Path, check: Check) -> dict:
    """Counts every workload reports, read from the artifacts.

    These are reported, not checked: a ratio whose denominator is missing or
    zero is left out, so that computing a fact never fails a repetition.
    """
    snapshots = rep / "data" / "snapshots.csv"
    with snapshots.open(encoding="utf-8") as fh:
        m = len(fh.readline().strip().split(",")) - 1
        n = sum(1 for _ in fh)
    modes = json.loads((rep / "out" / "modes.json").read_text(encoding="utf-8"))
    kept = sum(len(e["couple"]) for e in modes["modes"])
    energies = sorted((e["energy"] for e in modes["modes"] if not e["bias_flag"]), reverse=True)
    eigs = modes["n_snapshots"] - 1
    with (rep / "out" / "gradient.csv").open(encoding="utf-8") as fh:
        valid = [row["valid"] == "true" for row in csv.DictReader(fh)]
    check.facts.update({
        "timeseries.snapshot_cells": m * n,
        "timeseries.snapshots_csv_bytes": snapshots.stat().st_size,
        "spectral.eigs_computed": eigs,
        "spectral.modes_kept": kept,
        "spectral.vandermonde_bytes": eigs * eigs * 16,
        "spectral.modes_json_bytes": (rep / "out" / "modes.json").stat().st_size,
    })
    if eigs > 0:
        check.facts["spectral.kept_frac"] = kept / eigs
    if len(energies) >= 2 and energies[1] > 0:
        check.facts["spectral.energy_gap"] = energies[0] / energies[1]
    if valid:
        check.facts["gradient.valid_frac"] = sum(valid) / len(valid)
    return json.loads((rep / "out" / "run_metadata.json").read_text(encoding="utf-8"))


def _dominant_period(meta: dict, check: Check) -> float | None:
    dominant = meta.get("dominant_mode") or {}
    period = dominant.get("period_seconds")
    if period is None:
        check.failures.append("no dominant oscillatory mode in run_metadata.json")
    return period


class RoomDefault:
    name = "room-default"

    def prepare(self, root: Path, seed: int, inputs: Path, size: dict) -> Inputs:
        parser = _read_ini(root / "src" / "thermokmd" / "configs" / "room_default.ini")
        parser["room"]["seed"] = str(_program_seed(seed))
        for key, value in size.items():
            parser["room"][key] = str(value)
        config = inputs / "room.ini"
        _write_ini(parser, config)
        room = parser["room"]
        sim_dt = room.getfloat("sim_dt")
        stride = round(room.getfloat("sample_dt") / sim_dt)
        steps = (round(room.getfloat("warmup") / sim_dt)
                 + round(room.getfloat("duration") / sim_dt) // stride * stride)
        return Inputs(
            synth=["synth-room", "--config", str(config), "--out-dir", "data"],
            pipeline=["pipeline", "--snapshots", "data/snapshots.csv",
                      "--layout", "data/layout.csv",
                      "--flux-sources", "data/sources.csv", "--out-dir", "out"],
            sim_steps=steps,
            required=("flux_scores.csv",),
        )

    def check(self, rep: Path) -> Check:
        check = Check()
        meta = _common_facts(rep, check)
        period = _dominant_period(meta, check)
        relay = switch_cycle_period(rep / "data" / "switch_log.csv", ACTIVE_AC)
        if period is not None:
            check.facts["spectral.period_rel_err"] = abs(period - relay) / relay
            if not abs(period - relay) <= ROOM_PERIOD_ATOL_S:
                check.failures.append(
                    f"dominant period {period:.1f} s is more than {ROOM_PERIOD_ATOL_S} s "
                    f"from the {ACTIVE_AC} switch cycle {relay:.1f} s")
        score = (meta.get("flux_scores") or {}).get(ACTIVE_AC)
        if score is None or not score >= ROOM_MIN_FLUX_SCORE:
            check.failures.append(f"{ACTIVE_AC} flux score {score} < {ROOM_MIN_FLUX_SCORE}")
        return check


def switch_cycle_period(path: Path, ac: str) -> float:
    """Median interval between consecutive 'on' edges of one unit.

    The same definition as ``thermokmd.synth.switch_cycle_period``, computed
    here from the switch log so that the truth does not come from the code
    under test.
    """
    with path.open(encoding="utf-8") as fh:
        times = [float(r["time"]) for r in csv.DictReader(fh)
                 if r["ac_id"] == ac and r["state"] == "on"]
    if len(times) < 3:
        raise ValueError(f"{path}: fewer than 3 'on' events for {ac}")
    return statistics.median(np.diff(times).tolist())


class AnalyticLong:
    name = "analytic-long"

    def prepare(self, root: Path, seed: int, inputs: Path, size: dict) -> Inputs:
        parser = _read_ini(root / "src" / "thermokmd" / "configs" / "analytic_twotone.ini")
        parser["analytic"].update({"snapshots": "1441", "noise_std": "0.05",
                                   "seed": str(_program_seed(seed))})
        parser["analytic"].update({k: str(v) for k, v in size.items()})
        config = inputs / "analytic.ini"
        _write_ini(parser, config)
        return Inputs(
            synth=["synth-analytic", "--config", str(config), "--out-dir", "data"],
            pipeline=["pipeline", "--snapshots", "data/snapshots.csv",
                      "--layout", "data/layout.csv", "--out-dir", "out"],
        )

    def check(self, rep: Path) -> Check:
        check = Check()
        meta = _common_facts(rep, check)
        period = _dominant_period(meta, check)
        if period is not None:
            err = abs(period - TRUTH_PERIOD_S) / TRUTH_PERIOD_S
            check.facts["spectral.period_rel_err"] = err
            if not err <= ANALYTIC_PERIOD_RTOL:
                check.failures.append(
                    f"dominant period {period!r} s is off the {TRUTH_PERIOD_S} s tone "
                    f"by {err:.2e} relative (limit {ANALYTIC_PERIOD_RTOL:g})")
        _check_period_samples(meta, check)
        return check


class SensorWide:
    """M = 1024 scattered sensors, N = 241: the fit is well determined.

    With M > N - 1 the mean-subtracted companion fit reproduces the last
    snapshot exactly, its Ritz values are the N-th roots of unity other than
    1, and KMD reduces to the temporal DFT (Chen, Tu & Rowley 2012).  The
    dominant period is therefore the DFT bin nearest the tone, N dt / k
    (850.588 s = 241 * 60 / 17 for the 853.8 s tone), not the tone itself.
    The check allows one bin; this is a property of the method, not a
    tolerance chosen to hide a defect.
    """

    name = "sensor-wide"
    sensors = 1024

    def prepare(self, root: Path, seed: int, inputs: Path, size: dict) -> Inputs:
        parser = _read_ini(root / "src" / "thermokmd" / "configs" / "analytic_twotone.ini")
        parser["analytic"].update({"noise_std": "0.05", "seed": str(_program_seed(seed))})
        config = inputs / "analytic.ini"
        _write_ini(parser, config)
        m = size.get("sensors", self.sensors)
        rng = np.random.default_rng(_program_seed(seed))
        xy = np.round(rng.uniform((0.0, 0.0), (14.0, 7.0), size=(m, 2)), 3)
        layout = inputs / "layout.csv"
        with layout.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "x", "y"])
            for i, (x, y) in enumerate(xy):
                writer.writerow([f"S-{i + 1:04d}", repr(float(x)), repr(float(y))])
        return Inputs(
            synth=["synth-analytic", "--config", str(config), "--layout", str(layout),
                   "--out-dir", "data"],
            pipeline=["pipeline", "--snapshots", "data/snapshots.csv",
                      "--layout", "data/layout.csv", "--gradient-source", "dmd_mode",
                      "--out-dir", "out"],
            required=("rms_gradient.csv",),
        )

    def check(self, rep: Path) -> Check:
        check = Check()
        meta = _common_facts(rep, check)
        period = _dominant_period(meta, check)
        if period is not None:
            check.facts["spectral.period_rel_err"] = abs(period - TRUTH_PERIOD_S) / TRUTH_PERIOD_S
            record_s = meta["parameters"]["dt_seconds"] * (
                check.facts["spectral.eigs_computed"] + 1)
            bins_off = abs(record_s / period - record_s / TRUTH_PERIOD_S)
            if not bins_off <= 1.0:
                check.failures.append(
                    f"dominant period {period!r} s is {bins_off:.2f} DFT bins "
                    f"from the {TRUTH_PERIOD_S} s tone")
        _check_period_samples(meta, check)
        return check


def _check_period_samples(meta: dict, check: Check) -> None:
    expected = round(TRUTH_PERIOD_S / ANALYTIC_DT_S)
    got = meta.get("parameters", {}).get("period_samples")
    if got != expected:
        check.failures.append(f"period_samples {got} != {expected}")


WORKLOADS = {w.name: w for w in (RoomDefault(), AnalyticLong(), SensorWide())}
