"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks
that each prints every metric named in BENCHMARK.json with a positive sample
count and passes its correctness checks.  Then it corrupts the dominant
period in ``run_metadata.json`` after each repetition and checks that every
repetition counts as failed, ``ok_frac`` (1 - fail_frac) drops to 0, and
the stage times are still reported.
Last it checks that the reported facts of a repetition whose outputs leave
a ratio undefined (one oscillatory mode, no gradient rows) are left out
instead of failing it.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads

TINY = {
    # the room keeps its shipped size: with a shorter record (N = 121) the
    # dominant mode is no longer the thermostat cycle, so its check fails
    "room-default": {},
    # the 1e-4 period tolerance is set for N = 1441; at N = 241 the period
    # estimate's own error at noise 0.05 is about 2e-4, at 0.01 below 1e-4
    "analytic-long": {"snapshots": 241, "noise_std": 0.01},
    "sensor-wide": {"sensors": 300},
}


def corrupt_period(rep_dir: Path) -> None:
    path = rep_dir / "out" / "run_metadata.json"
    meta = json.loads(path.read_text(encoding="utf-8"))
    meta["dominant_mode"]["period_seconds"] *= 1.5
    meta["parameters"]["period_samples"] += 7
    path.write_text(json.dumps(meta), encoding="utf-8")


def degenerate_facts() -> list[str]:
    """Facts of outputs with one non-bias mode and an empty gradient table."""
    rep = run.ROOT / ".perfbench_work" / "selftest-degenerate"
    shutil.rmtree(rep, ignore_errors=True)
    try:
        (rep / "data").mkdir(parents=True)
        (rep / "out").mkdir()
        (rep / "data" / "snapshots.csv").write_text("time,S-1\n0,1.0\n60,2.0\n",
                                                    encoding="utf-8")
        (rep / "out" / "modes.json").write_text(json.dumps({"n_snapshots": 2, "modes": [
            {"couple": [0], "energy": 1.0, "bias_flag": False},
            {"couple": [1], "energy": 0.5, "bias_flag": True}]}), encoding="utf-8")
        (rep / "out" / "gradient.csv").write_text("x,y,valid\n", encoding="utf-8")
        (rep / "out" / "run_metadata.json").write_text("{}", encoding="utf-8")
        check = workloads.Check()
        try:
            workloads._common_facts(rep, check)
        except Exception as exc:  # noqa: BLE001 - any exception is the failure
            return [f"computing facts raised {exc!r}"]
        found = [f"fact {name} reported" for name in
                 ("spectral.energy_gap", "gradient.valid_frac") if name in check.facts]
        if check.failures:
            found.append(f"facts failed the repetition: {check.failures}")
        return found
    finally:
        shutil.rmtree(rep, ignore_errors=True)
        if not any((run.ROOT / ".perfbench_work").iterdir()):
            (run.ROOT / ".perfbench_work").rmdir()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if set(TINY) != {w["name"] for w in spec["workloads"]}:
        print("FAIL the self-test does not cover the workloads of BENCHMARK.json")
        return 1
    problems = []

    def report(label: str, found: list[str]) -> None:
        problems.extend(f"{label}: {p}" for p in found)
        print(f"{'FAIL' if found else 'ok'} {label}", flush=True)

    for name, size in TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run.run_workload(name, seed=1, seconds=0, trace=trace, size=size)
            result = out["result"]
            found = list(out["failures"])
            if not result["correct"] or result["failed"] or result["attempted"] < 2:
                found.append(f"attempted {result['attempted']}, failed {result['failed']}")
            for metric in spec[section]:
                m = result["metrics"].get(metric["name"])
                if m is None or m["unit"] != metric["unit"]:
                    found.append(f"metric {metric['name']} missing or its unit differs")
                elif out["counts"][metric["name"]] < 1:
                    found.append(f"metric {metric['name']} has no samples")
            if set(result["metrics"]) != {m["name"] for m in spec[section]}:
                found.append("metrics other than those of BENCHMARK.json")
            report(f"{name} trace={int(trace)}", found)
        out = run.run_workload(name, seed=1, seconds=0, trace=False, size=size,
                               corrupt=corrupt_period)
        result = out["result"]
        found = []
        if result["correct"] or result["failed"] != result["attempted"] \
                or result["metrics"]["ok_frac"]["value"] != 0.0:
            found.append("a corrupted period was not counted as a failure")
        if not result["metrics"]["pipeline_s"]["value"] > 0:
            found.append("failed repetitions report no pipeline time")
        report(f"{name} corrupted run_metadata.json", found)
    report("facts of degenerate outputs", degenerate_facts())
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
