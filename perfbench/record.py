"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline/seed.json
    python3 perfbench/record.py --seeds 1-3 --workloads sensor-wide --trace 1

Runs ``run.py`` once per workload and seed, each in its own process, for the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median of
the runs and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` it writes every result line, the summary and the environment as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs, summary, env = [], {}, None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode} {proc.stderr[-300:]}")
                return 1
            result = json.loads(lines[-1])
            env = env or next((json.loads(line[4:]) for line in lines
                               if line.startswith("env ")), None)
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "result": result})
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {brief}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread, "n": len(vals)}
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "seeds": args.seeds, "summary": summary,
                                        "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
