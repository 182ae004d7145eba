"""thermokmd benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory and is run from source.  The workload's inputs are made from
``--seed``.  Each repetition runs in a fresh child interpreter
(``worker.py``) that calls ``thermokmd.cli.main`` for the generator
subcommand and then for ``pipeline``.  Repetitions continue until the next
one would end after ``--seconds``, with at least two, so that every run also
checks that a second run on the same seed writes byte-identical artifacts.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
wall times scaled to a reference speed (see ``reference.py``), plus
``setup_s``, the median of ``SETUP_SAMPLES`` cold starts of an interpreter
that imports the CLI and builds its parser, taken in batches between
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics from the traced ones.  The last line of
standard output is the JSON result; the lines before it give the
environment, any failures, each metric with its sample count, and the raw
wall-time medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The BLAS thread count is fixed, in the children and in this process (which
# times reference passes next to the setup samples): with two OpenBLAS
# threads the companion eigensolve at N = 1441 varied by a factor 1.6
# between repeats, with one thread by 7 %.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(CHILD_ENV)

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 12
SETUP_BATCH = 4
MIN_REPS = 2
RUN_LIMIT_S = 165.0  # stay inside the 180 s a run may take
SETUP_CODE = "import thermokmd.cli as c; c.build_parser()"

# per-layer metric -> (span name, field of tracer.summarize)
SPAN_METRICS = {
    "cli.pipeline.self_s": ("cli.pipeline", "self_s"),
    "cli.synth.self_s": ("cli.synth", "self_s"),
    "timeseries.load_snapshots_s": ("timeseries.load_snapshots", "total_s"),
    "timeseries.write_snapshots_s": ("timeseries.write_snapshots", "total_s"),
    "timeseries.load_layout_s": ("timeseries.load_layout", "total_s"),
    "timeseries.remove_mean_s": ("timeseries.remove_mean", "total_s"),
    "spectral.companion_kmd_s": ("spectral.companion_kmd", "total_s"),
    "spectral.table_to_json_s": ("spectral.table_to_json", "total_s"),
    "phaseavg.phase_average_s": ("phaseavg.phase_average", "total_s"),
    "gradient.gradient_field_s": ("gradient.gradient_field", "total_s"),
    "gradient.field_to_svg_s": ("gradient.field_to_svg", "total_s"),
    "gradient.field_to_csv_s": ("gradient.field_to_csv", "total_s"),
}
# per-layer metrics a traced repetition computes from its spans; the rest
# come from the artifacts
TRACE_METRICS = (*SPAN_METRICS, "synth.generator_s", "synth.sim_steps",
                 "synth.sim_steps_per_s", "spectral.energy_norm_s",
                 "spectral.energy_norm.calls", "spectral.companion_kmd.other_s",
                 "phaseavg.serialize_s")
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    "synth.generator_s": "s",
    "spectral.energy_norm_s": "s",
    "spectral.energy_norm.calls": "count",
    "synth.sim_steps": "count",
    "synth.sim_steps_per_s": "1/s",
    "timeseries.snapshot_cells": "count",
    "timeseries.snapshots_csv_bytes": "B",
    "spectral.companion_kmd.other_s": "s",
    "spectral.eigs_computed": "count",
    "spectral.modes_kept": "count",
    "spectral.kept_frac": "ratio",
    "spectral.vandermonde_bytes": "B",
    "spectral.modes_json_bytes": "B",
    "spectral.period_rel_err": "ratio",
    "spectral.energy_gap": "ratio",
    "phaseavg.serialize_s": "s",
    "gradient.valid_frac": "ratio",
    "trace.overhead_s": "s",
    "machine.reference_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the CLI and build the parser.

    Returns the times and the reference passes timed on either side of them.
    """
    passes = [reference.pass_s() for _ in range(2)]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                       timeout=60, cwd=ROOT)
        times.append(time.perf_counter() - start)
    passes += [reference.pass_s() for _ in range(2)]
    return times, passes


def scaled(rep: dict, stage: str) -> float:
    """A stage's wall time scaled to the reference speed (see reference.py)."""
    return rep[f"{stage}_s"] * reference.NOMINAL_S / statistics.median(
        rep[f"{stage}_reference_s"])


def tree_digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def run_rep(workload, inputs, rep_dir: Path, traced: bool, timeout: float, corrupt=None):
    """One repetition: worker child, then output checks.  Returns a record."""
    rep_dir.mkdir(parents=True)
    spans_path = rep_dir.parent / f"{rep_dir.name}.spans.json"
    job = {"src": str(ROOT / "src"), "cwd": str(rep_dir), "synth": inputs.synth,
           "pipeline": inputs.pipeline, "trace": str(spans_path) if traced else None}
    rec = {"traced": traced, "failures": []}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        rec["failures"].append(f"worker exceeded {timeout:.0f} s")
        rec["wall_s"] = time.perf_counter() - start
        return rec
    rec["wall_s"] = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        rec["failures"].append(f"worker exit {proc.returncode}: {tail[0]}")
        return rec
    rec.update(result)
    if traced and "pipeline_s" in result:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        rec["layers"] = layer_metrics(spans, rec, inputs)
        if rec["layers"] is None:
            rec["failures"].append("pipeline span does not match the measured pipeline time")
    for stage in ("synth", "pipeline"):
        if result.get(f"{stage}_exit") != 0:
            rec["failures"].append(f"{stage} exit code {result.get(f'{stage}_exit')}: "
                                   f"{proc.stderr.strip()[-300:]}")
            return rec
    if corrupt is not None:
        corrupt(rep_dir)
    missing = [f for f in inputs.required if not (rep_dir / "out" / f).is_file()]
    if missing:
        rec["failures"].append(f"missing outputs {missing}")
        return rec
    try:
        check = workload.check(rep_dir)
    except (OSError, KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        rec["failures"].append(f"unreadable outputs: {exc!r}")
        return rec
    rec["failures"] += check.failures
    rec["facts"] = check.facts
    rec["digest"] = tree_digest(rep_dir)
    return rec


def layer_metrics(spans, rec, inputs) -> dict[str, float] | None:
    """Per-layer numbers of one traced repetition, or None if the trace is inconsistent."""
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.pipeline"]
    if len(roots) != 1:
        return None
    root = spans[roots[0]]
    # the root's self time plus its children is the span's duration; it must
    # match the pipeline time the worker measured around the same call, up
    # to the cost of entering the span
    if abs((root[2] - root[1]) - rec["pipeline_s"]) > 1e-3:
        return None
    summary = tracer.summarize(spans)

    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0)

    out = {name: float(get(span, key)) for name, (span, key) in SPAN_METRICS.items()}
    # one generator runs per workload; a per-generator metric would read 0
    # on the workloads that do not call it
    sim_s = get("synth.simulate_room", "total_s")
    out["synth.generator_s"] = sim_s + get("synth.generate_analytic", "total_s")
    out["synth.sim_steps"] = inputs.sim_steps if sim_s else 0
    out["synth.sim_steps_per_s"] = inputs.sim_steps / sim_s if sim_s else 0.0
    energy = tracer.nested(spans, "spectral.energy_norm", "spectral.companion_kmd")
    out["spectral.energy_norm_s"] = sum(energy)
    out["spectral.energy_norm.calls"] = len(energy)
    out["spectral.companion_kmd.other_s"] = out["spectral.companion_kmd_s"] - sum(energy)
    out["phaseavg.serialize_s"] = (get("phaseavg.result_to_csv", "total_s")
                                   + get("phaseavg.result_to_json", "total_s"))
    return out


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": hashlib.sha256(b"".join(
            hashlib.sha256(p.read_bytes()).digest()
            for p in sorted((ROOT / "src").rglob("*.py")))).hexdigest(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: dict | None = None, corrupt=None) -> dict:
    """Run one workload and return the result object and its sample counts."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = workload.prepare(ROOT, seed, work / "inputs", size or {})
        reps = []
        # (wall times, reference passes around them) per batch of setup samples
        setup: list[tuple[list[float], list[float]]] = []
        if not trace:
            measure_setup(1)  # fills the bytecode cache, as an installed copy has it
        loop_start = time.perf_counter()
        while True:
            # setup samples are spread between the first repetitions
            taken = sum(len(times) for times, _ in setup)
            if not trace and taken < SETUP_SAMPLES:
                setup.append(measure_setup(min(SETUP_BATCH, SETUP_SAMPLES - taken)))
            traced = trace and len(reps) % 2 == 1
            budget = RUN_LIMIT_S - (time.perf_counter() - started)
            rep = run_rep(workload, inputs, work / f"rep{len(reps)}", traced,
                          max(budget, 1.0), corrupt)
            shutil.rmtree(work / f"rep{len(reps)}", ignore_errors=True)
            reps.append(rep)
            elapsed = time.perf_counter() - loop_start
            if len(reps) >= MIN_REPS and elapsed + rep["wall_s"] > seconds:
                break
            if time.perf_counter() - started + rep["wall_s"] > RUN_LIMIT_S:
                break
        taken = sum(len(times) for times, _ in setup)
        if not trace and taken < SETUP_SAMPLES:
            setup.append(measure_setup(SETUP_SAMPLES - taken))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    first = next((r["digest"] for r in reps if "digest" in r), None)
    for r in reps:
        if "digest" in r and r["digest"] != first:
            changed = sorted(k for k in set(r["digest"]) | set(first)
                             if r["digest"].get(k) != first.get(k))
            r["failures"].append(f"artifacts differ from the first repetition: {changed}")
    failed = sum(1 for r in reps if r["failures"])
    # timings count every repetition whose worker timed both stages, whatever
    # their exit codes and checks said; failures show in ok_frac and in the
    # result's "failed"
    done = [r for r in reps if "pipeline_s" in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r.get("layers")]

    metrics, counts = {}, {}

    def put(metric: str, values: list[float], unit: str) -> None:
        metrics[metric] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        counts[metric] = len(values)

    passes = [x for r in done for stage in ("synth", "pipeline")
              for x in r[f"{stage}_reference_s"]]
    if trace:
        for metric, unit in PER_LAYER_UNITS.items():
            if metric == "trace.overhead_s":
                overhead = []
                if plain and traced:
                    overhead = [statistics.median(scaled(r, "pipeline") for r in traced)
                                - statistics.median(scaled(r, "pipeline") for r in plain)]
                put(metric, overhead, unit)
            elif metric == "machine.reference_s":
                put(metric, passes, unit)
            elif metric in TRACE_METRICS:
                put(metric, [r["layers"][metric] for r in traced], unit)
            else:
                put(metric, [r["facts"][metric] for r in done
                             if metric in r.get("facts", {})], unit)
    else:
        put("setup_s", [x * reference.NOMINAL_S / statistics.median(around)
                        for times, around in setup for x in times], "s")
        put("synth_s", [scaled(r, "synth") for r in plain], "s")
        put("pipeline_s", [scaled(r, "pipeline") for r in plain], "s")
        put("end_to_end_s", [scaled(r, "synth") + scaled(r, "pipeline") for r in plain], "s")
        put("peak_rss_mb", [r["peak_rss_mb"] for r in plain], "MiB")
        metrics["ok_frac"] = {"value": 1.0 - failed / len(reps), "unit": "ratio"}
        counts["ok_frac"] = len(reps)
        # the raw figures behind the scaled ones, for the log only
        raw = {"setup_s": [x for times, _ in setup for x in times],
               "synth_s": [r["synth_s"] for r in plain],
               "pipeline_s": [r["pipeline_s"] for r in plain], "reference_s": passes}

    blas_threads = sorted({r["blas_threads"] for r in reps if r.get("blas_threads") is not None})
    return {
        "result": {"correct": failed == 0, "attempted": len(reps), "failed": failed,
                   "metrics": metrics},
        "counts": counts,
        "failures": [f for r in reps for f in r["failures"]],
        "raw": {} if trace else {k: statistics.median(v) for k, v in raw.items() if v},
        "blas_threads": blas_threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermokmd" / "cli.py").is_file():
        print(f"error: no thermokmd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    env["blas_threads"] = out["blas_threads"]
    print("env " + json.dumps(env, sort_keys=True))
    for failure in out["failures"]:
        print(f"FAIL {failure}")
    for metric, m in out["result"]["metrics"].items():
        print(f"{metric} {m['value']:.6g} {m['unit']} n={out['counts'][metric]}")
    for name, value in out["raw"].items():
        print(f"raw {name} {value:.6g} s (median wall time, not scaled)")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
