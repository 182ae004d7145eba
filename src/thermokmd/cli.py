"""Batch command-line interface.

Subcommands wire the pipeline end to end: synthesize a dataset, compute the
mode table, phase-average at a selected period, differentiate over the
sensor layout, and export CSV/SVG artifacts plus a run-metadata JSON.  All
outputs are byte-deterministic for identical inputs and configuration (no
timestamps are written).

Exit codes: 0 success, 1 numerical failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import gradient as gradientmod
from . import phaseavg, spectral, synth, timeseries
from .errors import (ArgumentError, GeometryError, LayoutError, ParseError, PeriodError,
                     ToolkitError)

_IO_ERRORS = (ParseError, FileNotFoundError, IsADirectoryError, PermissionError,
              configparser.Error)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _write(out: Path, files: dict[str, str]) -> list[str]:
    """Write each named text into ``out``; return the names written."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="")
    return list(files)


# -- stage writers, shared by the single-stage subcommands and the pipeline -------

def _write_modes(out: Path, table, ranked) -> list[str]:
    return _write(out, {"modes.json": spectral.table_to_json(table),
                        "modes.csv": spectral.table_to_csv(ranked)})


def _write_phase_average(out: Path, result) -> list[str]:
    return _write(out, {"phase_average.csv": phaseavg.result_to_csv(result),
                        "phase_average.json": phaseavg.result_to_json(result)})


def _write_gradient(out: Path, field) -> list[str]:
    files = {"gradient.csv": gradientmod.field_to_csv(field),
             "gradient.svg": gradientmod.field_to_svg(field)}
    if np.iscomplexobj(field.vectors):
        files["rms_gradient.csv"] = gradientmod.rms_to_csv(field)
    return _write(out, files)


def _layout_for(layout_path, data_path, channel_ids, neighbors):
    """The layout file's sensors in the order of ``channel_ids`` from ``data_path``.

    A scattered layout's stencils need ``neighbors`` >= d + 1; a declared grid uses none.
    """
    layout = timeseries.load_layout(layout_path)
    if layout.grid is None and neighbors < layout.d + 1:
        raise ParseError(f"--neighbors {neighbors} is below d + 1 = {layout.d + 1} "
                         f"for a scattered layout in d = {layout.d} dimensions")
    try:
        return layout.reordered_to(channel_ids)
    except GeometryError as exc:
        # the two input files do not match
        raise ParseError(f"{data_path} with {layout_path}: {exc}") from None


# -- subcommands ----------------------------------------------------------------

def cmd_synth_analytic(args) -> int:
    layout = timeseries.load_layout(args.layout) if args.layout else synth.default_layout()
    if args.config:
        spec = synth.load_analytic_config(args.config, layout)
    else:
        spec = synth.default_analytic_spec(layout)
    snapshots, truth = synth.generate_analytic(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timeseries.write_snapshots(snapshots, out / "snapshots.csv")
    timeseries.write_layout(layout, out / "layout.csv")
    _write(out, {"truth_modes.json": spectral.table_to_json(truth),
                 "truth_modes.csv": spectral.table_to_csv(truth)})
    print(f"wrote {snapshots.n_channels} channels x {snapshots.n_snapshots} snapshots to {out}")
    return 0


def cmd_synth_room(args) -> int:
    sensors = timeseries.load_layout(args.layout) if args.layout else synth.default_layout()
    try:
        if args.config:
            spec = synth.load_room_config(args.config, sensors)
        else:
            spec = synth.default_room_spec(sensors)
    except LayoutError as exc:
        # the layout does not fit the room: a fault of the input files
        files = " with ".join(str(p) for p in (args.layout, args.config) if p)
        raise ParseError(f"{files}: {exc}") from None
    snapshots, events = synth.simulate_room(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timeseries.write_snapshots(snapshots, out / "snapshots.csv")
    timeseries.write_layout(spec.sensors, out / "layout.csv")
    synth.write_switch_log(events, out / "switch_log.csv")
    synth.write_sources_csv(spec.acs, out / "sources.csv")
    print(
        f"simulated {spec.duration:.0f} s ({snapshots.n_snapshots} snapshots), "
        f"{len(events)} switch events, wrote {out}"
    )
    return 0


def cmd_spectrum(args) -> int:
    snapshots = timeseries.load_snapshots(args.snapshots, dt_override=args.dt_override)
    if args.remove_mean:
        snapshots = timeseries.remove_mean(snapshots)
    table = spectral.companion_kmd(snapshots)
    ranked = spectral.rank_modes(table, args.top)
    _write_modes(Path(args.out_dir), table, ranked)
    if not ranked.entries:
        print("warning: ranking is empty (only bias content found)", file=sys.stderr)
    for entry in ranked.entries:
        label = "{" + ",".join(map(str, entry.label)) + "}"
        period = "-" if entry.period_seconds is None else f"{entry.period_seconds / 60.0:.4g} min"
        print(
            f"{label} |lam|={entry.abs_lam:.4f} T={period} "
            f"norm={entry.mode_norm:.4f} E={entry.energy:.4g}"
        )
    return 0


def cmd_phase_average(args) -> int:
    snapshots = timeseries.load_snapshots(args.snapshots, dt_override=args.dt_override)
    if not args.keep_mean:
        snapshots = timeseries.remove_mean(snapshots)
    result = phaseavg.phase_average(snapshots, args.period_samples)
    _write_phase_average(Path(args.out_dir), result)
    print(f"phase average at P={result.period_samples} samples over Q={result.cycles_used} cycles")
    return 0


def cmd_gradient(args) -> int:
    ids, sums, harmonics = phaseavg.load_result_csv(args.mode_file)
    layout = _layout_for(args.layout, args.mode_file, ids, args.neighbors)
    mode = harmonics if args.use == "harmonic" else sums
    field = gradientmod.gradient_field(
        mode, layout, source=gradientmod.SOURCE_PHASE_AVERAGE, neighbors=args.neighbors
    )
    out = Path(args.out_dir)
    _write_gradient(out, field)
    print(f"gradient at {int(field.valid.sum())}/{layout.n_sensors} sensors -> {out}")
    return 0


def _select_period(dominant, dt, n_snapshots, explicit):
    max_p = (n_snapshots - 1) // 2
    if explicit is not None:
        if not 2 <= explicit <= max_p:
            raise PeriodError(f"--period-samples must be in [2, {max_p}], got {explicit}")
        return explicit, "explicit"
    if dominant is None or dominant.period_seconds is None:
        raise PeriodError(
            "cannot select a period automatically: no ranked oscillatory mode"
        )
    p = int(round(dominant.period_seconds / dt))  # ties round to even
    if not 2 <= p <= max_p:
        raise PeriodError(
            f"dominant period {dominant.period_seconds:.1f} s rounds to {p} samples, "
            f"outside [2, {max_p}]"
        )
    return p, "auto"


def cmd_pipeline(args) -> int:
    snapshots = timeseries.load_snapshots(args.snapshots, dt_override=args.dt_override)
    layout = _layout_for(args.layout, args.snapshots, snapshots.channel_ids, args.neighbors)
    out = Path(args.out_dir)

    mean_free = timeseries.remove_mean(snapshots)
    table = spectral.companion_kmd(mean_free)
    dominant = table.dominant()
    written = _write_modes(out, table, spectral.rank_modes(table, args.top))

    period_samples, rule = _select_period(dominant, snapshots.dt, snapshots.n_snapshots,
                                          args.period_samples)
    result = phaseavg.phase_average(mean_free, period_samples)
    written += _write_phase_average(out, result)

    if args.gradient_source == gradientmod.SOURCE_DMD_MODE:
        if dominant is None:
            raise PeriodError("no ranked oscillatory mode to use as the gradient source")
        mode = dominant.rep.mode
    else:
        mode = result.sum_real
    field = gradientmod.gradient_field(
        mode, layout, source=args.gradient_source, neighbors=args.neighbors
    )
    written += _write_gradient(out, field)

    scores = None
    if args.flux_sources:
        sources = gradientmod.load_sources_csv(args.flux_sources)
        scores = gradientmod.flux_consistency(field, layout, sources)
        rows = [["source_id", "score"], *scores.items()]
        written += _write(out, {"flux_scores.csv": timeseries.csv_text(rows, "\n")})

    metadata = {
        "tool_version": __version__,
        "inputs": {
            "snapshots": {"path": str(args.snapshots), "sha256": _sha256(args.snapshots)},
            "layout": {"path": str(args.layout), "sha256": _sha256(args.layout)},
        },
        "parameters": {
            "mean_removed": True,
            "top": args.top,
            "period_samples": period_samples,
            "period_selection": rule,
            "gradient_source": args.gradient_source,
            "neighbors": args.neighbors,
            "rank_rcond": spectral.RANK_RCOND,
            "bias_threshold_rad": spectral.BIAS_THRESHOLD_RAD,
            "conjugate_match_rtol": spectral.CONJUGATE_MATCH_RTOL,
            "zero_mode_rtol": spectral.ZERO_MODE_RTOL,
            "gradient_condition_limit": gradientmod.CONDITION_LIMIT,
            "dt_seconds": snapshots.dt,
        },
        "dominant_mode": None if dominant is None else {
            "couple": list(dominant.label),
            "abs_lam": dominant.abs_lam,
            "period_seconds": dominant.period_seconds,
            "energy": dominant.energy,
        },
        "companion_residual": table.residual,
        "flux_scores": scores,
        "outputs": sorted(written),
    }
    _write(out, {"run_metadata.json": timeseries.json_text(metadata)})

    period_min = "-" if dominant is None or dominant.period_seconds is None \
        else f"{dominant.period_seconds / 60.0:.4g}"
    print(f"dominant period {period_min} min, phase average at P={period_samples} samples")
    if scores:
        for name, val in scores.items():
            print(f"flux consistency at {name}: {val:+.3f}")
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermokmd",
        description="Mode decomposition, phase averaging, and gradient estimation "
                    "for multichannel sensor fields",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-analytic", help="generate the analytic multi-tone dataset")
    p.add_argument("--config", help="analytic spec INI (default: built-in two-tone spec)")
    p.add_argument("--layout", help="sensor layout CSV (default: built-in 28-sensor room)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_analytic)

    p = sub.add_parser("synth-room", help="run the thermostat room simulator")
    p.add_argument("--config", help="room spec INI (default: built-in room)")
    p.add_argument("--layout", help="sensor layout CSV (default: built-in 28-sensor room)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_room)

    p = sub.add_parser("spectrum", help="compute and rank the mode table")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--dt-override", type=float, default=None)
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--remove-mean", action="store_true",
                   help="subtract per-channel means before the decomposition")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase-average", help="stride-average the record at a period")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--dt-override", type=float, default=None)
    p.add_argument("--period-samples", type=int, required=True)
    p.add_argument("--keep-mean", action="store_true",
                   help="skip the automatic per-channel mean removal")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phase_average)

    p = sub.add_parser("gradient", help="differentiate a phase-average result")
    p.add_argument("--mode-file", required=True, help="phase_average.csv from phase-average")
    p.add_argument("--layout", required=True)
    p.add_argument("--use", choices=["sum_real", "harmonic"], default="sum_real")
    p.add_argument("--neighbors", type=int, default=gradientmod.DEFAULT_NEIGHBORS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gradient)

    p = sub.add_parser("pipeline", help="full run: spectrum, period, average, gradient")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--layout", required=True)
    p.add_argument("--dt-override", type=float, default=None)
    p.add_argument("--top", type=int, default=8)
    p.add_argument("--period-samples", type=int, default=None,
                   help="explicit period; default: dominant mode period rounded "
                        "to the nearest sample (ties to even)")
    p.add_argument("--gradient-source",
                   choices=[gradientmod.SOURCE_PHASE_AVERAGE, gradientmod.SOURCE_DMD_MODE],
                   default=gradientmod.SOURCE_PHASE_AVERAGE)
    p.add_argument("--neighbors", type=int, default=gradientmod.DEFAULT_NEIGHBORS)
    p.add_argument("--flux-sources", default=None,
                   help="CSV (id,x,y,mode) of actuator locations for consistency scores")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, ArgumentError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
