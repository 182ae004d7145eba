"""Batch command-line interface.

Subcommands synthesize a dataset, compute the mode table, phase-average at
a period, differentiate over the sensor layout, or run all of it through
:func:`thermokmd.pipeline.run` and write its CSV/SVG artifacts plus a
run-metadata JSON.  ``pipeline`` writes only after every artifact is built,
so a failed run writes nothing.  All outputs are byte-deterministic
for identical inputs and configuration (no timestamps are written).

Exit codes: 0 success, 1 numerical failure, 2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import gradient as gradientmod
from . import phaseavg, pipeline, spectral, synth, timeseries
from .errors import GeometryError, LayoutError, ParseError, ToolkitError

_IO_ERRORS = (ParseError, OSError)


def _write(out: Path, files: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8", newline="")


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


def _check_top(top) -> None:
    if top < 1:
        raise ParseError(f"--top must be >= 1, got {top}")


def _load_snapshots(args) -> timeseries.SnapshotMatrix:
    """The ``--snapshots`` record; a ``--dt-override`` not finite and positive is refused first."""
    dt = args.dt_override
    if dt is not None and not (np.isfinite(dt) and dt > 0):
        raise ParseError(f"--dt-override must be finite and positive, got {dt}")
    return timeseries.load_snapshots(args.snapshots, dt_override=dt)


def _generate(generator, spec, config):
    """``generator(spec)``; a record it gives that SnapshotMatrix refuses is ``config``'s fault."""
    try:
        return generator(spec)
    except ParseError as exc:
        raise ParseError(f"{config}: {exc}") from None


# -- subcommands ----------------------------------------------------------------

def cmd_synth_analytic(args) -> int:
    layout = timeseries.load_layout(args.layout) if args.layout else synth.default_layout()
    config = args.config or synth.ANALYTIC_CONFIG
    spec = synth.load_analytic_config(config, layout)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshots, truth = _generate(synth.generate_analytic, spec, config)
    timeseries.write_snapshots(snapshots, out / "snapshots.csv")
    timeseries.write_layout(layout, out / "layout.csv")
    _write(out, {"truth_modes.json": spectral.table_to_json(truth),
                 "truth_modes.csv": spectral.table_to_csv(truth)})
    print(f"wrote {snapshots.n_channels} channels x {snapshots.n_snapshots} snapshots to {out}")
    return 0


def cmd_synth_room(args) -> int:
    sensors = timeseries.load_layout(args.layout) if args.layout else synth.default_layout()
    config = args.config or synth.ROOM_CONFIG
    try:
        spec = synth.load_room_config(config, sensors)
    except LayoutError as exc:
        # the layout does not fit the room: a fault of the input files
        files = " with ".join(str(p) for p in (args.layout, args.config) if p)
        raise ParseError(f"{files}: {exc}") from None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snapshots, events = _generate(synth.simulate_room, spec, config)
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
    _check_top(args.top)
    snapshots = _load_snapshots(args)
    if args.remove_mean:
        snapshots = timeseries.remove_mean(snapshots)
    table = spectral.decompose(snapshots, args.method)
    ranked = spectral.rank_modes(table, args.top)
    _write(Path(args.out_dir), pipeline.modes_files(table, ranked))
    if not ranked.entries:
        print("warning: ranking is empty: the table holds no oscillatory mode", file=sys.stderr)
    for entry in ranked.entries:
        label = "{" + ",".join(map(str, entry.label)) + "}"
        period = "-" if entry.period_seconds is None else f"{entry.period_seconds / 60.0:.4g} min"
        print(
            f"{label} |lam|={entry.abs_lam:.4f} T={period} "
            f"norm={entry.mode_norm:.4f} E={entry.energy:.4g}"
        )
    return 0


def cmd_phase_average(args) -> int:
    snapshots = _load_snapshots(args)
    phaseavg.select_period(None, snapshots.dt, snapshots.n_snapshots, args.period_samples)
    if not args.keep_mean:
        snapshots = timeseries.remove_mean(snapshots)
    result = phaseavg.phase_average(snapshots, args.period_samples)
    _write(Path(args.out_dir), pipeline.phase_average_files(result))
    print(f"phase average at P={result.period_samples} samples over Q={result.cycles_used} cycles")
    return 0


def cmd_gradient(args) -> int:
    ids, sums, harmonics = phaseavg.load_result_csv(args.mode_file)
    layout = _layout_for(args.layout, args.mode_file, ids, args.neighbors)
    mode = harmonics if args.use == "harmonic" else sums
    field = gradientmod.gradient_field(mode, layout, neighbors=args.neighbors)
    out = Path(args.out_dir)
    _write(out, pipeline.gradient_files(field))
    print(f"gradient at {int(field.valid.sum())}/{layout.n_sensors} sensors -> {out}")
    return 0


def cmd_pipeline(args) -> int:
    _check_top(args.top)
    snapshots = _load_snapshots(args)
    layout = _layout_for(args.layout, args.snapshots, snapshots.channel_ids, args.neighbors)
    sources = None
    if args.flux_sources:
        sources = gradientmod.load_sources_csv(args.flux_sources)
        if layout.d != 2:
            # the two input files do not match
            raise ParseError(f"{args.flux_sources} with {args.layout}: sources are placed "
                             f"in d = 2 (id,x,y,mode), the layout in d = {layout.d}")
    files, metadata = pipeline.run(
        snapshots, layout, sources, inputs={"snapshots": args.snapshots, "layout": args.layout},
        method=args.method, top=args.top, period_samples=args.period_samples,
        gradient_source=args.gradient_source, neighbors=args.neighbors)
    _write(Path(args.out_dir), files)
    period = (metadata["dominant_mode"] or {}).get("period_seconds")
    period_min = "-" if period is None else f"{period / 60.0:.4g}"
    print(f"dominant period {period_min} min, "
          f"phase average at P={metadata['parameters']['period_samples']} samples")
    for name, val in (metadata["flux_scores"] or {}).items():
        print(f"flux consistency at {name}: {val:+.3f}")
    return 0


# -- parser ----------------------------------------------------------------------

def _add_method(p) -> None:
    p.add_argument("--method", choices=spectral.METHODS, default=spectral.METHODS[0],
                   help="decomposition: Hankel DMD with projected amplitudes (default) "
                        "or the companion-matrix method")


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses an argument with one ``error:`` line and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--top", type=int, default=pipeline.DEFAULT_TOP)
    p.add_argument("--remove-mean", action="store_true",
                   help="subtract per-channel means before the decomposition")
    _add_method(p)
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
    p.add_argument("--top", type=int, default=pipeline.DEFAULT_TOP)
    p.add_argument("--period-samples", type=int, default=None,
                   help="explicit period; default: dominant mode period rounded "
                        "to the nearest sample (ties to even)")
    p.add_argument("--gradient-source",
                   choices=[gradientmod.SOURCE_PHASE_AVERAGE, gradientmod.SOURCE_DMD_MODE],
                   default=gradientmod.SOURCE_PHASE_AVERAGE)
    p.add_argument("--neighbors", type=int, default=gradientmod.DEFAULT_NEIGHBORS)
    p.add_argument("--flux-sources", default=None,
                   help="CSV (id,x,y,mode) of actuator locations for consistency scores")
    _add_method(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each note the library logs during the command is one warning line
    notes = logging.StreamHandler(sys.stderr)
    notes.setFormatter(logging.Formatter("warning: %(message)s"))
    library = logging.getLogger(__package__)
    library.addHandler(notes)
    try:
        return args.func(args)
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ToolkitError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        library.removeHandler(notes)


if __name__ == "__main__":
    sys.exit(main())
