"""The full analysis as one library call that builds every artifact before any is written.

:func:`run` writes no file, so that a run that fails leaves none behind.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from . import __version__, gradient, phaseavg, spectral, timeseries
from .errors import PeriodError

#: how many ranked modes modes.csv lists unless ``--top`` says otherwise
DEFAULT_TOP = 8


def modes_files(table, ranked) -> dict[str, str]:
    return {"modes.json": spectral.table_to_json(table),
            "modes.csv": spectral.table_to_csv(ranked)}


def phase_average_files(result) -> dict[str, str]:
    return {"phase_average.csv": phaseavg.result_to_csv(result),
            "phase_average.json": phaseavg.result_to_json(result)}


def gradient_files(field) -> dict[str, str]:
    files = {"gradient.csv": gradient.field_to_csv(field),
             "gradient.svg": gradient.field_to_svg(field)}
    if np.iscomplexobj(field.vectors):
        files["rms_gradient.csv"] = gradient.rms_to_csv(field)
    return files


def run(snapshots, layout, sources=None, *, inputs=None, method=spectral.METHODS[0],
        top=DEFAULT_TOP, period_samples=None, gradient_source=gradient.SOURCE_PHASE_AVERAGE,
        neighbors=gradient.DEFAULT_NEIGHBORS) -> tuple[dict[str, str], dict]:
    """(artifact texts by file name, run metadata) of one pipeline run.

    ``layout`` holds the sensors in channel order, ``sources`` the flux sources
    to score or None, and ``inputs`` the input files the metadata names and hashes.
    """
    if period_samples is not None:  # refused before the fit, not after it
        phaseavg.select_period(None, snapshots.dt, snapshots.n_snapshots, period_samples)
    mean_free = timeseries.remove_mean(snapshots)
    table = spectral.decompose(mean_free, method)
    dominant = table.dominant()
    files = modes_files(table, spectral.rank_modes(table, top))

    period, rule = phaseavg.select_period(dominant, snapshots.dt, snapshots.n_snapshots,
                                          period_samples)
    result = phaseavg.phase_average(mean_free, period)
    files |= phase_average_files(result)

    mode = result.sum_real
    if gradient_source == gradient.SOURCE_DMD_MODE:
        if dominant is None:
            raise PeriodError("no ranked oscillatory mode to use as the gradient source")
        mode = dominant.rep.mode
    field = gradient.gradient_field(mode, layout, neighbors=neighbors)
    files |= gradient_files(field)

    scores = None
    if sources is not None:
        scores = gradient.flux_consistency(field, sources)
        rows = [["source_id", "score"], *scores.items()]
        files["flux_scores.csv"] = timeseries.csv_text(rows, "\n")

    metadata = {
        "tool_version": __version__,
        "inputs": {name: {"path": str(path),
                          "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
                   for name, path in (inputs or {}).items()},
        "parameters": {
            "method": method,
            "mean_removed": True,
            "top": top,
            "period_samples": period,
            "period_selection": rule,
            "gradient_source": gradient_source,
            "neighbors": neighbors,
            "rank_rcond": spectral.RANK_RCOND,
            "bias_threshold_rad": spectral.BIAS_THRESHOLD_RAD,
            "conjugate_match_rtol": spectral.CONJUGATE_MATCH_RTOL,
            "zero_mode_rtol": spectral.ZERO_MODE_RTOL,
            "gradient_condition_limit": gradient.CONDITION_LIMIT,
            "dt_seconds": snapshots.dt,
        },
        "dominant_mode": None if dominant is None else {
            "couple": list(dominant.label),
            "abs_lam": dominant.abs_lam,
            "period_seconds": dominant.period_seconds,
            "energy": dominant.energy,
        },
        "decomposition": table.fit,
        "flux_scores": scores,
        "outputs": sorted(files),
    }
    files["run_metadata.json"] = timeseries.json_text(metadata)
    return files, metadata
