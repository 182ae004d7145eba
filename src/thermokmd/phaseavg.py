"""Phase averaging and single-frequency harmonic projection.

Phase averaging at an integer period P (in samples) averages the record at
the stride P:  (1/Q) * sum_{k=0}^{Q-1} y_{kP}.  For a mean-free record this
estimates the real sum of the conjugate mode pair oscillating with period
P*dt, evaluated at the phase of sample 0.  Components whose period also
divides P (harmonics P/m) survive the average as well; they are not
filtered out here.

The harmonic amplitude is the single-frequency Fourier coefficient over
whole cycles and supplies the complex mode needed for RMS gradient
estimates.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import timeseries
from .errors import BiasWarning, ParseError, PeriodError
from .timeseries import SnapshotMatrix


@dataclass(frozen=True)
class PhaseAverageResult:
    """Stride average plus the matching harmonic coefficient.

    ``sum_real`` is the real M-vector estimate of the conjugate mode-pair
    sum at phase 0; ``harmonic`` is the complex single-frequency coefficient
    (for a pure tone over whole cycles, sum_real ~ 2 Re(harmonic) up to
    leakage).
    """

    period_samples: int
    cycles_used: int
    sum_real: np.ndarray
    harmonic: np.ndarray
    dt: float
    channel_ids: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("sum_real", "harmonic"):
            arr = np.asarray(getattr(self, name))
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if self.cycles_used < 2:
            raise PeriodError(
                f"phase average needs at least 2 cycles, got {self.cycles_used}"
            )
        if not np.all(np.isfinite(self.sum_real)):
            raise PeriodError("phase average produced non-finite values")


def phase_average(s: SnapshotMatrix, period_samples: int) -> PhaseAverageResult:
    """Average the record at stride ``period_samples``.

    The caller is responsible for removing the per-channel mean first; a
    BiasWarning is attached (and emitted) when the input still carries one.

    Raises PeriodError unless 2 <= period_samples <= (N-1)//2.
    """
    P = int(period_samples)
    N = s.n_snapshots
    if P != period_samples or P < 2 or P > (N - 1) // 2:
        raise PeriodError(
            f"period_samples must be an integer in [2, {(N - 1) // 2}], got {period_samples}"
        )
    notes = ()
    offset = timeseries.mean_offset(s)
    if offset is not None:
        worst, mean = offset
        notes = (
            f"input does not look mean-removed (channel "
            f"{s.channel_ids[worst]!r} has |mean| = {mean:.3g}); "
            "the average will absorb the bias",
        )
        warnings.warn(notes[0], BiasWarning, stacklevel=2)
    Q = (N - 1) // P + 1
    sum_real = s.values[:, :: P][:, :Q].mean(axis=1)
    harmonic = harmonic_amplitude(s, P)
    return PhaseAverageResult(
        period_samples=P,
        cycles_used=Q,
        sum_real=sum_real,
        harmonic=harmonic,
        dt=s.dt,
        channel_ids=s.channel_ids,
        warnings=notes,
    )


def harmonic_amplitude(s: SnapshotMatrix, period_samples: int) -> np.ndarray:
    """Single-frequency Fourier coefficient over whole cycles.

    A := (1/L) * sum_{k=0}^{L-1} y_k exp(-i 2 pi k / P) with L = P * floor(N/P),
    so that a pure tone y_k = 2 Re[A0 exp(i 2 pi k / P)] gives back A0 exactly.
    A constant per-channel offset sums to zero over whole cycles, so unlike
    the stride average this needs no mean removal and issues no BiasWarning.

    Raises PeriodError when fewer than two whole cycles fit the record.
    """
    P = int(period_samples)
    if P != period_samples or P < 2:
        raise PeriodError(f"period_samples must be an integer >= 2, got {period_samples}")
    N = s.n_snapshots
    L = P * (N // P)
    if L < 2 * P:
        raise PeriodError(
            f"need at least 2 whole cycles ({2 * P} samples), record has {N}"
        )
    k = np.arange(L)
    phases = np.exp(-2j * np.pi * k / P)
    return (s.values[:, :L] @ phases) / L


# -- serialization ------------------------------------------------------------

def result_to_csv(res: PhaseAverageResult) -> str:
    lines = ["channel_id,sum_real,harmonic_re,harmonic_im"]
    for cid, v, h in zip(res.channel_ids, res.sum_real, res.harmonic):
        lines.append(f"{cid},{float(v)!r},{float(h.real)!r},{float(h.imag)!r}")
    return "\n".join(lines) + "\n"


def load_result_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Channel ids, ``sum_real`` and ``harmonic`` from a :func:`result_to_csv` file."""
    ids, sums, harmonics = [], [], []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"channel_id", "sum_real", "harmonic_re", "harmonic_im"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ParseError(f"{path}: expected phase-average CSV columns {sorted(needed)}")
        for r, rec in enumerate(reader, start=1):
            re_sum, re_h, im_h = (
                timeseries.parse_number(rec[k], f"{path} data row {r} {k}")
                for k in ("sum_real", "harmonic_re", "harmonic_im")
            )
            ids.append(rec["channel_id"])
            sums.append(re_sum)
            harmonics.append(complex(re_h, im_h))
    return ids, np.array(sums), np.array(harmonics)


def result_to_json(res: PhaseAverageResult) -> str:
    payload = {
        "period_samples": res.period_samples,
        "cycles_used": res.cycles_used,
        "dt_seconds": res.dt,
        "warnings": list(res.warnings),
        "channels": [
            {
                "channel_id": cid,
                "sum_real": float(v),
                "harmonic": {"re": h.real, "im": h.imag},
            }
            for cid, v, h in zip(res.channel_ids, res.sum_real, res.harmonic)
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
