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

import logging
from dataclasses import dataclass

import numpy as np

from . import timeseries
from .errors import ParseError, PeriodError
from .timeseries import SnapshotMatrix

_LOG = logging.getLogger(__name__)


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

    The caller removes the per-channel mean first; a bias left in the input
    is noted in the result's ``warnings`` and logged on ``thermokmd.phaseavg``.

    Raises PeriodError unless period_samples passes :func:`select_period`.
    """
    N = s.n_snapshots
    try:
        P, _ = select_period(None, s.dt, N, period_samples)
    except ParseError:
        raise PeriodError(f"period_samples must be an integer in [2, {(N - 1) // 2}], "
                          f"got {period_samples}") from None
    notes = ()
    offset = timeseries.mean_offset(s)
    if offset is not None:
        worst, mean = offset
        notes = (
            f"input does not look mean-removed (channel "
            f"{s.channel_ids[worst]!r} has |mean| = {mean:.3g}); "
            "the average will absorb the bias",
        )
        _LOG.warning(notes[0])
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


def select_period(dominant, dt, n_snapshots, explicit=None) -> tuple[int, str]:
    """(period in samples, rule): ``explicit`` if given, else the dominant mode's, rounded.

    Either must be a whole number in [2, (N-1)//2].  An explicit period out of
    range is a ParseError (exit 2), an automatic one a PeriodError.
    """
    max_p = (n_snapshots - 1) // 2
    if explicit is not None:
        if not (explicit == int(explicit) and 2 <= explicit <= max_p):
            raise ParseError(f"--period-samples must be in [2, {max_p}], got {explicit}")
        return int(explicit), "explicit"
    if dominant is None or dominant.period_seconds is None:
        raise PeriodError("cannot select a period automatically: no ranked oscillatory mode")
    p = int(round(dominant.period_seconds / dt))  # ties round to even
    if not 2 <= p <= max_p:
        raise PeriodError(f"dominant period {dominant.period_seconds:.1f} s rounds to {p} "
                          f"samples, outside [2, {max_p}]")
    return p, "auto"


def harmonic_amplitude(s: SnapshotMatrix, period_samples: int) -> np.ndarray:
    """Single-frequency Fourier coefficient over whole cycles.

    A := (1/L) * sum_{k=0}^{L-1} y_k exp(-i 2 pi k / P) with L = P * floor(N/P),
    so that a pure tone y_k = 2 Re[A0 exp(i 2 pi k / P)] gives back A0 exactly.
    A constant per-channel offset sums to zero over whole cycles, so unlike
    the stride average this needs no mean removal and logs no bias note.

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

_RESULT_COLUMNS = ("channel_id", "sum_real", "harmonic_re", "harmonic_im")


def result_to_csv(res: PhaseAverageResult) -> str:
    harmonic = np.asarray(res.harmonic, dtype=complex)
    values = np.column_stack([np.asarray(res.sum_real, dtype=float), harmonic.real, harmonic.imag])
    rows = [_RESULT_COLUMNS, *([cid, ...] for cid in res.channel_ids)]
    return timeseries.csv_text(rows, "\n", values)


def load_result_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Channel ids, ``sum_real`` and ``harmonic`` from a :func:`result_to_csv` file."""
    records = timeseries.read_records(path, _RESULT_COLUMNS[:1], _RESULT_COLUMNS[1:])
    ids = [rec["channel_id"] for rec in records]
    sums = np.array([rec["sum_real"] for rec in records])
    harmonics = np.array([complex(rec["harmonic_re"], rec["harmonic_im"]) for rec in records])
    return ids, sums, harmonics


def result_to_json(res: PhaseAverageResult) -> str:
    """The result as ``phase_average.json``, with one ``"channels"`` object per channel."""
    payload = {
        "period_samples": res.period_samples,
        "cycles_used": res.cycles_used,
        "dt_seconds": res.dt,
        "warnings": list(res.warnings),
        "channels": [],
    }
    harmonic = np.asarray(res.harmonic, dtype=complex)
    item = {"channel_id": None, "harmonic": {"im": None, "re": None}, "sum_real": None}
    columns = res.channel_ids, harmonic.imag, harmonic.real, np.asarray(res.sum_real, dtype=float)
    return timeseries.json_text(payload, "channels", item, [columns])
