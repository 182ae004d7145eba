"""Ritz eigenvalue/mode extraction via the companion-matrix method.

Given a uniformly sampled record y_0 .. y_{N-1} (columns of the snapshot
matrix), the method fits a linear recurrence to the final snapshot,

    y_{N-1} ~ c_0 y_0 + ... + c_{N-2} y_{N-2},

by rank-revealing least squares, takes the eigenvalues of the associated
companion matrix as discrete-time Ritz values lam_j, and recovers one
complex mode vector per Ritz value from the global Vandermonde fit

    y_k ~ sum_j lam_j^k V_j   over k = 0 .. N-2,

solved as a least-squares system rather than by inverting the Vandermonde
matrix.  Modes of real input data come in conjugate couples; each couple is
reported once through its Im(lam) > 0 member and ranked by the energy norm
of its real reconstructed contribution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import timeseries
from .errors import ArgumentError, DegenerateDataError, NumericalError
from .timeseries import SnapshotMatrix

#: |arg lam| below which an eigenvalue counts as a non-oscillatory bias/trend
BIAS_THRESHOLD_RAD = 1e-6

#: singular values below RANK_RCOND * sigma_max are truncated in the
#: recurrence fit; keeps numerically low-rank clean data from injecting
#: spurious dynamics into the recurrence coefficients
RANK_RCOND = 1e-10

#: relative tolerance when matching lam with its conjugate partner
CONJUGATE_MATCH_RTOL = 1e-8

#: modes with norm <= ZERO_MODE_RTOL * (largest mode norm) are dropped as
#: numerically zero; their total contribution stays below the reconstruction
#: tolerance for any |lam| the method can produce on short records
ZERO_MODE_RTOL = 1e-12


@dataclass(frozen=True)
class RitzPair:
    """One discrete-time eigenvalue with its scaled mode vector.

    The mode carries the amplitude of the data (the unknown constant factor
    of the underlying expansion is absorbed into it; it cannot be recovered
    from a single trajectory).
    """

    lam: complex
    mode: np.ndarray
    index: int

    def __post_init__(self):
        mode = np.asarray(self.mode, dtype=complex)
        object.__setattr__(self, "mode", mode)
        mode.setflags(write=False)


@dataclass(frozen=True)
class ModeEntry:
    """A ranked row: one conjugate couple, or a real/unpaired singleton.

    ``rep`` is the reported member (Im(lam) >= 0).  ``label`` is the
    couple's index pair (j, j+1), a single (j,) for singletons, and empty
    for the bias entry, which is kept but excluded from the ranking.
    """

    rep: RitzPair
    partner: RitzPair | None
    label: tuple[int, ...]
    abs_lam: float
    period_seconds: float | None
    mode_norm: float
    energy: float
    bias: bool
    nyquist: bool = False
    unpaired: bool = False

    @property
    def is_couple(self) -> bool:
        return self.partner is not None


@dataclass(frozen=True)
class ModeTable:
    """Ritz pairs grouped into entries, sorted by energy (descending).

    ``residual`` is the Euclidean norm of the recurrence least-squares
    residual.  ``mean_removed`` records whether the analyzed data was
    per-channel mean-free, since the energies are computed on exactly the
    data passed in.
    """

    entries: tuple[ModeEntry, ...]
    dt: float
    n_snapshots: int
    residual: float
    mean_removed: bool
    channel_ids: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def ranked(self) -> tuple[ModeEntry, ...]:
        """Entries that participate in the ranking (bias excluded)."""
        return tuple(e for e in self.entries if not e.bias)

    def dominant(self) -> ModeEntry | None:
        ranked = self.ranked()
        return ranked[0] if ranked else None


def energy_norm(p: RitzPair, n_snapshots: int) -> float:
    """Energy of a Ritz pair's contribution over ``n_snapshots`` samples.

    Real lam:   sqrt( sum_k || lam^k V ||^2 )
    Complex lam: sqrt( sum_k || 2 Re[lam^k V] ||^2 ), counting the couple once.

    The powers are built in sequence, lam^k = lam^(k-1) * lam, with lam^0 = 1
    even for lam = 0, so a nilpotent mode still contributes its initial
    snapshot.  Each snapshot's squared norm is one BLAS ``ddot`` over its
    row, and the squared norms are added in snapshot order.  That order is
    part of the contract: ``einsum``, a pairwise ``sum``, or a contiguous
    copy of a real mode's ``.real`` view (which changes the ``ddot`` stride)
    can move the energy by an ulp, and with it the ranking and ``modes.json``.
    """
    if n_snapshots < 1:
        raise ArgumentError(f"n_snapshots must be >= 1, got {n_snapshots}")
    lam = complex(p.lam)
    steps = np.full(n_snapshots, lam)
    steps[0] = 1.0
    terms = (np.cumprod(steps)[:, None] * p.mode).real
    if lam.imag != 0.0:
        terms = 2.0 * terms
    return float(np.sqrt(np.cumsum(np.vecdot(terms, terms))[-1]))


def period_of(lam: complex, dt: float, bias_threshold: float = BIAS_THRESHOLD_RAD) -> float | None:
    """Oscillation period in seconds of a discrete-time eigenvalue.

    Returns None when |arg(lam)| is below the bias threshold (no
    oscillation within the record's resolution).
    """
    if not dt > 0:
        raise ArgumentError(f"dt must be positive, got {dt}")
    angle = abs(np.angle(lam))
    if angle < bias_threshold:
        return None
    return float(2.0 * np.pi * dt / angle)


def companion_kmd(s: SnapshotMatrix) -> ModeTable:
    """Decompose a snapshot record into Ritz eigenvalue/mode pairs.

    Returns up to N-1 pairs grouped into conjugate couples and sorted by
    energy.  On noiseless data of low numerical rank the returned pairs
    reconstruct the first N-1 snapshots to solver tolerance.

    Raises
    ------
    DegenerateDataError
        The snapshot matrix carries no signal (effective rank zero), so no
        dynamics can be fitted.
    NumericalError
        The eigenvalue solver did not converge.
    """
    Y = s.values
    K = Y[:, :-1]
    y_last = Y[:, -1]
    n1 = s.n_snapshots - 1

    c, _, rank, _ = np.linalg.lstsq(K, y_last, rcond=RANK_RCOND)
    if rank < 1:
        raise DegenerateDataError(
            "snapshot matrix has effective rank 0 (no signal); nothing to fit"
        )
    residual = float(np.linalg.norm(K @ c - y_last))

    companion = np.zeros((n1, n1))
    companion[np.arange(1, n1), np.arange(n1 - 1)] = 1.0
    companion[:, -1] = c
    try:
        lams = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"companion eigenvalue solve failed: {exc}") from exc

    # V solves V @ T = K in least squares, T[j, k] = lam_j^k
    vander = np.vander(lams, N=n1, increasing=True)  # (n_eigs, n_powers)
    try:
        modes_t, *_ = np.linalg.lstsq(vander.T, K.T.astype(complex), rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"mode least-squares solve failed: {exc}") from exc
    modes = modes_t.T  # (M, n_eigs)

    notes: list[str] = []
    pairs: list[RitzPair] = []
    norms = np.linalg.norm(modes, axis=0)
    cutoff = ZERO_MODE_RTOL * norms.max(initial=0.0)
    for j in range(n1):
        if norms[j] <= cutoff:
            notes.append(f"dropped zero mode at lam={lams[j]:.6g}")
            continue
        pairs.append(RitzPair(complex(lams[j]), modes[:, j], index=j))

    entries = _group_and_rank(pairs, s.dt, s.n_snapshots, notes)
    return ModeTable(
        entries=entries,
        dt=s.dt,
        n_snapshots=s.n_snapshots,
        residual=residual,
        mean_removed=timeseries.mean_offset(s) is None,
        channel_ids=s.channel_ids,
        notes=tuple(notes),
    )


def _group_and_rank(
    pairs: list[RitzPair], dt: float, n_snapshots: int, notes: list[str]
) -> tuple[ModeEntry, ...]:
    upper = [p for p in pairs if p.lam.imag > 0]
    lower = {p.index: p for p in pairs if p.lam.imag < 0}
    real = [p for p in pairs if p.lam.imag == 0]

    entries: list[ModeEntry] = []
    unmatched_lower = dict(lower)
    for p in upper:
        target = p.lam.conjugate()
        scale = max(1.0, abs(p.lam))
        best, best_dist = None, np.inf
        for q in unmatched_lower.values():
            dist = abs(q.lam - target)
            if dist < best_dist:
                best, best_dist = q, dist
        if best is not None and best_dist <= CONJUGATE_MATCH_RTOL * scale:
            del unmatched_lower[best.index]
            entries.append(_make_entry(p, best, dt, n_snapshots))
        else:
            notes.append(f"unpaired complex eigenvalue lam={p.lam:.6g}")
            warnings.warn(notes[-1], stacklevel=3)
            entries.append(_make_entry(p, None, dt, n_snapshots, unpaired=True))
    for q in unmatched_lower.values():
        notes.append(f"unpaired complex eigenvalue lam={q.lam:.6g}")
        warnings.warn(notes[-1], stacklevel=3)
        # report through the conjugate so the listed member has Im >= 0
        flipped = RitzPair(q.lam.conjugate(), q.mode.conjugate(), q.index)
        entries.append(_make_entry(flipped, None, dt, n_snapshots, unpaired=True))
    for p in real:
        entries.append(_make_entry(p, None, dt, n_snapshots))

    # deterministic order: energy desc, then magnitude, angle, input index
    entries.sort(
        key=lambda e: (-e.energy, -e.abs_lam, abs(np.angle(e.rep.lam)), e.rep.index)
    )
    labeled: list[ModeEntry] = []
    next_index = 1
    for e in entries:
        if e.bias:
            labeled.append(e)
            continue
        width = 2 if e.is_couple else 1
        label = tuple(range(next_index, next_index + width))
        next_index += width
        labeled.append(replace(e, label=label))
    return tuple(labeled)


def _make_entry(
    rep: RitzPair,
    partner: RitzPair | None,
    dt: float,
    n_snapshots: int,
    unpaired: bool = False,
) -> ModeEntry:
    period = period_of(rep.lam, dt)
    # arg in (-pi, pi]: only arg == pi sits at the sampling limit
    nyquist = period is not None and bool(abs(np.angle(rep.lam)) >= np.pi)
    return ModeEntry(
        rep=rep,
        partner=partner,
        label=(),
        abs_lam=float(abs(rep.lam)),
        period_seconds=None if nyquist else period,
        mode_norm=float(np.linalg.norm(rep.mode)),
        energy=energy_norm(rep, n_snapshots),
        bias=period is None,
        nyquist=nyquist,
        unpaired=unpaired,
    )


def rank_modes(table: ModeTable, top: int) -> ModeTable:
    """Top ``top`` entries by energy, bias excluded, keeping their labels 1, 2, ..."""
    if top < 1:
        raise ArgumentError(f"top must be >= 1, got {top}")
    return replace(table, entries=table.ranked()[:top])


def reconstruct(table: ModeTable, n_snapshots: int | None = None) -> np.ndarray:
    """Real reconstruction sum_j lam_j^k V_j over k = 0 .. n-1 from all entries."""
    n = table.n_snapshots - 1 if n_snapshots is None else n_snapshots
    lams, modes = [], []
    for e in table.entries:
        lams.append(e.rep.lam)
        modes.append(e.rep.mode)
        if e.partner is not None:
            lams.append(e.partner.lam)
            modes.append(e.partner.mode)
    if not lams:
        m = len(table.channel_ids)
        return np.zeros((m, n))
    powers = np.vander(np.asarray(lams, dtype=complex), N=n, increasing=True)
    return np.real(np.column_stack(modes) @ powers)


# -- serialization ------------------------------------------------------------

def _entry_record(e: ModeEntry) -> dict:
    """The entry's scalar fields; ``"mode"`` is a placeholder for :func:`_mode_json`."""
    return {
        "couple": list(e.label),
        "lam": {"re": e.rep.lam.real, "im": e.rep.lam.imag},
        "abs_lam": e.abs_lam,
        "period_minutes": None if e.period_seconds is None else e.period_seconds / 60.0,
        "mode_norm": e.mode_norm,
        "energy": e.energy,
        "bias_flag": e.bias,
        "nyquist_flag": e.nyquist,
        "unpaired_flag": e.unpaired,
        "mode": [],
    }


#: ``"mode": []`` as :func:`timeseries.json_text` writes the placeholder; inside
#: a JSON string every quote is escaped, so the text occurs once per entry
_MODE_SLOT = '"mode": []'

# the pieces of one mode list at the depth of an entry's "mode" value
_MODE_OPEN = '"mode": [\n        {\n          "im": '
_MODE_RE = ',\n          "re": '
_MODE_NEXT = '\n        },\n        {\n          "im": '
_MODE_CLOSE = '\n        }\n      ]'


def _mode_json(mode: np.ndarray) -> str:
    """``"mode": [...]`` with one ``{"im", "re"}`` object per channel, as json writes it."""
    if mode.size == 0:
        return _MODE_SLOT
    pairs = zip(map(repr, mode.imag.tolist()), map(repr, mode.real.tolist()))
    text = _MODE_OPEN + _MODE_NEXT.join(map(_MODE_RE.join, pairs)) + _MODE_CLOSE
    # repr spells the non-finite floats nan, inf and -inf; json, NaN and (-)Infinity
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def table_to_json(table: ModeTable) -> str:
    """The table as ``modes.json``.

    The text is byte-identical to ``timeseries.json_text`` of the payload
    whose ``"mode"`` lists hold one ``{"im": v.imag, "re": v.real}`` object
    per channel.  ``json_text`` renders everything but the mode lists (key
    order, ASCII string escapes, ``null`` periods); each mode list is
    written from ``tolist()`` with float ``repr``, which is what json writes
    for a finite float, ``-0.0`` included, and NaN and infinities are
    spelled ``NaN``, ``Infinity`` and ``-Infinity`` as json spells them.
    """
    payload = {
        "dt_seconds": table.dt,
        "n_snapshots": table.n_snapshots,
        "residual": table.residual,
        "mean_removed": table.mean_removed,
        "channel_ids": list(table.channel_ids),
        "notes": list(table.notes),
        "modes": [_entry_record(e) for e in table.entries],
    }
    head, *tails = timeseries.json_text(payload).split(_MODE_SLOT)
    parts = [head]
    for e, tail in zip(table.entries, tails, strict=True):
        parts += [_mode_json(e.rep.mode), tail]
    return "".join(parts)


def table_to_csv(table: ModeTable) -> str:
    """Ranked couples in the display layout: label, |lam|, period, norm, energy.

    Four significant digits with trailing zeros kept, so rows read like the
    usual published mode tables.  The couple label carries a comma and is
    therefore quoted.
    """
    rows = [["couple", "abs_lam", "period_min", "mode_norm", "energy"]]
    for e in table.ranked():
        label = "{" + ",".join(str(i) for i in e.label) + "}"
        period = "" if e.period_seconds is None else f"{e.period_seconds / 60.0:#.4g}"
        rows.append(
            [label, f"{e.abs_lam:.4f}", period, f"{e.mode_norm:.4f}", f"{e.energy:#.4g}"]
        )
    return timeseries.csv_text(rows, "\n")
