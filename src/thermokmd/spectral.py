"""Ritz eigenvalue/mode extraction: Hankel DMD (default) and the companion-matrix method.

Both methods end in one fit step: it drops the numerically zero modes and
passes the rest to :func:`mode_table`, which groups conjugate couples and
ranks them by energy.  Modes of real input data come in conjugate couples;
each couple is reported once through its Im(lam) > 0 member and ranked by
the energy norm of its real reconstructed contribution.  A LAPACK failure in
either fit is raised as a NumericalError that names the failed solve.

:func:`hankel_dmd` is exact DMD (Tu et al. 2014) on a delay-embedded record
(Arbabi & Mezic 2017).  It stacks q delayed copies of the record into a
Hankel matrix H, truncates the thin SVD of X = H[:, :-1] at the Gavish-Donoho
hard threshold (floored at ``RANK_RCOND``), takes the eigenpairs of the
projected one-step map, and scales each mode by the amplitudes of the
projected initial condition, b = Phi^+ h_0.

:func:`companion_kmd`, the paper's reference method, fits a linear recurrence
to the final snapshot,

    y_{N-1} ~ c_0 y_0 + ... + c_{N-2} y_{N-2},

by rank-revealing least squares, takes the eigenvalues of the associated
companion matrix as discrete-time Ritz values lam_j, and recovers one
complex mode vector per Ritz value from the global Vandermonde fit

    y_k ~ sum_j lam_j^k V_j   over k = 0 .. N-2,

solved as a least-squares system rather than by inverting the Vandermonde
matrix.  It is cubic in N, and on noisy records its interpolating fit can
give damped spurious modes large cancelling amplitudes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import timeseries
from .errors import ArgumentError, DegenerateDataError, NumericalError
from .timeseries import SnapshotMatrix

_LOG = logging.getLogger(__name__)

#: |arg lam| below which an eigenvalue counts as a non-oscillatory bias/trend
BIAS_THRESHOLD_RAD = 1e-6

#: singular values below RANK_RCOND * sigma_max are truncated in the
#: recurrence fit and in the Hankel SVD; keeps numerically low-rank clean data
#: from injecting spurious dynamics
RANK_RCOND = 1e-10

#: the Hankel method stacks q = ceil(HANKEL_ROWS / M) delayed copies of an
#: M-channel record (at most (N - 1) // 4, at least one), so the embedded
#: record has about this many rows and its SVD stays small
HANKEL_ROWS = 128

#: the decomposition methods, default first
METHODS = ("hankel", "companion")

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

    ``residual`` is the norm of the method's fit residual: the recurrence
    least-squares residual for companion, the Frobenius norm of the projected
    one-step residual for Hankel.  ``mean_removed`` records whether the
    analyzed data was per-channel mean-free, since the energies are computed
    on exactly the data passed in.  ``fit`` holds the method's fit facts as
    JSON values, for ``run_metadata.json``; ``modes.json`` does not carry it.
    """

    entries: tuple[ModeEntry, ...]
    dt: float
    n_snapshots: int
    residual: float
    mean_removed: bool
    channel_ids: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    fit: dict = field(default_factory=dict)

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


def period_of(lam: complex, dt: float) -> float | None:
    """Oscillation period in seconds of a discrete-time eigenvalue.

    Returns None when |arg(lam)| is below :data:`BIAS_THRESHOLD_RAD` (no
    oscillation within the record's resolution).  Raises NumericalError when
    the period is past the range of a double (a dt above about 1e301 s).
    """
    if not dt > 0:
        raise ArgumentError(f"dt must be positive, got {dt}")
    angle = abs(np.angle(lam))
    if angle < BIAS_THRESHOLD_RAD:
        return None
    with np.errstate(over="ignore"):
        period = float(2.0 * np.pi * dt / angle)
    if not np.isfinite(period):
        raise NumericalError(f"the period 2 pi dt / |arg(lam)| = 2 pi * {dt!r} s / {angle:.6g} "
                             "is out of the range of a double")
    return period


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
        A least-squares or eigenvalue solve did not converge.
    """
    y = s.values.copy(order="K")  # the record's memory order, which the products' bits follow
    e = _to_unit_scale(y)
    K, y_last = y[:, :-1], y[:, -1]
    n1 = s.n_snapshots - 1

    c, _, rank, _ = _solve("recurrence least-squares solve", np.linalg.lstsq,
                           K, y_last, rcond=RANK_RCOND)
    _require_signal(rank)
    residual = float(np.linalg.norm(K @ c - y_last))

    companion = np.zeros((n1, n1))
    companion[np.arange(1, n1), np.arange(n1 - 1)] = 1.0
    companion[:, -1] = c
    lams = _solve("companion eigenvalue solve", np.linalg.eigvals, companion)

    # V solves V @ T = K in least squares, T[j, k] = lam_j^k
    vander = np.vander(lams, N=n1, increasing=True)  # (n_eigs, n_powers)
    modes_t, *_ = _solve("mode least-squares solve", np.linalg.lstsq,
                         vander.T, K.T.astype(complex), rcond=None)
    return _fitted(s, e, lams, modes_t.T, residual, (),
                   {"recurrence_rank": int(rank), "amplitudes": "vandermonde_fit"})


def hankel_delays(n_channels: int, n_snapshots: int) -> int:
    """Delay count q = max(1, min(ceil(HANKEL_ROWS / M), (N - 1) // 4))."""
    return max(1, min(-(-HANKEL_ROWS // n_channels), (n_snapshots - 1) // 4))


def hankel_dmd(s: SnapshotMatrix, delays: int | None = None) -> ModeTable:
    """Decompose a snapshot record by exact DMD on its delay embedding.

    H stacks q = ``delays`` delayed copies of the record (by default
    :func:`hankel_delays`), rows ``i*M:(i+1)*M`` holding snapshots
    ``i .. i+N-q``; X = H[:, :-1] and X' = H[:, 1:].  With the thin SVD
    X = U S W^T, the rank r is the smaller of the Gavish-Donoho count and the
    count above ``RANK_RCOND * s_1`` (at least 1).  The eigenpairs (lam, y)
    of A = U_r^T X' W_r S_r^-1 give the modes Phi = X' W_r S_r^-1 y, scaled
    by b = Phi^+ h_0, the projected initial condition; each channel mode is
    the first M rows of Phi b.

    Returns at most r pairs grouped into conjugate couples and sorted by
    energy, with the notes led by one line naming the method, q and r.

    Raises
    ------
    DegenerateDataError
        The snapshot matrix carries no signal (no singular value above
        ``RANK_RCOND * s_1``).
    NumericalError
        The SVD, the eigenvalue solver or the amplitude solve did not converge.
    """
    m, n = s.values.shape
    q = hankel_delays(m, n) if delays is None else delays
    if not 1 <= q <= n - 1:
        raise ArgumentError(f"delays must be in [1, {n - 1}], got {q}")
    H = np.concatenate([s.values[:, i:n - q + 1 + i] for i in range(q)])
    e = _to_unit_scale(H)  # H holds every value of the record
    X, Xp = H[:, :-1], H[:, 1:]
    U, sigma, Wt = _solve("Hankel SVD", np.linalg.svd, X, full_matrices=False)
    r_rcond = int(np.count_nonzero(sigma > RANK_RCOND * sigma[0]))
    _require_signal(r_rcond)
    # Gavish & Donoho (2014) for an unknown noise level; beta is the aspect ratio of X
    beta = min(X.shape) / max(X.shape)
    threshold = (0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43) * timeseries.median(sigma)
    r_gd = int(np.count_nonzero(sigma > threshold))
    r = max(1, min(r_gd, r_rcond))
    limit = "gavish_donoho" if r_gd <= r_rcond else "rank_rcond"

    U_r = U[:, :r]
    B = Xp @ (Wt[:r].T / sigma[:r])  # X' W_r S_r^-1, (qM, r)
    A = U_r.T @ B
    lams, Y = _solve("Hankel eigenvalue solve", np.linalg.eig, A)
    Phi = B @ Y
    b, *_ = _solve("mode amplitude solve", np.linalg.lstsq, Phi, H[:, 0], rcond=None)
    # X' - U_r A U_r^T X, with U_r^T X = S_r W_r^T
    residual = float(np.linalg.norm(Xp - U_r @ (A @ (sigma[:r, None] * Wt[:r]))))
    return _fitted(s, e, lams, Phi[:m] * b, residual,
                   (f"hankel dmd: q={q} delays, rank r={r} ({limit})",),
                   {"delays": q, "rank": r, "gd_threshold": threshold, "rank_limit": limit,
                    "amplitudes": "projected_initial_condition"})


def decompose(s: SnapshotMatrix, method: str = METHODS[0]) -> ModeTable:
    """The ranked mode table of ``s`` by one of :data:`METHODS`."""
    if method == "hankel":
        return hankel_dmd(s)
    if method == "companion":
        return companion_kmd(s)
    raise ArgumentError(f"method must be one of {', '.join(METHODS)}, got {method!r}")


def _solve(step: str, routine, *args, **kwargs):
    """``routine(*args, **kwargs)``, a LAPACK failure raised as a NumericalError naming ``step``."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{step} failed: {exc}") from exc


def _require_signal(rank: int) -> None:
    """Refuse a record whose fit has effective rank 0: it holds no dynamics to fit."""
    if rank < 1:
        raise DegenerateDataError(
            "snapshot matrix has effective rank 0 (no signal); nothing to fit")


def _to_unit_scale(values: np.ndarray) -> int:
    """Divide ``values`` in place by ``2^e`` and return ``e``, the ``frexp`` exponent of max |values|.

    Both methods fit the record so scaled, so that no square of a fit
    overflows or underflows at any scale of the record, and :func:`_fitted`
    scales the table back.  A power of two scales each step of a fit exactly
    while no value leaves the normal range, and every threshold of the fits
    is relative, so on a record of ordinary scale the table is the unscaled
    fit's, bit for bit.
    """
    e = int(np.frexp(max(values.max(initial=0.0), -values.min(initial=0.0)))[1])
    np.ldexp(values, -e, out=values)
    return e


def _fitted(s: SnapshotMatrix, e: int, lams: np.ndarray, modes: np.ndarray, residual: float,
            notes: tuple[str, ...], fit: dict) -> ModeTable:
    """A method's fit of ``s / 2^e`` as the ModeTable of ``s``, the fit step both methods end in.

    Mode columns whose norm is at most ZERO_MODE_RTOL * the largest are
    dropped, each with a note after ``notes``; a NaN norm is kept.  ``fit``
    gains the ``"residual"``.  The modes, their norms and energies, the
    residual and ``fit``'s ``gd_threshold`` are multiplied back by ``2^e``
    once ranked; ``mean_removed`` is tested on ``s`` itself.
    """
    norms = np.linalg.norm(modes, axis=0)
    keep = ~(norms <= ZERO_MODE_RTOL * norms.max(initial=0.0))
    notes = (*notes, *(f"dropped zero mode at lam={lam:.6g}" for lam in lams[~keep]))
    table = mode_table(lams[keep], modes[:, keep], s.dt, s.n_snapshots, residual=residual,
                       mean_removed=timeseries.mean_offset(s) is None,
                       channel_ids=s.channel_ids, notes=notes, fit={**fit, "residual": residual})

    # every mode in one exact step, in the order of the entries' pairs
    pairs = [p for x in table.entries for p in (x.rep, x.partner) if p is not None]
    modes = iter(np.ldexp(np.array([p.mode for p in pairs]).view(float), e).view(complex))
    entries = tuple(replace(x, rep=RitzPair(x.rep.lam, next(modes), x.rep.index),
                            partner=x.partner and RitzPair(x.partner.lam, next(modes),
                                                           x.partner.index),
                            mode_norm=math.ldexp(x.mode_norm, e), energy=math.ldexp(x.energy, e))
                    for x in table.entries)
    fit = {key: math.ldexp(value, e) if key in ("residual", "gd_threshold") else value
           for key, value in table.fit.items()}
    return replace(table, entries=entries, residual=fit["residual"], fit=fit)


def mode_table(lams: np.ndarray, modes: np.ndarray, dt: float, n_snapshots: int, *,
               residual: float, mean_removed: bool, channel_ids: tuple[str, ...] = (),
               notes: tuple[str, ...] = (), fit: dict | None = None) -> ModeTable:
    """Eigenvalues ``lams[j]`` with mode columns ``modes[:, j]`` as a ranked ModeTable.

    Conjugate members are grouped into couples and the entries sorted by
    energy over ``n_snapshots`` samples.  Every column is kept: a zero mode
    is the caller's to drop.  ``notes`` come first in the table's notes, followed
    by one note per unpaired complex eigenvalue, each also logged.  ``fit`` is the
    method's fit facts (see :class:`ModeTable`).
    """
    pairs = [RitzPair(complex(lams[j]), modes[:, j], j) for j in range(len(lams))]
    notes = list(notes)
    entries = _group_and_rank(pairs, dt, n_snapshots, notes)
    return ModeTable(entries=entries, dt=dt, n_snapshots=n_snapshots, residual=residual,
                     mean_removed=mean_removed, channel_ids=channel_ids, notes=tuple(notes),
                     fit={} if fit is None else fit)


def _group_and_rank(
    pairs: list[RitzPair], dt: float, n_snapshots: int, notes: list[str]
) -> tuple[ModeEntry, ...]:
    lower = {p.index: p for p in pairs if p.lam.imag < 0}
    entries: list[ModeEntry] = []
    unpaired: list[RitzPair] = []
    for p in pairs:
        if p.lam.imag == 0:
            entries.append(_make_entry(p, None, dt, n_snapshots))
        elif p.lam.imag > 0:
            target = p.lam.conjugate()
            best = min(lower.values(), key=lambda q: abs(q.lam - target), default=None)
            tol = CONJUGATE_MATCH_RTOL * max(1.0, abs(p.lam))
            if best is not None and abs(best.lam - target) <= tol:
                del lower[best.index]
                entries.append(_make_entry(p, best, dt, n_snapshots))
            else:
                unpaired.append(p)
    for p in (*unpaired, *lower.values()):
        notes.append(f"unpaired complex eigenvalue lam={p.lam:.6g}")
        _LOG.warning(notes[-1])
        if p.lam.imag < 0:  # report through the conjugate so the listed member has Im >= 0
            p = RitzPair(p.lam.conjugate(), p.mode.conjugate(), p.index)
        entries.append(_make_entry(p, None, dt, n_snapshots))

    # deterministic order: energy desc, then magnitude, angle, input index
    entries.sort(key=lambda e: (-e.energy, -e.abs_lam, abs(np.angle(e.rep.lam)), e.rep.index))
    labeled, next_index = [], 1
    for e in entries:
        if not e.bias:
            width = 2 if e.is_couple else 1
            e = replace(e, label=tuple(range(next_index, next_index + width)))
            next_index += width
        labeled.append(e)
    return tuple(labeled)


def _make_entry(rep: RitzPair, partner: RitzPair | None, dt: float, n_snapshots: int) -> ModeEntry:
    """The entry of ``rep``; a complex one without a ``partner`` is unpaired."""
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
        unpaired=partner is None and rep.lam.imag != 0,
    )


def rank_modes(table: ModeTable, top: int) -> ModeTable:
    """Top ``top`` entries by energy, bias excluded, keeping their labels 1, 2, ..."""
    if top < 1:
        raise ArgumentError(f"top must be >= 1, got {top}")
    return replace(table, entries=table.ranked()[:top])


def reconstruct(table: ModeTable, n_snapshots: int | None = None) -> np.ndarray:
    """Real reconstruction sum_j lam_j^k V_j over k = 0 .. n-1 from all entries."""
    n = table.n_snapshots - 1 if n_snapshots is None else n_snapshots
    pairs = [p for e in table.entries for p in (e.rep, e.partner) if p is not None]
    if not pairs:
        return np.zeros((len(table.channel_ids), n))
    powers = np.vander(np.array([p.lam for p in pairs], dtype=complex), N=n, increasing=True)
    return np.real(np.column_stack([p.mode for p in pairs]) @ powers)


# -- serialization ------------------------------------------------------------

def _entry_record(e: ModeEntry) -> dict:
    """The entry's scalar fields; ``"mode"`` is a placeholder that :func:`table_to_json` fills."""
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


def table_to_json(table: ModeTable) -> str:
    """The table as ``modes.json``; each entry's ``"mode"`` list holds one object per channel."""
    payload = {
        "dt_seconds": table.dt,
        "n_snapshots": table.n_snapshots,
        "residual": table.residual,
        "mean_removed": table.mean_removed,
        "channel_ids": list(table.channel_ids),
        "notes": list(table.notes),
        "modes": [_entry_record(e) for e in table.entries],
    }
    modes = [(e.rep.mode.imag, e.rep.mode.real) for e in table.entries]
    return timeseries.json_text(payload, "mode", {"im": None, "re": None}, modes)


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
