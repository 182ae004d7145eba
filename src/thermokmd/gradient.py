"""Spatial differentiation of mode vectors over a sensor layout.

Two differentiation paths:

* declared grid: central differences on interior lattice points, one-sided
  differences on edges, per axis;
* scattered sensors: per-sensor weighted affine least squares through the
  k nearest neighbors.  The center value is interpolated exactly (its
  inverse-distance weight is infinite), so only the slope is fitted:

      minimize  sum_j w_j | f_i + g . (r_j - r_i) - f_j |^2,  w_j = 1/|r_j - r_i|.

  Every valid stencil is solved in one stacked call of the LAPACK routine
  behind ``np.linalg.lstsq``.  The one neighbour search also gives the
  field's median spacing, which the SVG and the flux scores read.

  The neighbour search sorts the sensors along the layout's longest axis
  and searches each sensor's row over a window of that order around it.
  The row is kept when its farthest kept distance is below the distance
  formula's own value at the gap, on that axis, to the nearest sensor
  outside the window: no sensor outside can compute a smaller distance,
  so the row is the all-pairs row, bit for bit, with no rounding margin.
  The other rows are searched again over a window twice as wide, up to
  the whole layout.

Degenerate stencils (too few neighbors, or neighbor positions collinear
beyond the condition limit) yield an invalid flag rather than a regularized
guess: a fabricated gradient component would defeat the diagnostic.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from . import timeseries
from .errors import ArgumentError, DuplicateError, GeometryError, ParseError
from .timeseries import SensorLayout

GRID_CENTRAL = "grid_central"
GRID_ONESIDED = "grid_onesided"
SCATTERED_LSQ = "scattered_lsq"
INVALID = "invalid"

SOURCE_PHASE_AVERAGE = "phase_average"
SOURCE_DMD_MODE = "dmd_mode"

#: default neighbor count for the scattered least-squares stencil
DEFAULT_NEIGHBORS = 6

#: stencils whose weighted position matrix exceeds this condition number
#: are flagged invalid (collinear in 2-D)
CONDITION_LIMIT = 1e8

#: flux scores use the valid sensors within this many median spacings of a source
FLUX_RADIUS = 2.0

#: width of the gradient SVG in pixels; its height follows the layout's aspect
SVG_WIDTH_PX = 720


@dataclass(frozen=True)
class GradientField:
    """Per-sensor gradient vectors with validity flags and method metadata.

    ``vectors`` is (M, d), complex when the differentiated mode was complex;
    rows where ``valid`` is False hold NaN.  ``methods`` records the stencil
    used at each sensor.  :attr:`spacing` is the layout's median spacing.
    """

    vectors: np.ndarray
    valid: np.ndarray
    methods: tuple[str, ...]
    layout: SensorLayout

    def __post_init__(self):
        vec = np.asarray(self.vectors)
        val = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "valid", val)
        vec.setflags(write=False)
        val.setflags(write=False)
        if np.any(~np.isfinite(vec[val])):
            raise GeometryError("gradient produced non-finite values at valid sensors")

    @cached_property
    def spacing(self) -> float:
        """:func:`median_spacing` of the layout, computed on first use.

        :func:`gradient_field` sets it for a scattered layout from the
        stencil's neighbour search, so that no second search is made.
        """
        return median_spacing(self.layout)


@dataclass(frozen=True)
class FluxSource:
    """A heating or cooling actuator location used for consistency scoring."""

    name: str
    position: tuple[float, ...]
    kind: str  # "cooling" | "heating"

    def __post_init__(self):
        if self.kind not in ("cooling", "heating"):
            raise ArgumentError(f"source kind must be cooling or heating, got {self.kind!r}")


def load_sources_csv(path) -> tuple[FluxSource, ...]:
    """Actuators with unique ids, from a CSV ``id,x,y,mode`` (cool or heat)."""
    sources: dict[str, FluxSource] = {}
    for rec in timeseries.read_records(path, ("id", "mode"), ("x", "y")):
        mode = rec["mode"].strip()
        if mode not in ("cool", "heat"):
            raise ParseError(f"{path}: source mode must be cool or heat, got {mode!r}")
        name = rec["id"].strip()
        if name in sources:
            raise DuplicateError(f"{path}: duplicate source id {name!r}")
        sources[name] = FluxSource(name, (rec["x"], rec["y"]),
                                   "cooling" if mode == "cool" else "heating")
    return tuple(sources.values())


#: one block of the neighbour search holds at most _BLOCK_ROWS x M distances,
#: never M x M
_BLOCK_ROWS = 128

#: the neighbour search's first window is ceil(_WINDOW_FACTOR * (k+1)**(1/d)
#: * M**(1 - 1/d)) sensors, which grows as the slab across evenly spread
#: sensors that holds a sensor's k + 1 nearest; 1.0-1.2 timed best
#: (tools/neighbour_sweep.py)
_WINDOW_FACTOR = 1.2


def _distances(others, rows):
    """``sqrt(dx**2 + dy**2 [+ dz**2])`` from each row's sensor to ``others``.

    ``others`` and ``rows`` hold one coordinate array per axis, broadcast
    against each other.  The squares are summed in axis order from +0.0,
    which gives the value of ``np.sqrt(((pos - pos[i]) ** 2).sum(axis=1))``.
    """
    sq = 0.0  # adding the first square to +0.0 is exact
    for other, row in zip(others, rows):
        delta = other - row
        sq = sq + delta * delta
    return np.sqrt(sq)


def _first(block, ids, k):
    """(ids, distances, (k+1)-th distance) of the k+1 nearest in each row of ``block``, first dropped.

    The k+1 are the candidates at or below the (k+1)-th smallest distance,
    ordered by (distance, id).  ``ids[r, c]`` is the sensor of ``block[r, c]``;
    None means that column c is sensor c.
    """
    kth = np.partition(block, k, axis=1)[:, k]
    rows, cols = np.nonzero(block <= kth[:, None])
    near = block[rows, cols]
    if ids is not None:
        cols = ids[rows, cols]
    order = np.lexsort((cols, near, rows))
    # rows come out of nonzero ascending, so each row's candidates start where they did
    counts = np.bincount(rows, minlength=len(block))
    pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(1, k + 1)]
    return cols[pick], near[pick], kth


def _nearest(pos, k):
    """Indices and distances (M, k) of each sensor's k nearest other sensors.

    Row i is ``np.argsort(dist_i, kind="stable")[1 : k + 1]``, ties included:
    candidates at or below the (k+1)-th smallest distance, ordered by
    (distance, index), first one dropped.

    The sensors are sorted along the layout's longest axis (Friedman,
    Baskett & Shustek 1975), and each row is searched over a window of ``w``
    consecutive sensors of that order around its own.  The row is kept when
    its (k+1)-th distance is below ``sqrt(gap * gap)``, where ``gap`` is the
    difference on that axis, ``other - row`` as :func:`_distances` takes it,
    to the nearest sensor outside the window on either side.  Rounding is
    monotone and adding a nonnegative square never lowers a sum, so every
    sensor outside computes a distance of at least that bound: the row is
    the all-pairs row, bit for bit, with no margin.  A row whose bound is 0
    cannot be kept and is not searched.  The other rows are searched again
    with ``2w``; at ``w = M`` every row is kept, and that pass
    is the all-pairs search over the sensors in index order.  A pass takes its
    rows in blocks of at most :data:`_BLOCK_ROWS` x M distances.
    """
    m, d = pos.shape
    axes = np.ascontiguousarray(pos.T)
    with np.errstate(over="ignore"):  # an extent past the float range is inf
        along = axes[np.argmax(pos.max(axis=0) - pos.min(axis=0))]
    order = np.argsort(along, kind="stable")
    # the coordinates in that order, with a sensor at each end at infinity
    ends = np.concatenate(([-np.inf], along[order], [np.inf]))
    index = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    rest = np.arange(m)  # places in the order of the rows still to search
    w = math.ceil(_WINDOW_FACTOR * (k + 1) ** (1 / d) * m ** (1 - 1 / d))
    while len(rest):
        w = min(max(w, k + 1), m)
        first = np.clip(rest - w // 2, 0, m - w)
        rows = order[rest]
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            below = ends[first] - along[rows]
            above = ends[first + w + 1] - along[rows]
            bound = np.sqrt(np.minimum(below * below, above * above))
        # no distance is below a bound of 0, so such a row waits for a wider
        # window without a search; at w = M every row is kept
        sure = np.zeros(len(rest), dtype=bool)
        todo = np.arange(len(rest)) if w == m else np.flatnonzero(bound > 0)
        step = _BLOCK_ROWS * m // w
        for start in range(0, len(todo), step):
            at = todo[start:start + step]
            ids = None if w == m else order[first[at, None] + np.arange(w)]
            others = axes if ids is None else axes[:, ids]
            got, near, kth = _first(_distances(others, axes[:, rows[at], None]), ids, k)
            kept = (kth < bound[at]) | (w == m)
            index[rows[at[kept]]] = got[kept]
            dist[rows[at[kept]]] = near[kept]
            sure[at[kept]] = True
        rest = rest[~sure]
        w *= 2
    return index, dist


def median_spacing(layout: SensorLayout) -> float:
    """Median over sensors of the distance to the nearest other sensor."""
    pos = layout.positions
    if len(pos) < 2:
        raise GeometryError("need at least 2 sensors to define a spacing")
    return timeseries.median(_nearest(pos, 1)[1][:, 0])


def gradient_field(
    mode: np.ndarray,
    layout: SensorLayout,
    neighbors: int = DEFAULT_NEIGHBORS,
) -> GradientField:
    """Differentiate a mode vector over the sensor layout.

    Uses grid stencils when the layout declares one, otherwise the weighted
    scattered least-squares fit.  Axes along which a declared grid has a
    single lattice line get a zero component (nothing to difference).

    Raises
    ------
    ArgumentError
        Mode length does not match the layout.
    GeometryError
        Every sensor's stencil is degenerate.
    """
    mode = np.asarray(mode)
    if mode.ndim != 1 or len(mode) != layout.n_sensors:
        raise ArgumentError(
            f"mode has length {mode.shape}, layout has {layout.n_sensors} sensors"
        )
    is_complex = np.iscomplexobj(mode)
    mode = mode.astype(complex if is_complex else float)

    spacing = None
    if layout.grid is not None:
        vectors, valid, methods = _grid_gradient(mode, layout)
    else:
        vectors, valid, methods, spacing = _scattered_gradient(mode, layout, neighbors)
    if not np.any(valid):
        raise GeometryError("gradient stencil is degenerate at every sensor")
    vectors[~valid] = np.nan
    field = GradientField(vectors=vectors, valid=valid, methods=tuple(methods), layout=layout)
    if spacing is not None:
        vars(field)["spacing"] = spacing  # where cached_property keeps its value
    return field


def _grid_gradient(mode, layout):
    g = layout.grid
    row, col = layout.grid_indices().T
    field = np.zeros((g.rows, g.cols), dtype=mode.dtype)
    field[row, col] = mode

    m = layout.n_sensors
    vectors = np.zeros((m, 2), dtype=mode.dtype)
    onesided = np.zeros(m, dtype=bool)
    # np.gradient's default edge_order=1 is the central/one-sided stencil
    if g.cols > 1:  # x runs along the columns, array axis 1
        vectors[:, 0] = np.gradient(field, g.dx, axis=1)[row, col]
        onesided |= (col == 0) | (col == g.cols - 1)
    if g.rows > 1:  # y runs along the rows, array axis 0
        vectors[:, 1] = np.gradient(field, g.dy, axis=0)[row, col]
        onesided |= (row == 0) | (row == g.rows - 1)
    methods = [GRID_ONESIDED if o else GRID_CENTRAL for o in onesided]
    return vectors, np.ones(m, dtype=bool), methods


def _lstsq_failed(err, flag):
    """The error state's callback: the error ``np.linalg.lstsq`` raises when LAPACK fails."""
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _scattered_gradient(mode, layout, neighbors):
    """(vectors, valid, methods, median spacing or None when no search was made).

    Each valid row is ``np.linalg.lstsq(a_i, b_i, rcond=None)[0]`` to the bit:
    the stencils go to the gufunc that ``lstsq`` wraps, stacked, with its
    signature, its rcond ``eps * max(k, d)`` and its error state.
    """
    pos = layout.positions
    m, d = pos.shape
    k = min(neighbors, m - 1)
    vectors = np.zeros((m, d), dtype=mode.dtype)
    valid = np.zeros(m, dtype=bool)
    spacing = None
    if k >= d + 1:
        order, dist = _nearest(pos, k)
        spacing = timeseries.median(dist[:, 0])  # as median_spacing takes it
        # distinct sensors whose squared distance underflows to 0 void the stencil
        apart = dist > 0
        w = np.divide(1.0, dist, out=np.zeros_like(dist), where=apart)
        a = (pos[order] - pos[:, None, :]) * w[:, :, None]
        sv = np.linalg.svd(a, compute_uv=False)
        # the ratio is taken only where the smallest singular value is positive
        valid = apart.all(axis=1) & ~(sv[:, -1] <= 0)
        valid[valid] = ~(sv[valid, 0] / sv[valid, -1] > CONDITION_LIMIT)
        b = (mode[order] - mode[:, None]) * w
        signature = "DDd->Ddid" if np.iscomplexobj(b) else "ddd->ddid"
        with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            vectors[valid] = _umath_linalg.lstsq(a[valid], b[valid, :, None],
                                                 np.finfo(float).eps * max(k, d),
                                                 signature=signature)[0][..., 0]
    methods = [SCATTERED_LSQ if v else INVALID for v in valid.tolist()]
    return vectors, valid, methods, spacing


def rms_gradient(
    complex_mode: np.ndarray,
    layout: SensorLayout,
    neighbors: int = DEFAULT_NEIGHBORS,
) -> np.ndarray:
    """Component-wise RMS of the oscillating gradient: sqrt(2) * |grad|.

    For a mode component 2 Re[A(r) exp(i w t)], the time RMS of each spatial
    derivative over one period is sqrt(2) times the modulus of the complex
    gradient component.  Rows of invalid sensors are NaN.
    """
    field = gradient_field(np.asarray(complex_mode, dtype=complex), layout, neighbors)
    return _rms(field.vectors)


def _rms(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0) * np.abs(vectors)


def flux_consistency(field: GradientField, sources) -> dict[str, float]:
    """Directional consistency of the gradient field around each source.

    For every source, takes the valid sensors within :data:`FLUX_RADIUS` times
    the median sensor spacing (excluding a sensor coincident with the
    source, which has no direction) and averages the cosine between the
    real gradient vector and the source-to-sensor direction; the mean is
    negated for heating sources.  Temperature rising away from a cooling
    source therefore scores near +1.  Zero gradient vectors contribute 0.

    Raises GeometryError when a source has no valid sensor in range.
    """
    layout = field.layout
    spacing = field.spacing
    pos = layout.positions
    grads = np.real(field.vectors)
    scores: dict[str, float] = {}
    for src in sources:
        origin = np.asarray(src.position, dtype=float)
        if origin.shape != (layout.d,):
            raise ArgumentError(
                f"source {src.name!r} position has dimension {origin.shape}, layout d={layout.d}"
            )
        dist = np.sqrt(((pos - origin) ** 2).sum(axis=1))
        near = field.valid & (dist <= FLUX_RADIUS * spacing) & (dist > 1e-12)
        if not np.any(near):
            raise GeometryError(
                f"no valid sensor within {FLUX_RADIUS} median spacings of source {src.name!r}"
            )
        unit = (pos[near] - origin) / dist[near][:, None]
        g = grads[near]
        timeseries.to_unit_scale(g)  # a cosine does not depend on the scale
        norms = np.sqrt((g**2).sum(axis=1))
        cosines = np.where(norms > 0, (g * unit).sum(axis=1) / np.where(norms > 0, norms, 1.0), 0.0)
        sign = -1.0 if src.kind == "heating" else 1.0
        scores[src.name] = float(sign * cosines.mean())
    return scores


# -- serialization ------------------------------------------------------------

def _sensor_csv(field: GradientField, patterns, values, methods=None) -> str:
    """One row per sensor: id, coordinates, ``values``, valid[, method].

    Each pattern in ``patterns`` names one value column per axis.
    """
    layout = field.layout
    axes = ["x", "y", "z"][: layout.d]
    header = ["channel_id", *axes, *(p.format(a) for p in patterns for a in axes), "valid"]
    rows = [header + (["method"] if methods else [])]
    flags = ["true" if valid else "false" for valid in field.valid.tolist()]
    ends = zip(flags, methods) if methods else zip(flags)
    rows += ([cid, *position, ..., *end]
             for cid, position, end in zip(layout.channel_ids, layout.positions.tolist(), ends))
    return timeseries.csv_text(rows, "\n", np.asarray(values, dtype=float))


def field_to_csv(field: GradientField) -> str:
    """Gradient components (real, then imaginary for a complex mode) per sensor."""
    vec = field.vectors
    if np.iscomplexobj(vec):
        return _sensor_csv(field, ("g{}_re", "g{}_im"), np.hstack([vec.real, vec.imag]),
                           field.methods)
    return _sensor_csv(field, ("g{}_re",), vec, field.methods)


def rms_to_csv(field: GradientField) -> str:
    """Component-wise RMS gradient (see :func:`rms_gradient`) per sensor."""
    return _sensor_csv(field, ("rms_g{}",), _rms(field.vectors))


def field_to_svg(field: GradientField) -> str:
    """Quiver plot of the real gradient vectors.

    Arrows are scaled so the longest is 0.8 times the median sensor spacing
    (:attr:`GradientField.spacing`); the scale appears in the legend.  The
    CSV is the canonical output; the SVG is for human inspection.
    """
    layout = field.layout
    if layout.d < 2:
        raise GeometryError("SVG export needs a 2-D layout")
    pos = layout.positions[:, :2]
    grads = np.real(field.vectors[:, :2])
    spacing = field.spacing
    finite = field.valid
    max_norm = 0.0
    if np.any(finite):
        g = grads[finite]
        e = timeseries.to_unit_scale(g)  # so that no square under- or overflows
        max_norm = float(np.ldexp(np.sqrt((g**2).sum(axis=1)).max(), e))
    arrow_m = 0.8 * spacing
    scale = arrow_m / max_norm if max_norm > 0 else 0.0

    x0, y0 = pos.min(axis=0)
    x1, y1 = pos.max(axis=0)
    pad = max(spacing, 0.05 * max(x1 - x0, y1 - y0, 1.0))
    span_x = (x1 - x0) + 2 * pad
    span_y = (y1 - y0) + 2 * pad
    px_per_m = SVG_WIDTH_PX / span_x
    height_px = span_y * px_per_m + 40  # room for the legend line

    def to_px(x, y):
        # svg y grows downward
        return (x - x0 + pad) * px_per_m, (y1 - y + pad) * px_per_m

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH_PX:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {SVG_WIDTH_PX:.0f} {height_px:.0f}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="white"/>',
    ]
    bx0, by0 = to_px(x0, y1)
    bx1, by1 = to_px(x1, y0)
    parts.append(
        f'<rect x="{bx0:.1f}" y="{by0:.1f}" width="{bx1 - bx0:.1f}" '
        f'height="{by1 - by0:.1f}" fill="none" stroke="#999" stroke-width="1"/>'
    )
    # every arrow as whole arrays: a line from the sensor to its tip, and an
    # arrow head of two short back-strokes at a tip that has a direction
    px, py = to_px(pos[:, 0], pos[:, 1])
    drawn = np.flatnonzero(field.valid)
    tip = pos[drawn] + scale * grads[drawn]
    tx, ty = to_px(tip[:, 0], tip[:, 1])
    vx, vy = tx - px[drawn], ty - py[drawn]
    norm = np.sqrt(vx * vx + vy * vy)
    headed = norm > 1e-9
    ux, uy = vx[headed] / norm[headed], vy[headed] / norm[headed]
    hx, hy = tx[headed], ty[headed]
    head = 5.0
    barbs = []  # x and y of the back-stroke ends, one side, then the other
    for s in (+1, -1):
        barbs += [hx - head * ux + s * 0.6 * head * -uy, hy - head * uy + s * 0.6 * head * ux]

    # every sensor's elements as one template, filled in one % pass: its circle
    # and label, then, if drawn, its arrow's line and, if headed, the two
    # back-strokes from the tip; a label is an argument, so a % in it is text
    line = '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#1648b0" stroke-width="1.5"/>'
    marker = ('<circle cx="%.1f" cy="%.1f" r="3" fill="#c22"/>\n'
              '<text x="%.1f" y="%.1f" font-size="9" fill="#555">%s</text>')
    pieces = [marker, f"{marker}\n{line}", f"{marker}\n{line}\n{line}\n{line}"]
    kinds = np.zeros(len(pos), dtype=int)
    kinds[drawn] = 1
    kinds[drawn[headed]] = 2
    sizes = np.array([5, 9, 17])[kinds]  # arguments per sensor
    at = np.cumsum(sizes) - sizes
    args = np.empty(sizes.sum(), dtype=object)
    labels = np.array([html.escape(cid, quote=False) for cid in layout.channel_ids],
                      dtype=object)  # html.escape without quote escapes only &, < and >
    columns = [(at, [px, py, px + 4, py - 4, labels]),
               (at[drawn] + 5, [px[drawn], py[drawn], tx, ty]),
               (at[drawn[headed]] + 9, [hx, hy, *barbs[:2], hx, hy, *barbs[2:]])]
    for start, values in columns:
        for j, column in enumerate(values):
            args[start + j] = column
    parts.append("\n".join([pieces[k] for k in kinds.tolist()]) % tuple(args.tolist()))
    legend = (
        f"longest arrow = {max_norm:.4g} units/m (drawn {arrow_m:.3g} m)"
        if max_norm > 0
        else "all gradients zero or invalid"
    )
    parts.append(
        f'<text x="8" y="{height_px - 12:.1f}" font-size="12" fill="#333">{legend}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
