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

  The neighbour search buckets the sensors of a layout of
  ``_GRID_MIN_SENSORS`` or more in a uniform cell grid and takes each
  sensor's neighbours from the 3**d cells around it.  A row is kept only
  when its farthest kept distance is below the distance to the nearest
  cell outside those, with a margin for the rounding of the cell
  coordinates.  Every other row, and every row of a
  smaller layout, is searched over all pairs.  Both give the same indices
  and distances, bit for bit.

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


#: sensors whose distance rows one array pass computes; temporaries are
#: _BLOCK_ROWS x M, never M x M
_BLOCK_ROWS = 128

#: layouts of fewer sensors search all pairs only: below this count the cell
#: grid's set-up costs more than the distances it saves (tools/neighbour_sweep.py)
_GRID_MIN_SENSORS = 256

#: about how many sensors share one cell of the search grid
_CELL_SENSORS = 4

#: the narrowest cell the grid takes; from it up, the rounding of a cell
#: coordinate is relative, never the absolute error of a subnormal
_MIN_CELL = np.finfo(float).tiny / np.finfo(float).eps


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


def _cell_size(extent, m):
    """Edge of a cubic cell that about :data:`_CELL_SENSORS` of ``m`` sensors share, or None.

    The box's volume is spread over the axes that are at least one cell
    long; a shorter axis is one cell wide.  None when the edge is below
    :data:`_MIN_CELL` or not finite: then the whole box is one cell.
    """
    spans = sorted((float(e) for e in extent if e > 0), reverse=True)
    size = math.inf
    while spans:
        size = math.exp((sum(map(math.log, spans)) + math.log(_CELL_SENSORS / m)) / len(spans))
        if spans[-1] >= size:
            break
        spans.pop()
    return size if _MIN_CELL <= size < math.inf else None


def _cell_candidates(cell, dims):
    """(candidates, begin, length): the sensors in the 3**d cells around each sensor's cell.

    ``cell`` is each sensor's (M, d) cell index in a grid of ``dims`` cells.
    Sensor i's candidates are ``candidates[begin[i]:begin[i] + length[i]]``,
    cell after cell, each cell's sensors in index order, sensor i included;
    one more entry at the end, M, stands for a sensor at infinity.
    """
    d = len(dims)
    strides = np.cumprod(np.concatenate(([1], dims[:-1])))
    key = cell @ strides
    by_cell = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=int(np.prod(dims)))
    first = np.cumsum(counts) - counts
    # per occupied cell: the keys and counts of the 3**d cells around it
    occupied = np.flatnonzero(counts)
    around = cell[by_cell[first[occupied]]][:, None, :] + (np.indices((3,) * d).reshape(d, -1).T - 1)
    inside = ((around >= 0) & (around < dims)).all(axis=2)
    around = np.where(inside, around @ strides, 0)
    seg = np.where(inside, counts[around], 0)
    flat = seg.ravel()
    source = np.repeat(first[around].ravel() - (np.cumsum(flat) - flat), flat)
    candidates = np.append(by_cell[source + np.arange(len(source))], len(cell))
    slot = np.empty(len(counts), dtype=np.intp)
    slot[occupied] = np.arange(len(occupied))
    length = seg.sum(axis=1)
    return candidates, (np.cumsum(length) - length)[slot[key]], length[slot[key]]


def _grid_nearest(pos, k, index, dist):
    """Fill the rows of ``index`` and ``dist`` that the cell grid certifies; return the other rows.

    The sensors are bucketed in a uniform grid over their bounding box
    (fixed-radius near-neighbour search, Bentley, Stanat & Williams 1977).
    A sensor's candidates are the sensors of the 3**d cells around its own,
    itself included, and its row is the candidates' :func:`_first`.  The row
    is certified when its (k+1)-th distance is below the distance formula's
    value at the gap from the sensor to the nearest cell outside those 3**d,
    less a margin for the rounding of the cell coordinates: every sensor
    outside is then farther, so the row is the all-pairs row, bit for bit.
    """
    m, d = pos.shape
    lo = pos.min(axis=0)
    extent = pos.max(axis=0) - lo
    size = _cell_size(extent, m)
    if size is None:
        return np.arange(m)
    u = (pos - lo) / size  # each within eps * (dims + 1) cells of the exact quotient
    cell = u.astype(np.intp)
    dims = (extent / size).astype(np.intp) + 1
    frac = u - cell  # exact
    # cells from the sensor to the faces of its 3**d block that have cells beyond
    # them, less the rounding of two cell coordinates and of this sum
    gap = np.minimum(np.where(cell >= 2, frac + 1.0, np.inf),
                     np.where(cell <= dims - 3, 2.0 - frac, np.inf)).min(axis=1)
    gap = (gap - 4 * np.finfo(float).eps * (dims.max() + 4)) * size
    with np.errstate(over="ignore"):  # a bound past the float range is inf, as are the distances
        bound = np.sqrt(gap * gap)

    candidates, begin, length = _cell_candidates(cell, dims)
    axes = np.ascontiguousarray(pos.T)
    far = np.hstack([axes, np.full((d, 1), np.inf)])  # candidate m pads a row
    # rows by candidate count, in blocks of at most _BLOCK_ROWS x M padded distances
    order = np.argsort(length, kind="stable")
    width = np.maximum(length[order], k + 1)
    rest = []
    start = 0
    while start < m:
        fits = np.arange(1, m - start + 1) * width[start:] <= _BLOCK_ROWS * m
        stop = start + max(1, int(np.count_nonzero(fits)))
        rows = order[start:stop]
        col = np.arange(width[stop - 1])
        pad = len(candidates) - 1
        ids = candidates[np.where(col < length[rows, None], begin[rows, None] + col, pad)]
        got, near, kth = _first(_distances(far[:, ids], axes[:, rows, None]), ids, k)
        sure = kth < bound[rows]
        index[rows[sure]] = got[sure]
        dist[rows[sure]] = near[sure]
        rest.append(rows[~sure])
        start = stop
    return np.concatenate(rest)


def _nearest(pos, k):
    """Indices and distances (M, k) of each sensor's k nearest other sensors.

    Row i is ``np.argsort(dist_i, kind="stable")[1 : k + 1]``, ties included:
    candidates at or below the (k+1)-th smallest distance, ordered by
    (distance, index), first one dropped.  From :data:`_GRID_MIN_SENSORS`
    sensors up, :func:`_grid_nearest` finds the rows it can certify from a
    few cells around each sensor; every other row, and every row of a
    smaller layout, is searched over all pairs in blocks of
    :data:`_BLOCK_ROWS` rows, which is the reference path.
    """
    m = len(pos)
    index = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    rest = _grid_nearest(pos, k, index, dist) if m >= _GRID_MIN_SENSORS else np.arange(m)
    axes = np.ascontiguousarray(pos.T)
    for start in range(0, len(rest), _BLOCK_ROWS):
        rows = rest[start:start + _BLOCK_ROWS]
        index[rows], dist[rows], _ = _first(_distances(axes, axes[:, rows, None]), None, k)
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
    cells = zip(layout.channel_ids, layout.positions.tolist(),
                np.asarray(values, dtype=float).tolist(), field.valid.tolist())
    for i, (cid, position, vals, valid) in enumerate(cells):
        rows.append([cid, *position, *vals, "true" if valid else "false",
                     *([methods[i]] if methods else [])])
    return timeseries.csv_text(rows, "\n")


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
    max_norm = float(np.sqrt((grads[finite] ** 2).sum(axis=1)).max()) if np.any(finite) else 0.0
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
        barbs += [(hx - head * ux + s * 0.6 * head * -uy).tolist(),
                  (hy - head * uy + s * 0.6 * head * ux).tolist()]
    cx, cy = px.tolist(), py.tolist()
    line = ('<line x1="{:.1f}" y1="{:.1f}" x2="{:.1f}" y2="{:.1f}" '
            'stroke="#1648b0" stroke-width="1.5"/>')
    arrows = {i: [line.format(cx[i], cy[i], x, y)]
              for i, x, y in zip(drawn.tolist(), tx.tolist(), ty.tolist())}
    for i, x, y, ax, ay, bx, by in zip(drawn[headed].tolist(), hx.tolist(), hy.tolist(), *barbs):
        arrows[i] += [line.format(x, y, ax, ay), line.format(x, y, bx, by)]

    for i, (cid, x, y) in enumerate(zip(layout.channel_ids, cx, cy)):
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#c22"/>')
        label = html.escape(cid, quote=False)  # only &, < and >
        parts.append(
            f'<text x="{x + 4:.1f}" y="{y - 4:.1f}" font-size="9" fill="#555">{label}</text>'
        )
        parts += arrows.get(i, ())
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
