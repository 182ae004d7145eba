"""Spatial differentiation of mode vectors over a sensor layout.

Two differentiation paths:

* declared grid: central differences on interior lattice points, one-sided
  differences on edges, per axis;
* scattered sensors: per-sensor weighted affine least squares through the
  k nearest neighbors.  The center value is interpolated exactly (its
  inverse-distance weight is infinite), so only the slope is fitted:

      minimize  sum_j w_j | f_i + g . (r_j - r_i) - f_j |^2,  w_j = 1/|r_j - r_i|.

Degenerate stencils (too few neighbors, or neighbor positions collinear
beyond the condition limit) yield an invalid flag rather than a regularized
guess: a fabricated gradient component would defeat the diagnostic.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

import numpy as np

from . import timeseries
from .errors import ArgumentError, GeometryError, ParseError
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


@dataclass(frozen=True)
class GradientField:
    """Per-sensor gradient vectors with validity flags and method metadata.

    ``vectors`` is (M, d), complex when the differentiated mode was complex;
    rows where ``valid`` is False hold NaN.  ``methods`` records the stencil
    used at each sensor.  ``source`` names what the mode vector was
    (phase_average or dmd_mode) when the caller provides it.
    """

    vectors: np.ndarray
    valid: np.ndarray
    methods: tuple[str, ...]
    layout: SensorLayout
    source: str | None = None
    neighbor_count: int | None = None

    def __post_init__(self):
        vec = np.asarray(self.vectors)
        val = np.asarray(self.valid, dtype=bool)
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "valid", val)
        vec.setflags(write=False)
        val.setflags(write=False)
        if self.source is not None and self.source not in (
            SOURCE_PHASE_AVERAGE,
            SOURCE_DMD_MODE,
        ):
            raise ArgumentError(f"unknown gradient source {self.source!r}")
        if np.any(~np.isfinite(vec[val])):
            raise GeometryError("gradient produced non-finite values at valid sensors")


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
    """Actuators from a CSV with columns ``id,x,y,mode`` (mode ``cool`` or ``heat``)."""
    sources = []
    for rec in timeseries.read_records(path, ("id", "mode"), ("x", "y")):
        mode = rec["mode"].strip()
        if mode not in ("cool", "heat"):
            raise ParseError(f"{path}: source mode must be cool or heat, got {mode!r}")
        kind = "cooling" if mode == "cool" else "heating"
        sources.append(FluxSource(rec["id"].strip(), (rec["x"], rec["y"]), kind))
    return tuple(sources)


#: sensors whose distance rows one array pass computes; temporaries are
#: _BLOCK_ROWS x M, never M x M
_BLOCK_ROWS = 128


def _distance_blocks(pos):
    """Yield ``(start, dist)``: rows ``start:start + len(dist)`` of the sensor distance matrix.

    Each distance is ``sqrt(dx**2 + dy**2 [+ dz**2])`` with the squares summed
    in axis order, the value of ``np.sqrt(((pos - pos[i]) ** 2).sum(axis=1))``.
    """
    axes = np.ascontiguousarray(pos.T)
    for start in range(0, len(pos), _BLOCK_ROWS):
        sq = 0.0  # adding the first square to +0.0 is exact
        for coord in axes:
            delta = coord - coord[start:start + _BLOCK_ROWS, None]
            sq = sq + delta * delta
        yield start, np.sqrt(sq)


def _nearest(pos, k):
    """Indices and distances (M, k) of each sensor's k nearest other sensors.

    Row i is ``np.argsort(dist_i, kind="stable")[1 : k + 1]``, ties included:
    candidates at or below the (k+1)-th smallest distance, ordered by
    (distance, index), first one dropped.
    """
    m = len(pos)
    index = np.empty((m, k), dtype=np.intp)
    dist = np.empty((m, k))
    take = np.arange(k + 1)
    for start, block in _distance_blocks(pos):
        kth = np.partition(block, k, axis=1)[:, k]
        rows, cols = np.nonzero(block <= kth[:, None])
        near = block[rows, cols]
        order = np.lexsort((cols, near, rows))
        # rows come out of nonzero ascending, so each row's candidates start where they did
        counts = np.bincount(rows, minlength=len(block))
        pick = order[(np.cumsum(counts) - counts)[:, None] + take][:, 1:]
        index[start:start + len(block)] = cols[pick]
        dist[start:start + len(block)] = near[pick]
    return index, dist


def median_spacing(layout: SensorLayout) -> float:
    """Median over sensors of the distance to the nearest other sensor."""
    pos = layout.positions
    if len(pos) < 2:
        raise GeometryError("need at least 2 sensors to define a spacing")
    nearest = np.empty(len(pos))
    for start, dist in _distance_blocks(pos):
        rows = np.arange(len(dist))
        dist[rows, start + rows] = np.inf  # a sensor is not its own neighbour
        nearest[start:start + len(dist)] = dist.min(axis=1)
    return float(np.median(nearest))


def gradient_field(
    mode: np.ndarray,
    layout: SensorLayout,
    source: str | None = None,
    neighbors: int = DEFAULT_NEIGHBORS,
    condition_limit: float = CONDITION_LIMIT,
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

    if layout.grid is not None:
        vectors, valid, methods = _grid_gradient(mode, layout)
        used_neighbors = None
    else:
        vectors, valid, methods = _scattered_gradient(
            mode, layout, neighbors, condition_limit
        )
        used_neighbors = min(neighbors, layout.n_sensors - 1)
    if not np.any(valid):
        raise GeometryError("gradient stencil is degenerate at every sensor")
    vectors[~valid] = np.nan
    return GradientField(
        vectors=vectors,
        valid=valid,
        methods=tuple(methods),
        layout=layout,
        source=source,
        neighbor_count=used_neighbors,
    )


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


def _scattered_gradient(mode, layout, neighbors, condition_limit):
    pos = layout.positions
    m, d = pos.shape
    k = min(neighbors, m - 1)
    vectors = np.zeros((m, d), dtype=mode.dtype)
    valid = np.zeros(m, dtype=bool)
    if k >= d + 1:
        order, dist = _nearest(pos, k)
        # distinct sensors whose squared distance underflows to 0 void the stencil
        apart = dist > 0
        w = np.divide(1.0, dist, out=np.zeros_like(dist), where=apart)
        a = (pos[order] - pos[:, None, :]) * w[:, :, None]
        sv = np.linalg.svd(a, compute_uv=False)
        # the ratio is taken only where the smallest singular value is positive
        valid = apart.all(axis=1) & ~(sv[:, -1] <= 0)
        valid[valid] = ~(sv[valid, 0] / sv[valid, -1] > condition_limit)
        b = (mode[order] - mode[:, None]) * w
        for i in np.flatnonzero(valid):
            vectors[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
    methods = [SCATTERED_LSQ if v else INVALID for v in valid.tolist()]
    return vectors, valid, methods


def rms_gradient(
    complex_mode: np.ndarray,
    layout: SensorLayout,
    **kwargs,
) -> np.ndarray:
    """Component-wise RMS of the oscillating gradient: sqrt(2) * |grad|.

    For a mode component 2 Re[A(r) exp(i w t)], the time RMS of each spatial
    derivative over one period is sqrt(2) times the modulus of the complex
    gradient component.  Rows of invalid sensors are NaN.
    """
    field = gradient_field(np.asarray(complex_mode, dtype=complex), layout, **kwargs)
    return _rms(field.vectors)


def _rms(vectors: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0) * np.abs(vectors)


def flux_consistency(
    field: GradientField,
    layout: SensorLayout,
    sources,
    radius_factor: float = 2.0,
) -> dict[str, float]:
    """Directional consistency of the gradient field around each source.

    For every source, takes the valid sensors within ``radius_factor`` times
    the median sensor spacing (excluding a sensor coincident with the
    source, which has no direction) and averages the cosine between the
    real gradient vector and the source-to-sensor direction; the mean is
    negated for heating sources.  Temperature rising away from a cooling
    source therefore scores near +1.  Zero gradient vectors contribute 0.

    Raises GeometryError when a source has no valid sensor in range.
    """
    spacing = median_spacing(layout)
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
        near = field.valid & (dist <= radius_factor * spacing) & (dist > 1e-12)
        if not np.any(near):
            raise GeometryError(
                f"no valid sensor within {radius_factor} median spacings of source {src.name!r}"
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


def field_to_svg(field: GradientField, width_px: int = 720) -> str:
    """Quiver plot of the real gradient vectors.

    Arrows are scaled so the longest is 0.8 times the median sensor spacing;
    the scale appears in the legend.  The CSV is the canonical output; the
    SVG is for human inspection.
    """
    layout = field.layout
    if layout.d < 2:
        raise GeometryError("SVG export needs a 2-D layout")
    pos = layout.positions[:, :2]
    grads = np.real(field.vectors[:, :2])
    spacing = median_spacing(layout)
    finite = field.valid
    max_norm = float(np.sqrt((grads[finite] ** 2).sum(axis=1)).max()) if np.any(finite) else 0.0
    arrow_m = 0.8 * spacing
    scale = arrow_m / max_norm if max_norm > 0 else 0.0

    x0, y0 = pos.min(axis=0)
    x1, y1 = pos.max(axis=0)
    pad = max(spacing, 0.05 * max(x1 - x0, y1 - y0, 1.0))
    span_x = (x1 - x0) + 2 * pad
    span_y = (y1 - y0) + 2 * pad
    px_per_m = width_px / span_x
    height_px = span_y * px_per_m + 40  # room for the legend line

    def to_px(x, y):
        # svg y grows downward
        return (x - x0 + pad) * px_per_m, (y1 - y + pad) * px_per_m

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
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
