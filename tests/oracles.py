"""Reference implementations that the fast paths of the program reproduce bit for bit.

Each one is the plain, per-item code that an array pass or a text writer
replaced.  The tests compare the program against them on the same inputs;
keep them as they are, so that a change to the program is measured against
the code it replaced and not against itself.
"""

import html
import json

import numpy as np

from thermokmd.gradient import INVALID, SCATTERED_LSQ


# -- gradient: the per-sensor stencil, the all-pairs spacing and the per-arrow SVG ----------

def _scattered_gradient_loop(mode, layout, neighbors, condition_limit):
    """The reference stencil: a full distance row and a stable argsort per sensor."""
    pos = layout.positions
    m, d = pos.shape
    k = min(neighbors, m - 1)
    vectors = np.zeros((m, d), dtype=mode.dtype)
    valid = np.zeros(m, dtype=bool)
    methods = []
    for i in range(m):
        if k < d + 1:
            methods.append(INVALID)
            continue
        dist = np.sqrt(((pos - pos[i]) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")[1 : k + 1]
        dr = pos[order] - pos[i]
        w = 1.0 / dist[order]
        a = dr * w[:, None]
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= 0 or sv[0] / sv[-1] > condition_limit:
            methods.append(INVALID)
            continue
        b = (mode[order] - mode[i]) * w
        g, *_ = np.linalg.lstsq(a, b, rcond=None)
        vectors[i] = g
        valid[i] = True
        methods.append(SCATTERED_LSQ)
    return vectors, valid, methods


def _median_spacing_full(layout):
    """The reference spacing: the whole (M, M, d) difference array at once."""
    pos = layout.positions
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return float(np.median(dist.min(axis=1)))


def _field_to_svg_loop(field, width_px=720):
    """The reference quiver plot: each arrow tip and head from 2-vectors, one sensor at a time."""
    layout = field.layout
    pos = layout.positions[:, :2]
    grads = np.real(field.vectors[:, :2])
    spacing = _median_spacing_full(layout)
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
    height_px = span_y * px_per_m + 40

    def to_px(p):
        return (
            (p[0] - x0 + pad) * px_per_m,
            (y1 - p[1] + pad) * px_per_m,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} {height_px:.0f}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="white"/>',
    ]
    bx0, by0 = to_px((x0, y1))
    bx1, by1 = to_px((x1, y0))
    parts.append(
        f'<rect x="{bx0:.1f}" y="{by0:.1f}" width="{bx1 - bx0:.1f}" '
        f'height="{by1 - by0:.1f}" fill="none" stroke="#999" stroke-width="1"/>'
    )
    for i, cid in enumerate(layout.channel_ids):
        cx, cy = to_px(pos[i])
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="#c22"/>')
        label = html.escape(cid, quote=False)
        parts.append(
            f'<text x="{cx + 4:.1f}" y="{cy - 4:.1f}" font-size="9" fill="#555">{label}</text>'
        )
        if not field.valid[i]:
            continue
        tip = pos[i] + scale * grads[i]
        tx, ty = to_px(tip)
        parts.append(
            f'<line x1="{cx:.1f}" y1="{cy:.1f}" x2="{tx:.1f}" y2="{ty:.1f}" '
            'stroke="#1648b0" stroke-width="1.5"/>'
        )
        v = np.array([tx - cx, ty - cy])
        norm = np.sqrt((v**2).sum())
        if norm > 1e-9:
            u = v / norm
            n = np.array([-u[1], u[0]])
            head = 5.0
            for s in (+1, -1):
                hx, hy = np.array([tx, ty]) - head * u + s * 0.6 * head * n
                parts.append(
                    f'<line x1="{tx:.1f}" y1="{ty:.1f}" x2="{hx:.1f}" y2="{hy:.1f}" '
                    'stroke="#1648b0" stroke-width="1.5"/>'
                )
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


# -- serialization: json.dumps over the whole payload ---------------------------------------

def _table_to_json_dumps(table):
    """The reference writer: json.dumps over one {"re", "im"} dict per mode value."""
    def record(e):
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
            "mode": [{"re": v.real, "im": v.imag} for v in e.rep.mode],
        }

    payload = {
        "dt_seconds": table.dt,
        "n_snapshots": table.n_snapshots,
        "residual": table.residual,
        "mean_removed": table.mean_removed,
        "channel_ids": list(table.channel_ids),
        "notes": list(table.notes),
        "modes": [record(e) for e in table.entries],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _result_to_json_dumps(res):
    """The reference phase_average.json: json.dumps over one dict per channel."""
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
