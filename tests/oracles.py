"""Reference implementations that the fast paths of the program reproduce bit for bit.

Each one is the plain, per-item code that an array pass or a text writer
replaced.  The tests compare the program against them on the same inputs;
keep them as they are, so that a change to the program is measured against
the code it replaced and not against itself.
"""

import html
import json
import math
from dataclasses import replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from thermokmd import timeseries
from thermokmd.errors import ParseError, TooShortError, UniformityError
from thermokmd.gradient import INVALID, SCATTERED_LSQ
from thermokmd.spectral import RANK_RCOND, ZERO_MODE_RTOL, ModeTable, RitzPair, _group_and_rank
from thermokmd.synth import (
    MAX_BLOCK,
    SwitchEvent,
    _bilinear,
    _cell,
    _cosine_basis,
    _multipliers,
    _schedule,
    simulate_room,
    switch_cycle_period,
)
from thermokmd.timeseries import (
    UNIFORMITY_RTOL,
    SensorLayout,
    SnapshotMatrix,
    _cell_value,
    _csv_rows,
    _parse_time,
    _seconds,
    utf8_errors,
)


# -- gradient: the per-sensor stencil and neighbours, the all-pairs spacing, the SVG --------

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


def _nearest_argsort(pos, k):
    """The reference neighbour rows: a full distance row and a stable argsort per sensor."""
    index = np.empty((len(pos), k), dtype=np.intp)
    dist = np.empty((len(pos), k))
    for i in range(len(pos)):
        row = np.sqrt(((pos - pos[i]) ** 2).sum(axis=1))
        index[i] = np.argsort(row, kind="stable")[1 : k + 1]
        dist[i] = row[index[i]]
    return index, dist


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


# -- room simulator: one explicit step at a time, and the closed form on numpy arrays -------

def _simulate_loop(spec):
    """The discrete system one explicit step at a time: the reference for simulate_room.

    Ghost cells that repeat each edge cell outward, and fresh arrays every step.
    """
    nx, ny, dx, dy = spec.nx, spec.ny, spec.dx, spec.dy
    rng = np.random.default_rng(spec.seed)
    theta = np.full((nx, ny), float(spec.init_temperature))
    if spec.init_noise > 0:
        theta = theta + spec.init_noise * rng.standard_normal((nx, ny))

    cells = []
    for ac in spec.acs:
        ci = min(int(ac.position[0] / dx), nx - 1)
        cj = min(int(ac.position[1] / dy), ny - 1)
        cells.append((ci, cj))
    on = [False] * len(spec.acs)

    sens = spec.sensors.positions
    fx = np.clip(sens[:, 0] / dx - 0.5, 0.0, nx - 1.0)
    fy = np.clip(sens[:, 1] / dy - 0.5, 0.0, ny - 1.0)
    i0 = np.minimum(fx.astype(int), nx - 2)
    j0 = np.minimum(fy.astype(int), ny - 2)
    tx = fx - i0
    ty = fy - j0

    def sample(field):
        return (
            field[i0, j0] * (1 - tx) * (1 - ty)
            + field[i0 + 1, j0] * tx * (1 - ty)
            + field[i0, j0 + 1] * (1 - tx) * ty
            + field[i0 + 1, j0 + 1] * tx * ty
        )

    stride = int(round(spec.sample_dt / spec.sim_dt))
    wsteps = int(round(spec.warmup / spec.sim_dt))
    total = wsteps + int(round(spec.duration / spec.sim_dt)) // stride * stride
    inv_dx2 = 1.0 / dx**2
    inv_dy2 = 1.0 / dy**2
    padded = np.empty((nx + 2, ny + 2))  # the corners are never read

    snapshots = []
    events = []
    for step in range(total + 1):
        if step >= wsteps and (step - wsteps) % stride == 0:
            snapshots.append(sample(theta))
        if step == total:
            break
        t = step * spec.sim_dt - spec.warmup
        source = np.zeros_like(theta)
        for a, ac in enumerate(spec.acs):
            tc = float(theta[cells[a]])
            if ac.mode == "cool":
                should_switch_on = not on[a] and tc >= ac.on_threshold
                should_switch_off = on[a] and tc <= ac.off_threshold
            else:
                should_switch_on = not on[a] and tc <= ac.on_threshold
                should_switch_off = on[a] and tc >= ac.off_threshold
            if should_switch_on:
                on[a] = True
                if t >= 0:
                    events.append(SwitchEvent(t, ac.name, "on", tc))
            elif should_switch_off:
                on[a] = False
                if t >= 0:
                    events.append(SwitchEvent(t, ac.name, "off", tc))
            if on[a]:
                rate = -ac.power if ac.mode == "cool" else ac.power
                source[cells[a]] += rate
        padded[1:-1, 1:-1] = theta
        padded[0, 1:-1], padded[-1, 1:-1] = theta[0], theta[-1]
        padded[1:-1, 0], padded[1:-1, -1] = theta[:, 0], theta[:, -1]
        lap = ((padded[2:, 1:-1] + padded[:-2, 1:-1]) - 2.0 * theta) * inv_dx2 + (
            (padded[1:-1, 2:] + padded[1:-1, :-2]) - 2.0 * theta
        ) * inv_dy2
        theta = theta + spec.sim_dt * (
            spec.kappa * lap - spec.leak * (theta - spec.ambient) + source
        )

    values = np.array(snapshots).T
    return SnapshotMatrix(values, spec.sample_dt, 0.0, spec.sensors.channel_ids), tuple(events)


def _bilinear_sampler(spec):
    """The sensor sampler that indexes the whole field, in 16 fancy-index and elementwise steps."""
    nx, ny, dx, dy = spec.nx, spec.ny, spec.dx, spec.dy
    sens = spec.sensors.positions
    fx = np.clip(sens[:, 0] / dx - 0.5, 0.0, nx - 1.0)
    fy = np.clip(sens[:, 1] / dy - 0.5, 0.0, ny - 1.0)
    i0 = np.minimum(fx.astype(int), nx - 2)
    j0 = np.minimum(fy.astype(int), ny - 2)
    tx = fx - i0
    ty = fy - j0

    def sample(field: np.ndarray) -> np.ndarray:
        return (
            field[i0, j0] * (1 - tx) * (1 - ty)
            + field[i0 + 1, j0] * tx * (1 - ty)
            + field[i0, j0 + 1] * (1 - tx) * ty
            + field[i0 + 1, j0 + 1] * tx * ty
        )

    return sample


@np.errstate(over="ignore", invalid="ignore")
def _simulate_blocks(spec):
    """The closed-form simulator with its per-unit state in numpy arrays, one field per snapshot.

    ``simulate_room`` as it was before its relay bookkeeping moved to Python
    floats and its sampling to the four cells each sensor reads; the new one
    must give the same record bytes and the same switch log.
    """
    nx, ny = spec.nx, spec.ny
    c0 = float(spec.init_temperature)
    rng = np.random.default_rng(spec.seed)
    noise = np.zeros((nx, ny))
    if spec.init_noise > 0:
        noise = spec.init_noise * rng.standard_normal((nx, ny))
    cx, cy = _cosine_basis(nx), _cosine_basis(ny)
    # c0 stays out of the modal state, so a quiet room samples exactly c0
    a = (cx @ noise @ cy.T).ravel()
    mu = _multipliers(spec, np.arange(nx)[:, None], np.arange(ny)).ravel()
    # row u: unit u's cell in the modal basis, which both reads and heats it
    rows = np.array([np.outer(cx[:, i], cy[:, j]).ravel()
                     for i, j in (_cell(spec, ac) for ac in spec.acs)]).reshape(-1, mu.size)
    magnitude = np.abs(rows)
    rates = np.array([-ac.power if ac.mode == "cool" else ac.power for ac in spec.acs])
    cool = np.array([ac.mode == "cool" for ac in spec.acs], dtype=bool)
    on_level = np.array([ac.on_threshold for ac in spec.acs])
    off_level = np.array([ac.off_threshold for ac in spec.acs])
    drift = np.zeros(mu.size)
    drift[0] = spec.leak * (spec.ambient - c0) * np.sqrt(nx * ny)
    sample = _bilinear_sampler(spec)

    stride, wsteps, total = _schedule(spec)
    # power[j] = mu^j and gain[j] = G_j, by the recurrence the steps follow
    steps = min(stride, total, MAX_BLOCK)
    power = np.empty((steps + 1, mu.size))
    gain = np.empty((steps + 1, mu.size))
    power[0], gain[0] = 1.0, 0.0
    for j in range(steps):
        np.multiply(power[j], mu, out=power[j + 1])
        np.multiply(gain[j], mu, out=gain[j + 1])
        gain[j + 1] += spec.sim_dt
    # f held fixed settles a mode with mu != 1 at s = sim_dt f / (1 - mu); a mode
    # with mu = 1 has no settled state (s = 0 here) and ramps by sim_dt f a step
    ramps = mu == 1.0
    settle = spec.sim_dt / np.where(ramps, np.inf, 1.0 - mu)
    # a subnormal coefficient (a fast mode decaying while no unit drives it) is
    # far below any reading's round-off, but slows every product it enters
    tiny = np.finfo(float).tiny

    forced = {}  # units on -> f, each reading's response G_j f, s, ramp, and a margin

    def forcing(active):
        f = drift + rates[active] @ rows[active]
        response = gain @ (rows * f).T
        settled = settle * f
        size = np.abs(response).max(axis=0, initial=0.0)
        return (f, response, settled, spec.sim_dt * (rows[:, ramps] @ f[ramps]),
                1e-9 * (magnitude @ np.abs(settled) + size))

    def reached(reading, level, rising):
        """Where a relay reading has reached its level, from below where ``rising``."""
        return np.where(rising, reading >= level, reading <= level)

    on = np.zeros(len(spec.acs), dtype=bool)
    level, rising = on_level, cool  # every unit starts off, waiting for its on level
    snapshots: list[np.ndarray] = []
    events: list[SwitchEvent] = []
    step, next_sample = 0, wsteps
    while True:
        if step == next_sample:
            snapshots.append(sample(c0 + cx.T @ a.reshape(nx, ny) @ cy))
            next_sample += stride
        if step == total:
            break
        base = c0 + rows @ a
        flip = reached(base, level, rising)
        on ^= flip
        level, rising = np.where(on, off_level, on_level), cool != on
        t = step * spec.sim_dt - spec.warmup
        if t >= 0:
            events += (SwitchEvent(t, spec.acs[u].name, "on" if on[u] else "off", float(base[u]))
                       for u in np.flatnonzero(flip))
        key = on.tobytes()
        if key not in forced:
            forced[key] = forcing(on)
        f, response, settled, ramp, margin = forced[key]
        n = min(steps, next_sample - step, total - step)
        # A relay can switch within the block only if its reading can reach its
        # level: the modes with mu != 1 move it by at most |rows| @ (|a - s|
        # (1 - mu^n)), and those with mu = 1 by j ramp, monotonically.  The
        # margin, far above round-off, covers |rows| @ |a| <= |rows| @ (|a - s| + |s|).
        reach = magnitude @ (np.abs(a - settled) * (1.0 - power[n] + 1e-9))
        reach += 1e-9 * np.abs(base) + margin
        climb = n * ramp
        maybe = np.flatnonzero(np.where(rising, ~(base + np.maximum(climb, 0.0) + reach < level),
                                        ~(base + np.minimum(climb, 0.0) - reach > level)))
        if maybe.size:
            reading = c0 + (power[1:n + 1] @ (rows[maybe] * a).T + response[1:n + 1, maybe])
            hit = np.flatnonzero(reached(reading, level[maybe], rising[maybe]).any(axis=1))
            if hit.size:
                n = int(hit[0]) + 1
        a = power[n] * a + gain[n] * f
        a[np.abs(a) < tiny] = 0.0
        step += n

    values = np.array(snapshots).T
    record = SnapshotMatrix(values, spec.sample_dt, 0.0, spec.sensors.channel_ids)
    return record, tuple(events)



# -- room: the true fundamental gradient, from the field on every cell ---------------------

def _cell_centre_layout(spec):
    """One sensor on each cell centre, in the field's (x, y) order: it samples the field exactly."""
    i, j = np.meshgrid(np.arange(spec.nx), np.arange(spec.ny), indexing="ij")
    pts = np.column_stack([(i.ravel() + 0.5) * spec.dx, (j.ravel() + 0.5) * spec.dy])
    return SensorLayout(tuple(f"c{k}" for k in range(len(pts))), pts)


def _room_gradient_truth(spec, ac):
    """(complex gradient (sensors, 2) at the sensors of ``spec``, the dense run's switch log).

    A copy of ``spec`` with one sensor on each cell centre records the whole
    field.  Its Fourier average at omega = 2 pi / switch_cycle_period(events,
    ac), (1/N) sum_k (theta_k - mean) exp(-i omega k sample_dt), is the room's
    fundamental mode A on the grid, so that theta ~ 2 Re(A exp(i omega t)).
    ``np.gradient`` of A, sampled with the simulator's bilinear weights, is the
    true gradient at each sensor.
    """
    dense, events = simulate_room(replace(spec, sensors=_cell_centre_layout(spec)))
    omega = 2.0 * np.pi / switch_cycle_period(events, ac)
    y = dense.values - dense.values.mean(axis=1, keepdims=True)
    phase = np.exp(-1j * omega * spec.sample_dt * np.arange(dense.n_snapshots))
    mode = (y @ phase / dense.n_snapshots).reshape(spec.nx, spec.ny)
    cells, weigh = _bilinear(spec)
    grad = [weigh(g.ravel().take(cells)) for g in np.gradient(mode, spec.dx, spec.dy)]
    return np.column_stack(grad), events


def _gradient_angle(vectors, truth):
    """Degrees: the angle of the median per-sensor |cosine| between gradients and the truth.

    Complex vectors meet the complex truth by the modulus of their inner
    product, so that a mode's arbitrary complex phase drops out.  Real ones,
    a field at the phase of sample 0, meet its real part by their signed
    cosine, so that a reversed gradient reads 180 degrees.
    """
    if np.iscomplexobj(vectors):
        inner = np.abs(np.sum(np.conj(vectors) * truth, axis=1))
    else:
        truth = truth.real
        inner = np.sum(vectors * truth, axis=1)
    cosine = inner / (np.linalg.norm(vectors, axis=1) * np.linalg.norm(truth, axis=1))
    return float(np.degrees(np.arccos(np.clip(np.median(cosine), -1.0, 1.0))))


# -- timeseries: the row-by-row reader, the per-cell parser, exact timestamps ---------------

def _load_snapshots_rows(path):
    """The reference reader: csv and float() cell by cell, then the exact timestamp check.

    The whole of ``load_snapshots`` before it parsed value cells with
    ``np.loadtxt``; its row loop is now only the error path.
    """
    path = Path(path)
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShortError(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip() != "time":
            raise ParseError(f"{path}: header must be 'time,<id1>,...', got {header!r}")
        ids = tuple(h.strip() for h in header[1:])
        times = []
        longest = 0
        rows = []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise ParseError(
                    f"{path}: data row {r} has {len(rec)} cells, expected {len(header)}"
                )
            times.append(_parse_time(path, rec[0], r))
            longest = max(longest, len(rec[0]))
            try:
                vals = list(map(float, rec[1:]))
            except ValueError:
                vals = [_cell_value(path, cell, r, c) for c, cell in enumerate(rec[1:], start=2)]
            rows.append(vals)
    if len(rows) < 3:
        raise TooShortError(f"{path}: need at least 3 data rows, got {len(rows)}")
    exact = Context(prec=640 + longest, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    step = exact.subtract(times[1], times[0])
    if step <= 0:
        raise UniformityError(f"{path}: timestamps must be strictly increasing (row 2)", row=2)
    tol = exact.multiply(step, UNIFORMITY_RTOL)
    for r in range(2, len(times)):
        delta = exact.subtract(times[r], times[r - 1])
        if exact.abs(exact.subtract(delta, step)) > tol:
            raise UniformityError(
                f"{path}: non-uniform timestamp at data row {r + 1}: spacing "
                f"{_seconds(delta)} s differs from {_seconds(step)} s",
                row=r + 1,
            )
    dt = float(step)
    if math.isinf(dt):
        raise ParseError(
            f"{path}: sampling period {_seconds(step)} s is out of the range of a double"
        )
    values = np.array(rows, dtype=float).T
    try:
        return SnapshotMatrix(values, dt, float(times[0]), ids)
    except ParseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _row_values_loop(path, rec, r):
    """The reference cell parser: strip, then float(), one cell at a time."""
    vals = []
    for c, cell in enumerate(rec[1:], start=1):
        text = cell.strip()
        if not text:
            raise ParseError(f"{path}: missing value at data row {r}, column {c + 1}")
        try:
            v = float(text)
        except ValueError:
            raise ParseError(
                f"{path}: non-numeric value {cell!r} at data row {r}, column {c + 1}"
            ) from None
        vals.append(v)
    return vals


def _seconds_fraction(x):
    try:
        return f"{float(x):g}"
    except OverflowError:
        return f"{Decimal(x.numerator) / Decimal(x.denominator):.6g}"


def _load_times_fraction(path, cells):
    """The reference timestamp check, in exact Fraction arithmetic.

    What ``load_snapshots`` returns or raises for a one-channel file with these
    time cells and every value 1.
    """
    times = []
    for row, cell in enumerate(cells, start=1):
        try:
            dec = Decimal(cell.strip())
        except InvalidOperation:
            raise ParseError(f"{path}: non-numeric timestamp {cell!r} at data row {row}") from None
        if not dec.is_finite():
            raise ParseError(f"{path}: non-finite timestamp {cell!r} at data row {row}")
        t = float(dec)
        if math.isinf(t) or (t == 0 and dec):
            raise ParseError(
                f"{path}: timestamp {cell!r} at data row {row} is out of the range of a double"
            )
        times.append(Fraction(dec))
    if len(times) < 3:
        raise TooShortError(f"{path}: need at least 3 data rows, got {len(times)}")
    step = times[1] - times[0]
    if step <= 0:
        raise UniformityError(f"{path}: timestamps must be strictly increasing (row 2)", row=2)
    tol = step * Fraction(1, 10**6)
    for r in range(2, len(times)):
        delta = times[r] - times[r - 1]
        if abs(delta - step) > tol:
            raise UniformityError(
                f"{path}: non-uniform timestamp at data row {r + 1}: spacing "
                f"{_seconds_fraction(delta)} s differs from {_seconds_fraction(step)} s",
                row=r + 1,
            )
    try:
        dt = float(step)
    except OverflowError:
        raise ParseError(f"{path}: sampling period {_seconds_fraction(step)} s "
                         "is out of the range of a double") from None
    try:
        return SnapshotMatrix(np.ones((1, len(times))), dt, float(Decimal(cells[0].strip())),
                              ("c",))
    except ParseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _times_fraction(t0, dt, n):
    """The reference time cells: each t0 + k*dt as an exact Fraction, printed as a decimal
    quotient (the whole of ``write_snapshots``'s timestamp rule before it used Decimal sums)."""
    with localcontext() as ctx:
        ctx.prec = 1600
        return [str(Decimal(t.numerator) / Decimal(t.denominator))
                for t in (Fraction(t0) + k * Fraction(dt) for k in range(n))]


def _decimal_text(x: Fraction) -> str:
    """The exact decimal expansion of a Fraction whose denominator is 2**a * 5**b."""
    with localcontext() as ctx:
        ctx.prec = 4000
        ctx.traps[Inexact] = True
        return str(Decimal(x.numerator) / Decimal(x.denominator))


# -- spectral: the per-snapshot energy, the per-column companion fit ------------------------

def _energy_loop(p, n_snapshots):
    """The reference summation: one power, one np.dot and one add per snapshot."""
    lam = complex(p.lam)
    is_real = lam.imag == 0.0
    total = 0.0
    power = 1.0 + 0.0j
    for _ in range(n_snapshots):
        contrib = (power * p.mode).real if is_real else 2.0 * (power * p.mode).real
        total += float(np.dot(contrib, contrib))
        power *= lam
    return float(np.sqrt(total))


def _companion_kmd_per_column(s):
    """companion_kmd as it was: one RitzPair per kept column, grouped and ranked in place."""
    Y = s.values
    K = Y[:, :-1]
    y_last = Y[:, -1]
    n1 = s.n_snapshots - 1
    c, *_ = np.linalg.lstsq(K, y_last, rcond=RANK_RCOND)
    residual = float(np.linalg.norm(K @ c - y_last))
    companion = np.zeros((n1, n1))
    companion[np.arange(1, n1), np.arange(n1 - 1)] = 1.0
    companion[:, -1] = c
    lams = np.linalg.eigvals(companion)
    vander = np.vander(lams, N=n1, increasing=True)
    modes = np.linalg.lstsq(vander.T, K.T.astype(complex), rcond=None)[0].T

    notes, pairs = [], []
    norms = np.linalg.norm(modes, axis=0)
    cutoff = ZERO_MODE_RTOL * norms.max(initial=0.0)
    for j in range(n1):
        if norms[j] <= cutoff:
            notes.append(f"dropped zero mode at lam={lams[j]:.6g}")
            continue
        pairs.append(RitzPair(complex(lams[j]), modes[:, j], index=j))
    entries = _group_and_rank(pairs, s.dt, s.n_snapshots, notes)
    return ModeTable(entries=entries, dt=s.dt, n_snapshots=s.n_snapshots, residual=residual,
                     mean_removed=timeseries.mean_offset(s) is None,
                     channel_ids=s.channel_ids, notes=tuple(notes))


def _reconstruct_two_lists(table, n_snapshots=None):
    """reconstruct as it was: the lam and mode lists rebuilt side by side."""
    n = table.n_snapshots - 1 if n_snapshots is None else n_snapshots
    lams, modes = [], []
    for e in table.entries:
        lams.append(e.rep.lam)
        modes.append(e.rep.mode)
        if e.partner is not None:
            lams.append(e.partner.lam)
            modes.append(e.partner.mode)
    if not lams:
        return np.zeros((len(table.channel_ids), n))
    powers = np.vander(np.asarray(lams, dtype=complex), N=n, increasing=True)
    return np.real(np.column_stack(modes) @ powers)
