"""Synthetic ground-truth generators.

Two generators with known answers:

* :func:`generate_analytic` samples a finite sum of single-frequency
  spatio-temporal tones (plus an optional static bias field and Gaussian
  noise) at the sensor locations and returns the exact eigenvalue/mode
  table alongside the data.

* :func:`simulate_room` integrates a 2-D diffusion-plus-leak temperature
  field with hysteresis (relay) thermostat air conditioners.  Each AC
  senses the temperature at its own grid cell and switches between on and
  off across a dead band, which produces a sustained limit-cycle
  oscillation whose period can be measured independently from the switch
  log.  The explicit scheme refuses to run outside its CFL bound.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import timeseries
from .errors import ArgumentError, LayoutError, ParseError, StabilityError
from .spectral import ModeTable, RitzPair, _group_and_rank
from .timeseries import SensorLayout, SnapshotMatrix


# -- spatial amplitude fields --------------------------------------------------

@dataclass(frozen=True)
class PolynomialField:
    """Complex polynomial over room coordinates.

    ``terms`` maps an exponent tuple (one entry per coordinate) to a complex
    coefficient, e.g. ((1, 0), 3.0) for 3x.
    """

    terms: tuple[tuple[tuple[int, ...], complex], ...]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.zeros(len(points), dtype=complex)
        for exponents, coeff in self.terms:
            # an empty exponent tuple is a constant term in any dimension
            if exponents and len(exponents) != points.shape[1]:
                raise ArgumentError(
                    f"term exponents {exponents} do not match dimension {points.shape[1]}"
                )
            term = np.ones(len(points))
            for axis, p in enumerate(exponents):
                if p:
                    term = term * points[:, axis] ** p
            out += complex(coeff) * term
        return out


@dataclass(frozen=True)
class PlaneWaveField:
    """amplitude * exp(i k . r): constant modulus, spatially varying phase."""

    amplitude: complex
    wavevector: tuple[float, ...]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if len(self.wavevector) != points.shape[1]:
            raise ArgumentError(
                f"wavevector {self.wavevector} does not match dimension {points.shape[1]}"
            )
        phase = points @ np.asarray(self.wavevector, dtype=float)
        return complex(self.amplitude) * np.exp(1j * phase)


def constant_field(value: complex) -> PolynomialField:
    return PolynomialField(((tuple(), complex(value)),))


@dataclass(frozen=True)
class Tone:
    """One oscillatory component: period in seconds, spatial amplitude, phase."""

    period: float
    amplitude: PolynomialField | PlaneWaveField
    phase: float = 0.0


@dataclass(frozen=True)
class AnalyticSpec:
    layout: SensorLayout
    dt: float
    n_snapshots: int
    tones: tuple[Tone, ...]
    bias: PolynomialField | PlaneWaveField | None = None
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_snapshots < 3:
            raise ArgumentError(f"need at least 3 snapshots, got {self.n_snapshots}")
        if not self.dt > 0:
            raise ArgumentError(f"dt must be positive, got {self.dt}")
        if self.noise_std < 0:
            raise ArgumentError(f"noise_std must be >= 0, got {self.noise_std}")
        for tone in self.tones:
            if not tone.period > 2.0 * self.dt:
                raise ArgumentError(
                    f"tone period {tone.period} s must exceed twice the sampling "
                    f"period ({2 * self.dt} s)"
                )
        object.__setattr__(self, "tones", tuple(self.tones))


def generate_analytic(spec: AnalyticSpec) -> tuple[SnapshotMatrix, ModeTable]:
    """Sample the tone sum at the sensors and return data plus exact truth.

    y_k(r_i) = bias(r_i) + sum_m 2 Re[A_m(r_i) exp(i (2 pi k dt / T_m + psi_m))]
               + gaussian noise.

    The truth table holds lam_m = exp(i 2 pi dt / T_m) with the phased
    amplitudes A_m exp(i psi_m) as modes, plus a bias entry when a bias
    field is present; its energies use the same norm as the estimator.
    """
    pts = spec.layout.positions
    m = spec.layout.n_sensors
    k = np.arange(spec.n_snapshots)
    values = np.zeros((m, spec.n_snapshots))
    if spec.bias is not None:
        bias_vals = spec.bias.evaluate(pts)
        if np.abs(bias_vals.imag).max(initial=0.0) > 0:
            raise ArgumentError("bias field must be real-valued")
        values += bias_vals.real[:, None]

    truth_pairs: list[RitzPair] = []
    index = 0
    for tone in spec.tones:
        lam = np.exp(2j * np.pi * spec.dt / tone.period)
        mode = tone.amplitude.evaluate(pts) * np.exp(1j * tone.phase)
        values += 2.0 * np.real(mode[:, None] * lam ** k[None, :])
        truth_pairs.append(RitzPair(complex(lam), mode, index))
        truth_pairs.append(RitzPair(complex(lam).conjugate(), mode.conjugate(), index + 1))
        index += 2
    if spec.bias is not None and np.any(bias_vals.real):
        truth_pairs.append(RitzPair(1.0 + 0.0j, bias_vals.real.astype(complex), index))

    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + rng.normal(0.0, spec.noise_std, size=values.shape)

    snapshots = SnapshotMatrix(values, spec.dt, 0.0, spec.layout.channel_ids)
    entries = _group_and_rank(truth_pairs, spec.dt, spec.n_snapshots, notes=[])
    truth = ModeTable(
        entries=entries,
        dt=spec.dt,
        n_snapshots=spec.n_snapshots,
        residual=0.0,
        mean_removed=spec.bias is None,
        channel_ids=spec.layout.channel_ids,
    )
    return snapshots, truth


# -- thermostat room simulator -------------------------------------------------

@dataclass(frozen=True)
class AirConditioner:
    """Point actuator with a relay thermostat sensing its own cell.

    Cooling: turns on when the cell reaches ``on_threshold`` from below,
    off once it has been driven down to ``off_threshold`` (requires
    on > off).  Heating is mirrored (requires on < off).  ``power`` is the
    temperature rate injected at the cell while on, degrees per second.
    """

    name: str
    position: tuple[float, float]
    mode: str  # "cool" | "heat"
    power: float
    on_threshold: float
    off_threshold: float

    def __post_init__(self):
        if self.mode not in ("cool", "heat"):
            raise ArgumentError(f"AC mode must be cool or heat, got {self.mode!r}")
        if self.power <= 0:
            raise ArgumentError(f"AC power must be positive, got {self.power}")
        if self.on_threshold == self.off_threshold:
            raise ArgumentError("thermostat dead band is empty (on == off)")
        if self.mode == "cool" and not self.on_threshold > self.off_threshold:
            raise ArgumentError("cooling thermostat needs on_threshold > off_threshold")
        if self.mode == "heat" and not self.on_threshold < self.off_threshold:
            raise ArgumentError("heating thermostat needs on_threshold < off_threshold")


@dataclass(frozen=True)
class SwitchEvent:
    time: float
    ac: str
    state: str  # "on" | "off"
    cell_temperature: float


@dataclass(frozen=True)
class RoomSimSpec:
    """Room, actuator, and sampling description for :func:`simulate_room`.

    The field is integrated on an ``nx`` by ``ny`` cell-centred grid with
    insulated walls.  ``warmup`` seconds are integrated and discarded before
    sampling starts, so the record captures the established limit cycle
    rather than the initial transient.  The seed only perturbs the initial
    field (by ``init_noise`` degrees RMS).
    """

    width: float
    depth: float
    nx: int
    ny: int
    kappa: float
    leak: float
    ambient: float
    acs: tuple[AirConditioner, ...]
    sim_dt: float
    sample_dt: float
    duration: float
    sensors: SensorLayout
    warmup: float = 0.0
    seed: int = 0
    init_temperature: float = 25.0
    init_noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "acs", tuple(self.acs))
        if self.width <= 0 or self.depth <= 0 or self.nx < 3 or self.ny < 3:
            raise ArgumentError("domain must be positive with at least 3x3 cells")
        if self.kappa < 0 or self.leak < 0:
            raise ArgumentError("kappa and leak must be nonnegative")
        if self.sim_dt <= 0 or self.sample_dt <= 0 or self.duration <= 0:
            raise ArgumentError("sim_dt, sample_dt and duration must be positive")
        stride = self.sample_dt / self.sim_dt
        if abs(stride - round(stride)) > 1e-9:
            raise ArgumentError("sample_dt must be an integer multiple of sim_dt")
        if self.warmup < 0:
            raise ArgumentError("warmup must be >= 0")
        cfl = self.kappa * self.sim_dt * (1.0 / self.dx**2 + 1.0 / self.dy**2)
        if cfl > 0.25:
            raise StabilityError(
                f"explicit step unstable: kappa*dt*(1/dx^2+1/dy^2) = {cfl:.4g} > 0.25"
            )
        if self.sensors.d < 2:
            raise ArgumentError("room sensors need 2-D coordinates")
        for cid, p in zip(self.sensors.channel_ids, self.sensors.positions):
            if not (0.0 <= p[0] <= self.width and 0.0 <= p[1] <= self.depth):
                raise LayoutError(
                    f"sensor {cid!r} at {tuple(p.tolist())} is outside the "
                    f"{self.width:g} m x {self.depth:g} m room"
                )
        for ac in self.acs:
            if not (0.0 <= ac.position[0] <= self.width and 0.0 <= ac.position[1] <= self.depth):
                raise ArgumentError(f"AC {ac.name!r} at {ac.position} is outside the room")

    @property
    def dx(self) -> float:
        return self.width / self.nx

    @property
    def dy(self) -> float:
        return self.depth / self.ny


def simulate_room(spec: RoomSimSpec) -> tuple[SnapshotMatrix, tuple[SwitchEvent, ...]]:
    """Integrate the thermostat-driven room and sample it at the sensors.

    Returns the sensor record (bilinear interpolation at the sensor
    coordinates every ``sample_dt``, starting when the warmup ends) and the
    switch log with times relative to the first snapshot.  Deterministic
    given the spec.

    Each explicit step computes, cell by cell and in this order,

        lap   = ((N + S) - 2 theta) * inv_dx2 + ((E + W) - 2 theta) * inv_dy2
        theta = theta + sim_dt * ((kappa * lap - leak * (theta - ambient)) + source)

    with the insulated walls as edge-copied ghost cells.  That order is part
    of the contract: the neighbour sums are grouped before ``2 theta`` is
    taken off (so a mirrored field steps bit-identically), no constants are
    folded (``kappa * inv_dx2``, ``sim_dt *
    kappa`` or ``sim_dt * leak`` would round differently), ``source`` is
    added to every cell, and the rates of units that share a cell are summed
    before they are added.  Any other grouping can move the field by an ulp,
    and with it a switch time and every artifact.  The step time is
    ``step * sim_dt - warmup``, never a running sum.
    """
    nx, ny, dx, dy = spec.nx, spec.ny, spec.dx, spec.dy
    rng = np.random.default_rng(spec.seed)
    # theta is the interior of a buffer whose rim holds the ghost cells; the
    # corners are never written, and stay finite for the strip below
    padded = np.full((nx + 2, ny + 2), float(spec.init_temperature))
    theta = padded[1:-1, 1:-1]
    if spec.init_noise > 0:
        theta += spec.init_noise * rng.standard_normal((nx, ny))
    # The stencil runs over padded rows 1..nx as one contiguous strip, ghost
    # columns included: their updates are junk that the next step's ghost
    # copy overwrites, so interior cells see exactly the 2-D stencil.
    w = ny + 2
    n = nx * w
    flat = padded.reshape(-1)
    rows = flat[w:w + n]

    units = []
    for ac in spec.acs:
        ci = min(int(ac.position[0] / dx), nx - 1)
        cj = min(int(ac.position[1] / dy), ny - 1)
        rate = -ac.power if ac.mode == "cool" else ac.power
        units.append((ac.name, ci * w + cj + 1, ac.mode == "cool", ac.on_threshold,
                      ac.off_threshold, rate))
    on = [False] * len(units)

    # bilinear interpolation stencil on cell centers, clamped at the walls
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

    stride = int(round(spec.sample_dt / spec.sim_dt))
    wsteps = int(round(spec.warmup / spec.sim_dt))
    total = wsteps + int(round(spec.duration / spec.sim_dt)) // stride * stride
    inv_dx2 = 1.0 / dx**2
    inv_dy2 = 1.0 / dy**2
    sim_dt, kappa, leak, ambient = spec.sim_dt, spec.kappa, spec.leak, spec.ambient

    north, south = flat[2 * w:2 * w + n], flat[:n]
    east, west = flat[w + 1:w + 1 + n], flat[w - 1:w - 1 + n]
    # the first and last rows, then the first and last columns (nx, ny >= 3)
    ghosts = [(padded[::nx + 1, 1:-1], theta[::nx - 1]),
              (padded[1:-1, ::ny + 1], theta[:, ::ny - 1])]
    a = np.empty(n)
    b = np.empty(n)
    t2 = np.empty(n)
    source = np.zeros(n)

    snapshots: list[np.ndarray] = []
    events: list[SwitchEvent] = []
    for step in range(total + 1):
        if step >= wsteps and (step - wsteps) % stride == 0:
            snapshots.append(sample(theta))
        if step == total:
            break
        t = step * sim_dt - spec.warmup
        active = []
        for u, (name, cell, cool, on_threshold, off_threshold, rate) in enumerate(units):
            tc = float(rows[cell])
            if cool:
                should_switch_on = not on[u] and tc >= on_threshold
                should_switch_off = on[u] and tc <= off_threshold
            else:
                should_switch_on = not on[u] and tc <= on_threshold
                should_switch_off = on[u] and tc >= off_threshold
            if should_switch_on:
                on[u] = True
                if t >= 0:
                    events.append(SwitchEvent(t, name, "on", tc))
            elif should_switch_off:
                on[u] = False
                if t >= 0:
                    events.append(SwitchEvent(t, name, "off", tc))
            if on[u]:
                source[cell] += rate
                active.append(cell)
        for ghost, edge in ghosts:
            np.copyto(ghost, edge)
        np.multiply(rows, 2.0, out=t2)
        np.add(north, south, out=a)
        a -= t2
        a *= inv_dx2
        np.add(east, west, out=b)
        b -= t2
        b *= inv_dy2
        a += b
        a *= kappa
        np.subtract(rows, ambient, out=b)
        b *= leak
        a -= b
        a += source
        a *= sim_dt
        rows += a
        for cell in active:
            source[cell] = 0.0

    values = np.array(snapshots).T
    record = SnapshotMatrix(values, spec.sample_dt, 0.0, spec.sensors.channel_ids)
    return record, tuple(events)


def switch_cycle_period(
    events, ac: str, state: str = "on", after: float = 0.0
) -> float:
    """Median interval between consecutive ``state`` edges of one AC."""
    times = [e.time for e in events if e.ac == ac and e.state == state and e.time >= after]
    if len(times) < 3:
        raise ArgumentError(
            f"need at least 3 {state!r} events for AC {ac!r} to measure a period, "
            f"got {len(times)}"
        )
    return float(np.median(np.diff(times)))


def write_switch_log(events, path) -> None:
    rows = [["time", "ac_id", "state"], *([float(e.time), e.ac, e.state] for e in events)]
    Path(path).write_text(timeseries.csv_text(rows, "\r\n"), encoding="utf-8", newline="")


def write_sources_csv(acs, path) -> None:
    """Actuator locations and modes, consumable by the pipeline's flux scoring."""
    rows = [["id", "x", "y", "mode"],
            *([ac.name, float(ac.position[0]), float(ac.position[1]), ac.mode] for ac in acs)]
    Path(path).write_text(timeseries.csv_text(rows, "\r\n"), encoding="utf-8", newline="")


# -- default room and layout ---------------------------------------------------

def default_layout() -> SensorLayout:
    """28 ceiling sensors in a 14 m x 7 m room.

    Four bands: two long rows of eight near the walls, two short rows of
    five through the middle (1.4 m apart, closer than the column spacing),
    and one sensor at each end of the middle band.
    """
    ids: list[str] = []
    pts: list[tuple[float, float]] = []
    row8 = [1.25 + k * (11.5 / 7.0) for k in range(8)]
    row5 = [3.5 + k * 1.75 for k in range(5)]
    for i, x in enumerate(row8):
        ids.append(f"TH-{i + 1}")
        pts.append((x, 6.0))
    for i, x in enumerate(row5):
        ids.append(f"TH-{i + 9}")
        pts.append((x, 4.3))
    ids.append("TH-14")
    pts.append((1.3, 3.6))
    ids.append("TH-15")
    pts.append((12.7, 3.6))
    for i, x in enumerate(row5):
        ids.append(f"TH-{i + 16}")
        pts.append((x, 2.9))
    for i, x in enumerate(row8):
        ids.append(f"TH-{i + 21}")
        pts.append((x, 1.2))
    return SensorLayout(tuple(ids), np.array(pts))


def _default_config_text(name: str) -> str:
    return resources.files("thermokmd.configs").joinpath(name).read_text(encoding="utf-8")


def default_room_spec(sensors: SensorLayout | None = None) -> RoomSimSpec:
    """The shipped room description: one active cooler, three idle units."""
    parser = configparser.ConfigParser()
    parser.read_string(_default_config_text("room_default.ini"))
    return _room_spec_from_parser(parser, sensors or default_layout(), "room_default.ini")


def default_analytic_spec(layout: SensorLayout | None = None) -> AnalyticSpec:
    """The shipped two-tone analytic description."""
    parser = configparser.ConfigParser()
    parser.read_string(_default_config_text("analytic_twotone.ini"))
    return _analytic_spec_from_parser(parser, layout or default_layout(), "analytic_twotone.ini")


# -- config file parsing ---------------------------------------------------------

def _number(section, key: str, where: str, kind=float, fallback=None):
    """A numeric INI field, or ``fallback`` when it is absent and optional."""
    text = section.get(key)
    if text is None and fallback is not None:
        return fallback
    return timeseries.parse_number(text, f"{where} [{section.name}] {key}", kind)


def _parse_field(section, where: str, d: int):
    has_poly = "poly" in section
    has_wave = "plane_wave" in section
    if has_poly == has_wave:
        raise ParseError(f"{where}: give exactly one of 'poly' or 'plane_wave'")
    if has_poly:
        terms = []
        for chunk in section["poly"].split(";"):
            parts = chunk.split()
            if not parts:
                continue
            if len(parts) not in (d + 1, d + 2):
                raise ParseError(
                    f"{where}: poly term {chunk.strip()!r} needs {d} exponents "
                    "plus 1 or 2 coefficients"
                )
            exponents = tuple(timeseries.parse_number(p, f"{where} poly", int) for p in parts[:d])
            coeffs = [timeseries.parse_number(p, f"{where} poly") for p in parts[d:]] + [0.0]
            terms.append((exponents, complex(coeffs[0], coeffs[1])))
        if not terms:
            raise ParseError(f"{where}: poly field has no terms")
        return PolynomialField(tuple(terms))
    parts = section["plane_wave"].split()
    if len(parts) != 2 + d:
        raise ParseError(
            f"{where}: plane_wave needs 're im' plus {d} wavevector components"
        )
    nums = [timeseries.parse_number(p, f"{where} plane_wave") for p in parts]
    return PlaneWaveField(complex(nums[0], nums[1]), tuple(nums[2:]))


def _analytic_spec_from_parser(parser, layout: SensorLayout, where: str) -> AnalyticSpec:
    if "analytic" not in parser:
        raise ParseError(f"{where}: missing [analytic] section")
    top = parser["analytic"]
    tones = []
    for name in parser.sections():
        if not name.startswith("tone."):
            continue
        sec = parser[name]
        tones.append(
            Tone(
                period=_number(sec, "period", where),
                amplitude=_parse_field(sec, f"{where} [{name}]", layout.d),
                phase=_number(sec, "phase", where, fallback=0.0),
            )
        )
    bias = None
    if "bias" in parser:
        bias = _parse_field(parser["bias"], f"{where} [bias]", layout.d)
    return AnalyticSpec(
        layout=layout,
        dt=_number(top, "dt", where),
        n_snapshots=_number(top, "snapshots", where, int),
        tones=tuple(tones),
        bias=bias,
        noise_std=_number(top, "noise_std", where, fallback=0.0),
        seed=_number(top, "seed", where, int, fallback=0),
    )


def _load_config(path, kind: str, spec_from_parser):
    """``spec_from_parser(parser, where)`` on an INI file.

    A value that parses but is out of range for the spec, or a room whose
    explicit step would be unstable, is still a fault of the file, so the
    spec's ArgumentError or StabilityError becomes a ParseError naming it.
    A LayoutError (a sensor outside the room) passes through unchanged.
    """
    parser = configparser.ConfigParser()
    read = parser.read(Path(path), encoding="utf-8")
    if not read:
        raise ParseError(f"cannot read {kind} config {path}")
    try:
        return spec_from_parser(parser, str(path))
    except LayoutError:
        raise  # a fault of the layout and the file together; the caller names both
    except (ArgumentError, StabilityError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_analytic_config(path, layout: SensorLayout) -> AnalyticSpec:
    return _load_config(
        path, "analytic", lambda parser, where: _analytic_spec_from_parser(parser, layout, where)
    )


def _room_spec_from_parser(parser, sensors: SensorLayout, where: str) -> RoomSimSpec:
    if "room" not in parser:
        raise ParseError(f"{where}: missing [room] section")
    room = parser["room"]
    acs = []
    for name in parser.sections():
        if not name.startswith("ac."):
            continue
        sec = parser[name]
        acs.append(
            AirConditioner(
                name=name[3:],
                position=(_number(sec, "x", where), _number(sec, "y", where)),
                mode=sec.get("mode"),
                power=_number(sec, "power", where),
                on_threshold=_number(sec, "on", where),
                off_threshold=_number(sec, "off", where),
            )
        )
    return RoomSimSpec(
        width=_number(room, "width", where),
        depth=_number(room, "depth", where),
        nx=_number(room, "nx", where, int),
        ny=_number(room, "ny", where, int),
        kappa=_number(room, "kappa", where),
        leak=_number(room, "leak", where),
        ambient=_number(room, "ambient", where),
        acs=tuple(acs),
        sim_dt=_number(room, "sim_dt", where),
        sample_dt=_number(room, "sample_dt", where),
        duration=_number(room, "duration", where),
        sensors=sensors,
        warmup=_number(room, "warmup", where, fallback=0.0),
        seed=_number(room, "seed", where, int, fallback=0),
        init_temperature=_number(room, "init_temperature", where, fallback=25.0),
        init_noise=_number(room, "init_noise", where, fallback=0.0),
    )


def load_room_config(path, sensors: SensorLayout) -> RoomSimSpec:
    return _load_config(
        path, "room", lambda parser, where: _room_spec_from_parser(parser, sensors, where)
    )
