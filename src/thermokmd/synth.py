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
  log.  The discrete system is an explicit step; :func:`simulate_room`
  advances it in closed form in the cosine basis that diagonalises it,
  from one relay switch or snapshot to the next, and refuses a room in
  which any mode's one-step multiplier (diffusion and leak) is below 0.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import spectral, timeseries
from .errors import ArgumentError, LayoutError, ParseError, StabilityError
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


def _require_finite(where: str, **values: float) -> None:
    """ArgumentError for the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ArgumentError(f"{where}{name} must be finite, got {value!r}")


def _whole_steps(name: str, seconds: float, sim_dt: float) -> int:
    """``seconds`` in ``sim_dt`` steps; ArgumentError unless a whole number (within 1e-9)."""
    steps = seconds / sim_dt
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
        raise ArgumentError(f"{name} must be an integer multiple of sim_dt")
    return round(steps)


def constant_field(value: complex) -> PolynomialField:
    return PolynomialField(((tuple(), complex(value)),))


@dataclass(frozen=True)
class Tone:
    """One oscillatory component: period in seconds, spatial amplitude, phase."""

    period: float
    amplitude: PolynomialField | PlaneWaveField
    phase: float = 0.0


#: the most values (sensors x snapshots) an analytic record may hold, so that a
#: count no machine could hold is refused rather than allocated
MAX_VALUES = 10**8


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
        _require_finite("", dt=self.dt, noise_std=self.noise_std)
        for tone in self.tones:
            _require_finite("tone ", period=tone.period, phase=tone.phase)
        if self.n_snapshots < 3:
            raise ArgumentError(f"need at least 3 snapshots, got {self.n_snapshots}")
        if self.layout.n_sensors * int(self.n_snapshots) > MAX_VALUES:
            raise ArgumentError(f"{self.layout.n_sensors} sensors x {self.n_snapshots} snapshots "
                                f"is over {MAX_VALUES:.0e} values")
        if not self.dt > 0:
            raise ArgumentError(f"dt must be positive, got {self.dt}")
        if not math.isfinite((self.n_snapshots - 1) * self.dt):  # the record's last time
            raise ArgumentError(f"(snapshots - 1) * dt = {self.n_snapshots - 1} * {self.dt!r} s "
                                "is out of the range of a double")
        if self.noise_std < 0:
            raise ArgumentError(f"noise_std must be >= 0, got {self.noise_std}")
        for tone in self.tones:
            if not tone.period > 2.0 * self.dt:
                raise ArgumentError(
                    f"tone period {tone.period} s must exceed twice the sampling "
                    f"period ({2 * self.dt} s)"
                )
        object.__setattr__(self, "tones", tuple(self.tones))


@np.errstate(over="ignore", invalid="ignore")
def generate_analytic(spec: AnalyticSpec) -> tuple[SnapshotMatrix, spectral.ModeTable]:
    """Sample the tone sum at the sensors and return data plus exact truth.

    y_k(r_i) = bias(r_i) + sum_m 2 Re[A_m(r_i) exp(i (2 pi k dt / T_m + psi_m))]
               + gaussian noise.

    The truth table holds lam_m = exp(i 2 pi dt / T_m) with the phased
    amplitudes A_m exp(i psi_m) as modes, plus a bias entry when a bias
    field is present; its energies use the same norm as the estimator.
    An overflow gives NaN or Inf values, which SnapshotMatrix refuses, and no numpy warning.
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

    lams, modes = [], []
    for tone in spec.tones:
        lam = np.exp(2j * np.pi * spec.dt / tone.period)
        mode = tone.amplitude.evaluate(pts) * np.exp(1j * tone.phase)
        values += 2.0 * np.real(mode[:, None] * lam ** k[None, :])
        lams += [lam, lam.conjugate()]
        modes += [mode, mode.conjugate()]
    if spec.bias is not None and np.any(bias_vals.real):
        lams.append(1.0 + 0.0j)
        modes.append(bias_vals.real.astype(complex))

    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        values = values + rng.normal(0.0, spec.noise_std, size=values.shape)

    snapshots = SnapshotMatrix(values, spec.dt, 0.0, spec.layout.channel_ids)
    truth = spectral.mode_table(
        np.array(lams), np.array(modes).T, spec.dt, spec.n_snapshots, residual=0.0,
        mean_removed=spec.bias is None, channel_ids=spec.layout.channel_ids,
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
        _require_finite(f"AC {self.name!r} ", x=self.position[0], y=self.position[1],
                        power=self.power, on_threshold=self.on_threshold,
                        off_threshold=self.off_threshold)
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


#: the most explicit steps (warmup and record) a room may ask for, so that a
#: run is refused rather than never ending
MAX_STEPS = 10**7


@dataclass(frozen=True)
class RoomSimSpec:
    """Room, actuator, and sampling description for :func:`simulate_room`.

    The field is integrated on an ``nx`` by ``ny`` cell-centred grid with
    insulated walls.  ``warmup`` seconds (a whole number of ``sim_dt``
    steps, as ``sample_dt`` is) are integrated and discarded before sampling
    starts, so the record captures the established limit cycle rather than
    the initial transient.  The seed only perturbs the initial field (by
    ``init_noise`` degrees RMS).  Every float field must be finite, and the
    run may take at most :data:`MAX_STEPS` steps.
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
        _require_finite("", width=self.width, depth=self.depth, kappa=self.kappa,
                        leak=self.leak, ambient=self.ambient, sim_dt=self.sim_dt,
                        sample_dt=self.sample_dt, duration=self.duration, warmup=self.warmup,
                        init_temperature=self.init_temperature, init_noise=self.init_noise)
        if self.width <= 0 or self.depth <= 0 or self.nx < 3 or self.ny < 3:
            raise ArgumentError("domain must be positive with at least 3x3 cells")
        if self.kappa < 0 or self.leak < 0:
            raise ArgumentError("kappa and leak must be nonnegative")
        if self.sim_dt <= 0 or self.sample_dt <= 0 or self.duration <= 0:
            raise ArgumentError("sim_dt, sample_dt and duration must be positive")
        if not math.isfinite(self.duration / self.sim_dt):
            raise ArgumentError("duration / sim_dt overflows")
        if _whole_steps("sample_dt", self.sample_dt, self.sim_dt) < 1:
            raise ArgumentError("sample_dt must be at least sim_dt")
        if self.warmup < 0:
            raise ArgumentError("warmup must be >= 0")
        # snapshots start at step round(warmup / sim_dt) while switch times are
        # step * sim_dt - warmup, so the two clocks agree only on a whole step
        _whole_steps("warmup", self.warmup, self.sim_dt)
        total = _schedule(self)[2]
        if total > MAX_STEPS:
            raise ArgumentError(f"the run is {total:.3g} steps of sim_dt, over {MAX_STEPS:.0e}")
        if self.init_noise < 0:
            raise ArgumentError("init_noise must be >= 0")
        if not all(0.0 < h * h < math.inf for h in (self.dx, self.dy)):  # before any / h**2
            raise ArgumentError(f"cell size {self.dx!r} m x {self.dy!r} m is out of range")
        mu = _multipliers(self, self.nx - 1, self.ny - 1)
        if not mu >= 0.0:
            raise StabilityError(f"explicit step unstable: the fastest mode's multiplier {mu:.4g}"
                                 f" is not >= 0 with kappa {self.kappa:g}, leak {self.leak:g}")
        if self.sensors.d < 2:
            raise LayoutError("room sensors need 2-D coordinates")
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


def _schedule(spec: RoomSimSpec) -> tuple[int, int, int]:
    """(stride, warmup steps, total steps); snapshots fall on warmup + k * stride."""
    stride = int(round(spec.sample_dt / spec.sim_dt))
    wsteps = int(round(spec.warmup / spec.sim_dt))
    total = wsteps + int(round(spec.duration / spec.sim_dt)) // stride * stride
    return stride, wsteps, total


def _cell(spec: RoomSimSpec, ac: AirConditioner) -> tuple[int, int]:
    """The grid cell an AC senses and heats or cools."""
    return (min(int(ac.position[0] / spec.dx), spec.nx - 1),
            min(int(ac.position[1] / spec.dy), spec.ny - 1))


def _bilinear(spec: RoomSimSpec):
    """The sensor sampler: bilinear interpolation on cell centers, clamped at the walls.

    Returns the flat indices of the four cells each sensor reads, shape
    (4, sensors), and the function that weighs the values taken there; it
    takes any array whose last two axes are (4, sensors).
    """
    nx, ny, dx, dy = spec.nx, spec.ny, spec.dx, spec.dy
    sens = spec.sensors.positions
    fx = np.clip(sens[:, 0] / dx - 0.5, 0.0, nx - 1.0)
    fy = np.clip(sens[:, 1] / dy - 0.5, 0.0, ny - 1.0)
    i0 = np.minimum(fx.astype(int), nx - 2)
    j0 = np.minimum(fy.astype(int), ny - 2)
    tx = fx - i0
    ty = fy - j0
    cells = np.array([i0 * ny + j0, (i0 + 1) * ny + j0, i0 * ny + j0 + 1, (i0 + 1) * ny + j0 + 1])

    def weigh(taken: np.ndarray) -> np.ndarray:
        return (
            taken[..., 0, :] * (1 - tx) * (1 - ty)
            + taken[..., 1, :] * tx * (1 - ty)
            + taken[..., 2, :] * (1 - tx) * ty
            + taken[..., 3, :] * tx * ty
        )

    return cells, weigh


def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II rows: row k is the 1-D eigenvector of :func:`_multipliers`."""
    k = np.arange(n)
    scale = np.sqrt(np.where(k == 0, 1.0, 2.0) / n)
    return scale[:, None] * np.cos(np.pi * np.outer(k, np.arange(n) + 0.5) / n)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing term gives mu = -inf or NaN
def _multipliers(spec: RoomSimSpec, kx, ky) -> np.ndarray:
    """mu = 1 + sim_dt (kappa (lam_x + lam_y) - leak): one step's factor on cosine mode (kx, ky).

    Row k of the DCT-II basis is an eigenvector of (theta[i-1] - 2 theta[i] + theta[i+1]) / h^2,
    theta[-1] = theta[0] and theta[n] = theta[n-1], for lam = -4 sin^2(pi k / 2n) / h^2.
    mu <= 1, and the fastest mode, (nx - 1, ny - 1), has the smallest.
    """
    lam_x, lam_y = (-4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / h**2
                    for k, n, h in ((kx, spec.nx, spec.dx), (ky, spec.ny, spec.dy)))
    return 1.0 + spec.sim_dt * (spec.kappa * (lam_x + lam_y) - spec.leak)


#: at most this many steps per closed-form block, so that the step tables stay
#: small whatever the sampling stride
MAX_BLOCK = 256


@np.errstate(over="ignore", invalid="ignore")
def simulate_room(spec: RoomSimSpec) -> tuple[SnapshotMatrix, tuple[SwitchEvent, ...]]:
    """Integrate the thermostat-driven room and sample it at the sensors.

    Returns the sensor record (bilinear interpolation at the sensor
    coordinates every ``sample_dt``, starting when the warmup ends) and the
    switch log with times relative to the first snapshot.  Deterministic
    given the spec.  A field that overflows raises no numpy warning: the
    record it gives holds NaN or Inf, which SnapshotMatrix refuses.

    The discrete system is the explicit step
    theta <- theta + sim_dt (kappa lap(theta) - leak (theta - ambient) + source),
    where lap is the 5-point Laplacian with the insulated walls as
    edge-copied ghost cells and source holds, at its cell, the rate of each
    unit that is on.  Before each step every relay reads its cell and
    switches as :class:`AirConditioner` says (logged from the first snapshot on).
    This function advances that system in closed form between events.  The
    edge-copied Laplacian is diagonal in the separable DCT-II basis, so with
    theta = init_temperature + Cx^T a Cy one step is a <- mu a + sim_dt f,
    where mu = 1 + sim_dt (kappa (lam_x + lam_y) - leak) and f holds the
    leak toward ambient (on the constant mode) plus the source.  While no
    relay switches, f is constant and j steps give a <- mu^j a + G_j f,
    G_j = sim_dt (1 + mu + ... + mu^(j-1)).
    Each block runs to the next snapshot at most: it predicts the readings
    of the relays that could reach their level within it, jumps to the first
    step at which one switches, and decides there as a step would.  So it
    agrees with the steps taken one at a time to round-off, not bit for bit.
    Whether a reading could reach its level is bounded from the settled
    state: for mu != 1, G_j = sim_dt (1 - mu^j) / (1 - mu), so in j steps the
    mode moves by (mu^j - 1)(a - s), s = sim_dt f / (1 - mu), however large
    s is, and within an n-step block by at most (1 - mu^n)|a - s|, as
    RoomSimSpec keeps 0 <= mu <= 1; a mode with mu = 1 moves by j sim_dt f.
    A coefficient that decays below the smallest normal double is set to zero.

    A room has a few units, so their state (on, level, direction) and the
    screen that picks which to predict are Python floats and bools, taken
    from the arrays with ``tolist``; the vector work stays in numpy.  Each
    snapshot keeps only the four cells each sensor reads, and the bilinear
    weights are applied to all snapshots at the end.  The record bytes and
    the switch log equal those of the same blocks with the relay state in
    arrays and the whole field sampled per snapshot (``_simulate_blocks`` in
    the tests' oracles).
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
    drift = np.zeros(mu.size)
    drift[0] = spec.leak * (spec.ambient - c0) * np.sqrt(nx * ny)
    cells, weigh = _bilinear(spec)

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

    def forcing(on):
        active = np.array(on, dtype=bool)
        f = drift + rates[active] @ rows[active]
        response = gain @ (rows * f).T
        settled = settle * f
        size = np.abs(response).max(axis=0, initial=0.0)
        return (f, response, settled, (spec.sim_dt * (rows[:, ramps] @ f[ramps])).tolist(),
                (1e-9 * (magnitude @ np.abs(settled) + size)).tolist())

    def reached(reading, level, rising):
        """Whether a reading (float or array) has reached its level, from below if ``rising``."""
        return reading >= level if rising else reading <= level

    # the per-unit state is Python floats and bools: a room has a few units
    units = range(len(spec.acs))
    cool = [ac.mode == "cool" for ac in spec.acs]
    on = [False] * len(spec.acs)
    level, rising = [ac.on_threshold for ac in spec.acs], cool[:]  # every unit waits to go on
    f, response, settled, ramp, margin = forced[tuple(on)] = forcing(on)
    taken: list[np.ndarray] = []  # the four cells each sensor reads, per snapshot
    events: list[SwitchEvent] = []
    step, next_sample = 0, wsteps
    while True:
        if step == next_sample:
            taken.append((cx.T @ a.reshape(nx, ny) @ cy).take(cells))
            next_sample += stride
        if step == total:
            break
        base = [c0 + b for b in (rows @ a).tolist()]
        flip = [u for u in units if reached(base[u], level[u], rising[u])]
        if flip:
            t = step * spec.sim_dt - spec.warmup
            for u in flip:
                ac = spec.acs[u]
                on[u] = not on[u]
                level[u] = ac.off_threshold if on[u] else ac.on_threshold
                rising[u] = cool[u] != on[u]
                if t >= 0:
                    events.append(SwitchEvent(t, ac.name, "on" if on[u] else "off", base[u]))
            key = tuple(on)
            if key not in forced:
                forced[key] = forcing(on)
            f, response, settled, ramp, margin = forced[key]
        n = min(steps, next_sample - step, total - step)
        # A relay can switch within the block only if its reading can reach its
        # level: the modes with mu != 1 move it by at most |rows| @ (|a - s|
        # (1 - mu^n)), and those with mu = 1 by j ramp, monotonically.  The
        # margin, far above round-off, covers |rows| @ |a| <= |rows| @ (|a - s| + |s|).
        reach = (magnitude @ (np.abs(a - settled) * (1.0 - power[n] + 1e-9))).tolist()
        maybe = []
        for u in units:
            bound = reach[u] + (1e-9 * abs(base[u]) + margin[u])
            climb = n * ramp[u]
            if (not base[u] + max(climb, 0.0) + bound < level[u] if rising[u]
                    else not base[u] + min(climb, 0.0) - bound > level[u]):
                maybe.append(u)
        if maybe:
            reading = c0 + (power[1:n + 1] @ (rows[maybe] * a).T + response[1:n + 1, maybe])
            for u, column in zip(maybe, reading.T):
                hit = np.flatnonzero(reached(column, level[u], rising[u]))
                if hit.size:
                    n = min(n, int(hit[0]) + 1)
        a = power[n] * a + gain[n] * f
        a[np.abs(a) < tiny] = 0.0
        step += n

    values = weigh(c0 + np.array(taken)).T
    record = SnapshotMatrix(values, spec.sample_dt, 0.0, spec.sensors.channel_ids)
    return record, tuple(events)


def switch_cycle_period(events, ac: str) -> float:
    """Median interval between consecutive switch-on events of one AC."""
    times = [e.time for e in events if e.ac == ac and e.state == "on"]
    if len(times) < 3:
        raise ArgumentError(
            f"need at least 3 'on' events for AC {ac!r} to measure a period, "
            f"got {len(times)}"
        )
    return timeseries.median(np.diff(times))


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


#: the shipped specs, read by the same loaders as any other config file
ROOM_CONFIG = Path(__file__).parent / "configs" / "room_default.ini"
ANALYTIC_CONFIG = Path(__file__).parent / "configs" / "analytic_twotone.ini"


def default_room_spec(sensors: SensorLayout | None = None) -> RoomSimSpec:
    """The shipped room description: one active cooler, three idle units."""
    return load_room_config(ROOM_CONFIG, sensors or default_layout())


def default_analytic_spec(layout: SensorLayout | None = None) -> AnalyticSpec:
    """The shipped two-tone analytic description."""
    return load_analytic_config(ANALYTIC_CONFIG, layout or default_layout())


# -- config file parsing ---------------------------------------------------------

def _number(section, key: str, where: str, kind=float):
    """A numeric INI field; ParseError naming the field when it is absent or not a number."""
    return timeseries.parse_number(section.get(key), f"{where} [{section.name}] {key}", kind)


def _optional(section, where: str, **kinds) -> dict:
    """The optional numeric fields ``section`` holds; an absent one keeps the spec's default."""
    return {key: _number(section, key, where, kind)
            for key, kind in kinds.items() if key in section}


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


def _ini_fault(exc: configparser.Error) -> str:
    """What configparser refused, on one line, with the line number it gives."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: text before the first [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: neither a [section] header nor 'key = value'"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: key {exc.option!r} appears twice in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section [{exc.section}] appears twice"
    return "not an INI file"


@contextmanager
def _config(path, kind: str):
    """The INI file at ``path``, read without ``%`` interpolation, for a spec built under it.

    A file that is not UTF-8, not INI or without a ``[kind]`` section is a
    ParseError naming it.  A value that parses but is out of range for the
    spec (a room whose explicit step has a negative multiplier among them) is
    still a fault of the file, so the spec's ArgumentError becomes a
    ParseError naming it.  A LayoutError (a sensor outside the room, or a
    layout that is not 2-D) passes through unchanged.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with timeseries.utf8_errors(path):
            read = parser.read(Path(path), encoding="utf-8")
    except configparser.Error as exc:
        raise ParseError(f"{path}: {_ini_fault(exc)}") from None
    if not read:
        raise ParseError(f"{path}: cannot read {kind} config")
    if kind not in parser:
        raise ParseError(f"{path}: missing [{kind}] section")
    try:
        yield parser
    except LayoutError:
        raise  # a fault of the layout and the file together; the caller names both
    except ArgumentError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_analytic_config(path, layout: SensorLayout) -> AnalyticSpec:
    where = str(path)
    with _config(path, "analytic") as parser:
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
                    **_optional(sec, where, phase=float),
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
            **_optional(top, where, noise_std=float, seed=int),
        )


def load_room_config(path, sensors: SensorLayout) -> RoomSimSpec:
    where = str(path)
    with _config(path, "room") as parser:
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
            **_optional(room, where, warmup=float, seed=int, init_temperature=float,
                        init_noise=float),
        )
