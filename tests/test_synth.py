from dataclasses import fields, replace

import numpy as np
import pytest

from thermokmd.errors import ArgumentError, LayoutError, ParseError, StabilityError
from thermokmd.spectral import (
    ModeTable,
    RitzPair,
    _group_and_rank,
    companion_kmd,
    reconstruct,
    table_to_json,
)
from thermokmd.synth import (
    MAX_BLOCK,
    AirConditioner,
    AnalyticSpec,
    PlaneWaveField,
    PolynomialField,
    RoomSimSpec,
    Tone,
    constant_field,
    default_analytic_spec,
    default_layout,
    default_room_spec,
    generate_analytic,
    load_analytic_config,
    load_room_config,
    simulate_room,
    switch_cycle_period,
)
from thermokmd.timeseries import SensorLayout

from oracles import _simulate_blocks, _simulate_loop


def small_layout():
    return SensorLayout(
        ("a", "b", "c", "d"),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.5, 1.2]]),
    )


def cell_center_layout(width, depth, nx, ny):
    """One sensor on every cell center: samples equal the full state."""
    dx, dy = width / nx, depth / ny
    ids, pts = [], []
    for i in range(nx):
        for j in range(ny):
            ids.append(f"c{i}_{j}")
            pts.append(((i + 0.5) * dx, (j + 0.5) * dy))
    return SensorLayout(tuple(ids), np.array(pts))


class TestGenerateAnalytic:
    def test_single_unit_tone(self):
        layout = small_layout()
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=241,
            tones=(Tone(period=840.0, amplitude=constant_field(1.0)),),
        )
        snaps, truth = generate_analytic(spec)
        k = np.arange(241)
        expect = 2 * np.cos(2 * np.pi * k / 14)
        assert np.max(np.abs(snaps.values - expect[None, :])) <= 1e-12
        assert len(truth.ranked()) == 1

    def test_pure_bias_field(self):
        layout = small_layout()
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=5, tones=(),
            bias=PolynomialField((((1, 0), 1.0 + 0j),)),  # f(r) = x
        )
        snaps, truth = generate_analytic(spec)
        x = layout.positions[:, 0]
        assert np.max(np.abs(snaps.values - x[:, None])) == 0.0
        assert len(truth.entries) == 1
        assert truth.entries[0].bias

    def test_reported_table_periods(self):
        layout = small_layout()
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=241,
            tones=(
                Tone(period=853.8, amplitude=constant_field(1.0)),
                Tone(period=5349.6, amplitude=constant_field(0.3)),
            ),
        )
        _, truth = generate_analytic(spec)
        args = sorted(abs(np.angle(e.rep.lam)) for e in truth.ranked())
        assert args[0] == pytest.approx(2 * np.pi * 60.0 / 5349.6, rel=1e-12)
        assert args[1] == pytest.approx(2 * np.pi * 60.0 / 853.8, rel=1e-12)

    def test_noise_is_seeded(self):
        layout = small_layout()
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=50,
            tones=(Tone(period=600.0, amplitude=constant_field(1.0)),),
            noise_std=0.1, seed=99,
        )
        a, _ = generate_analytic(spec)
        b, _ = generate_analytic(spec)
        assert np.array_equal(a.values, b.values)

    def test_phase_enters_mode(self):
        layout = small_layout()
        psi = 0.8
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=10,
            tones=(Tone(period=300.0, amplitude=constant_field(2.0), phase=psi),),
        )
        snaps, truth = generate_analytic(spec)
        mode = truth.ranked()[0].rep.mode
        assert np.allclose(mode, 2.0 * np.exp(1j * psi))
        assert np.allclose(snaps.values[:, 0], 2 * np.real(mode))

    def test_kmd_reproduces_truth(self):
        spec = default_analytic_spec()
        snaps, truth = generate_analytic(spec)
        table = companion_kmd(snaps)
        for want in truth.ranked():
            got = min(
                (e for e in table.ranked() if e.is_couple),
                key=lambda e: abs(e.rep.lam - want.rep.lam),
            )
            assert abs(got.rep.lam - want.rep.lam) <= 1e-8
            want_sum = 2 * np.real(want.rep.mode)
            got_sum = np.real(got.rep.mode + got.partner.mode)
            assert np.linalg.norm(got_sum - want_sum) <= 1e-6 * np.linalg.norm(want_sum)

    def test_validation(self):
        layout = small_layout()
        with pytest.raises(ArgumentError):
            AnalyticSpec(layout=layout, dt=60.0, n_snapshots=10,
                         tones=(Tone(period=100.0, amplitude=constant_field(1.0)),))
        with pytest.raises(ArgumentError):
            AnalyticSpec(layout=layout, dt=60.0, n_snapshots=2, tones=())
        with pytest.raises(ArgumentError):
            AnalyticSpec(layout=layout, dt=60.0, n_snapshots=10, tones=(),
                         noise_std=-1.0)


def _truth_per_pair(spec):
    """generate_analytic's truth table as it was: RitzPairs appended tone by tone."""
    pts = spec.layout.positions
    pairs, index = [], 0
    for tone in spec.tones:
        lam = np.exp(2j * np.pi * spec.dt / tone.period)
        mode = tone.amplitude.evaluate(pts) * np.exp(1j * tone.phase)
        pairs.append(RitzPair(complex(lam), mode, index))
        pairs.append(RitzPair(complex(lam).conjugate(), mode.conjugate(), index + 1))
        index += 2
    if spec.bias is not None and np.any(spec.bias.evaluate(pts).real):
        pairs.append(RitzPair(1.0 + 0.0j, spec.bias.evaluate(pts).real.astype(complex), index))
    entries = _group_and_rank(pairs, spec.dt, spec.n_snapshots, notes=[])
    return ModeTable(entries=entries, dt=spec.dt, n_snapshots=spec.n_snapshots, residual=0.0,
                     mean_removed=spec.bias is None, channel_ids=spec.layout.channel_ids)


def truth_specs():
    """The default spec, and truths with a bias field, a zero-amplitude tone, or both."""
    layout = default_layout()
    bias = PolynomialField((((0, 0), 1.5 + 0j), ((1, 0), 0.2 + 0j)))
    wave = Tone(period=853.8, amplitude=PlaneWaveField(1.0 + 0.5j, (0.4, 0.9)), phase=0.3)
    silent = Tone(period=900.0, amplitude=PolynomialField((((0, 0), 0j),)))
    cases = [((wave,), bias), ((wave, silent), None), ((silent, wave), bias), ((), bias),
             ((silent,), None), ((), None)]
    return [default_analytic_spec(), *(
        AnalyticSpec(layout=layout, dt=60.0, n_snapshots=20, tones=tones, bias=b)
        for tones, b in cases)]


class TestTruthMatchesPerPair:
    """generate_analytic's truth, through mode_table, is the table the per-pair assembly built."""

    @pytest.mark.parametrize("spec", truth_specs())
    def test_same_table(self, spec):
        _, truth = generate_analytic(spec)
        oracle = _truth_per_pair(spec)
        assert table_to_json(truth) == table_to_json(oracle)
        assert truth.notes == oracle.notes == ()
        for n in (None, 1, spec.n_snapshots):
            assert np.array_equal(reconstruct(truth, n), reconstruct(oracle, n))


def quiet_room(sensors, **overrides):
    params = dict(
        width=2.0, depth=1.2, nx=10, ny=6, kappa=0.005, leak=0.0, ambient=30.0,
        acs=(), sim_dt=0.5, sample_dt=10.0, duration=200.0, sensors=sensors,
        seed=1, init_temperature=25.0, init_noise=0.0,
    )
    params.update(overrides)
    return RoomSimSpec(**params)


class TestSimulateRoom:
    def test_equilibrium_is_exact(self):
        sensors = cell_center_layout(2.0, 1.2, 10, 6)
        record, events = simulate_room(quiet_room(sensors))
        assert events == ()
        assert np.all(record.values == 25.0)

    def test_maximum_principle(self):
        sensors = cell_center_layout(2.0, 1.2, 10, 6)
        record, _ = simulate_room(quiet_room(sensors, init_noise=0.7, seed=5))
        mins = record.values.min(axis=0)
        maxs = record.values.max(axis=0)
        assert np.all(np.diff(mins) >= -1e-12)
        assert np.all(np.diff(maxs) <= 1e-12)
        assert maxs[0] == record.values.max() and mins[0] == record.values.min()

    def test_leak_decay_to_ambient(self):
        sensors = cell_center_layout(2.0, 1.2, 10, 6)
        record, _ = simulate_room(
            quiet_room(sensors, leak=0.01, ambient=30.0, init_noise=0.5, seed=2)
        )
        dev = np.abs(record.values - 30.0).max(axis=0)
        assert np.all(np.diff(dev) < 0)

    def test_warmup_off_the_step_grid_refused(self):
        # snapshots would start at step round(warmup / sim_dt) = 3699 while the
        # switch times are step * sim_dt - warmup, 0.1 s off that clock
        with pytest.raises(ArgumentError, match="warmup must be an integer multiple"):
            relay_room(warmup=1387.225)
        assert relay_room(warmup=1387.5).warmup == 3700 * 0.375

    def test_cfl_violation_refused(self):
        sensors = cell_center_layout(2.0, 1.2, 10, 6)
        with pytest.raises(StabilityError):
            quiet_room(sensors, kappa=0.1, sim_dt=0.5)

    def test_negative_multiplier_refused(self):
        # the leak of TestModalMatchesStepping.test_fastest_mode_nearly_still, 0.008 / s more
        with pytest.raises(StabilityError, match="multiplier -0.001 is not >= 0 with "
                                                 "kappa 0.01, leak 2.82863"):
            leaky_room(-1e-3)

    def test_sensor_outside_room(self):
        bad = SensorLayout(("s",), np.array([[5.0, 0.5]]))
        with pytest.raises(ArgumentError):
            quiet_room(bad)

    def test_empty_dead_band_rejected(self):
        with pytest.raises(ArgumentError):
            AirConditioner("AC", (1.0, 0.5), "cool", 1.0, 25.0, 25.0)
        with pytest.raises(ArgumentError):
            AirConditioner("AC", (1.0, 0.5), "cool", 1.0, 24.0, 26.0)
        with pytest.raises(ArgumentError):
            AirConditioner("AC", (1.0, 0.5), "heat", 1.0, 26.0, 24.0)


def relay_room(warmup=3600.0, duration=7200.0):
    """Single cooler with a (26, 24) band against a warm ambient leak.

    A small room so the diffusive equilibration is much shorter than the
    warmup and the limit cycle is fully settled when logging starts.
    """
    sensors = SensorLayout(
        ("s1", "s2", "s3"), np.array([[2.0, 2.0], [3.0, 2.0], [4.0, 2.0]])
    )
    ac = AirConditioner("AC", (3.0, 2.0), "cool", power=1.2,
                        on_threshold=26.0, off_threshold=24.0)
    return RoomSimSpec(
        width=6.0, depth=4.0, nx=24, ny=16, kappa=0.02, leak=2e-4, ambient=30.0,
        acs=(ac,), sim_dt=0.375, sample_dt=60.0, duration=duration,
        sensors=sensors, warmup=warmup, seed=7, init_temperature=25.0,
        init_noise=0.1,
    )


@pytest.fixture(scope="module")
def relay_run():
    spec = relay_room()
    record, events = simulate_room(spec)
    return spec, record, events


@pytest.fixture(scope="module")
def relay_loop(relay_run):
    return _simulate_loop(relay_run[0])


class TestRelayOscillation:
    def test_sustained_oscillation(self, relay_run):
        spec, record, events = relay_run
        ons = [e for e in events if e.state == "on"]
        offs = [e for e in events if e.state == "off"]
        assert len(ons) >= 6 and len(offs) >= 6

    def test_states_alternate(self, relay_run):
        _, _, events = relay_run
        states = [e.state for e in events]
        assert all(a != b for a, b in zip(states, states[1:]))

    def test_cycle_period_stable_after_five_cycles(self, relay_run):
        spec, _, events = relay_run
        ons = np.array([e.time for e in events if e.state == "on"])
        gaps = np.diff(ons)
        assert len(gaps) >= 6
        settled = gaps[4:]
        assert settled.max() - settled.min() <= spec.sim_dt
        assert switch_cycle_period(events, "AC") == pytest.approx(
            np.median(gaps), abs=spec.sim_dt
        )

    def test_hysteresis_band_respected(self, relay_run):
        spec, _, events = relay_run
        ac = spec.acs[0]
        slack = 1.0  # one step of drift, generously bounded
        for e in events:
            if e.state == "on":
                assert ac.on_threshold <= e.cell_temperature <= ac.on_threshold + slack
            else:
                assert ac.off_threshold - slack <= e.cell_temperature <= ac.off_threshold

    def test_switch_period_needs_events(self, relay_run):
        _, _, events = relay_run
        with pytest.raises(ArgumentError):
            switch_cycle_period(events, "missing")

    def test_switch_log_csv_format(self, relay_run, tmp_path):
        from thermokmd.synth import write_switch_log

        _, _, events = relay_run
        write_switch_log(events, tmp_path / "log.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "time,ac_id,state"
        cells = lines[1].split(",")
        assert cells[1] == "AC" and cells[2] in ("on", "off")
        float(cells[0])


SIM_KINDS = ["heat", "cool", "shared_cell", "kappa_zero", "leak_zero", "warmup_zero",
             "noise_zero", "wall_sensors"]


def random_room(kind, rng):
    """A small seeded room whose thermostats straddle the initial temperature."""
    nx, ny = (int(n) for n in rng.integers(3, 12, size=2))
    width, depth = (float(v) for v in rng.uniform(0.5, 4.0, size=2))
    sim_dt = float(rng.choice([0.25, 0.3, 0.375, 0.5]))
    dx, dy = width / nx, depth / ny
    kappa = 0.0
    if kind != "kappa_zero":
        kappa = float(rng.uniform(0.2, 1.0)) * 0.25 / (sim_dt * (1 / dx**2 + 1 / dy**2))
    modes = {"heat": ["heat"], "cool": ["cool"]}.get(kind)
    if modes is None:
        modes = [str(m) for m in rng.choice(["cool", "heat"], size=int(rng.integers(1, 4)))]
    acs = []
    for k, mode in enumerate(modes):
        on = 25.0 + float(rng.uniform(-0.3, 0.3))
        band = float(rng.uniform(0.05, 0.6))
        acs.append(AirConditioner(
            f"u{k}", (float(rng.uniform(0, width)), float(rng.uniform(0, depth))), mode,
            float(rng.uniform(0.05, 1.0)), on, on - band if mode == "cool" else on + band,
        ))
    if kind == "shared_cell":
        first = acs[0]
        # a strong twin on the same cell, so that the two rates add there
        acs.append(AirConditioner("twin", first.position, first.mode,
                                  float(rng.uniform(2.0, 8.0)),
                                  first.on_threshold, first.off_threshold))
    if kind == "wall_sensors":
        x, y = float(rng.uniform(0, width)), float(rng.uniform(0, depth))
        pts = [(0.0, y), (width, y), (x, 0.0), (x, depth), (0.0, 0.0), (width, depth)]
    else:
        pts = list(zip(rng.uniform(0, width, size=4), rng.uniform(0, depth, size=4)))
    sensors = SensorLayout(tuple(f"s{i}" for i in range(len(pts))), np.array(pts))
    sample_dt = sim_dt * int(rng.integers(1, 20))
    return RoomSimSpec(
        width=width, depth=depth, nx=nx, ny=ny, kappa=kappa,
        leak=0.0 if kind == "leak_zero" else float(rng.uniform(1e-4, 1e-2)),
        ambient=30.0 if modes[0] == "cool" else 20.0, acs=tuple(acs), sim_dt=sim_dt,
        sample_dt=sample_dt, duration=sample_dt * int(rng.integers(3, 30)), sensors=sensors,
        warmup=0.0 if kind == "warmup_zero" else sim_dt * int(rng.integers(1, 200)),
        seed=int(rng.integers(1000)), init_temperature=25.0,
        init_noise=0.0 if kind == "noise_zero" else float(rng.uniform(0.05, 0.5)),
    )


def switch_log(events):
    return [(e.time, e.ac, e.state) for e in events]


def flat_room():
    """kappa = leak = 0: every cell is on its own and every mu is exactly 1.

    The cooler starts on and ramps its cell down to its off level; the
    heater does the same upward; then nothing moves.
    """
    sensors = SensorLayout(("s1", "s2", "s3"), np.array([[0.3, 0.3], [1.1, 0.7], [1.9, 1.1]]))
    acs = (AirConditioner("cooler", (0.5, 0.3), "cool", 0.05, 24.0, 23.0),
           AirConditioner("heater", (1.7, 0.9), "heat", 0.03, 26.0, 27.0))
    return RoomSimSpec(width=2.0, depth=1.2, nx=10, ny=6, kappa=0.0, leak=0.0, ambient=30.0,
                       acs=acs, sim_dt=0.3, sample_dt=3.0, duration=120.0, sensors=sensors,
                       seed=4, init_temperature=25.0, init_noise=0.1)


def tug_room(leak):
    """A heater and a cooler at the two ends of a room that leaks almost nothing.

    Each unit drives its own end past its level and diffusion pulls it back,
    so the two keep switching.
    """
    sensors = SensorLayout(("s1", "s2"), np.array([[0.6, 0.5], [2.4, 0.5]]))
    acs = (AirConditioner("heater", (0.3, 0.5), "heat", 0.4, 25.1, 25.5),
           AirConditioner("cooler", (2.7, 0.5), "cool", 0.4, 24.9, 24.5))
    return RoomSimSpec(width=3.0, depth=1.0, nx=12, ny=4, kappa=0.01, leak=leak,
                       ambient=25.0, acs=acs, sim_dt=0.25, sample_dt=5.0, duration=600.0,
                       sensors=sensors, warmup=50.0, seed=11, init_temperature=25.0,
                       init_noise=0.05)


def crosstalk_room():
    """A heater and a cooler on adjacent cells that fight over them.

    The heater's band lies above the cooler's, and each step of either unit
    moves its neighbour's cell by about a tenth of its own 0.5 degrees, so
    the two chatter: thousands of switches in 600 s.
    """
    sensors = SensorLayout(("s1", "s2"), np.array([[0.6, 0.5], [2.4, 0.5]]))
    acs = (AirConditioner("heater", (1.4, 0.5), "heat", 2.0, 25.2, 25.3),
           AirConditioner("cooler", (1.6, 0.5), "cool", 2.0, 24.8, 24.7))
    return RoomSimSpec(width=3.0, depth=1.0, nx=12, ny=4, kappa=0.03, leak=1e-3,
                       ambient=28.0, acs=acs, sim_dt=0.25, sample_dt=5.0, duration=600.0,
                       sensors=sensors, warmup=50.0, seed=11, init_temperature=25.0,
                       init_noise=0.05)


def leaky_room(fastest):
    """The tug room leaking so fast that its fastest mode's multiplier is ``fastest``.

    Each step takes the field most of the way back to ambient, and each unit
    drives its cell past its level in a step or two, so both units chatter.
    """
    spec = tug_room(0.0)
    lam = sum(-4.0 * np.sin(np.pi * (n - 1) / (2 * n)) ** 2 / h**2
              for n, h in ((spec.nx, spec.dx), (spec.ny, spec.dy)))
    acs = (AirConditioner("heater", (0.3, 0.5), "heat", 4.0, 25.2, 25.6),
           AirConditioner("cooler", (2.7, 0.5), "cool", 4.0, 24.8, 24.4))
    return replace(spec, leak=spec.kappa * lam + (1.0 - fastest) / spec.sim_dt, acs=acs)


def edge_layout(spec):
    """Sensors in the four corners, on the four walls and on one cell centre.

    A sensor on the far wall reads the clamped cells i0 = nx - 2 (or
    j0 = ny - 2) with weight 1 on the last one; the cell centre reads one
    cell with weight 1.
    """
    w, d = spec.width, spec.depth
    pts = [(0.0, 0.0), (w, 0.0), (0.0, d), (w, d), (w / 2, 0.0), (w / 2, d), (0.0, d / 3),
           (w, d / 3), (2.5 * spec.dx, 1.5 * spec.dy)]
    return SensorLayout(tuple(f"e{i}" for i in range(len(pts))), np.array(pts))


def assert_same_bits(spec, got=None):
    """simulate_room's record bytes and switch log equal those of _simulate_blocks."""
    record, events = got or simulate_room(spec)
    want_record, want_events = _simulate_blocks(spec)
    assert record.values.shape == want_record.values.shape
    assert record.values.tobytes() == want_record.values.tobytes()
    assert events == want_events
    return events


class TestModalMatchesStepping:
    """simulate_room (closed form between switches) against _simulate_loop, to round-off.

    The switch logs are equal as (time, unit, state); samples and the event
    cell temperatures agree within 1e-9.  Each room is also checked bit for
    bit against _simulate_blocks.
    """

    @staticmethod
    def assert_matches(spec, got=None, want=None):
        record, events = got or simulate_room(spec)
        assert_same_bits(spec, (record, events))
        want_record, want_events = want or _simulate_loop(spec)
        assert switch_log(events) == switch_log(want_events)
        assert record.values.shape == want_record.values.shape
        assert np.max(np.abs(record.values - want_record.values)) <= 1e-9
        for e, w in zip(events, want_events):
            assert abs(e.cell_temperature - w.cell_temperature) <= 1e-9
        return events

    @pytest.mark.parametrize("kind", SIM_KINDS)
    def test_random_rooms(self, kind):
        rng = np.random.default_rng(SIM_KINDS.index(kind))
        switched = 0
        for _ in range(8):
            switched += bool(self.assert_matches(random_room(kind, rng)))
        assert switched >= 2

    def test_relay_room(self, relay_run, relay_loop):
        spec, record, events = relay_run
        assert self.assert_matches(spec, (record, events), relay_loop)

    @pytest.mark.parametrize("seed", range(8))
    def test_default_room(self, seed):
        # one hour of warmup and one of record, 19 200 steps: the shipped 2 h
        # and 4 h would cost the step loop about 3.4 s a seed
        spec = replace(default_room_spec(), seed=seed, warmup=3600.0, duration=3600.0)
        events = self.assert_matches(spec)
        assert len(events) >= 6

    def test_stride_longer_than_a_block(self):
        # 320 steps between snapshots: blocks end at MAX_BLOCK as well as at snapshots
        spec = replace(relay_room(warmup=0.0, duration=1920.0), sample_dt=120.0)
        assert spec.sample_dt / spec.sim_dt > MAX_BLOCK
        assert self.assert_matches(spec)

    def test_flat_room(self):
        # every mu is 1, so each block's gain is j * sim_dt
        events = self.assert_matches(flat_room())
        assert switch_log(events)[:2] == [(0.0, "cooler", "on"), (0.0, "heater", "on")]
        assert [e.state for e in events] == ["on", "on", "off", "off"]

    def test_crosstalk_room(self):
        # each switch moves the other unit's cell across its level within a step
        # or two, so the state is never near the one its forcing settles at
        events = self.assert_matches(crosstalk_room())
        assert len(events) >= 1000
        assert {e.ac for e in events} == {"heater", "cooler"}

    @pytest.mark.parametrize("leak", [1e-12, 0.0])
    def test_nearly_closed_room(self, leak):
        # the constant mode's mu is 1 - 2.5e-13 (or 1): its gain must not cancel
        events = self.assert_matches(tug_room(leak))
        assert len(events) >= 6

    def test_fastest_mode_nearly_still(self):
        # mu = 1e-3 on the fastest mode: its bound 1 - mu^n is about 1 after one step
        events = self.assert_matches(leaky_room(1e-3))
        assert len(events) >= 100 and {e.ac for e in events} == {"heater", "cooler"}

    def test_closed_room_with_cfl_over_a_quarter(self):
        # leak = 0 and kappa dt (1/dx^2 + 1/dy^2) = 0.26: the fastest mode's
        # multiplier is 0.045, as the exact eigenvalue is above -4 / h^2
        spec = replace(tug_room(0.0), kappa=0.0325)
        assert spec.kappa * spec.sim_dt * (1 / spec.dx**2 + 1 / spec.dy**2) > 0.25
        assert len(self.assert_matches(spec)) >= 6

    def test_quiet_room_is_exact(self):
        # the offset stays out of the modal state, so nothing rounds it
        spec = quiet_room(cell_center_layout(2.0, 1.2, 10, 6), leak=0.01, ambient=25.0)
        record, events = simulate_room(spec)
        assert events == () and np.all(record.values == 25.0)


class TestSameBitsAsArrays:
    """simulate_room against _simulate_blocks, the closed form with its relay state in arrays.

    TestModalMatchesStepping makes the same check on each of its rooms.
    """

    def test_default_room(self, default_rooms):
        for spec, record, events in default_rooms:
            assert len(assert_same_bits(spec, (record, events))) >= 6

    def test_sensors_on_the_walls_and_in_the_corners(self):
        spec = default_room_spec()
        spec = replace(spec, sensors=edge_layout(spec), duration=3600.0)
        got = simulate_room(spec)
        assert assert_same_bits(spec, got)
        # the corner (0, 0) reads cell (0, 0) alone, and the corner (w, d) the last cell
        dense = simulate_room(replace(spec, sensors=cell_center_layout(
            spec.width, spec.depth, spec.nx, spec.ny)))[0].values
        assert np.array_equal(got[0].values[[0, 3]], dense[[0, -1]])

    def test_no_units(self):
        spec = quiet_room(small_layout(), leak=0.01, init_noise=0.5, seed=3)
        assert assert_same_bits(spec) == ()


class TestMirrorSymmetry:
    def test_two_far_acs_symmetric(self):
        # AC cells on mirrored cell centers, zero initial noise: the scheme
        # preserves the room's left-right symmetry
        pairs = [((3.1, 2.3), (10.9, 2.3)), ((5.0, 5.0), (9.0, 5.0))]
        selfmirror = (7.0, 3.5)
        ids, pts = [], []
        for i, (left, right) in enumerate(pairs):
            ids += [f"L{i}", f"R{i}"]
            pts += [left, right]
        ids.append("mid")
        pts.append(selfmirror)
        sensors = SensorLayout(tuple(ids), np.array(pts))
        acs = (
            AirConditioner("ac_l", (3.625, 3.625), "cool", 1.2, 26.0, 24.0),
            AirConditioner("ac_r", (10.375, 3.625), "cool", 1.2, 26.0, 24.0),
        )
        spec = RoomSimSpec(
            width=14.0, depth=7.0, nx=56, ny=28, kappa=0.02, leak=2e-4,
            ambient=30.0, acs=acs, sim_dt=0.375, sample_dt=60.0,
            duration=3600.0, sensors=sensors, warmup=0.0, seed=0,
            init_temperature=25.0, init_noise=0.0,
        )
        record, events = simulate_room(spec)
        for i in range(len(pairs)):
            left = record.values[2 * i]
            right = record.values[2 * i + 1]
            assert np.max(np.abs(left - right)) <= 1e-9
        left_events = [(e.time, e.state) for e in events if e.ac == "ac_l"]
        right_events = [(e.time, e.state) for e in events if e.ac == "ac_r"]
        assert left_events == right_events


class TestConfigs:
    def test_default_room_spec(self):
        spec = default_room_spec()
        assert len(spec.acs) == 4
        active = [ac for ac in spec.acs if ac.on_threshold < spec.ambient]
        assert [ac.name for ac in active] == ["AC-2"]
        assert spec.sensors.n_sensors == 28
        assert spec.duration / spec.sample_dt + 1 == 241

    def test_default_layout_matches_room(self):
        layout = default_layout()
        assert layout.n_sensors == 28
        assert layout.channel_ids[0] == "TH-1" and layout.channel_ids[-1] == "TH-28"
        spec = default_room_spec()
        names = dict(zip(layout.channel_ids, map(tuple, layout.positions)))
        ac2 = next(ac for ac in spec.acs if ac.name == "AC-2")
        assert names["TH-17"] == tuple(ac2.position)

    def test_room_config_round_trip(self, tmp_path):
        text = """
[room]
width = 2.0
depth = 1.0
nx = 8
ny = 4
kappa = 0.001
leak = 0.0005
ambient = 28.0
sim_dt = 0.5
sample_dt = 10.0
duration = 100.0
warmup = 20.0
seed = 3
init_noise = 0.2

[ac.unit]
x = 1.0
y = 0.5
mode = heat
power = 0.5
on = 21.0
off = 23.0
"""
        path = tmp_path / "room.ini"
        path.write_text(text)
        sensors = SensorLayout(("s",), np.array([[1.0, 0.5]]))
        spec = load_room_config(path, sensors)
        assert spec.nx == 8 and spec.warmup == 20.0 and spec.seed == 3
        assert spec.acs[0].mode == "heat" and spec.acs[0].name == "unit"

    def test_analytic_config_fields(self, tmp_path):
        text = """
[analytic]
dt = 30.0
snapshots = 101
noise_std = 0.05
seed = 4

[bias]
poly = 0 0 24.0 ; 1 0 0.5

[tone.main]
period = 600.0
phase = 0.25
plane_wave = 1.0 -0.5 0.3 0.7
"""
        path = tmp_path / "analytic.ini"
        path.write_text(text)
        spec = load_analytic_config(path, small_layout())
        assert spec.dt == 30.0 and spec.n_snapshots == 101
        assert isinstance(spec.bias, PolynomialField)
        assert spec.tones[0].phase == 0.25
        assert isinstance(spec.tones[0].amplitude, PlaneWaveField)
        assert spec.tones[0].amplitude.amplitude == 1.0 - 0.5j

    def test_absent_optional_keys_keep_the_spec_defaults(self, tmp_path):
        room = tmp_path / "room.ini"
        room.write_text("[room]\nwidth = 2.0\ndepth = 1.0\nnx = 8\nny = 4\nkappa = 0.001\n"
                        "leak = 0.0005\nambient = 28.0\nsim_dt = 0.5\nsample_dt = 10.0\n"
                        "duration = 100.0\n")
        spec = load_room_config(room, SensorLayout(("s",), np.array([[1.0, 0.5]])))
        defaults = {f.name: f.default for f in fields(RoomSimSpec)}
        for key in ("warmup", "seed", "init_temperature", "init_noise"):
            assert getattr(spec, key) == defaults[key]
        analytic = tmp_path / "analytic.ini"
        analytic.write_text("[analytic]\ndt = 30.0\nsnapshots = 101\n\n"
                            "[tone.main]\nperiod = 600.0\nplane_wave = 1.0 0.0 0.3 0.7\n")
        spec = load_analytic_config(analytic, small_layout())
        defaults = {f.name: f.default for f in fields(AnalyticSpec)}
        assert (spec.noise_std, spec.seed) == (defaults["noise_std"], defaults["seed"])
        assert spec.tones[0].phase == next(f.default for f in fields(Tone) if f.name == "phase")

    def test_default_room_needs_2d_sensors(self):
        # a fault of the layout, not of the shipped file
        line = SensorLayout(("a", "b", "c"), np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(LayoutError, match="^room sensors need 2-D coordinates$"):
            default_room_spec(line)

    def test_bad_config_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[nothing]\nx = 1\n")
        with pytest.raises(ParseError):
            load_room_config(path, small_layout())
        with pytest.raises(ParseError):
            load_analytic_config(path, small_layout())
