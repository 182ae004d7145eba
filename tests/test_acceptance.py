"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (visible
regardless of capture settings); criteria 1 and 5 run once per decomposition
method.  Criteria run at the full production scale:
28 channels, 241 snapshots, 60 s sampling.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from thermokmd.cli import main
from thermokmd.gradient import gradient_field, rms_gradient
from thermokmd.phaseavg import harmonic_amplitude, phase_average
from thermokmd.spectral import METHODS, decompose, rank_modes, reconstruct
from thermokmd.synth import (
    AnalyticSpec,
    PolynomialField,
    Tone,
    default_analytic_spec,
    default_layout,
    default_room_spec,
    generate_analytic,
    simulate_room,
    switch_cycle_period,
    write_sources_csv,
    write_switch_log,
)
from thermokmd.timeseries import (
    GridSpec,
    SensorLayout,
    write_layout,
    write_snapshots,
)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(number, text):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {number} FAIL: {text}")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {number} PASS: {text}")

    return _announce


@pytest.fixture(scope="module")
def room_artifacts(tmp_path_factory):
    """Default thermostat room run plus one full pipeline pass over it."""
    base = tmp_path_factory.mktemp("room")
    spec = default_room_spec()
    t0 = time.perf_counter()
    record, events = simulate_room(spec)
    sim_seconds = time.perf_counter() - t0

    write_snapshots(record, base / "snapshots.csv")
    write_layout(spec.sensors, base / "layout.csv")
    write_switch_log(events, base / "switch_log.csv")
    write_sources_csv(spec.acs, base / "sources.csv")

    out = base / "run"
    t0 = time.perf_counter()
    code = main([
        "pipeline",
        "--snapshots", str(base / "snapshots.csv"),
        "--layout", str(base / "layout.csv"),
        "--flux-sources", str(base / "sources.csv"),
        "--out-dir", str(out),
    ])
    pipeline_seconds = time.perf_counter() - t0
    assert code == 0
    return {
        "base": base,
        "out": out,
        "spec": spec,
        "events": events,
        "sim_seconds": sim_seconds,
        "pipeline_seconds": pipeline_seconds,
    }


@pytest.mark.parametrize("method", METHODS)
def test_criterion_1_oracle_eigenvalue_recovery(announce, method):
    with announce(f"1 [{method}]",
                  "both injected couples recovered, dominant ranked first, < 2 s"):
        spec = default_analytic_spec()
        truth_periods = sorted((t.period for t in spec.tones), reverse=True)
        assert truth_periods == [5349.6, 853.8]

        snapshots, truth = generate_analytic(spec)
        t0 = time.perf_counter()
        table = decompose(snapshots, method)
        elapsed = time.perf_counter() - t0

        ranked = rank_modes(table, top=2)
        assert len(ranked.entries) == 2
        # dominant couple first: the unit-amplitude 853.8 s tone
        assert ranked.entries[0].period_seconds == pytest.approx(853.8, rel=1e-3)
        for entry, want in zip(ranked.entries, (853.8, 5349.6)):
            assert 0.9999 <= entry.abs_lam <= 1.0001
            assert abs(entry.period_seconds - want) <= 1e-3 * want
        assert elapsed < 2.0, f"decomposition took {elapsed:.2f} s"


def test_criterion_2_phase_average_identity(announce):
    with announce(2, "stride average recovers the tone exactly; noise averages down"):
        layout = default_layout()
        amp = PolynomialField((((0, 0), 1.0), ((1, 0), 0.04 + 0.03j)))
        clean_spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=239,
            tones=(Tone(period=840.0, amplitude=amp),),
        )
        clean, truth = generate_analytic(clean_spec)
        target = 2 * np.real(truth.ranked()[0].rep.mode)

        with pytest.warns(UserWarning):
            result = phase_average(clean, 14)
        assert result.cycles_used == 18
        assert np.max(np.abs(result.sum_real - target)) <= 1e-9

        sigma = 0.01 * np.max(np.abs(clean.values))
        noisy_spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=239,
            tones=(Tone(period=840.0, amplitude=amp),),
            noise_std=sigma, seed=2024,
        )
        noisy, _ = generate_analytic(noisy_spec)
        with pytest.warns(UserWarning):
            noisy_result = phase_average(noisy, 14)
        bound = 5.0 * sigma / np.sqrt(noisy_result.cycles_used)
        err = np.max(np.abs(noisy_result.sum_real - target))
        assert err <= bound, f"noise error {err:.3g} exceeds 5x bound {bound:.3g}"


def _line_layout(h):
    xs = np.arange(0.0, 2.0 + h / 2, h)
    ids = tuple(f"p{i}" for i in range(len(xs)))
    pts = np.array([[x, 0.0] for x in xs])
    return xs, SensorLayout(ids, pts, GridSpec(1, len(xs), h, 1.0))


def test_criterion_3_gradient_convergence(announce):
    with announce(3, "second-order interior convergence; affine fields exact"):
        errors = {}
        for h in (0.2, 0.1):
            xs, layout = _line_layout(h)
            field = gradient_field(np.sin(np.pi * xs), layout)
            truth = np.pi * np.cos(np.pi * xs)
            interior = np.array([m == "grid_central" for m in field.methods])
            errors[h] = np.max(np.abs(field.vectors[interior, 0] - truth[interior]))
        ratio = errors[0.2] / errors[0.1]
        assert 3.2 <= ratio <= 4.8, f"error ratio {ratio:.3f}"

        grid_ids, grid_pts = [], []
        for r in range(4):
            for c in range(6):
                grid_ids.append(f"g{r}{c}")
                grid_pts.append((0.3 * c, 0.25 * r))
        grid = SensorLayout(tuple(grid_ids), np.array(grid_pts), GridSpec(4, 6, 0.3, 0.25))
        scattered = default_layout()
        for layout in (grid, scattered):
            mode = 1.5 * layout.positions[:, 0] - 0.75 * layout.positions[:, 1]
            field = gradient_field(mode, layout)
            assert np.all(field.valid)
            assert np.max(np.abs(field.vectors - [1.5, -0.75])) <= 1e-10


def test_criterion_4_end_to_end_flux_direction(announce, room_artifacts):
    with announce(4, "dominant period matches the switch log; cooler flux consistent"):
        events = room_artifacts["events"]
        relay_period = switch_cycle_period(events, "AC-2")

        meta = json.loads((room_artifacts["out"] / "run_metadata.json").read_text())
        dominant_period = meta["dominant_mode"]["period_seconds"]
        assert abs(dominant_period - relay_period) <= 60.0, (
            f"dominant {dominant_period:.1f} s vs relay {relay_period:.1f} s"
        )
        assert meta["flux_scores"]["AC-2"] >= 0.7
        total = room_artifacts["sim_seconds"] + room_artifacts["pipeline_seconds"]
        assert total < 30.0, f"end-to-end run took {total:.1f} s"


@pytest.mark.parametrize("method", METHODS)
def test_criterion_5_reconstruction_invariant(announce, method):
    with announce(f"5 [{method}]",
                  "low-rank record reconstructed to 1e-8; conjugate sum real to 1e-10"):
        spec = default_analytic_spec()
        layout = spec.layout
        spec = AnalyticSpec(
            layout=layout, dt=spec.dt, n_snapshots=spec.n_snapshots,
            tones=spec.tones,
            bias=PolynomialField((((0, 0), 24.0), ((1, 0), 0.05))),
        )
        snapshots, _ = generate_analytic(spec)
        table = decompose(snapshots, method)

        recon = reconstruct(table)
        target = snapshots.values[:, :-1]
        rel_err = np.max(np.abs(recon - target)) / np.max(np.abs(target))
        assert rel_err <= 1e-8, f"reconstruction error {rel_err:.3g}"

        lams, modes = [], []
        for entry in table.entries:
            lams.append(entry.rep.lam)
            modes.append(entry.rep.mode)
            if entry.partner is not None:
                lams.append(entry.partner.lam)
                modes.append(entry.partner.mode)
        powers = np.vander(np.array(lams), N=snapshots.n_snapshots - 1, increasing=True)
        complex_recon = np.column_stack(modes) @ powers
        realness = np.max(np.abs(complex_recon.imag)) / np.max(np.abs(complex_recon.real))
        assert realness <= 1e-10, f"imaginary residual {realness:.3g}"


def test_criterion_6_rms_cross_check(announce):
    with announce(6, "harmonic-amplitude RMS gradient matches the time-domain RMS"):
        ids, pts = [], []
        for r in range(5):
            for c in range(8):
                ids.append(f"g{r}{c}")
                pts.append((0.4 * c, 0.35 * r))
        layout = SensorLayout(tuple(ids), np.array(pts), GridSpec(5, 8, 0.4, 0.35))
        a = 0.8 - 0.3j   # x-slope of the complex amplitude
        b = 0.2 + 0.5j   # y-slope
        amp = PolynomialField((((1, 0), a), ((0, 1), b), ((0, 0), 1.0)))
        P = 16
        spec = AnalyticSpec(
            layout=layout, dt=60.0, n_snapshots=2 * P + 1,
            tones=(Tone(period=P * 60.0, amplitude=amp),),
        )
        snapshots, _ = generate_analytic(spec)

        # oracle: discrete time RMS of the analytic gradient over one period
        k = np.arange(P)
        phases = np.exp(2j * np.pi * k / P)
        oracle = np.array([
            np.sqrt(np.mean((2 * np.real(coeff * phases)) ** 2)) for coeff in (a, b)
        ])
        assert np.allclose(oracle, np.sqrt(2.0) * np.abs([a, b]), rtol=1e-12)

        rms = rms_gradient(harmonic_amplitude(snapshots, P), layout)
        rel = np.max(np.abs(rms - oracle[None, :])) / np.max(oracle)
        assert rel <= 1e-6, f"RMS mismatch {rel:.3g}"


def test_criterion_7_determinism(announce, room_artifacts):
    with announce(7, "pipeline reruns produce byte-identical CSV/JSON artifacts"):
        base = room_artifacts["base"]
        second = base / "run_again"
        code = main([
            "pipeline",
            "--snapshots", str(base / "snapshots.csv"),
            "--layout", str(base / "layout.csv"),
            "--flux-sources", str(base / "sources.csv"),
            "--out-dir", str(second),
        ])
        assert code == 0
        first = room_artifacts["out"]
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        checked = 0
        for name in names:
            if name.endswith((".csv", ".json")):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
                checked += 1
        assert checked >= 6
