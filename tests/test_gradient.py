from xml.dom import minidom

import numpy as np
import pytest

from thermokmd.errors import ArgumentError, GeometryError
from thermokmd.gradient import (
    GRID_CENTRAL,
    GRID_ONESIDED,
    SCATTERED_LSQ,
    FluxSource,
    GradientField,
    field_to_csv,
    field_to_svg,
    flux_consistency,
    gradient_field,
    median_spacing,
    rms_gradient,
)
from thermokmd.phaseavg import harmonic_amplitude
from thermokmd.synth import default_layout
from thermokmd.timeseries import GridSpec, SensorLayout, SnapshotMatrix


def grid_layout(rows, cols, dx, dy, x0=0.0, y0=0.0):
    ids, pts = [], []
    for r in range(rows):
        for c in range(cols):
            ids.append(f"g{r}_{c}")
            pts.append((x0 + c * dx, y0 + r * dy))
    return SensorLayout(tuple(ids), np.array(pts), GridSpec(rows, cols, dx, dy))


def line_layout(xs, y=0.0):
    ids = tuple(f"p{i}" for i in range(len(xs)))
    pts = np.array([[x, y] for x in xs])
    return SensorLayout(ids, pts, GridSpec(1, len(xs), xs[1] - xs[0], 1.0))


class TestAffineExactness:
    def test_grid(self):
        layout = grid_layout(5, 7, 0.35, 0.2)
        mode = 3.0 * layout.positions[:, 0] + 2.0 * layout.positions[:, 1]
        field = gradient_field(mode, layout)
        assert np.all(field.valid)
        assert np.max(np.abs(field.vectors - [3.0, 2.0])) <= 1e-10
        idx = layout.grid_indices()
        for i, method in enumerate(field.methods):
            interior = 0 < idx[i, 0] < 4 and 0 < idx[i, 1] < 6
            assert method == (GRID_CENTRAL if interior else GRID_ONESIDED)

    def test_scattered_irregular(self):
        layout = default_layout()  # not a lattice
        mode = 3.0 * layout.positions[:, 0] + 2.0 * layout.positions[:, 1]
        field = gradient_field(mode, layout)
        assert np.all(field.valid)
        assert set(field.methods) == {SCATTERED_LSQ}
        assert np.max(np.abs(field.vectors - [3.0, 2.0])) <= 1e-10

    def test_constant_mode(self):
        layout = default_layout()
        field = gradient_field(np.full(layout.n_sensors, 7.5), layout)
        assert np.max(np.abs(field.vectors)) <= 1e-12

    def test_linearity(self):
        layout = default_layout()
        rng = np.random.default_rng(2)
        u = rng.normal(size=layout.n_sensors)
        v = rng.normal(size=layout.n_sensors)
        a, b = 2.5, -0.75
        combined = gradient_field(a * u + b * v, layout).vectors
        expect = a * gradient_field(u, layout).vectors + b * gradient_field(v, layout).vectors
        assert np.max(np.abs(combined - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_rotation_equivariance(self):
        layout = default_layout()
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        g_vec = np.array([1.3, -0.4])
        mode = layout.positions @ g_vec
        rotated = SensorLayout(layout.channel_ids, layout.positions @ rot.T)
        mode_rot = rotated.positions @ (rot @ g_vec)
        f0 = gradient_field(mode, layout)
        f1 = gradient_field(mode_rot, rotated)
        assert np.max(np.abs(f1.vectors - f0.vectors @ rot.T)) <= 1e-9


class TestConvergence:
    def sine_errors(self, h, lo=0.0, hi=2.0):
        xs = np.arange(lo, hi + h / 2, h)
        layout = line_layout(xs)
        mode = np.sin(np.pi * xs)
        field = gradient_field(mode, layout)
        truth = np.pi * np.cos(np.pi * xs)  # brute-force reference derivative
        interior = np.array([m == GRID_CENTRAL for m in field.methods])
        return np.max(np.abs(field.vectors[interior, 0] - truth[interior]))

    def test_second_order_on_grid(self):
        e1 = self.sine_errors(0.2)
        e2 = self.sine_errors(0.1)
        assert 3.2 <= e1 / e2 <= 4.8

    def test_single_row_grid_has_zero_cross_component(self):
        xs = np.arange(0.0, 1.01, 0.1)
        field = gradient_field(np.sin(np.pi * xs), line_layout(xs))
        assert np.max(np.abs(field.vectors[:, 1])) == 0.0
        # the same line as a single column: the x component is the zero one
        column = SensorLayout(field.layout.channel_ids, np.array([[0.0, y] for y in xs]),
                              GridSpec(len(xs), 1, 1.0, xs[1] - xs[0]))
        col_field = gradient_field(np.sin(np.pi * xs), column)
        assert np.max(np.abs(col_field.vectors[:, 0])) == 0.0
        assert np.array_equal(col_field.vectors[:, 1], field.vectors[:, 0])
        assert col_field.methods == field.methods

    def test_grid_vs_scattered_agreement(self):
        h = 0.1
        layout = grid_layout(5, 21, h, h)
        mode = np.sin(np.pi * layout.positions[:, 0])
        grid_field = gradient_field(mode, layout)
        undeclared = SensorLayout(layout.channel_ids, layout.positions)
        scat_field = gradient_field(mode, undeclared)
        both = (
            np.array([m == GRID_CENTRAL for m in grid_field.methods])
            & scat_field.valid
        )
        assert np.any(both)
        diff = np.max(np.abs(grid_field.vectors[both, 0] - scat_field.vectors[both, 0]))
        assert diff <= 0.10 * np.pi


class TestDegenerateGeometry:
    def test_collinear_scattered_all_invalid(self):
        xs = np.linspace(0, 1, 8)
        layout = SensorLayout(
            tuple(f"p{i}" for i in range(8)), np.array([[x, 0.0] for x in xs])
        )
        with pytest.raises(GeometryError):
            gradient_field(xs.copy(), layout)

    def test_too_few_neighbors(self):
        layout = SensorLayout(("a", "b"), np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(GeometryError):
            gradient_field(np.array([0.0, 1.0]), layout)

    def test_partial_invalidity_flagged(self):
        # ten sensors on a line (their six nearest neighbors are collinear)
        # plus two elevated sensors with well-posed stencils
        line = [[float(x), 0.0] for x in range(10)]
        elevated = [[0.0, 50.0], [9.0, 50.0]]
        layout = SensorLayout(
            tuple(f"p{i}" for i in range(12)), np.array(line + elevated)
        )
        mode = layout.positions[:, 0] + layout.positions[:, 1]
        field = gradient_field(mode, layout)
        assert not field.valid[:10].any()
        assert field.valid[10:].all()
        assert np.all(np.isnan(np.real(field.vectors[0])))

    def test_dimension_mismatch(self):
        layout = default_layout()
        with pytest.raises(ArgumentError):
            gradient_field(np.zeros(layout.n_sensors + 1), layout)


class TestRms:
    def test_linear_real_mode(self):
        layout = grid_layout(4, 6, 0.5, 0.5)
        mode = (1.0 + 0.0j) * layout.positions[:, 0]
        rms = rms_gradient(mode, layout)
        assert np.max(np.abs(rms[:, 0] - np.sqrt(2.0))) <= 1e-10
        assert np.max(np.abs(rms[:, 1])) <= 1e-12

    def test_phase_invariance(self):
        layout = grid_layout(4, 6, 0.5, 0.5)
        rms_real = rms_gradient((1.0 + 0.0j) * layout.positions[:, 0], layout)
        rms_imag = rms_gradient(1.0j * layout.positions[:, 0], layout)
        assert np.max(np.abs(rms_real - rms_imag)) <= 1e-12

    def test_matches_time_domain_rms(self):
        # oracle: differentiate each snapshot of one whole cycle and take the
        # per-component RMS over time; must match sqrt(2)|grad harmonic|
        layout = grid_layout(5, 8, 0.4, 0.3)
        x = layout.positions[:, 0]
        y = layout.positions[:, 1]
        amp = (0.8 - 0.3j) * x + (0.2 + 0.5j) * y
        P = 16
        k = np.arange(2 * P)
        vals = 2 * np.real(amp[:, None] * np.exp(2j * np.pi * k / P)[None, :])
        s = SnapshotMatrix(vals, 60.0, 0.0, layout.channel_ids)

        grads_t = np.stack(
            [gradient_field(vals[:, kk], layout).vectors for kk in range(P)], axis=0
        )
        time_rms = np.sqrt((grads_t.astype(float) ** 2).mean(axis=0))

        rms = rms_gradient(harmonic_amplitude(s, P), layout)
        assert np.max(np.abs(rms - time_rms)) <= 1e-9 * np.max(time_rms)


class TestFluxConsistency:
    def radial_field(self, sign):
        layout = default_layout()
        src = np.array([5.25, 2.9])
        rel = layout.positions - src
        dist = np.linalg.norm(rel, axis=1)
        vectors = np.zeros_like(rel)
        nonzero = dist > 0
        vectors[nonzero] = sign * rel[nonzero] / dist[nonzero][:, None]
        return layout, GradientField(
            vectors=vectors,
            valid=np.ones(layout.n_sensors, dtype=bool),
            methods=(SCATTERED_LSQ,) * layout.n_sensors,
            layout=layout,
        ), src

    def test_cooling_source_scores_one(self):
        layout, field, src = self.radial_field(+1.0)
        scores = flux_consistency(field, layout, [FluxSource("AC", tuple(src), "cooling")])
        assert scores["AC"] == pytest.approx(1.0, abs=1e-12)

    def test_heating_source_sign_flip(self):
        layout, field, src = self.radial_field(-1.0)
        scores = flux_consistency(field, layout, [FluxSource("AC", tuple(src), "heating")])
        assert scores["AC"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_scores_zero(self):
        layout = default_layout()
        field = GradientField(
            vectors=np.zeros((layout.n_sensors, 2)),
            valid=np.ones(layout.n_sensors, dtype=bool),
            methods=(SCATTERED_LSQ,) * layout.n_sensors,
            layout=layout,
        )
        scores = flux_consistency(field, layout, [FluxSource("AC", (5.25, 2.9), "cooling")])
        assert scores["AC"] == 0.0

    def test_remote_source_rejected(self):
        layout, field, _ = self.radial_field(+1.0)
        with pytest.raises(GeometryError):
            flux_consistency(field, layout, [FluxSource("far", (100.0, 100.0), "cooling")])


class TestExports:
    def test_median_spacing(self):
        layout = grid_layout(3, 3, 0.5, 0.7)
        assert median_spacing(layout) == pytest.approx(0.5)

    def test_csv_real(self):
        layout = grid_layout(2, 3, 0.5, 0.5)
        field = gradient_field(layout.positions[:, 0] * 2.0, layout)
        text = field_to_csv(field)
        lines = text.splitlines()
        assert lines[0] == "channel_id,x,y,gx_re,gy_re,valid,method"
        assert len(lines) == 7
        assert ",true," in lines[1]

    def test_csv_complex(self):
        layout = grid_layout(2, 3, 0.5, 0.5)
        field = gradient_field((1 + 2j) * layout.positions[:, 0], layout)
        assert field_to_csv(field).splitlines()[0] == (
            "channel_id,x,y,gx_re,gy_re,gx_im,gy_im,valid,method"
        )

    def test_svg_deterministic_and_scaled(self):
        layout = default_layout()
        mode = 3.0 * layout.positions[:, 0] + 2.0 * layout.positions[:, 1]
        field = gradient_field(mode, layout)
        svg1 = field_to_svg(field)
        svg2 = field_to_svg(field)
        assert svg1 == svg2
        assert svg1.startswith("<svg")
        assert "longest arrow" in svg1

    def test_svg_escapes_sensor_ids(self):
        base = grid_layout(2, 3, 0.5, 0.5)
        ids = ("a&<b", "c>d", "e", "f&amp;", "g", "h")
        layout = SensorLayout(ids, base.positions, base.grid)
        svg = field_to_svg(gradient_field(layout.positions[:, 0], layout))
        labels = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
        assert labels[:-1] == list(ids)
