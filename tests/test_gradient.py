from xml.dom import minidom

import numpy as np
import pytest

from thermokmd import gradient, phaseavg, spectral, timeseries
from thermokmd.errors import ArgumentError, GeometryError
from thermokmd.gradient import (
    CONDITION_LIMIT,
    DEFAULT_NEIGHBORS,
    GRID_CENTRAL,
    GRID_ONESIDED,
    INVALID,
    SCATTERED_LSQ,
    FluxSource,
    GradientField,
    _scattered_gradient,
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

from oracles import (
    _field_to_svg_loop,
    _gradient_angle,
    _median_spacing_full,
    _nearest_argsort,
    _room_gradient_truth,
    _scattered_gradient_loop,
)


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
        _, field, src = self.radial_field(+1.0)
        scores = flux_consistency(field, [FluxSource("AC", tuple(src), "cooling")])
        assert scores["AC"] == pytest.approx(1.0, abs=1e-12)

    def test_heating_source_sign_flip(self):
        _, field, src = self.radial_field(-1.0)
        scores = flux_consistency(field, [FluxSource("AC", tuple(src), "heating")])
        assert scores["AC"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_scores_zero(self):
        layout = default_layout()
        field = GradientField(
            vectors=np.zeros((layout.n_sensors, 2)),
            valid=np.ones(layout.n_sensors, dtype=bool),
            methods=(SCATTERED_LSQ,) * layout.n_sensors,
            layout=layout,
        )
        scores = flux_consistency(field, [FluxSource("AC", (5.25, 2.9), "cooling")])
        assert scores["AC"] == 0.0

    def test_remote_source_rejected(self):
        _, field, _ = self.radial_field(+1.0)
        with pytest.raises(GeometryError, match="^no valid sensor within 2.0 median spacings "
                                                "of source 'far'$"):
            flux_consistency(field, [FluxSource("far", (100.0, 100.0), "cooling")])


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


# -- the array passes against the per-sensor reference code in oracles.py ---------------

def scattered_layout(m, d, seed):
    """``m`` sensors at seeded uniform points of a 14 m x 7 m x 3 m box, first ``d`` axes."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform((0.0, 0.0, 0.0), (14.0, 7.0, 3.0), size=(m, 3))[:, :d]
    return SensorLayout(tuple(f"s{i}" for i in range(m)), pts)


def lattice_layout():
    """An undeclared 9 x 15 lattice: binary-fraction spacing, so neighbour distances tie exactly."""
    pts = [(0.5 + 0.875 * c, 0.25 + 0.875 * r) for r in range(9) for c in range(15)]
    return SensorLayout(tuple(f"L{i}" for i in range(len(pts))), np.array(pts))


def collinear_layout():
    """Twelve sensors on a line, whose stencils are degenerate, and two off it."""
    pts = [[float(x), 0.0] for x in range(12)] + [[0.0, 50.0], [11.0, 50.0]]
    return SensorLayout(tuple(f"c{i}" for i in range(14)), np.array(pts))


ORACLE_LAYOUTS = {
    "scattered-d1": lambda: scattered_layout(150, 1, 11),
    "scattered-d2": lambda: scattered_layout(300, 2, 12),  # three row blocks
    "scattered-d3": lambda: scattered_layout(200, 3, 13),
    "lattice": lattice_layout,
    "collinear": collinear_layout,
    "default-room": default_layout,
}


def oracle_mode(layout, complex_mode):
    rng = np.random.default_rng(layout.n_sensors)
    x = layout.positions
    mode = np.sin(x[:, 0]) + 0.3 * x.sum(axis=1) + 0.01 * rng.normal(size=len(x))
    if complex_mode:
        mode = mode + 1j * (np.cos(1.3 * x[:, -1]) + 0.01 * rng.normal(size=len(x)))
    return mode


@pytest.mark.filterwarnings("error")
class TestArrayPassesMatchLoop:
    @pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", [*ORACLE_LAYOUTS, "wide"])
    def test_scattered_gradient(self, name, complex_mode):
        # "wide" is the sensor-wide benchmark's size; its loop reference is
        # slow, so it runs at the default neighbour count only
        layout = {"wide": lambda: scattered_layout(1024, 2, 16), **ORACLE_LAYOUTS}[name]()
        mode = oracle_mode(layout, complex_mode)
        for neighbors in (DEFAULT_NEIGHBORS, 3, 9)[: 1 if name == "wide" else 3]:
            got = _scattered_gradient(mode, layout, neighbors)
            want = _scattered_gradient_loop(mode, layout, neighbors, CONDITION_LIMIT)
            assert got[0].dtype == want[0].dtype
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
            searched = min(neighbors, layout.n_sensors - 1) >= layout.d + 1
            assert got[3] == (median_spacing(layout) if searched else None)
        if name == "collinear":
            assert 0 < want[1].sum() < layout.n_sensors

    @pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
    def test_non_finite_mode(self, complex_mode):
        layout = ORACLE_LAYOUTS["scattered-d2"]()
        mode = oracle_mode(layout, complex_mode)
        mode[[5, 200]] = np.nan, np.inf
        # a complex inf times a stencil weight warns of an invalid value; that is not under test
        with np.errstate(invalid="ignore"):
            got = _scattered_gradient(mode, layout, DEFAULT_NEIGHBORS)
            want = _scattered_gradient_loop(mode, layout, DEFAULT_NEIGHBORS, CONDITION_LIMIT)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1]) and got[2] == want[2]
            with pytest.raises(GeometryError, match="^gradient produced non-finite values "
                                                    "at valid sensors$"):
                gradient_field(mode, layout)

    @pytest.mark.parametrize("seed", range(20))
    def test_spacing_from_neighbour_search(self, seed):
        # lattice points, so distances tie, and some points 1e-200 apart near the
        # origin, whose squared distances underflow: those sensors coincide at 0
        rng = np.random.default_rng(seed)
        n = rng.integers(8, 40)
        pts = rng.integers(0, 6, size=(n, 2)) * 0.375
        tiny = rng.random(n) < 0.3
        pts = np.where(tiny[:, None], rng.integers(1, 4, size=(n, 2)) * 1e-200, pts)
        pts = np.unique(pts, axis=0)
        layout = SensorLayout(tuple(f"p{i}" for i in range(len(pts))), pts)
        spacing = _scattered_gradient(np.zeros(len(pts)), layout, 3)[3]
        assert spacing == median_spacing(layout) == _median_spacing_full(layout)

    def test_field_spacing(self):
        layout = ORACLE_LAYOUTS["scattered-d2"]()
        field = gradient_field(oracle_mode(layout, False), layout)
        assert vars(field)["spacing"] == _median_spacing_full(layout)  # set, not computed
        grid = grid_layout(3, 4, 0.5, 0.7)
        field = gradient_field(grid.positions[:, 0], grid)
        assert "spacing" not in vars(field)
        assert field.spacing == median_spacing(grid) == 0.5
        one = grid_layout(1, 1, 0.5, 0.5)
        field = gradient_field(np.zeros(1), one)  # a field of one sensor has no spacing
        with pytest.raises(GeometryError, match="^need at least 2 sensors"):
            field.spacing

    def test_lattice_neighbours_tie(self):
        layout = lattice_layout()
        dist = np.sqrt(((layout.positions - layout.positions[20]) ** 2).sum(axis=1))
        # four at 0.875, four diagonals: six neighbours cut through a tie
        assert np.sort(dist)[1:9].tolist() == [0.875] * 4 + [0.875 * np.sqrt(2)] * 4

    @pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("neighbors", [7, 8, 50])
    def test_neighbors_at_least_m_minus_1(self, neighbors, complex_mode):
        layout = scattered_layout(8, 2, 14)
        mode = oracle_mode(layout, complex_mode)
        got = _scattered_gradient(mode, layout, neighbors)
        want = _scattered_gradient_loop(mode, layout, neighbors, CONDITION_LIMIT)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == [SCATTERED_LSQ] * 8

    @pytest.mark.parametrize("d, neighbors", [(1, 1), (2, 2), (3, 3), (2, 0)])
    def test_too_few_neighbours_every_sensor_invalid(self, d, neighbors):
        layout = scattered_layout(20, d, 15)
        mode = oracle_mode(layout, False)
        got = _scattered_gradient(mode, layout, neighbors)
        want = _scattered_gradient_loop(mode, layout, neighbors, CONDITION_LIMIT)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == [INVALID] * 20

    def test_degenerate_stencil_no_warning(self):
        # exactly collinear stencils: the smallest singular value is 0
        layout = collinear_layout()
        sv = np.linalg.svd((layout.positions[1:7] - layout.positions[0])[None], compute_uv=False)
        assert sv[0, -1] == 0.0
        field = gradient_field(layout.positions[:, 0], layout)  # warnings are errors here
        assert field.methods[:12] == (INVALID,) * 12

    @pytest.mark.parametrize("name", [*ORACLE_LAYOUTS, "pair", "wide"])
    def test_median_spacing(self, name):
        layout = {"pair": lambda: SensorLayout(("a", "b"), np.array([[0.0, 0.0], [0.3, 0.4]])),
                  "wide": lambda: scattered_layout(1024, 2, 16),
                  **ORACLE_LAYOUTS}[name]()
        assert median_spacing(layout) == _median_spacing_full(layout)

    @pytest.mark.parametrize("complex_mode", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", ["scattered-d2", "scattered-d3", "lattice", "collinear",
                                      "default-room"])
    def test_svg(self, name, complex_mode, monkeypatch):
        layout = ORACLE_LAYOUTS[name]()
        field = gradient_field(oracle_mode(layout, complex_mode), layout)
        assert field_to_svg(field) == _field_to_svg_loop(field)
        monkeypatch.setattr(gradient, "SVG_WIDTH_PX", 333)
        assert field_to_svg(field) == _field_to_svg_loop(field, width_px=333)

    def test_svg_arrows_without_heads(self):
        # zero vectors draw a line without a head; an all-zero field has no scale
        layout = lattice_layout()
        vectors = np.zeros((layout.n_sensors, 2))
        vectors[::3] = [1.5, -0.25]
        for vec in (vectors, np.zeros_like(vectors)):
            field = GradientField(vec, np.arange(layout.n_sensors) % 5 > 0,
                                  (SCATTERED_LSQ,) * layout.n_sensors, layout)
            assert field_to_svg(field) == _field_to_svg_loop(field)


# -- the sorted-strip neighbour search against a stable argsort per sensor ------------------

def cluster_points():
    """A dense 1 m square of 1400 sensors and 136 outliers over the room.

    The square's windows are narrow on the sort axis, so an outlier's first
    window rarely reaches its neighbours and its row is searched again.
    """
    rng = np.random.default_rng(21)
    return np.vstack([rng.uniform(3.0, 4.0, size=(1400, 2)),
                      rng.uniform((0.0, 0.0), (14.0, 7.0), size=(136, 2))])


NEAREST_LAYOUTS = {
    "d1-150": lambda: scattered_layout(150, 1, 31).positions,
    "d1-600": lambda: scattered_layout(600, 1, 32).positions,
    "d2-200": lambda: scattered_layout(200, 2, 33).positions,
    "d2-1024": lambda: scattered_layout(1024, 2, 34).positions,
    "d3-300": lambda: scattered_layout(300, 3, 35).positions,
    "d2-4096": lambda: scattered_layout(4096, 2, 36).positions,
    # binary-fraction spacings, so that distances tie exactly
    "lattice-d2": lambda: np.indices((30, 40)).reshape(2, -1).T[:, ::-1] * 0.875 + 0.25,
    "lattice-d3": lambda: np.indices((10, 10, 8)).reshape(3, -1).T * 0.5,
    "cluster": cluster_points,
    # every square underflows to 0: every bound is 0, and all distances tie by index
    "scaled-1e-200": lambda: scattered_layout(400, 3, 37).positions * 1e-200,
    # sums of squares near the top of the float range
    "scaled-1e150": lambda: scattered_layout(400, 3, 38).positions * 1e150,
    # coordinates near the bottom of the normal range; every square underflows
    "scaled-1e-300": lambda: scattered_layout(400, 2, 39).positions * 1e-300,
}


def shuffled_lattices():
    """Small-integer lattices in d = 1 and 2, each in three seeded shuffles.

    The index order differs from the sort order, and distances tie exactly
    with the gap to a window's edge, so a row whose (k+1)-th distance only
    equals its bound must be searched again.
    """
    rng = np.random.default_rng(40)
    shapes = [(n,) for n in (5, 9, 16, 33, 64)] + [(2, 7), (3, 3), (4, 9), (5, 5), (6, 11),
                                                    (8, 8), (1, 12), (12, 3)]
    for shape in shapes:
        points = np.indices(shape).reshape(len(shape), -1).T.astype(float)
        for _ in range(3):
            yield rng.permutation(points)


def pass_widths(monkeypatch):
    """(rows, window) of every distance block that ``_nearest`` forms, in call order."""
    calls = []
    distances = gradient._distances

    def spy(others, rows):
        block = distances(others, rows)
        calls.append(block.shape)
        return block

    monkeypatch.setattr(gradient, "_distances", spy)
    return calls


def assert_matches_argsort(pos, k):
    index, dist = gradient._nearest(pos, k)
    want_index, want_dist = _nearest_argsort(pos, k)
    assert np.array_equal(index, want_index)
    assert np.array_equal(dist.view(np.int64), want_dist.view(np.int64))


@pytest.mark.filterwarnings("error")
class TestNearest:
    # about 3 s of tier-1 together (of a ~30 s budget), 1.7 s of it the argsort
    # reference at 4096 sensors
    @pytest.mark.parametrize("name", NEAREST_LAYOUTS)
    def test_matches_argsort(self, name):
        pos = NEAREST_LAYOUTS[name]()
        want_index, want_dist = _nearest_argsort(pos, 9)
        for k in (1, DEFAULT_NEIGHBORS, 9):
            index, dist = gradient._nearest(pos, k)
            assert np.array_equal(index, want_index[:, :k])
            assert np.array_equal(dist.view(np.int64), want_dist[:, :k].view(np.int64))

    def test_shuffled_lattices(self):
        for pos in shuffled_lattices():
            for k in range(1, min(len(pos), 10)):
                assert_matches_argsort(pos, k)

    def test_zero_extent_axis(self):
        rng = np.random.default_rng(41)
        for pos in (np.column_stack([rng.uniform(0, 14, 300), np.full(300, 2.5)]),
                    np.column_stack([rng.uniform(0, 14, 300), np.zeros(300),
                                     rng.uniform(0, 3, 300)])):
            for k in (1, DEFAULT_NEIGHBORS, 9):
                assert_matches_argsort(pos, k)

    def test_overflowing_coordinates(self, monkeypatch):
        # every distance and every bound overflows to inf, so only the pass
        # over all M sensors keeps a row: the search must stop there
        pos = 1e300 + scattered_layout(300, 2, 42).positions * 1e299
        calls = pass_widths(monkeypatch)
        with np.errstate(over="ignore"):
            assert_matches_argsort(pos, DEFAULT_NEIGHBORS)
        assert calls[-1][1] == len(pos)
        assert sum(rows for rows, width in calls if width == len(pos)) == len(pos)

    def test_rows_kept_per_pass(self, monkeypatch):
        calls = pass_widths(monkeypatch)
        gradient._nearest(scattered_layout(1024, 2, 34).positions, DEFAULT_NEIGHBORS)
        first = calls[0][1]
        again = sum(rows for rows, width in calls if width > first)
        assert again <= 0.05 * 1024, calls
        calls.clear()
        gradient._nearest(cluster_points(), DEFAULT_NEIGHBORS)
        assert len({width for _, width in calls}) > 1, calls


# -- the default room's gradient against its truth from the field on every cell -------------

#: the most degrees the pipeline's room gradient may turn from the truth: the
#: 28-sensor stencil floor, which the Fourier average of the sensors at the
#: switch frequency meets at 7.0-7.1 degrees on seeds 0-7, plus 0.9
ROOM_ANGLE_BOUND = 8.0


@pytest.fixture(scope="module")
def room_fits(default_rooms):
    """Per default room: (layout, dominant entry, stride average, truth, both switch logs)."""
    fits = []
    for spec, record, events in default_rooms:
        truth, dense_events = _room_gradient_truth(spec, "AC-2")
        mean_free = timeseries.remove_mean(record)
        dominant = spectral.decompose(mean_free, spectral.METHODS[0]).dominant()
        period, _ = phaseavg.select_period(dominant, record.dt, record.n_snapshots)
        average = phaseavg.phase_average(mean_free, period)
        fits.append((spec.sensors, dominant, average, truth, events, dense_events))
    return fits


class TestRoomGradientTruth:
    """The gradient the pipeline takes on the default room, seeds 0-7, against the truth.

    The truth is the Fourier average of the whole field at AC-2's switch
    frequency, differentiated on the grid and sampled at the sensors.
    """

    def test_dense_run_switches_as_the_sensors_run(self, room_fits):
        for *_, events, dense_events in room_fits:
            assert dense_events == events

    def test_dmd_mode(self, room_fits):
        # measured: 6.55-6.56 degrees
        angles = [_gradient_angle(gradient_field(dominant.rep.mode, layout).vectors, truth)
                  for layout, dominant, _, truth, *_ in room_fits]
        assert max(angles) <= ROOM_ANGLE_BOUND, angles

    @pytest.mark.xfail(reason="the stride average at the rounded period, 16 samples for "
                              "16.2, turns the gradient by 17.9-18.6 degrees")
    def test_sum_real(self, room_fits):
        angles = [_gradient_angle(gradient_field(average.sum_real, layout).vectors, truth)
                  for layout, _, average, truth, *_ in room_fits]
        assert max(angles) <= ROOM_ANGLE_BOUND, angles
