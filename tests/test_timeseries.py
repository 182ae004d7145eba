import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokmd.errors import (
    DuplicateError,
    GeometryError,
    ParseError,
    TooShortError,
    UniformityError,
)
from thermokmd.timeseries import (
    GridSpec,
    SensorLayout,
    SnapshotMatrix,
    load_layout,
    load_snapshots,
    remove_mean,
    write_layout,
    write_snapshots,
)


def write_csv(path, header, rows):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoadSnapshots:
    def test_paper_scale_record(self, tmp_path):
        ids = [f"TH-{i}" for i in range(1, 29)]
        rows = [
            ",".join([str(60 * k)] + [f"{20 + 0.01 * c}" for c in range(28)])
            for k in range(241)
        ]
        s = load_snapshots(write_csv(tmp_path / "a.csv", "time," + ",".join(ids), rows))
        assert s.n_channels == 28
        assert s.n_snapshots == 241
        assert s.dt == 60.0
        assert s.channel_ids == tuple(ids)

    def test_minimum_size(self, tmp_path):
        s = load_snapshots(
            write_csv(tmp_path / "a.csv", "time,c", ["0,1", "1,1", "2,1"])
        )
        assert s.n_channels == 1
        assert s.n_snapshots == 3
        assert np.array_equal(s.values, [[1.0, 1.0, 1.0]])

    def test_nonuniform_names_row(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", "60,2", "121,3"])
        with pytest.raises(UniformityError, match="row 3") as err:
            load_snapshots(path)
        assert err.value.row == 3

    def test_decreasing_time(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", "-60,2", "-120,3"])
        with pytest.raises(UniformityError):
            load_snapshots(path)

    def test_missing_cell(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c,d", ["0,1,2", "1,,2", "2,1,2"])
        with pytest.raises(ParseError, match="row 2"):
            load_snapshots(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", "1,oops", "2,1"])
        with pytest.raises(ParseError, match="oops"):
            load_snapshots(path)

    def test_too_short(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", "1,1"])
        with pytest.raises(TooShortError):
            load_snapshots(path)

    def test_dt_override(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", "1,2", "2,3"])
        assert load_snapshots(path, dt_override=60).dt == 60.0

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "stamp,c", ["0,1", "1,2", "2,3"])
        with pytest.raises(ParseError):
            load_snapshots(path)

    def test_duplicate_channel(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c,c", ["0,1,1", "1,2,2", "2,3,3"])
        with pytest.raises(DuplicateError):
            load_snapshots(path)


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


class TestCellParsing:
    """``load_snapshots`` parses a row at once and matches the per-cell loop on every cell."""

    @pytest.mark.parametrize("cell", [
        " 1.5 ", "1_0", "nan", "-inf", "\u0661\u0662", "\uff11.\uff15", "\u2003-0.0\u00a0",
        "+.5e-3", "1e400", "Infinity", "", "  ", "\u00a0", "oops", "1 2", "0x10", "1__0",
    ])
    def test_matches_loop(self, cell, tmp_path):
        path = tmp_path / "a.csv"
        rec = ["60", "1", cell, "2"]
        path.write_text(f"time,a,b,c\n0,1,1,1\n{','.join(rec)}\n120,1,1,1\n", encoding="utf-8")
        try:
            want = _row_values_loop(path, rec, 2)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_snapshots(path)
            assert str(err.value) == str(exc)
            assert str(exc).endswith("at data row 2, column 3")
            return
        if not np.all(np.isfinite(want)):
            with pytest.raises(ParseError, match="NaN or Inf"):
                load_snapshots(path)
            return
        got = load_snapshots(path).values[:, 1]
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestRoundTrip:
    def test_simple(self, tmp_path):
        s = SnapshotMatrix(
            np.array([[1.5, -2.25, 1e-17], [0.1, 0.2, 0.3]]),
            dt=0.3,
            t0=0.1,
            channel_ids=("a", "b"),
        )
        write_snapshots(s, tmp_path / "s.csv")
        back = load_snapshots(tmp_path / "s.csv")
        assert np.array_equal(back.values, s.values)
        assert back.dt == s.dt
        assert back.t0 == s.t0
        assert back.channel_ids == s.channel_ids

    def test_large_epoch_with_fractional_dt(self, tmp_path):
        # the exact decimal expansion of t0 + k*dt is long here; dt must
        # still come back bit-exact
        s = SnapshotMatrix(np.ones((1, 4)), dt=0.1, t0=1.0e12 + 0.3, channel_ids=("c",))
        write_snapshots(s, tmp_path / "s.csv")
        back = load_snapshots(tmp_path / "s.csv")
        assert back.dt == s.dt and back.t0 == s.t0

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        dt=st.floats(min_value=1e-9, max_value=1e9, allow_nan=False),
        t0=st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    )
    def test_any_valid_matrix(self, tmp_path_factory, values, dt, t0):
        tmp = tmp_path_factory.mktemp("rt")
        ids = tuple(f"ch{i}" for i in range(len(values)))
        s = SnapshotMatrix(np.array(values), dt=dt, t0=t0, channel_ids=ids)
        write_snapshots(s, tmp / "s.csv")
        back = load_snapshots(tmp / "s.csv")
        assert np.array_equal(back.values, s.values)
        assert back.dt == s.dt and back.t0 == s.t0 and back.channel_ids == ids


class TestLayout:
    def test_basic_2d(self, tmp_path):
        path = write_csv(tmp_path / "l.csv", "id,x,y", ["a,0,0", "b,1,0", "c,0,1"])
        layout = load_layout(path)
        assert layout.d == 2
        assert layout.n_sensors == 3
        assert layout.grid is None

    def test_single_sensor(self, tmp_path):
        layout = load_layout(write_csv(tmp_path / "l.csv", "id,x,y", ["a,0,0"]))
        assert layout.d == 2 and layout.grid is None

    def test_duplicate_id(self, tmp_path):
        path = write_csv(tmp_path / "l.csv", "id,x,y", ["TH-1,0,0", "TH-1,1,0"])
        with pytest.raises(DuplicateError):
            load_layout(path)

    def test_coincident_positions(self, tmp_path):
        path = write_csv(tmp_path / "l.csv", "id,x,y", ["a,1,2", "b,1,2"])
        with pytest.raises(GeometryError):
            load_layout(path)

    def test_grid_declaration(self, tmp_path):
        rows = [f"s{r}{c},{c * 0.5},{r * 0.25}" for r in range(3) for c in range(4)]
        path = tmp_path / "l.csv"
        path.write_text(
            "# grid rows=3 cols=4 dx=0.5 dy=0.25\nid,x,y\n" + "\n".join(rows) + "\n"
        )
        layout = load_layout(path)
        assert layout.grid == GridSpec(3, 4, 0.5, 0.25)
        idx = layout.grid_indices()
        assert idx.shape == (12, 2)

    def test_grid_mismatch(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(
            "# grid rows=1 cols=3 dx=0.5 dy=1.0\nid,x,y\na,0,0\nb,0.5,0\nc,1.01,0\n"
        )
        with pytest.raises(GeometryError):
            load_layout(path)

    def test_3d(self, tmp_path):
        path = write_csv(tmp_path / "l.csv", "id,x,y,z", ["a,0,0,0", "b,1,0,2"])
        assert load_layout(path).d == 3

    def test_round_trip(self, tmp_path):
        layout = SensorLayout(
            ("a", "b", "c", "d"),
            np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.25], [0.5, 0.25]]),
            GridSpec(2, 2, 0.5, 0.25),
        )
        write_layout(layout, tmp_path / "l.csv")
        back = load_layout(tmp_path / "l.csv")
        assert back.channel_ids == layout.channel_ids
        assert np.array_equal(back.positions, layout.positions)
        assert back.grid == layout.grid

    def test_positions_for_reorders(self):
        layout = SensorLayout(("a", "b"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(layout.positions_for(["b", "a"]), [[1, 0], [0, 0]])
        with pytest.raises(GeometryError):
            layout.positions_for(["a", "zz"])


class TestRemoveMean:
    def test_constant_channel(self):
        s = SnapshotMatrix(np.full((1, 10), 25.0), 1.0, 0.0, ("c",))
        assert np.all(remove_mean(s).values == 0.0)

    def test_three_values(self):
        s = SnapshotMatrix(np.array([[1.0, 2.0, 3.0]]), 1.0, 0.0, ("c",))
        assert np.allclose(remove_mean(s).values, [[-1.0, 0.0, 1.0]], atol=1e-15)

    def test_full_cycle_cosine_unchanged(self):
        # analytic mean of a cosine over whole periods is zero
        k = np.arange(224)  # 16 periods of 14
        vals = np.cos(2 * np.pi * k / 14)[None, :] * np.array([[2.0]])
        s = SnapshotMatrix(vals, 60.0, 0.0, ("c",))
        assert np.max(np.abs(remove_mean(s).values - vals)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        s = SnapshotMatrix(rng.normal(10, 5, (4, 50)), 1.0, 0.0, tuple("abcd"))
        once = remove_mean(s)
        twice = remove_mean(once)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12 * max(
            1.0, np.max(np.abs(once.values))
        )

    def test_commutes_with_permutation(self):
        rng = np.random.default_rng(4)
        s = SnapshotMatrix(rng.normal(0, 2, (5, 20)), 1.0, 0.0, tuple("abcde"))
        perm = [3, 0, 4, 1, 2]
        permuted = SnapshotMatrix(
            s.values[perm], s.dt, s.t0, tuple(s.channel_ids[i] for i in perm)
        )
        assert np.array_equal(remove_mean(permuted).values, remove_mean(s).values[perm])


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ParseError):
            SnapshotMatrix(np.array([[1.0, np.nan, 2.0]]), 1.0, 0.0, ("c",))

    def test_rejects_bad_dt(self):
        with pytest.raises(ParseError):
            SnapshotMatrix(np.ones((1, 3)), 0.0, 0.0, ("c",))

    def test_values_read_only(self):
        s = SnapshotMatrix(np.ones((1, 3)), 1.0, 0.0, ("c",))
        with pytest.raises(ValueError):
            s.values[0, 0] = 2.0

    def test_grid_needs_2d(self):
        with pytest.raises(GeometryError):
            SensorLayout(
                ("a", "b"),
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                GridSpec(1, 2, 1.0, 1.0),
            )
