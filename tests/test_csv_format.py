"""The CSV format: every writer and loader pair gives back any channel id."""

import csv
import io
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermokmd.errors import ParseError
from thermokmd.gradient import load_sources_csv
from thermokmd.phaseavg import PhaseAverageResult, load_result_csv, result_to_csv
from thermokmd.synth import (
    AirConditioner,
    default_analytic_spec,
    default_room_spec,
    generate_analytic,
    simulate_room,
    write_sources_csv,
)
from thermokmd.timeseries import (
    _MIN_BLOCK_CELLS,
    _QUADS,
    SensorLayout,
    SnapshotMatrix,
    _shortest_digits,
    csv_text,
    load_layout,
    load_snapshots,
    read_records,
    repr_rows,
    write_layout,
    write_snapshots,
)

#: a comma, a quote, a backslash with a non-ASCII letter, and the SVG escapes
QUOTED_IDS = ("a,b", 'q"x', "Sü\\1", "h&<>")

#: ids that read back as themselves: the loaders strip the cells of a layout,
#: a snapshot header and a sources file, so no leading or trailing whitespace
ids_strategy = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
    .filter(lambda t: t == t.strip()),
    min_size=1, max_size=5, unique=True,
)


def round_trip(kind, ids, path):
    """Write ``ids`` with the ``kind`` writer and return the ids its loader reads."""
    m = len(ids)
    values = np.arange(3.0 * m).reshape(m, 3) / 7.0
    if kind == "layout":
        layout = SensorLayout(tuple(ids), np.column_stack([np.arange(m) / 3.0, np.ones(m)]))
        write_layout(layout, path)
        back = load_layout(path)
        assert np.array_equal(back.positions, layout.positions)
        return list(back.channel_ids)
    if kind == "snapshots":
        write_snapshots(SnapshotMatrix(values, 60.0, 0.0, tuple(ids)), path)
        back = load_snapshots(path)
        assert np.array_equal(back.values, values)
        return list(back.channel_ids)
    if kind == "sources":
        acs = [AirConditioner(cid, (i / 3.0, 0.1), "cool", 0.1, 20.0, 19.0)
               for i, cid in enumerate(ids)]
        write_sources_csv(acs, path)
        back = load_sources_csv(path)
        assert [s.position for s in back] == [ac.position for ac in acs]
        return [s.name for s in back]
    res = PhaseAverageResult(period_samples=3, cycles_used=2, sum_real=values[:, 0],
                             harmonic=values[:, 1] - 1j * values[:, 2], dt=60.0,
                             channel_ids=tuple(ids))
    path.write_text(result_to_csv(res), encoding="utf-8", newline="")
    back_ids, sums, harmonics = load_result_csv(path)
    assert np.array_equal(sums, res.sum_real) and np.array_equal(harmonics, res.harmonic)
    return back_ids


KINDS = ["layout", "snapshots", "sources", "phase_average"]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_quoted_ids(self, kind, tmp_path):
        ids = [*QUOTED_IDS, "plain"]
        assert round_trip(kind, ids, tmp_path / "f.csv") == ids

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60, deadline=None)
    @given(ids=ids_strategy)
    def test_any_ids(self, kind, ids, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "f.csv"
        assert round_trip(kind, ids, path) == ids


#: ids that csv writes bare, quoted or with a doubled quote: empty, a quote, a
#: comma, CR, LF, CRLF, non-ASCII text and a leading space
BLOCK_IDS = ("", 'q"x', "a,b", "c\rd", "e\nf", "g\r\nh", "Sü", " lead", "plain")

#: NaN, the infinities, signed zeros, subnormals, the points where repr turns to
#: exponent form, and short decimals and a tie that repr_rows leaves to repr
BLOCK_FLOATS = (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -1e-310,
                1e16, -1e16, 1e-5, 0.1, -1234.5678901234, 0.5, 0.30000000000000004)


class TestCsvText:
    def test_line_endings(self):
        rows = [["id", "v"], ["a", 0.1 + 0.2], ["b", -0.0]]
        assert csv_text(rows, "\r\n") == "id,v\r\na,0.30000000000000004\r\nb,-0.0\r\n"
        assert csv_text(rows, "\n") == "id,v\na,0.30000000000000004\nb,-0.0\n"
        assert csv_text([], "\n") == ""

    @pytest.mark.parametrize("cell", ["a\rb", "a\nb", "a\r\nb", 'a"b', "a,b"])
    def test_lf_text_quotes_line_breaks(self, cell):
        # a CR in an LF file must be quoted as well, or a reader ends the row there
        text = csv_text([[cell, 1.5]], "\n")
        assert text.startswith('"') and text.endswith(",1.5\n")

    @pytest.mark.parametrize("lineterminator", ["\r\n", "\n"])
    @pytest.mark.parametrize("n, k", [(0, 3), (1, 3), (1024, 3), (1024, 0),
                                      (1, _MIN_BLOCK_CELLS - 1), (1, _MIN_BLOCK_CELLS)])
    def test_float_block_matches_csv(self, lineterminator, n, k):
        # the rows with the block's values in place as Python floats, written by
        # csv.writer; an id stands first, or right before or after the block.
        # A block below _MIN_BLOCK_CELLS values is csv's, at it repr_rows'
        rng = np.random.default_rng(20240 + n + k)
        edges = np.array(BLOCK_FLOATS)[rng.integers(0, len(BLOCK_FLOATS), (n, k))]
        full = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-8, 18, (n, k))
        block = np.where(rng.random((n, k)) < 0.5, edges, full)
        ids = [BLOCK_IDS[i % len(BLOCK_IDS)] for i in range(n)]
        for before in (lambda i, cid: [cid], lambda i, cid: [i / 3, cid]):
            for after in (lambda cid: [], lambda cid: [cid], lambda cid: [cid, "true"]):
                header = [["id", "x", "v"]]
                rows = header + [[*before(i, cid), ..., *after(cid)] for i, cid in enumerate(ids)]
                floats = header + [[*before(i, cid), *values, *after(cid)]
                                   for i, (cid, values) in enumerate(zip(ids, block.tolist()))]
                # compared line by line, which is the same test and reports a
                # mismatch without a diff of the whole text
                lines = csv_text(rows, lineterminator, block).split(lineterminator)
                assert lines == csv_text(floats, lineterminator).split(lineterminator)
                if lineterminator == "\r\n":
                    buf = io.StringIO()
                    csv.writer(buf).writerows(floats)
                    assert lines == buf.getvalue().split(lineterminator)


def write_snapshots_csv_text(s, path):
    """The reference snapshot writer: the header and every data row through ``csv_text``."""
    t0, dt = Fraction(s.t0), Fraction(s.dt)
    with localcontext() as ctx:
        ctx.prec = 1600
        times = [str(Decimal(t.numerator) / Decimal(t.denominator))
                 for t in (t0 + k * dt for k in range(s.n_snapshots))]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text([["time", *s.channel_ids]], "\r\n"))
        fh.writelines(csv_text([[t, *s.values[:, k].tolist()]], "\r\n")
                      for k, t in enumerate(times))


#: a signed zero, the least subnormal, the two points where repr turns to
#: exponent form, and the largest doubles; then the edges of the window in which
#: repr_rows formats in numpy (1e-4 <= |x| < 1e14: 1e-4 and the double below
#: it, 1e14 and its two neighbours), a power-of-two mantissa (0.5, 2**-20), and
#: values whose shortest form has 1 and 14 digits (0.1, 1234.5678901234)
EDGE_FLOATS = (-0.0, 5e-324, 1e16, 1e-5, 1.7976931348623157e308, -1.7976931348623157e308,
               1e-4, 9.999999999999999e-05, 1e14, 99999999999999.98, 100000000000000.02,
               0.5, 2.0**-20, 0.1, 1234.5678901234)


@st.composite
def snapshot_records(draw):
    ids = draw(st.just([*QUOTED_IDS, "plain"]) | ids_strategy)
    n = draw(st.integers(3, 6))
    cells = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                    min_size=len(ids), max_size=len(ids))))
    dt = draw(st.sampled_from([60.0, 0.1]) | st.floats(1e-9, 1e9))
    t0 = draw(st.sampled_from([0.0, 1.0e12 + 0.3]) | st.floats(-1e15, 1e15))
    return SnapshotMatrix(values, dt, t0, tuple(ids))


class TestSnapshotWriter:
    """``write_snapshots`` writes float blocks; the bytes are those of ``csv_text`` row by row."""

    @settings(max_examples=60, deadline=None)
    @given(s=snapshot_records())
    def test_matches_csv_text(self, s, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("w")
        write_snapshots(s, tmp / "new.csv")
        write_snapshots_csv_text(s, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
        assert load_snapshots(tmp / "new.csv").values.tobytes() == s.values.tobytes()

    def test_wide_record(self, tmp_path):
        # the hypothesis records hold too few values for repr_rows' block; this
        # one is written in a block of 20 rows x 200 channels, which takes it,
        # and a last block of one row, which does not
        rng = np.random.default_rng(7)
        ids = tuple(f"{QUOTED_IDS[i % len(QUOTED_IDS)]}{i}" for i in range(200))
        values = rng.choice(np.array(EDGE_FLOATS), (200, 21))
        values[:, 1::2] = rng.normal(size=(200, 10)) * 10.0 ** rng.uniform(-8, 18, (200, 10))
        s = SnapshotMatrix(values, 0.1, 1.0e12 + 0.3, ids)
        write_snapshots(s, tmp_path / "new.csv")
        write_snapshots_csv_text(s, tmp_path / "old.csv")
        new, old = ((tmp_path / name).read_bytes().split(b"\r\n")
                    for name in ("new.csv", "old.csv"))
        assert new == old
        assert load_snapshots(tmp_path / "new.csv").values.tobytes() == values.tobytes()

    def test_no_channels(self, tmp_path):
        # a record with no channel has rows of one cell, written without a comma
        s = SnapshotMatrix(np.empty((0, 3)), 60.0, 0.0, ())
        write_snapshots(s, tmp_path / "new.csv")
        write_snapshots_csv_text(s, tmp_path / "old.csv")
        assert ((tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
                == b"time\r\n0\r\n60\r\n120\r\n")


def cell_texts(values) -> list[str]:
    """``repr_rows``' text for each value of a 1-D array, each from a row of its own."""
    rows, _ = repr_rows(np.asarray(values, dtype=float)[:, None])
    return [row[1:] for row in rows]


def seeded_floats() -> np.ndarray:
    """About 10^5 doubles of both signs that draw every branch of repr_rows.

    Random mantissas over the decades 1e-12 to 1e20, each power of ten in that
    range with its two neighbours, the window edges 1e-4 and 1e14 likewise,
    powers of two, integers, values of 2 and 3 decimals, the signed zeros,
    the least subnormal and the largest doubles.
    """
    rng = np.random.default_rng(20180618)
    tens = np.array([float(f"1e{n}") for n in range(-12, 21)])
    parts = [
        10.0 ** rng.uniform(-12, 20, 30_000),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.nextafter([1e-4, 1e14], 0.0), np.nextafter([1e-4, 1e14], np.inf),
        2.0 ** np.arange(-60, 70),
        np.arange(1000.0), rng.integers(0, 10**16, 10_000).astype(float),
        np.round(rng.uniform(0, 1e4, 10_000), 2), np.round(rng.uniform(0, 1e3, 10_000), 3),
        np.round(rng.uniform(0, 1, 5_000), 3),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    ]
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


class TestReprRows:
    """``repr_rows`` gives the text of ``repr``, value by value, and takes its own path for most."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_any_float(self, x):
        assert cell_texts([x]) == [repr(x)]

    def test_seeded_floats(self):
        x = seeded_floats()
        assert x.size > 10**5
        texts, expected = cell_texts(x), [repr(v) for v in x.tolist()]
        wrong = [(v, a, b) for v, a, b in zip(x.tolist(), texts, expected) if a != b]
        assert not wrong, wrong[:10]

    def test_rows(self):
        x = seeded_floats()[:30_000].reshape(300, 100)
        rows, _ = repr_rows(x)
        assert rows == ["".join("," + repr(v) for v in row) for row in x.tolist()]
        assert repr_rows(np.empty((3, 0))) == (["", "", ""], 0)
        assert repr_rows(np.empty((0, 4))) == ([], 0)

    def test_non_finite(self):
        assert cell_texts([np.nan, np.inf, -np.inf]) == ["nan", "inf", "-inf"]

    def test_quads_table(self):
        assert _QUADS.dtype == np.uint32
        assert _QUADS.tobytes() == "".join(f"{i:04d}" for i in range(10000)).encode("ascii")

    @staticmethod
    def certified_block(x, cols):
        """The values of ``x`` that ``repr_rows`` formats in numpy, in rows of ``cols``.

        Also returns the ``point`` of each, as :func:`_shortest_digits` gives it.
        """
        x = x[_shortest_digits(x)[3]]
        x = x[:len(x) // cols * cols]
        return x.reshape(-1, cols), _shortest_digits(x)[2]

    @staticmethod
    def assert_block_matches_repr(x):
        """One ``repr_rows`` call on ``x`` gives repr's text, every value through numpy."""
        rows, certified = repr_rows(x)
        assert rows == ["".join("," + repr(v) for v in row) for row in x.tolist()]
        assert certified == x.size

    def test_every_point_position_in_one_block(self):
        # each number of digits before the point, 1 to 14, of both signs, in
        # one block with values below 1: the layout shifts each group apart
        rng = np.random.default_rng(33)
        whole = rng.uniform(1.0, 10.0, (14, 8)) * 10.0 ** np.arange(14)[:, None]
        small = rng.uniform(1.0, 10.0, (4, 8)) * 10.0 ** np.arange(-4, 0)[:, None]
        x = np.concatenate([whole, small]) * np.tile([1.0, -1.0], 4)
        x, point = self.certified_block(rng.permutation(x.ravel()), 12)
        assert set(zip(point.tolist(), np.signbit(x).ravel().tolist())) == {
            (n, neg) for n in range(-3, 15) for neg in (False, True)}
        self.assert_block_matches_repr(x)

    def test_no_value_reaches_one(self):
        # no value has a digit before its point, so none is shifted for it
        rng = np.random.default_rng(34)
        x = rng.uniform(1.0, 10.0, 600) * 10.0 ** rng.integers(-4, 0, 600)
        x, point = self.certified_block(np.where(rng.random(x.size) < 0.5, -x, x), 29)
        assert np.all(point <= 0) and x.size >= 500
        self.assert_block_matches_repr(x)

    @pytest.mark.parametrize("record", ["room-default", "two-tone-1024"])
    def test_most_cells_take_the_numpy_path(self, record):
        # a formatter that left every cell to repr would write the same bytes,
        # only slower; the share pins that the numpy path is taken
        if record == "room-default":
            s, _ = simulate_room(default_room_spec())
        else:
            rng = np.random.default_rng(3)
            layout = SensorLayout(tuple(f"S-{i:04d}" for i in range(1024)),
                                  rng.uniform((0.0, 0.0), (14.0, 7.0), size=(1024, 2)))
            s, _ = generate_analytic(replace(default_analytic_spec(layout), noise_std=0.05))
            assert s.values.shape == (1024, 241)
        rows, certified = repr_rows(s.values.T)
        assert rows == ["".join("," + repr(v) for v in row) for row in s.values.T.tolist()]
        assert certified / s.values.size >= 0.99


class TestReadRecords:
    def test_records(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text('b,a,c\n1.5,"x,y",u\n\n-2, z ,v\n', encoding="utf-8")
        assert read_records(path, ("a",), ("b",)) == [{"b": 1.5, "a": "x,y", "c": "u"},
                                                      {"b": -2.0, "a": " z ", "c": "v"}]

    @pytest.mark.parametrize("text, message", [
        ("", "expected columns a,b"),
        ("a,c\n1,2\n", "expected columns a,b"),
        ("a,b\n1,2\n3\n", "data row 2 has 1 cells, expected 2"),
        ("a,b\n1,2,3\n", "data row 1 has 3 cells, expected 2"),
        ("a,b\nx,1\ny,nan\n", "non-finite b at data row 2"),
        ("a,b\nx,-1e400\n", "non-finite b at data row 1"),
    ])
    def test_rejects(self, text, message, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            read_records(path, ("a",), ("b",))
        assert str(err.value).startswith(f"{path}: ")

    def test_rejects_non_number(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\nx,1\ny,zz\n", encoding="utf-8")
        with pytest.raises(ParseError, match="data row 2 b: expected a number, got 'zz'"):
            read_records(path, ("a",), ("b",))
