import csv
import math
import re
import time
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from thermokmd.errors import (
    DuplicateError,
    GeometryError,
    LayoutError,
    ParseError,
    TooShortError,
    UniformityError,
)
from thermokmd.gradient import load_sources_csv
from thermokmd.phaseavg import PhaseAverageResult, load_result_csv, result_to_csv
from thermokmd.synth import (
    ANALYTIC_CONFIG,
    ROOM_CONFIG,
    AirConditioner,
    AnalyticSpec,
    RoomSimSpec,
    default_layout,
    load_analytic_config,
    load_room_config,
    write_sources_csv,
)
from thermokmd.timeseries import (
    UNIFORMITY_RTOL,
    GridSpec,
    SensorLayout,
    SnapshotMatrix,
    load_layout,
    load_snapshots,
    median,
    remove_mean,
    write_layout,
    write_snapshots,
)
from thermokmd.timeseries import _cell_value, _csv_rows, _parse_time, _seconds, utf8_errors


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
        with pytest.raises(DuplicateError) as err:
            load_snapshots(path)
        assert str(err.value) == f"{path}: channel ids are not unique"

    @pytest.mark.parametrize("cell", ["nan", "1e999"])
    def test_non_finite_value_names_file(self, cell, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", f"1,{cell}", "2,1"])
        with pytest.raises(ParseError) as err:
            load_snapshots(path)
        assert str(err.value) == f"{path}: snapshot values contain NaN or Inf"

    @pytest.mark.parametrize("times, row", [
        (["1e400", "2e400", "3e400"], 1),
        (["0", "0.5e400", "120"], 2),
        (["1e-400", "60", "120"], 1),  # a nonzero time that a double rounds to 0
        (["0", "60", "-2e-400"], 3),
    ], ids=["uniform", "non-uniform", "first-rounds-to-0", "third-rounds-to-0"])
    def test_time_out_of_double_range(self, times, row, tmp_path):
        path = write_csv(tmp_path / "a.csv", "time,c", [f"{t},1" for t in times])
        with pytest.raises(ParseError) as err:
            load_snapshots(path)
        assert str(err.value) == (f"{path}: timestamp {times[row - 1]!r} at data row {row} "
                                  "is out of the range of a double")

    def test_spacing_out_of_double_range(self, tmp_path):
        # each time is a double, but the spacing of row 3 is not
        big = "1.7976931348623157e308"
        path = write_csv(tmp_path / "a.csv", "time,c", ["0,1", f"{big},1", f"-{big},1"])
        with pytest.raises(UniformityError) as err:
            load_snapshots(path)
        assert str(err.value) == (f"{path}: non-uniform timestamp at data row 3: spacing "
                                  "-3.59539e+308 s differs from 1.79769e+308 s")

    def test_period_out_of_double_range(self, tmp_path):
        # uniform to one part in 10**6 with every time a double, but dt is past the largest
        big = Fraction(Decimal("1.7976931348623157e308"))
        step = big * (1 + Fraction(4, 10**7))
        times = [-big, step - big, step * (2 - Fraction(8, 10**7)) - big]
        with localcontext() as ctx:
            ctx.prec = 400
            rows = [f"{Decimal(t.numerator) / Decimal(t.denominator)},1" for t in times]
        path = write_csv(tmp_path / "a.csv", "time,c", rows)
        with pytest.raises(ParseError) as err:
            load_snapshots(path)
        assert str(err.value) == (f"{path}: sampling period 1.79769e+308 s "
                                  "is out of the range of a double")
        assert load_snapshots(path, dt_override=60).t0 == -float(big)


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


def _decimal_text(x: Fraction) -> str:
    """The exact decimal expansion of a Fraction whose denominator is 2**a * 5**b."""
    with localcontext() as ctx:
        ctx.prec = 4000
        ctx.traps[Inexact] = True
        return str(Decimal(x.numerator) / Decimal(x.denominator))


#: sampling periods, as exact Fractions: the doubles whose exact expansions
#: are long (0.1, 1e-7, 1e300), the extremes, and any positive double
periods = st.builds(
    Fraction,
    st.sampled_from([0.1, 1e-7, 1e300, 60.0, 5e-324, 1.7976931348623157e308])
    | st.floats(min_value=5e-324, allow_infinity=False))


@st.composite
def time_columns(draw):
    """Time cells of 3 to 5 rows: a grid t0 + k*dt written as write_snapshots
    writes it, with one spacing moved to exactly dt * (1 +- 10**-6), or one
    decimal or binary ulp past that, or with a second time not above the first;
    or cells that are out of range, not numbers, signed zeros and the like."""
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        cells = [
            "0", "-0", "60", "120", "-60", " 60 ", "60.000000", "1e400", "-1e400", "1e-400",
            "0e-999999999999999999", "0E+999999999999999999", "1e-999999999999999999",
            "nan", "inf", "abc", "", "1.7976931348623157e308", "-1.7976931348623157e308",
            "2.4703282292062328e-324", "2.4703282292062327e-324", "5e-324",
        ]
        return draw(st.lists(st.sampled_from(cells) | st.from_regex(
            r"-?\d{1,4}(\.\d{0,4})?([eE][-+]?\d{1,3})?", fullmatch=True),
            min_size=n, max_size=n))
    t0 = Fraction(draw(st.floats(allow_nan=False, allow_infinity=False)))
    dt = draw(periods)
    times = [t0 + k * dt for k in range(n)]
    r = draw(st.integers(2, n - 1))
    edit = draw(st.sampled_from(["none", "boundary", "decimal-ulp", "binary-ulp", "no-step"]))
    if edit == "no-step":
        times[1] = times[0] - draw(st.sampled_from([0, 1, -1])) * abs(dt)
    elif edit != "none":
        edge = times[r - 1] + dt * (1 + draw(st.sampled_from([-1, 1])) * Fraction(1, 10**6))
        times[r] = edge
        if edit == "decimal-ulp":
            exponent = Decimal(_decimal_text(edge)).as_tuple().exponent
            times[r] += draw(st.sampled_from([-1, 1])) * Fraction(10) ** exponent
        elif edit == "binary-ulp" and abs(edge) <= Fraction(1.7976931348623157e308):
            near = math.nextafter(float(edge), draw(st.sampled_from([-1, 1])) * math.inf)
            if math.isfinite(near):
                times[r] = Fraction(near)
    return [_decimal_text(t) for t in times]


class TestTimestampArithmetic:
    """``load_snapshots`` decides on timestamps as the exact Fraction oracle does."""

    @settings(max_examples=100, deadline=None)
    @given(cells=time_columns())
    @example(cells=["-60", "0", "-0"])  # an exact zero spacing of -0 - 0
    # a spacing past a double with 31 digits: 28-digit rounding makes 6 digits a tie
    @example(cells=["-1.7e308", "-1.6e308", "1.400005000000000000000000000001e308"])
    def test_matches_fraction_oracle(self, cells, tmp_path_factory):
        path = tmp_path_factory.mktemp("ts") / "t.csv"
        path.write_text("time,c\n" + "".join(f"{c},1\n" for c in cells), encoding="utf-8")
        try:
            want = _load_times_fraction(path, cells)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_snapshots(path)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            assert getattr(err.value, "row", None) == getattr(exc, "row", None)
            return
        got = load_snapshots(path)
        assert np.float64(got.dt).tobytes() == np.float64(want.dt).tobytes()
        assert np.float64(got.t0).tobytes() == np.float64(want.t0).tobytes()

    @pytest.mark.parametrize("cells", [
        ["0", "60." + "0" * 99997 + "1", "120"],  # 100 000 digits
        ["0", "60", "120." + "0" * 99996 + "1", "180"],
        ["0", "60", "120." + "0" * 99 + "1" + "0" * 99896 + "1"],
        ["1e-999999999999999999", "60", "120"],
        ["0e-999999999999999999", "60", "120"],
        ["0", "60", "1" + "0" * 99999],
    ], ids=["long-step", "long-uniform", "long-non-uniform", "tiny-exponent",
            "zero-tiny-exponent", "long-overflow"])
    def test_pathological_cells_are_quick(self, cells, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,c\n" + "".join(f"{c},1\n" for c in cells), encoding="utf-8")
        start = time.perf_counter()
        try:
            load_snapshots(path)
        except ParseError as exc:
            assert str(exc).startswith(f"{path}: ")
        assert time.perf_counter() - start < 1.0


class TestMedian:
    """``median`` is ``np.median`` to the bit, without loading ``numpy.ma``."""

    @settings(max_examples=80, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 64), elements=st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308,
         -1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan])
        | st.floats(width=64)))
    def test_matches_np_median(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, as in np.median
            want = np.median(x)
            got = median(x)
        assert np.float64(got).tobytes() == want.tobytes()


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
        "1.5\x1f", "\x1c2", "\x1e",
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


def _times_fraction(t0, dt, n):
    """The reference time cells: each t0 + k*dt as an exact Fraction, printed as a decimal
    quotient (the whole of ``write_snapshots``'s timestamp rule before it used Decimal sums)."""
    with localcontext() as ctx:
        ctx.prec = 1600
        return [str(Decimal(t.numerator) / Decimal(t.denominator))
                for t in (Fraction(t0) + k * Fraction(dt) for k in range(n))]


#: timestamps and periods: signed zeros, subnormals, the extremes, the doubles
#: with long exact expansions, and any double
edge_doubles = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1e-7,
                                1e300, 1.7976931348623157e308, -1.7976931348623157e308, 0.5])


class TestWrittenTimes:
    """``write_snapshots`` prints each timestamp as the exact Fraction writer did, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(t0=edge_doubles | st.floats(allow_nan=False, allow_infinity=False),
           dt=st.sampled_from([0.1, 1e-7, 1e300, 5e-324, 1.7976931348623157e308, 2.5])
           | st.floats(min_value=5e-324, allow_infinity=False),
           n=st.integers(3, 6))
    @example(t0=-0.0, dt=0.1, n=3)
    @example(t0=5.0, dt=2.5, n=4)  # 10, which normalize() would print 1E+1
    @example(t0=0.5, dt=0.5, n=3)  # 1 from two halves, not 1.0
    @example(t0=-60.0, dt=60.0, n=3)  # an exact zero from a sum
    @example(t0=1.7976931348623157e308, dt=5e-324, n=3)  # 1383 digits
    @example(t0=0.0, dt=1e-7, n=3)  # E notation below 1e-6
    def test_matches_fraction_writer(self, t0, dt, n, tmp_path_factory):
        path = tmp_path_factory.mktemp("wt") / "s.csv"
        write_snapshots(SnapshotMatrix(np.ones((1, n)), dt, t0, ("c",)), path)
        want = "time,c\r\n" + "".join(f"{t},1.0\r\n" for t in _times_fraction(t0, dt, n))
        assert path.read_bytes() == want.encode()


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


#: one cell of a mutated snapshot file: any text, numbers in any notation, and
#: the cells that overflow, underflow or are not finite
mutant_cells = (
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    | st.from_regex(r"[-+]?\d{1,3}(\.\d{0,3})?([eE][-+]?\d{1,4})?", fullmatch=True)
    | st.sampled_from(["1e400", "-1e400", "1e-400", "nan", "-inf", "1e999", '"', "a,b"])
)


def mutate_text(data, text):
    """``text`` with one cell replaced, or one character deleted or inserted.

    A cell is what lies between commas, spaces, '=' and line ends, so each
    value of a ``# grid`` line is a cell too.
    """
    kind = data.draw(st.sampled_from(["cell", "delete", "insert"]))
    if kind == "cell":
        lines = re.split(r"(\r?\n)", text)  # the line ends stay, at the odd indices
        i = 2 * data.draw(st.integers(0, len(lines) // 2 - 1))
        cells = re.split(r"([,= ])", lines[i])
        cells[2 * data.draw(st.integers(0, len(cells) // 2))] = data.draw(mutant_cells)
        lines[i] = "".join(cells)
        return "".join(lines)
    if kind == "delete":
        at = data.draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:]
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\r\n.eE-+0'))
    return text[:at] + char + text[at:]


class TestMutatedFile:
    """A written snapshot file with one cell replaced, or one character deleted or
    inserted, loads or raises the ParseError family naming the file on one line."""

    RECORD = SnapshotMatrix(np.array([[20.5, -0.0, 1e-5, 3.25], [1e16, 2.0, 5e-324, -7.5]]),
                            dt=60.0, t0=0.0, channel_ids=("a", "b,c"))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_or_parse_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("fz") / "s.csv"
        write_snapshots(self.RECORD, path)
        text = path.read_bytes().decode("utf-8")  # keeps the CRLF line ends
        path.write_text(mutate_text(data, text), encoding="utf-8", newline="")
        try:
            load_snapshots(path)
        except ParseError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            assert "\n" not in message and "\r" not in message


class TestMutatedLayout:
    """A written layout file with a ``# grid`` line, mutated as in TestMutatedFile, loads
    or raises the ParseError family naming the file on one line."""

    LAYOUT = SensorLayout(("a", "b,c", "d", "e", "f", "g"),
                          np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                                    [0.0, 0.25], [0.5, 0.25], [1.0, 0.25]]),
                          GridSpec(2, 3, 0.5, 0.25))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=("rows=2", "rows=" + "1" * 5000))  # past int()'s digit limit
    def test_loads_or_parse_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("lz") / "l.csv"
        write_layout(self.LAYOUT, path)
        text = path.read_bytes().decode("utf-8")
        text = text.replace(*data) if isinstance(data, tuple) else mutate_text(data, text)
        path.write_text(text, encoding="utf-8", newline="")
        try:
            assert isinstance(load_layout(path), SensorLayout)
        except ParseError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            assert "\n" not in message and "\r" not in message


def _assert_one_line_naming(exc, path):
    """A ParseError-family message names the file first (``<path>:`` or, from
    parse_number, ``<path> data row ...``) and fits on one line."""
    message = str(exc)
    assert message.startswith(str(path))
    assert "\n" not in message and "\r" not in message


class TestMutatedSources:
    """A written flux-sources file, mutated as in TestMutatedFile, loads to finite
    positions or raises the ParseError family naming the file on one line."""

    ACS = (AirConditioner("AC-1", (1.75, 2.9), "cool", 3.0, 35.0, 30.0),
           AirConditioner("b,c", (12.25, -0.0), "heat", 1.5, 18.0, 21.0))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=("2.9", "nan"))
    @example(data=("12.25", "1e400"))
    def test_loads_or_parse_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("sz") / "sources.csv"
        write_sources_csv(self.ACS, path)
        text = path.read_bytes().decode("utf-8")
        text = text.replace(*data) if isinstance(data, tuple) else mutate_text(data, text)
        path.write_text(text, encoding="utf-8", newline="")
        try:
            sources = load_sources_csv(path)
        except ParseError as exc:
            _assert_one_line_naming(exc, path)
        else:
            assert all(np.isfinite(src.position).all() for src in sources)


class TestMutatedResult:
    """A written phase_average.csv, mutated as in TestMutatedFile, loads to finite
    values or raises the ParseError family naming the file on one line."""

    RESULT = PhaseAverageResult(
        period_samples=14, cycles_used=17, sum_real=np.array([20.5, -1e-5, 3.25]),
        harmonic=np.array([1.5 + 2j, -0.0 + 0j, 1e16 - 5e-324j]), dt=60.0,
        channel_ids=("a", "b,c", "d"))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=("20.5", "nan"))
    @example(data=("1e+16", "-inf"))
    def test_loads_or_parse_error(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("rz") / "phase_average.csv"
        text = result_to_csv(self.RESULT)
        text = text.replace(*data) if isinstance(data, tuple) else mutate_text(data, text)
        path.write_text(text, encoding="utf-8", newline="")
        try:
            ids, sums, harmonics = load_result_csv(path)
        except ParseError as exc:
            _assert_one_line_naming(exc, path)
        else:
            assert len(ids) == len(sums) == len(harmonics)
            assert np.isfinite(sums).all() and np.isfinite(harmonics).all()


class TestMutatedConfigs:
    """A shipped INI spec, mutated as in TestMutatedFile, loads to a spec or raises the
    ParseError family naming the file on one line.  Only the loaders run, no simulation.

    A room that shrinks away from the default sensors raises a LayoutError, which
    ``synth-room`` reports with both files named, so a one-line one passes too.
    """

    @staticmethod
    def mutant(data, shipped, tmp_path_factory):
        path = tmp_path_factory.mktemp("iz") / shipped.name
        text = shipped.read_text(encoding="utf-8")
        text = text.replace(*data) if isinstance(data, tuple) else mutate_text(data, text)
        path.write_text(text, encoding="utf-8")
        return path

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=("depth = 7.0", "depth 7.0"))  # a line that is not 'key = value'
    @example(data=("ambient = 29.0", "ambient = 29%"))  # no % interpolation
    @example(data=("width = 14.0", "width = 1.4"))  # the default sensors fall outside
    def test_room(self, data, tmp_path_factory):
        path = self.mutant(data, ROOM_CONFIG, tmp_path_factory)
        try:
            assert isinstance(load_room_config(path, default_layout()), RoomSimSpec)
        except LayoutError as exc:
            assert "\n" not in str(exc) and "\r" not in str(exc)
        except ParseError as exc:
            _assert_one_line_naming(exc, path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    @example(data=("[tone.2]", "[tone.1]"))  # a repeated section
    @example(data=("seed = 7", "seed = 7\nseed = 8"))  # a repeated key
    @example(data=("# Two", "Two"))  # text before the first section header
    def test_analytic(self, data, tmp_path_factory):
        path = self.mutant(data, ANALYTIC_CONFIG, tmp_path_factory)
        try:
            assert isinstance(load_analytic_config(path, default_layout()), AnalyticSpec)
        except ParseError as exc:
            _assert_one_line_naming(exc, path)


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


#: bytes on which csv, float() and numpy's parser might part: line ends, quotes,
#: NUL, the separators \x1c-\x1f that str.strip() drops and float() does not,
#: non-ASCII digits and spaces, and bytes that are not UTF-8
ODD_BYTES = [b"\n", b"\r", b"\r\n", b'"', b",", b" ", b"\t", b"\x00", b"\x1c", b"\x1d", b"\x1e",
             b"\x1f", b"_", b"e", b"-", b".", b"0", "\u0661".encode(), "\uff15".encode(),
             "\u00a0".encode(), "\u2003".encode(), b"\xff", b"\xc3"]

FIELD_LIMIT = csv.field_size_limit()

#: one value cell: numbers in any notation, cells only float() or only
#: str.strip() and float() read, and cells at and past csv's field size limit
odd_cells = (
    st.from_regex(r"[-+]?\d{1,3}(\.\d{0,3})?([eE][-+]?\d{1,3})?", fullmatch=True)
    | st.sampled_from(["1_0", "1__0", "\u0661\u0662", "\uff11.\uff15", " 1.5 ", "1.5\x1f",
                       "\x1c2", "\u2003-0.0\u00a0", "+.5e-3", "-0", "nan", "1e999", "",
                       "0" * FIELD_LIMIT, "0" * (FIELD_LIMIT + 1)])
)


class TestByteMutations:
    """A written snapshot file mutated byte by byte reads as the row-loop reference reads it:
    the same values, clock and ids to the bit, or the same error class and message."""

    RECORD = SnapshotMatrix(np.array([[20.5, -0.0, 1e-5, 3.25], [1e16, 2.0, 5e-324, -7.5]]),
                            dt=0.1, t0=1e9, channel_ids=("a", "b,c"))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    # pinned files, as one replacement in the written file
    @example(data=(b"", b""))  # the file as written: the numpy parser's path
    @example(data=(b"\r\n", b"\r"))  # every line ended by CR alone
    @example(data=(b"\r\n", b"\r\n\r\n"))  # a blank line after every line
    @example(data=(b"\r\n1000000000,", b'\r\n"1000000000",'))  # a quoted time cell
    def test_matches_row_loop(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("bm") / "s.csv"
        write_snapshots(self.RECORD, path)
        raw = path.read_bytes()
        if isinstance(data, tuple):
            raw = raw.replace(*data)
        for _ in range(0 if isinstance(data, tuple) else data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(
                ["insert", "delete", "replace", "blank-line", "cr-only", "cell"]))
            lines = raw.split(b"\r\n")
            if kind == "blank-line":
                lines.insert(data.draw(st.integers(1, len(lines) - 1)), b"")
            elif kind == "cr-only":
                i = data.draw(st.integers(0, len(lines) - 2))
                lines[i:i + 2] = [lines[i] + b"\r" + lines[i + 1]]
            elif kind == "cell":
                i = data.draw(st.integers(1, len(lines) - 2))
                cells = lines[i].split(b",")
                cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(odd_cells).encode()
                lines[i] = b",".join(cells)
            raw = b"\r\n".join(lines)
            if kind in ("insert", "delete", "replace"):
                at = data.draw(st.integers(0, len(raw) - (kind != "insert")))
                new = b"" if kind == "delete" else data.draw(st.sampled_from(ODD_BYTES))
                raw = raw[:at] + new + raw[at + (kind != "insert"):]
        path.write_bytes(raw)
        try:
            want = _load_snapshots_rows(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                load_snapshots(path)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            assert getattr(err.value, "row", None) == getattr(exc, "row", None)
            return
        got = load_snapshots(path)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.shape == want.values.shape and got.channel_ids == want.channel_ids
        assert np.float64(got.dt).tobytes() == np.float64(want.dt).tobytes()
        assert np.float64(got.t0).tobytes() == np.float64(want.t0).tobytes()


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
