"""Ingestion and preprocessing of multichannel sensor time series.

Snapshot files are CSV with a ``time,<id1>,...,<idM>`` header, one row per
snapshot, time in seconds.  Layout files are CSV with an ``id,x,y[,z]``
header, coordinates in meters, and an optional first-line comment
``# grid rows=R cols=C dx=<m> dy=<m>`` declaring a rectangular lattice.

Timestamps are parsed with exact decimal arithmetic so that the sampling
period inferred from a file written by :func:`write_snapshots` is bit-exact,
and uniformity violations are detected independent of float rounding.

:func:`median` is the one median rule of the package, and
:func:`to_unit_scale` the one rescaling that keeps squares in range.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, localcontext
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateError,
    GeometryError,
    LayoutFileError,
    ParseError,
    TooShortError,
    UniformityError,
)

#: relative tolerance for timestamp uniformity, as a fraction of dt
UNIFORMITY_RTOL = Decimal("1e-6")

#: absolute tolerance (meters) for matching positions to a declared lattice
GRID_MATCH_TOL = 1e-9

#: per-channel |mean| <= MEAN_FREE_RTOL * max(rms, 2^(e-1)) counts as mean-removed
MEAN_FREE_RTOL = 1e-9

#: about this many values of a snapshot file are formatted at once; at 8 192
#: the peak RSS of a pipeline run after the writer in the same process rose
#: 2 MiB on 1 024 channels, at 4 096 under 1 MiB
_BLOCK_CELLS = 4096

#: a float block of fewer values goes through csv.writer: below a few hundred
#: values, repr_rows' fixed cost (about 0.15 ms) exceeds csv's repr of each
_MIN_BLOCK_CELLS = 256


@dataclass(frozen=True)
class SnapshotMatrix:
    """Uniformly sampled multichannel record: M channels by N snapshots.

    Attributes
    ----------
    values : ndarray, shape (M, N)
        One row per channel, one column per snapshot, float64.
    dt : float
        Sampling period in seconds, strictly positive.
    t0 : float
        Timestamp of the first snapshot in seconds (informational).
    channel_ids : tuple of str
        Unique channel labels, same order as the rows of ``values``.
    """

    values: np.ndarray
    dt: float
    t0: float
    channel_ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ParseError("snapshot values must be a 2-D channels-by-snapshots array")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)
        if values.shape[0] != len(self.channel_ids):
            raise ParseError(
                f"{values.shape[0]} value rows but {len(self.channel_ids)} channel ids"
            )
        if values.shape[1] < 3:
            raise TooShortError(
                f"need at least 3 snapshots, got {values.shape[1]}"
            )
        if not np.all(np.isfinite(values)):
            raise ParseError("snapshot values contain NaN or Inf")
        if not (isinstance(self.dt, (int, float)) and np.isfinite(self.dt) and self.dt > 0):
            raise ParseError(f"sampling period must be finite and positive, got {self.dt}")
        if len(set(self.channel_ids)) != len(self.channel_ids):
            raise DuplicateError("channel ids are not unique")
        object.__setattr__(self, "channel_ids", tuple(self.channel_ids))

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_snapshots(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "SnapshotMatrix":
        """Copy of this record with the same clock and ids but new values."""
        return SnapshotMatrix(values, self.dt, self.t0, self.channel_ids)


@dataclass(frozen=True)
class GridSpec:
    """Declared rectangular lattice: ``rows`` lines along y, ``cols`` along x."""

    rows: int
    cols: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise GeometryError("grid declaration needs rows >= 1 and cols >= 1")
        if self.cols > 1 and not self.dx > 0:
            raise GeometryError("grid dx must be positive")
        if self.rows > 1 and not self.dy > 0:
            raise GeometryError("grid dy must be positive")


@dataclass(frozen=True)
class SensorLayout:
    """Channel-to-location map in room coordinates (meters).

    ``positions[i]`` is the coordinate of ``channel_ids[i]``; the spatial
    dimension ``d`` is the number of coordinate columns.  When ``grid`` is
    declared the positions must form the declared lattice to within
    ``GRID_MATCH_TOL``; the row/column index of each sensor is then exposed
    by :meth:`grid_indices`.
    """

    channel_ids: tuple[str, ...]
    positions: np.ndarray
    grid: GridSpec | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (1, 2, 3):
            raise GeometryError("positions must be an (M, d) array with d in {1, 2, 3}")
        object.__setattr__(self, "positions", pos)
        pos.setflags(write=False)
        object.__setattr__(self, "channel_ids", tuple(self.channel_ids))
        if pos.shape[0] != len(self.channel_ids):
            raise GeometryError("number of positions does not match number of ids")
        if len(set(self.channel_ids)) != len(self.channel_ids):
            raise DuplicateError("duplicate sensor id in layout")
        if not np.all(np.isfinite(pos)):
            raise GeometryError("sensor coordinates contain NaN or Inf")
        seen: dict[tuple, str] = {}
        for cid, key in zip(self.channel_ids, map(tuple, pos.tolist())):
            if key in seen:
                raise GeometryError(
                    f"sensors {seen[key]!r} and {cid!r} share coordinates {key}"
                )
            seen[key] = cid
        if self.grid is not None:
            self._check_grid()

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @property
    def n_sensors(self) -> int:
        return self.positions.shape[0]

    def _check_grid(self):
        g = self.grid
        if self.d != 2:
            raise GeometryError("grid declarations are only supported for d = 2")
        if g.rows * g.cols != self.n_sensors:
            raise GeometryError(
                f"grid declares {g.rows}x{g.cols} points but layout has {self.n_sensors}"
            )
        self.grid_indices()

    def grid_indices(self) -> np.ndarray:
        """Per-sensor (row, col) lattice indices for a declared grid.

        Raises GeometryError if positions deviate from the lattice by more
        than ``GRID_MATCH_TOL`` or do not fill it exactly once.
        """
        if self.grid is None:
            raise GeometryError("layout has no grid declaration")
        g = self.grid
        x0 = float(self.positions[:, 0].min())
        y0 = float(self.positions[:, 1].min())
        out = np.zeros((self.n_sensors, 2), dtype=int)
        filled = np.zeros((g.rows, g.cols), dtype=bool)
        for i, (x, y) in enumerate(self.positions):
            col = int(round((x - x0) / g.dx)) if g.cols > 1 else 0
            row = int(round((y - y0) / g.dy)) if g.rows > 1 else 0
            if not (0 <= row < g.rows and 0 <= col < g.cols):
                raise GeometryError(
                    f"sensor {self.channel_ids[i]!r} falls outside the declared grid"
                )
            ex = x0 + col * g.dx if g.cols > 1 else x0
            ey = y0 + row * g.dy if g.rows > 1 else y0
            if abs(x - ex) > GRID_MATCH_TOL or abs(y - ey) > GRID_MATCH_TOL:
                raise GeometryError(
                    f"sensor {self.channel_ids[i]!r} at ({x}, {y}) is off the "
                    f"declared lattice point ({ex}, {ey})"
                )
            if filled[row, col]:
                raise GeometryError(f"two sensors map to grid cell ({row}, {col})")
            filled[row, col] = True
            out[i] = (row, col)
        return out

    def positions_for(self, channel_ids) -> np.ndarray:
        """Positions reordered to match the given channel ids.

        Every requested id must be present in the layout exactly once.
        """
        index = {cid: i for i, cid in enumerate(self.channel_ids)}
        missing = [cid for cid in channel_ids if cid not in index]
        if missing:
            raise GeometryError(f"layout has no position for channels {missing}")
        return self.positions[[index[cid] for cid in channel_ids]]

    def reordered_to(self, channel_ids) -> "SensorLayout":
        """Layout restricted/reordered to the given channel ids."""
        return SensorLayout(tuple(channel_ids), self.positions_for(channel_ids), self.grid)


def parse_number(text, where: str, kind=float):
    """``kind(text)`` for one input field; ``where`` names the file and field.

    Raises ParseError when the field is missing (None) or not a number.
    """
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: expected a number, got {text!r}") from None


def json_text(payload, key=None, item=None, lists=()) -> str:
    """The text of every JSON artifact: sorted keys, two-space indent, final newline.

    With ``key``, the k-th ``"<key>": []`` of the text is filled from
    ``lists[k]``, objects shaped like ``item`` given as one column per null
    leaf, in json's key order: float arrays or sequences of strings.  json
    renders ``item`` once and the columns' texts fill it, so the text is
    json's own, byte for byte.  No JSON string holds the placeholder, as json
    escapes every quote in one.
    """
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if key is None:
        return text
    slot = json.dumps(key) + ": []"
    head, *tails = text.split(slot)
    parts, pieces, shapes = [head], _NULL_LEAF.split(json.dumps(item, sort_keys=True, indent=2)), {}
    for columns, tail in zip(lists, tails, strict=True):
        newline = "\n" + parts[-1][parts[-1].rfind("\n") + 1:] + "  "  # before each object
        if newline not in shapes:  # the object's text around its leaves, at this indent
            first, *joints, last = [piece.replace("\n", newline) for piece in pieces]
            shapes[newline] = first, [*joints, last + "," + newline + first], last
        first, joints, last = shapes[newline]
        texts = [_json_values(column) for column in columns]
        n, step = len(texts[0]), 2 * len(texts)
        cells = [None] * (step * n)  # leaf, joint, ..., leaf, joint per object; the final joint
        for j, joint in enumerate(joints):
            cells[2 * j::step], cells[2 * j + 1::step] = texts[j], [joint] * n
        cells[-1:] = [last]  # ... is the last object's close
        parts += [slot[:-1] + newline + first + "".join(cells) + newline[:-2] + "]" if n else slot,
                  tail]
    return "".join(parts)


#: a null value in json's indented text of an object: a raw newline, which no string holds, follows
_NULL_LEAF = re.compile(r"null(?=,?\n)")


def _json_values(column) -> list[str]:
    """Each value of a column as :func:`json_text` writes it: a string through ``json.dumps``.

    A float is its ``repr``, renamed where json spells nan, inf and -inf
    ``NaN``, ``Infinity`` and ``-Infinity``; the text renamed holds nothing but reprs.
    """
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "f"):
        return list(map(json.dumps, column))
    text = "\n".join(map(repr, column.tolist()))
    return text.replace("nan", "NaN").replace("inf", "Infinity").splitlines()


class _Lines(list):
    write = list.append  # a csv.writer target that keeps each line it is given


def csv_text(rows, lineterminator: str, block=None) -> str:
    """The text of every CSV artifact, one line per row, each ending in ``lineterminator``.

    Cells are quoted as the csv module quotes them, so any id reads back as
    one cell.  A float cell is a Python float (from ``tolist()``), written as
    its shortest ``repr`` and never quoted.  With ``block``, a rows x k float
    array, the last ``len(block)`` of the list ``rows`` each hold ``...`` at
    the same cell, after at least one other: there the row's k floats stand,
    each as csv writes it, all from one :func:`repr_rows` call once the block
    holds :data:`_MIN_BLOCK_CELLS` values.  The synthesized dataset files end
    lines in ``"\r\n"``, the pipeline artifacts in ``"\n"``; write with
    ``newline=""``.
    """
    lines = _Lines()
    # csv quotes a cell holding a character of its own terminator, so lines are
    # written with csv's "\r\n" (CR and LF both quoted) and then re-ended
    writer = csv.writer(lines)
    n = 0 if block is None else len(block)
    writer.writerows(rows[:len(rows) - n])
    if n:
        tail = rows[len(rows) - n:]
        at = tail[0].index(...)
        if block.size < _MIN_BLOCK_CELLS:
            writer.writerows([*row[:at], *values, *row[at + 1:]]
                             for row, values in zip(tail, block.tolist()))
        else:
            # no float's text holds a character that csv quotes, so the block's
            # text joins the cells on either side, each side written by csv with
            # an empty cell at the joint: "<cells>," and ",<cells>"
            heads, ends = _Lines(), ["\r\n"] * n
            csv.writer(heads).writerows([*row[:at], ""] for row in tail)
            if len(tail[0]) > at + 1:
                ends = _Lines()
                csv.writer(ends).writerows(["", *row[at + 1:]] for row in tail)
            lines += map("".join, zip([head[:-3] for head in heads], repr_rows(block)[0], ends))
    if lineterminator == "\r\n":
        return "".join(lines)
    return "".join([line[:-2] + lineterminator for line in lines])


# The tables of _shortest_digits, indexed by s, the power of ten that takes a
# double to 17 digits: 3 to 20 in its window, up to 22 where log10 errs
_POW10 = np.array([float(10**s) for s in range(23)])  # exact doubles up to 1e22
_POW5 = np.array([5**s for s in range(23)], dtype=np.uint64)
_TEN = np.array([10**j for j in range(18)], dtype=np.int64)
#: the tables of repr_rows, indexed by point + 3 for point -3 to 14: 10 to the
#: number of the 17 digits after the point, and the column of the "." in the
#: cell (see _cell_masks)
_AFTER_POINT = np.array([10 ** (17 - max(point, 0)) for point in range(-3, 15)], dtype=np.int64)
_POINT_COLUMN = np.array([3 if point <= 0 else 6 + point for point in range(-3, 15)])
#: "0000" to "9999", each group of four ASCII digits read as one uint32
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                  axis=-1).view(np.uint32).ravel()


def _shortest_digits(x: np.ndarray):
    """``repr``'s digits for each double of ``x``, where they can be certified.

    Returns ``(digits, p, point, certified)``: for a certified element,
    ``repr(abs(x))`` is the first ``p`` (15, 16 or 17) of the 17 digits of
    the int64 ``digits``, with ``point`` of them before the decimal point
    (when ``point <= 0``, ``-point`` zeros stand between it and them).  These
    are the digits of the shortest decimal that reads back as x, the one
    nearest x among those of its length, as repr chooses them.  An element is
    certified when 1e-4 <= |x| < 1e14, where repr writes plain digits and
    every step below is exact, unless its mantissa is a power of two (the gap
    to the double below is then half the gap above), a rounding is an exact
    tie, its shortest form has 14 or fewer digits, or a rounding carries into
    a new leading digit.  The rest, zero, subnormals and non-finite values
    among them, is left to repr.
    """
    a = np.abs(x)
    stored = np.uint64(2**52 - 1)  # the mantissa bits a double stores
    certified = (a >= 1e-4) & (a < 1e14) & ((a.view(np.uint64) & stored) != 0)
    a[~certified] = 1.5  # keeps the arithmetic below in range
    bits = a.view(np.uint64)
    # |x| = m 2^e, so V = |x| 10^s = m 5^s / 2^k with k = -(e + s); at the right
    # s, V lies in [1e16, 1e17) and round(V) holds |x| to 17 digits
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    k = 1075 - (bits >> np.uint64(52)).astype(np.int64) - s  # 3 or more
    # d = rint(fl(|x| 10^s)) is within 12 of V, so r = m 5^s - d 2^k = 2^k (V - d)
    # is below 2^51 in size and exact in uint64 arithmetic modulo 2^64
    d = np.rint(a * _POW10[s]).astype(np.int64)
    r = (((bits & stored) | np.uint64(2**52)) * _POW5[s]
         - (d.view(np.uint64) << k.view(np.uint64))).view(np.int64)
    # d = round(V), and still r = 2^k (V - d), now below 2^(k-1) in size unless V is a tie
    scale = np.int64(1) << k
    carry = r + (scale >> 1)
    certified &= (carry & (scale - 1)) != 0
    carry >>= k
    d += carry
    carry *= scale
    r -= carry
    certified &= (d > _TEN[16]) & (d < _TEN[17])
    # c 10^-s reads back as x when |c - V| < 5^s / 2^(k+1), half the gap to the
    # neighbouring doubles (5^s is odd, so never equal).  Try d rounded to 16,
    # 15 and 14 digits: the nearest decimal of a length reads back if any does.
    five = _POW5[s].view(np.int64)
    digits, p = d, np.full(d.shape, 17)
    for j in (1, 2, 3):
        unit = _TEN[j]
        q = d // unit  # by one integer, // is faster than np.divmod
        rem = d - q * unit
        half = unit // 2
        # V / 10^j = q + (rem + r / 2^k) / 10^j, and |r / 2^k| < 1/2
        c = (q + ((rem > half) | ((rem == half) & (r > 0)))) * unit
        certified &= (rem != half) | (r != 0)
        reads_back = 2 * np.abs((c - d) * scale - r) < five
        if j == 3:
            certified &= ~reads_back
        else:
            digits = np.where(reads_back, c, digits)
            p = np.where(reads_back, 17 - j, p)
    certified &= digits < _TEN[17]
    return digits, p, 17 - s, certified


def _cell_masks() -> np.ndarray:
    """The columns of a :func:`repr_rows` cell that each layout keeps.

    A cell has 25 columns: ``,-0.0`` and then 18 digits in columns 6 to 23.
    A value with no digit before its point has "0." and up to three zeros
    before its 17 digits, which fill columns 7 to 23; a value with ``point``
    digits before it has the "." in column ``6 + point``, between them and
    the rest.  Row ``neg * 54 + (point + 3) * 3 + p - 15`` serves a certified
    value; row ``108 + n`` keeps the comma and an ``n`` character repr
    written over the columns after it.
    """
    masks = np.zeros((108 + 25, 25), bool)
    for neg in (0, 1):
        for point in range(-3, 15):
            for p in (15, 16, 17):
                row = masks[neg * 54 + (point + 3) * 3 + p - 15]
                row[[0, 1]] = True, neg
                row[2:4] = point <= 0  # "0."
                row[4:4 - min(point, 0)] = True  # the zeros after "0."
                row[7 - (point > 0):7 + p] = True  # the digits, with any "." among them
    for n in range(25):
        masks[108 + n, :1 + n] = True
    return masks


_CELL_MASKS = _cell_masks()
_CELL_LENGTHS = _CELL_MASKS.sum(axis=1)


def repr_rows(block: np.ndarray) -> tuple[list[str], int]:
    """Each row of a 2-D float block as ``"".join("," + repr(v) for v in row)``, and a count.

    The count is of the values whose text came from numpy rather than from
    ``repr`` itself: :func:`_shortest_digits` gives repr's digits for a block
    at once where it can certify them, and laying those out as repr does
    gives the same bytes.  The values it cannot certify go through ``repr``.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    digits, p, point, certified = _shortest_digits(x)
    at = np.clip(point, -3, 14) + 3
    # digits = hi 10^n + lo, with n digits after the point, becomes hi 10^(n+1) + lo:
    # 18 digits, with a zero between those before the point and those after it
    after = _AFTER_POINT[at]
    digits = digits + digits // after * 9 * after
    out = np.empty((x.size, 25), np.uint8)
    out[:, :4] = np.frombuffer(b",-0.", np.uint8)
    # columns 4 to 23 in groups of four: "00" and then the 18 digits, as ASCII
    quads, rest = out[:, 4:24].view(np.uint32), digits
    for i, unit in enumerate(_TEN[16:3:-4]):
        q = rest // unit
        quads[:, i] = _QUADS[q]
        rest = rest - q * unit
    quads[:, 4] = _QUADS[rest]
    out.reshape(-1)[np.arange(0, 25 * x.size, 25) + _POINT_COLUMN[at]] = ord(".")
    layout = np.signbit(x) * 54 + at * 3 + p - 15
    slow = np.flatnonzero(~certified)
    if slow.size:
        texts = [repr(v) for v in x[slow].tolist()]
        out[slow, 1:] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        layout[slow] = 108 + np.array([len(t) for t in texts])
    text = out[_CELL_MASKS[layout]].tobytes().decode("ascii")
    ends = np.cumsum(_CELL_LENGTHS[layout].reshape(rows, cols).sum(axis=1)).tolist()
    return [text[a:b] for a, b in zip([0, *ends], ends)], x.size - slow.size


@contextmanager
def utf8_errors(path):
    """In the block, a UnicodeDecodeError from reading ``path`` becomes a ParseError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _csv_rows(path, lines):
    """``csv.reader(lines)``; a line csv cannot parse raises ParseError naming ``path``."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:  # such as a cell over csv's field size limit
        raise ParseError(f"{path}: {exc}") from None


def read_records(path, text_columns, number_columns) -> list[dict]:
    """Data rows of a CSV file with a header row, as dicts keyed by column name.

    The header must name every given column; ``number_columns`` cells are
    parsed as floats and must be finite.  Blank lines are skipped.
    ParseError, naming the file and data row, for a row whose cell count
    differs from the header's or that holds a non-finite number, and naming
    the file for one that is not UTF-8.
    """
    path = Path(path)
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        header, *rows = [row for row in _csv_rows(path, fh) if row] or [[]]
    columns = (*text_columns, *number_columns)
    if not set(columns).issubset(header):
        raise ParseError(f"{path}: expected columns {','.join(columns)}, got {header!r}")
    records = []
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"{path}: data row {r} has {len(row)} cells, expected {len(header)}")
        rec = dict(zip(header, row))
        for k in number_columns:
            rec[k] = parse_number(rec[k], f"{path} data row {r} {k}")
            if not math.isfinite(rec[k]):
                raise ParseError(f"{path}: non-finite {k} at data row {r}")
        records.append(rec)
    return records


def _parse_time(path, cell: str, row: int) -> Decimal:
    try:
        dec = Decimal(cell.strip())
    except InvalidOperation:
        raise ParseError(f"{path}: non-numeric timestamp {cell!r} at data row {row}") from None
    if not dec.is_finite():
        raise ParseError(f"{path}: non-finite timestamp {cell!r} at data row {row}")
    t = float(dec)
    # a time a double can hold has an adjusted exponent in -324 .. 308, which
    # bounds the precision the exact spacing test in load_snapshots needs
    if math.isinf(t) or (t == 0 and dec):
        raise ParseError(
            f"{path}: timestamp {cell!r} at data row {row} is out of the range of a double"
        )
    return dec


def _cell_value(path, cell: str, row: int, column: int) -> float:
    """``float(cell.strip())``; ParseError naming the file and cell if it is no number."""
    text = cell.strip()
    if not text:
        raise ParseError(f"{path}: missing value at data row {row}, column {column}")
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"{path}: non-numeric value {cell!r} at data row {row}, column {column}"
        ) from None


def _plain_lines(lines, n_cells: int, cells: list[str]):
    """The data lines of a snapshot file, appending the time cell of each to ``cells``.

    For ``np.loadtxt``: each line must be one that csv splits at its commas
    alone, into ``n_cells`` cells.  ValueError for a line with a quote, a
    blank line or another cell count, a line that ends in CR alone, one
    with a cell over csv's field size limit, or fewer than 3 lines.
    """
    limit = csv.field_size_limit()
    for line in lines:
        if ('"' in line or line.count(",") != n_cells - 1 or line.endswith("\r")
                or len(line) > limit and max(map(len, line.split(","))) > limit):
            raise ValueError(line)
        cells.append(line[:line.index(",")])
        yield line
    if len(cells) < 3:
        raise ValueError("fewer than 3 data rows")


def _seconds(x: Decimal) -> str:
    """``x`` seconds for a message: ``:g`` of its float, or ``.6g`` of the decimal past a double."""
    f = float(x)
    if math.isinf(f):  # a spacing between two finite doubles can exceed the largest
        return f"{+x:.6g}"  # rounded to the context's precision first, then to 6 digits
    return f"{f + 0.0:g}"  # an exact zero spacing reads "0", never "-0"


def load_snapshots(path, dt_override: float | None = None) -> SnapshotMatrix:
    """Load and validate a snapshot CSV.

    The sampling period is inferred from the first two timestamps unless
    ``dt_override`` is given; all consecutive spacings must agree with the
    inferred spacing to within one part in 10^6.  The timestamps are compared
    as the decimals the file writes, in exact decimal arithmetic, and ``dt``
    and ``t0`` are their correctly rounded doubles.

    Raises
    ------
    UniformityError
        Non-uniform or non-increasing timestamps; names the first offending
        data row (1-based, header excluded).
    ParseError
        Missing or non-numeric cell, a NaN or Inf value, a timestamp or
        spacing out of the range of a double, or a file that is not UTF-8.
    TooShortError
        Fewer than 3 data rows.
    DuplicateError
        A channel id named twice in the header.

    Every message begins with the path.
    """
    path = Path(path)
    cells: list[str] = []  # the time cells, as text
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooShortError(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip() != "time":
            raise ParseError(f"{path}: header must be 'time,<id1>,...', got {header!r}")
        ids = tuple(h.strip() for h in header[1:])
        try:
            # numpy's C parser reads a value cell as str.strip() and float() do,
            # to the same bits, and makes no Python object per cell.  It refuses
            # some cells that float() reads (1_0, non-ASCII digits), and
            # _plain_lines refuses every line that csv might split otherwise:
            # such a file, like any file with an error, takes the row loop below.
            values = np.loadtxt(_plain_lines(fh, len(header), cells), delimiter=",",
                                comments=None, dtype=float, ndmin=2,
                                usecols=range(1, len(header))).T  # (M, N)
        except ValueError:  # a UnicodeDecodeError too: the row loop reports it in order
            values = None
    if values is not None and values.shape[1] == len(cells):
        times = [_parse_time(path, cell, r) for r, cell in enumerate(cells, start=1)]
    else:
        # the row loop: csv and float() cell by cell, raising the first error in the file
        cells, times, rows = [], [], []
        with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
            reader = _csv_rows(path, fh)
            next(reader)
            for r, rec in enumerate(reader, start=1):
                if len(rec) != len(header):
                    raise ParseError(
                        f"{path}: data row {r} has {len(rec)} cells, expected {len(header)}"
                    )
                times.append(_parse_time(path, rec[0], r))
                cells.append(rec[0])
                rows.append([_cell_value(path, cell, r, c) for c, cell in enumerate(rec[1:], 2)])
        if len(rows) < 3:
            raise TooShortError(f"{path}: need at least 3 data rows, got {len(rows)}")
        values = np.array(rows, dtype=float).T  # (M, N)
    longest = max(map(len, cells))  # characters in the longest time cell, at least its digits

    # Exact decimal arithmetic.  A nonzero time is below 10**309 in magnitude
    # with an exponent of at least -323 - longest (see _parse_time), so each
    # difference and tolerance below needs at most 632 + longest digits.  A
    # zero time (such as 0e-99999) may have any exponent, but then rounding
    # drops only zeros.  Inexact is trapped: no rounded value passes unseen.
    exact = Context(prec=640 + longest, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    step = exact.subtract(times[1], times[0])
    if step <= 0:
        raise UniformityError(
            f"{path}: timestamps must be strictly increasing (row 2)", row=2
        )
    tol = exact.multiply(step, UNIFORMITY_RTOL)
    for r in range(2, len(times)):
        delta = exact.subtract(times[r], times[r - 1])
        if exact.abs(exact.subtract(delta, step)) > tol:
            raise UniformityError(
                f"{path}: non-uniform timestamp at data row {r + 1}: spacing "
                f"{_seconds(delta)} s differs from {_seconds(step)} s",
                row=r + 1,
            )
    dt = float(step if dt_override is None else dt_override)
    if dt_override is None and math.isinf(dt):
        raise ParseError(
            f"{path}: sampling period {_seconds(step)} s is out of the range of a double"
        )
    try:
        return SnapshotMatrix(values, dt, float(times[0]), ids)
    except ParseError as exc:  # such as duplicate ids or a cell of 1e999; same class
        raise type(exc)(f"{path}: {exc}") from None


def write_snapshots(s: SnapshotMatrix, path) -> None:
    """Write a snapshot CSV that :func:`load_snapshots` reads back bit-exactly.

    Timestamps are emitted as exact decimal expansions of t0 + k*dt, so the
    reader recovers dt without float rounding.  Each is written as
    ``str(Decimal(n) / Decimal(d))`` prints the fraction n/d it equals: an
    integer's digits (``0`` for -0), any other value to its last nonzero
    digit, in E notation below 10**-6.  Every line goes through
    :func:`csv_text`, which quotes ids as needed; the data rows go in blocks
    of about 4 096 values, each a timestamp cell and a float block.
    """
    # t0 and dt are integers over powers of two, so each t0 + k*dt is the
    # integer t over one power of two, 2^e.  A double's expansion needs at most
    # ~1400 digits, so at this precision the product of t and the exact
    # decimal 2^-e (= 5^e 10^-e) is exact too
    (a, p), (b, q) = s.t0.as_integer_ratio(), s.dt.as_integer_ratio()
    den = max(p, q)
    e = den.bit_length() - 1
    t, tick = a * (den // p), b * (den // q)
    times = []
    with localcontext(Context(prec=1600, traps=[Inexact])):
        unit = Decimal(5**e).scaleb(-e)
        for _ in range(s.n_snapshots):
            times.append(str((unit * t).normalize()) if t % den else str(t >> e))
            t += tick
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text([["time", *s.channel_ids]], "\r\n"))
        # block by block, so that the text of a wide record is never held whole
        step = max(1, _BLOCK_CELLS // max(s.n_channels, 1))
        for k in range(0, s.n_snapshots, step):
            fh.write(csv_text([[t, ...] for t in times[k:k + step]], "\r\n",
                              s.values[:, k:k + step].T))


_GRID_RE = re.compile(
    r"^#\s*grid\s+rows=(\d+)\s+cols=(\d+)\s+dx=([0-9.eE+-]+)\s+dy=([0-9.eE+-]+)\s*$"
)


def load_layout(path) -> SensorLayout:
    """Load and validate a sensor layout CSV.

    The spatial dimension is inferred from the coordinate columns; an
    optional leading comment line declares a rectangular grid.
    """
    path = Path(path)
    with utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        first = fh.readline()
        grid = None
        m = _GRID_RE.match(first.strip())
        if m:
            rows = parse_number(m.group(1), f"{path}: grid header rows", int)  # int() refuses
            cols = parse_number(m.group(2), f"{path}: grid header cols", int)  # > 4300 digits
            dx = parse_number(m.group(3), f"{path}: grid header dx")
            dy = parse_number(m.group(4), f"{path}: grid header dy")
            try:
                grid = GridSpec(rows, cols, dx, dy)
            except GeometryError as exc:
                # an unusable header is a fault of the file, like a malformed one
                raise ParseError(f"{path}: {exc}") from None
            header_line = fh.readline()
        elif first.startswith("#"):
            raise ParseError(f"{path}: unrecognized comment header {first.strip()!r}")
        else:
            header_line = first
        reader = _csv_rows(path, [header_line] + fh.readlines())
        header = [h.strip() for h in next(reader)]
        if header[:1] != ["id"] or header[1:] not in (["x", "y"], ["x", "y", "z"]):
            raise ParseError(f"{path}: header must be 'id,x,y[,z]', got {header!r}")
        ids: list[str] = []
        pts: list[list[float]] = []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise ParseError(f"{path}: layout row {r} has {len(rec)} cells")
            ids.append(rec[0].strip())
            try:
                pts.append([float(c) for c in rec[1:]])
            except ValueError:
                raise ParseError(f"{path}: non-numeric coordinate at layout row {r}") from None
    if not ids:
        raise ParseError(f"{path}: layout file has no sensors")
    try:  # sensors that cannot form a layout are a fault of the file, like a bad header
        return SensorLayout(tuple(ids), np.array(pts, dtype=float), grid)
    except DuplicateError as exc:
        raise DuplicateError(f"{path}: {exc}") from None
    except GeometryError as exc:
        raise LayoutFileError(f"{path}: {exc}") from None


def write_layout(layout: SensorLayout, path) -> None:
    head = ""
    if layout.grid is not None:
        g = layout.grid
        head = f"# grid rows={g.rows} cols={g.cols} dx={g.dx!r} dy={g.dy!r}\n"
    rows = [["id", "x", "y", "z"][: 1 + layout.d],
            *([cid, *p] for cid, p in zip(layout.channel_ids, layout.positions.tolist()))]
    Path(path).write_text(head + csv_text(rows, "\r\n"), encoding="utf-8", newline="")


def remove_mean(s: SnapshotMatrix) -> SnapshotMatrix:
    """Subtract the per-channel time mean over the whole record."""
    return s.with_values(s.values - s.values.mean(axis=1, keepdims=True))


def mean_offset(s: SnapshotMatrix) -> tuple[int, float] | None:
    """Channel index and |mean| of the channel furthest from mean-free.

    Returns None when every channel has |mean| <= MEAN_FREE_RTOL * max(rms, 2^(e-1)),
    2^(e-1) <= max |values| < 2^e: the record counts as mean-removed.
    """
    values = s.values.copy(order="K")  # the record's memory order, which the sums' bits follow
    e = to_unit_scale(values)  # no square under- or overflows, and 2^(e-1) is 0.5 here
    means = np.abs(values.mean(axis=1))
    scale = np.maximum(np.sqrt(np.square(values, out=values).mean(axis=1)), 0.5)
    if np.all(means <= MEAN_FREE_RTOL * scale):
        return None
    worst = int(np.argmax(means / scale))
    return worst, math.ldexp(float(means[worst]), e)


def median(x) -> float:
    """``float(np.median(x))`` of a non-empty 1-D float array, to the bit.

    It makes the same selection as ``np.median``: a partition at the middle
    element or elements and at the last, the mean of the middle ones, and the
    last element itself when that is NaN.  ``np.median`` tests for the NaN
    through ``numpy.ma``, which it imports on first use; this helper imports
    nothing, so that no run pays for loading ``numpy.ma``.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    kth = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(x, [*kth, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[kth[0]:kth[-1] + 1].mean())


def to_unit_scale(values: np.ndarray) -> int:
    """Divide ``values`` in place by ``2^e`` and return ``e``, the ``frexp`` exponent of max |values|.

    Afterwards max |values| lies in [0.5, 1), so no square or sum of squares
    of them overflows, and a square underflows only for a value below about
    1e-154 times the largest.  A power of two scales exactly while no value
    leaves the normal range, so a ratio, a cosine, or a norm scaled back by
    ``2^e``, is at ordinary scales the unscaled computation's, bit for bit.
    """
    e = int(np.frexp(max(values.max(initial=0.0), -values.min(initial=0.0)))[1])
    np.ldexp(values, -e, out=values)
    return e
