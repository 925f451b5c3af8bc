"""Ingestion of daily observations and six-hourly forecast tables.

Observation CSVs carry `date,pm,t,tmax,tmin,pc,w,ep` with temperatures
in 0.1 degC, precipitation and evaporation in 0.1 mm, wind in 0.1 m/s; any
other column is left unread.
Values stay in that raw scale end to end; the only derived quantities are
lpm = 10*ln(pm), trg = tmax - tmin and the pollution-level indicator id.
"""

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AggregationError, DataError
from .numerics import _elementwise

# Non-numeric precipitation markers that mean "trace amount"; they parse as 0.
TRACE_TOKENS = frozenset({"微量", "T", "trace"})

OBS_REQUIRED = ("pm", "t", "tmax", "tmin", "pc", "w", "ep")
NCEP_FIELDS = ("t", "tmax", "tmin", "pc", "w")
NCEP_COLUMNS = ("date", "slot") + NCEP_FIELDS
NCEP_SLOTS = (0, 6, 12, 18)
ONE_DAY = np.timedelta64(1, "D")

ID_LOW_CUT = 35.0   # lpm scale; pm scale e^3.5
ID_HIGH_CUT = 50.0  # lpm scale; pm scale e^5


def id_from_lpm(lpm):
    """Pollution-level indicator: -1 for lpm <= 35, 0 for lpm <= 50, else 1.

    Accepts a scalar or an array and returns the matching shape.
    """
    arr = np.asarray(lpm, dtype=float)
    out = np.where(arr <= ID_LOW_CUT, -1.0, np.where(arr <= ID_HIGH_CUT, 0.0, 1.0))
    if arr.ndim == 0:
        return float(out)
    return out


def lpm_from_pm(pm):
    """lpm = 10*ln(pm) per entry, -inf where pm <= 0."""
    return _elementwise(lambda v: -math.inf if v <= 0 else 10.0 * math.log(v),
                        np.atleast_1d(np.asarray(pm, dtype=float)))


@dataclass(frozen=True)
class Observations:
    """Daily observations as columns, one entry per data row in file order.

    `date` is datetime64[D]; every other column is float, with NaN for a
    blank cell. Row N of a message is entry N - 1.
    """

    date: np.ndarray
    pm: np.ndarray
    t: np.ndarray
    tmax: np.ndarray
    tmin: np.ndarray
    pc: np.ndarray
    w: np.ndarray
    ep: np.ndarray

    def __post_init__(self):
        for name in ("pm", "pc", "w", "ep"):
            values = getattr(self, name)
            bad = np.flatnonzero(values < 0)
            if bad.size:
                i = bad[0]
                value = float(values[i])
                raise DataError(f"row {i + 1}: {self.date[i]}: negative {name} ({value})")
        bad = np.flatnonzero(self.tmax < self.tmin)
        if bad.size:
            i = bad[0]
            raise DataError(f"row {i + 1}: {self.date[i]}: tmax ({float(self.tmax[i])}) "
                            f"below tmin ({float(self.tmin[i])})")

    @property
    def complete(self):
        """True on the rows that hold every required field."""
        values = np.array([getattr(self, name) for name in OBS_REQUIRED])
        return ~np.isnan(values).any(axis=0)

    def lookup(self, name, dates):
        """Column `name` on each of `dates` (datetime64[D]), NaN where no row
        of that date has a non-blank cell; a repeated date takes its last
        such row."""
        values = getattr(self, name)
        rows = np.flatnonzero(~np.isnan(values))
        if not rows.size:
            return np.full(len(dates), math.nan)
        rows = rows[np.argsort(self.date[rows], kind="stable")]
        i = np.searchsorted(self.date[rows], dates, side="right") - 1
        found = (i >= 0) & (self.date[rows[i]] == dates)
        return np.where(found, values[rows[i]], math.nan)


@dataclass(frozen=True)
class ModelFrame:
    """Regression-ready rows in date order with no missing values.

    Columns are 1-d arrays of one length with finite values, and trg is
    never 0, where the model is undefined; a DataError names the date of a
    row that breaks this. `id` stores the indicator as a float so it can
    enter design matrices directly. `drop_log` records (date, reason) for
    every input row excluded during construction.

    A stack of samples is not a frame of its own but a (samples, m) array
    `rows` of row indices into this one, each row of it sorted; the model
    functions take such an array and evaluate every sample at once.
    """

    dates: np.ndarray
    lpm: np.ndarray
    trg: np.ndarray
    t: np.ndarray
    w: np.ndarray
    pc: np.ndarray
    ep: np.ndarray
    id: np.ndarray
    drop_log: tuple = ()

    def __post_init__(self):
        if self.dates.ndim != 1:
            raise DataError("frame columns must be 1-d")
        for name in ("lpm", "trg", "t", "w", "pc", "ep", "id"):
            values = getattr(self, name)
            if values.shape != self.dates.shape:
                raise DataError(f"frame column {name} has mismatched length")
            finite = np.isfinite(values)
            if not finite.all():
                raise DataError(f"frame column {name} is non-finite on {self.dates[~finite][0]}")
        flat = self.trg == 0.0
        if flat.any():
            raise DataError(f"frame column trg is zero on {self.dates[flat][0]}")
        if np.any(np.diff(self.dates) < np.timedelta64(0, "D")):
            raise DataError("frame dates must be non-decreasing")

    @property
    def n(self):
        return len(self.dates)

    def day_steps(self, rows=None):
        """True between consecutive sample rows exactly one day apart.

        `rows` is one sample (m,) or a stack (samples, m) of row indices,
        None for the whole frame; the last axis of the result is one
        shorter. Longer gaps (season boundaries, dropped days) and repeated
        dates (possible in resampled samples) are False.
        """
        idx = np.arange(self.n) if rows is None else np.asarray(rows)
        return np.diff(self.dates[idx], axis=-1) == ONE_DAY

    def lag_pairs(self, rows=None):
        """Frame rows (prev, curr) of consecutive sample rows one day apart.

        `rows` is as in `day_steps`, whose steps are the pairs. Both
        results have the shape of `rows` with the last axis cut to the
        pairs, so every sample of a stack must hold as many pairs.
        """
        idx = np.arange(self.n) if rows is None else np.asarray(rows)
        step = self.day_steps(idx)
        counts = step.sum(axis=-1)
        if np.any(counts != counts.flat[0]):
            raise ValueError("the samples of a stack differ in lag-pair count")
        shape = idx.shape[:-1] + (counts.flat[0],)
        return idx[..., :-1][step].reshape(shape), idx[..., 1:][step].reshape(shape)

    def subset(self, indices):
        """Row subset in the given order; indices must keep dates sorted."""
        idx = np.asarray(indices, dtype=int)
        return ModelFrame(
            dates=self.dates[idx],
            lpm=self.lpm[idx],
            trg=self.trg[idx],
            t=self.t[idx],
            w=self.w[idx],
            pc=self.pc[idx],
            ep=self.ep[idx],
            id=self.id[idx],
        )


def _write_columns(path, header, columns):
    """CSV with one row per entry: dates in ISO form, numbers as their repr,
    strings as they are. No cell holds a comma, quote or line break, so none
    is quoted; lines end in \r\n as csv.writer's do."""
    cells = [
        np.datetime_as_string(c).tolist() if c.dtype.kind == "M"
        else c.tolist() if c.dtype.kind == "U"
        else list(map(repr, c.tolist()))
        for c in columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*cells)), ""]))


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def _open_text(source):
    """The whole text of a path or file object without a leading byte-order
    mark (as Excel's "CSV UTF-8" writes). Paths and byte streams are decoded
    as UTF-8, and a byte that is not raises a DataError naming its row as
    _read_columns counts them; a path's line ends are read as newlines."""
    if hasattr(source, "read"):
        data = source.read()
        return _decode(data) if isinstance(data, bytes) else data.removeprefix("\ufeff")
    with open(os.fspath(source), "rb") as fh:
        text = _decode(fh.read())
    # text mode's newline translation, in one pass as open() does it
    return io.IncrementalNewlineDecoder(None, translate=True).decode(text, final=True)


def _decode(data):
    """The UTF-8 text of bytes, without a leading byte-order mark."""
    data = data.removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte's own, blank ones not counted
        before = (data[:exc.start].decode("utf-8") + "x").splitlines()[:-1]
        lines = sum(map(bool, before))
        where = f"row {lines}" if lines else "header"
        raise DataError(f"{where}: not UTF-8 text (byte {data[exc.start]:#04x})") from None


def _column_index(header, required):
    """{name: position} of the names in a header row.

    Names are stripped, as every cell is. A missing required name raises a
    DataError, and so does one of them given twice, which would otherwise
    be read from one of its columns without a word.
    """
    index = {}
    for i, name in enumerate(map(str.strip, header)):
        if name in index and name in required:
            raise DataError(f"duplicate column {name!r}")
        index.setdefault(name, i)
    for name in required:
        if name not in index:
            raise DataError(f"missing required column {name!r}")
    return index


def _read_columns(text, required):
    """{name: stripped cells} of the required columns of a CSV text with a
    header; other columns are not read.

    Blank lines, before the header too, are skipped and not counted, and a
    short row reads its missing trailing cells as blank, as in
    csv.DictReader. A row csv refuses (an oversized cell) or that holds a
    NUL raises a DataError naming it.
    """
    rows = csv.reader(text.splitlines())
    header, body = None, []
    try:
        header = next(filter(None, rows), [])
        for row in rows:
            if row:
                body.append(row)
    except csv.Error as exc:
        where = "header" if header is None else f"row {len(body) + 1}"
        raise DataError(f"{where}: {exc}") from None
    if "\x00" in text:
        # csv passes a NUL on from Python 3.11 and refuses it before; a numpy
        # string cell cannot show a trailing one, so refuse it everywhere
        i = next(i for i, row in enumerate([header, *body]) if "\x00" in "".join(row))
        raise DataError(f"{f'row {i}' if i else 'header'}: line contains NUL")
    index = _column_index(header, required)
    if body and min(map(len, body)) < len(header):
        body = [row + [""] * (len(header) - len(row)) for row in body]
    columns = list(zip(*body)) or [()] * len(header)
    return {name: list(map(str.strip, columns[index[name]])) for name in required}


def _convert(cells, parse, bad):
    """parse(cells), the whole column in one call. numpy refuses a column as
    a whole, so on failure parse runs cell by cell to find the first bad
    row: the DataError reads `row N: ` + bad.format(cell)."""
    try:
        return parse(cells)
    except (ValueError, OverflowError):
        for row_num, text in enumerate(cells, start=1):
            try:
                parse([text])
            except (ValueError, OverflowError):
                raise DataError(f"row {row_num}: " + bad.format(text)) from None
        raise


# numpy converts each str cell as float() and int() do (tests/test_data.py)
_floats = functools.partial(np.array, dtype=float)
_ints = functools.partial(np.array, dtype=int)


def _is_digit(points):
    return (points >= ord("0")) & (points <= ord("9"))


def _iso_dates(cells):
    """datetime64[D] of `YYYY-MM-DD` cells, a list of str or an S11 array.

    Each cell must hold ASCII digits at positions 0-3, 5-6 and 8-9, `-` at
    4 and 7 and nothing at 10; numpy then checks month and day, and the
    year must be at least 0001. The cells are held as bytes: numpy casts
    bytes to dates several times faster than str, and a longer cell keeps
    its eleventh character, so it is refused.
    """
    text = np.ascontiguousarray(cells, dtype="S11")
    points = text.view(np.uint8).reshape(len(text), 11)
    if not (_is_digit(points[:, [0, 1, 2, 3, 5, 6, 8, 9]]).all()
            and (points[:, [4, 7]] == ord("-")).all() and not points[:, 10].any()):
        raise ValueError("not a YYYY-MM-DD date")
    dates = text.astype("datetime64[D]")
    if (dates < np.datetime64("0001-01-01")).any():
        raise ValueError("year 0000")
    return dates


def _float_column(cells, name):
    """Finite floats, NaN for a blank cell."""
    values = _convert([text or "nan" for text in cells], _floats, f"bad {name} value {{!r}}")
    for i in np.flatnonzero(~np.isfinite(values)):
        if cells[i]:
            raise DataError(f"row {i + 1}: non-finite {name} value {cells[i]!r}")
    return values


def parse_observations(source):
    """Parse an observation CSV into an Observations table.

    Parameters
    ----------
    source : path or file object
        UTF-8 delimited text with a header row.

    Returns
    -------
    Observations
        One entry per data row, in file order. Empty cells become NaN;
        trace-precipitation tokens become pc = 0.

    Raises
    ------
    DataError
        On a missing required column, a malformed cell or an impossible
        value (the message names the 1-based data row and the field).
    """
    cells = _read_columns(_open_text(source), ("date",) + OBS_REQUIRED)
    date = _convert(cells.pop("date"), _iso_dates, "bad date value {!r}")
    cells["pc"] = ["0" if text in TRACE_TOKENS else text for text in cells["pc"]]
    return Observations(date=date, **{name: _float_column(cells[name], name) for name in cells})


def build_frame(table):
    """Assemble a ModelFrame from an Observations table.

    Rows are dropped and listed in the frame's drop_log with the first
    reason that holds: "missing field", "nonpositive concentration" (pm <=
    0) or "zero temperature range" (tmax == tmin). Emitted + dropped row
    counts always equal the input count. Dates must be strictly increasing.
    """
    date = table.date
    out_of_order = np.flatnonzero(date[1:] <= date[:-1])
    if out_of_order.size:
        i = out_of_order[0]
        raise DataError(f"records out of order: {date[i + 1]} follows {date[i]}")

    trg = table.tmax - table.tmin
    reason = np.select([~table.complete, ~(table.pm > 0), trg == 0.0],
                       ["missing field", "nonpositive concentration", "zero temperature range"],
                       "")
    keep = reason == ""
    lpm = lpm_from_pm(table.pm[keep])
    return ModelFrame(
        dates=date[keep],
        lpm=lpm,
        trg=trg[keep],
        t=table.t[keep],
        w=table.w[keep],
        pc=table.pc[keep],
        ep=table.ep[keep],
        id=id_from_lpm(lpm),
        drop_log=tuple(zip(date[~keep].tolist(), reason[~keep].tolist())),
    )


@dataclass(frozen=True)
class SixHourly:
    """Six-hourly forecast rows as columns, sorted by date, then slot.

    `date` is datetime64[D], `slot` the integer cycle hour; the forecast
    fields are finite floats.
    """

    date: np.ndarray
    slot: np.ndarray
    t: np.ndarray
    tmax: np.ndarray
    tmin: np.ndarray
    pc: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class NcepDaily:
    """Daily predictor rows collapsed from four six-hourly forecasts."""

    date: np.ndarray
    t: np.ndarray
    tmax: np.ndarray
    tmin: np.ndarray
    trg: np.ndarray
    pc: np.ndarray
    w: np.ndarray


def parse_ncep(source):
    """Parse a six-hourly forecast CSV (`date,slot,t,tmax,tmin,pc,w`).

    Rows are stably sorted by date, then slot. Slot must be one of 0, 6,
    12, 18; every other field must be numeric (the forecast product has no
    missing cells). numpy's C reader reads the text; text it refuses, or
    might read otherwise, goes cell by cell through the csv module, which
    names the bad row. Both give the same columns, and the checks below
    run on them whichever built them.
    """
    text = _open_text(source)
    date, slot, values = _ncep_by_loadtxt(text) or _ncep_by_cells(text)
    outside = np.flatnonzero(~np.isin(slot, NCEP_SLOTS))
    if outside.size:
        raise DataError(f"row {outside[0] + 1}: slot must be one of {NCEP_SLOTS}")
    for name in NCEP_FIELDS:
        blank = np.flatnonzero(np.isnan(values[name]))
        if blank.size:
            raise DataError(f"row {blank[0] + 1}: missing {name}")
    order = np.lexsort((slot, date))
    return SixHourly(
        date=date[order], slot=slot[order], **{name: v[order] for name, v in values.items()}
    )


# Dates and slots are bytes one character wider than they may be, so a
# longer cell shows; numpy keeps padding in a string cell where csv strips it.
_NCEP_ROW = np.dtype([("date", "S11"), ("slot", "S3")] + [(name, float) for name in NCEP_FIELDS])
# Quotes, NUL, and the line ends str.splitlines knows besides \n, all of
# which numpy's reader takes otherwise than csv and splitlines do
_LOADTXT_REFUSES = '"\x00\r\x0b\x0c\x1c\x1d\x1e'


def _ncep_by_loadtxt(text):
    """(date, slot, {field: values}) of a six-hourly table by numpy's C
    reader, or None for text that reader refuses or might read otherwise
    than _ncep_by_cells: a character outside ASCII or in _LOADTXT_REFUSES,
    a line long enough to reach csv's field limit, a short row, and a cell
    that is blank, padded, grouped, not finite, or a slot of other than one
    or two digits."""
    if not text.isascii() or any(c in text for c in _LOADTXT_REFUSES):
        return None
    half = max(csv.field_size_limit() // 2, 1)
    # a line longer than csv's field limit spans a whole stretch [i, i + half) with no \n
    if any(text.find("\n", i, i + half) < 0 for i in range(0, len(text), half)):
        return None
    head, _, body = text.lstrip("\n").partition("\n")
    if not body.strip("\n"):
        return None
    # with no quote in the text, csv splits the header line at every comma
    index = _column_index(head.split(","), NCEP_COLUMNS)
    try:
        table = np.loadtxt(io.StringIO(body), dtype=_NCEP_ROW, delimiter=",", comments=None,
                           quotechar=None, usecols=[index[name] for name in NCEP_COLUMNS], ndmin=1)
        date = _iso_dates(table["date"])
    except ValueError:
        return None
    values = {name: table[name] for name in NCEP_FIELDS}
    if not all(np.isfinite(v).all() for v in values.values()):
        return None  # the cell path names a non-finite cell by its text
    points = np.ascontiguousarray(table["slot"]).view(np.uint8).reshape(len(table), 3)
    one_digit = points[:, 1] == 0
    if not (_is_digit(points[:, 0]) & (one_digit | _is_digit(points[:, 1]))
            & (points[:, 2] == 0)).all():
        return None
    tens, units = points[:, :2].T.astype(int) - ord("0")
    return date, np.where(one_digit, tens, 10 * tens + units), values


def _ncep_by_cells(text):
    """(date, slot, {field: values}) of a six-hourly table read cell by cell;
    a bad or non-finite cell raises a DataError naming its row, a blank one
    reads as NaN."""
    cells = _read_columns(text, NCEP_COLUMNS)
    date = _convert(cells["date"], _iso_dates, "bad date value {!r}")
    slot = _convert(cells["slot"], _ints, "bad slot value {!r}")
    return date, slot, {name: _float_column(cells[name], name) for name in NCEP_FIELDS}


def aggregate_ncep(table):
    """Collapse each day's four forecast cycles to a single predictor row.

    t, tmax, tmin, pc aggregate by the mean (0.0 + s0 + s1 + s2 + s3) / 4
    and w by the first maximum, both folded in slot order, so every Python
    version gives the same bits (the builtin sum() of floats is compensated
    from Python 3.12 on). trg = mean(tmax) - mean(tmin), which may come out
    negative. A mean whose slot sum overflows the float range raises an
    AggregationError naming the day and field. `table` is sorted as
    parse_ncep returns it.
    """
    days, first, counts = np.unique(table.date, return_index=True, return_counts=True)
    # a day is whole when its rows are exactly the four slots, in order
    whole = counts == 4
    rows = first[whole][:, None] + np.arange(4)
    whole[whole] = (table.slot[rows] == NCEP_SLOTS).all(axis=1)
    if not whole.all():
        k = np.argmin(whole)
        got = table.slot[first[k]:first[k] + counts[k]].tolist()
        raise AggregationError(
            f"{days[k]}: need exactly the four slots {NCEP_SLOTS}, got {got}"
        )

    def mean(name):
        s0, s1, s2, s3 = getattr(table, name).reshape(-1, 4).T
        with np.errstate(over="ignore"):
            values = (0.0 + s0 + s1 + s2 + s3) / 4.0
        bad = np.flatnonzero(np.isinf(values))
        if bad.size:
            raise AggregationError(f"{days[bad[0]]}: daily {name} overflows the float range")
        return values

    slots = table.w.reshape(-1, 4).T
    wind = slots[0]
    for s in slots[1:]:
        wind = np.where(s > wind, s, wind)
    tmax = mean("tmax")
    tmin = mean("tmin")
    return NcepDaily(
        date=days, t=mean("t"), tmax=tmax, tmin=tmin, trg=tmax - tmin, pc=mean("pc"), w=wind
    )


def write_aggregated_csv(daily, path):
    columns = (daily.date, daily.t, daily.tmax, daily.tmin, daily.trg, daily.pc, daily.w)
    _write_columns(path, ["date", "t", "tmax", "tmin", "trg", "pc", "w"], columns)
