"""Ingestion of daily observations and six-hourly forecast tables.

Observation CSVs carry `date,pm,t,tmax,tmin,pc,w,ep[,hm]` with temperatures
in 0.1 degC, precipitation and evaporation in 0.1 mm, wind in 0.1 m/s.
Values stay in that raw scale end to end; the only derived quantities are
lpm = 10*ln(pm), trg = tmax - tmin and the pollution-level indicator id.
"""

import csv
import datetime as dt
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AggregationError, DataError

# Non-numeric precipitation markers that mean "trace amount"; they parse as 0.
TRACE_TOKENS = frozenset({"微量", "T", "trace"})

OBS_REQUIRED = ("pm", "t", "tmax", "tmin", "pc", "w", "ep")
NCEP_SLOTS = (0, 6, 12, 18)

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


@dataclass(frozen=True)
class DailyRecord:
    """One calendar day of observations; None marks a missing value."""

    date: dt.date
    pm: float | None
    t: float | None
    tmax: float | None
    tmin: float | None
    pc: float | None
    w: float | None
    ep: float | None
    hm: float | None = None  # parsed when present, never used as a regressor

    def __post_init__(self):
        for name in ("pm", "pc", "w", "ep"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise DataError(f"{self.date}: negative {name} ({value})")
        if self.tmax is not None and self.tmin is not None and self.tmax < self.tmin:
            raise DataError(f"{self.date}: tmax ({self.tmax}) below tmin ({self.tmin})")

    @property
    def complete(self):
        return all(
            getattr(self, name) is not None for name in OBS_REQUIRED
        )


@dataclass(frozen=True)
class ModelFrame:
    """Regression-ready rows in date order with no missing values.

    Arrays share one length; `id` stores the indicator as a float so it can
    enter design matrices directly. `drop_log` records (date, reason) for
    every input row excluded during construction.

    A stacked frame holds one sample per leading index: every column is
    (samples, rows), each row of `dates` in order. `subset` with a 2-D
    index array builds one; the model functions evaluate all its samples
    at once.
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
        shape = self.dates.shape
        if len(shape) not in (1, 2):
            raise DataError("frame columns must be 1-d, or 2-d for a stack of samples")
        for name in ("lpm", "trg", "t", "w", "pc", "ep", "id"):
            values = getattr(self, name)
            if values.shape != shape:
                raise DataError(f"frame column {name} has mismatched length")
            finite = np.isfinite(values)
            if not finite.all():
                raise DataError(f"frame column {name} is non-finite on {self.dates[~finite][0]}")
        if shape[-1] > 1 and np.any(np.diff(self.dates, axis=-1) < np.timedelta64(0, "D")):
            raise DataError("frame dates must be non-decreasing")

    @property
    def n(self):
        """Rows per sample."""
        return int(self.dates.shape[-1])

    def lag_steps(self):
        """True where a row is exactly one day after the row before it."""
        return np.diff(self.dates, axis=-1) == np.timedelta64(1, "D")

    def lag_pairs(self):
        """Index pairs (prev, curr) of rows exactly one day apart.

        Gaps longer than a day (season boundaries) and repeated dates
        (possible in resampled frames) yield no pair. On a stacked frame
        both are (samples, pairs) arrays, so every sample must hold the
        same number of pairs.
        """
        if self.n < 2:
            empty = np.empty(self.dates.shape[:-1] + (0,), dtype=int)
            return empty, empty
        steps = self.lag_steps()
        if steps.ndim == 1:
            curr = np.nonzero(steps)[0] + 1
            return curr - 1, curr
        counts = steps.sum(axis=1)
        if np.any(counts != counts[0]):
            raise ValueError("the samples of a stacked frame differ in lag-pair count")
        curr = np.nonzero(steps)[1].reshape(steps.shape[0], -1) + 1
        return curr - 1, curr

    def subset(self, indices):
        """Row subset in the given order; indices must keep dates sorted.

        A 2-D index array gives a stacked frame, one sample per index row.
        On a stacked frame, a 1-D index array picks whole samples.
        """
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

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "lpm", "trg", "t", "w", "pc", "ep", "id"])
            for i in range(self.n):
                writer.writerow(
                    [str(self.dates[i])]
                    + [
                        repr(float(col[i]))
                        for col in (self.lpm, self.trg, self.t, self.w, self.pc, self.ep)
                    ]
                    + [int(self.id[i])]
                )


def _open_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return data.splitlines()
    with open(os.fspath(source), "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _parse_float(raw, row_num, field):
    text = raw.strip() if raw is not None else ""
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row_num}: bad {field} value {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row_num}: non-finite {field} value {text!r}")
    return value


def parse_observations(source, columns=None):
    """Parse an observation CSV into DailyRecord rows.

    Parameters
    ----------
    source : path or file object
        UTF-8 delimited text with a header row.
    columns : mapping, optional
        Renames canonical column names (date, pm, t, tmax, tmin, pc, w, ep,
        hm) to the actual header names.

    Returns
    -------
    list of DailyRecord
        One record per data row, in file order. Empty cells become None;
        trace-precipitation tokens become pc = 0.

    Raises
    ------
    DataError
        On a missing required column or a malformed cell (the message names
        the 1-based data row and the field).
    """
    colmap = dict(columns) if columns else {}

    def col(name):
        return colmap.get(name, name)

    lines = _open_text(source)
    reader = csv.DictReader(lines)
    header = reader.fieldnames or []
    for name in ("date",) + OBS_REQUIRED:
        if col(name) not in header:
            raise DataError(f"missing required column {col(name)!r}")
    has_hm = col("hm") in header

    records = []
    for row_num, row in enumerate(reader, start=1):
        raw_date = (row.get(col("date")) or "").strip()
        try:
            date = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise DataError(f"row {row_num}: bad date value {raw_date!r}") from None

        raw_pc = (row.get(col("pc")) or "").strip()
        if raw_pc in TRACE_TOKENS:
            pc = 0.0
        else:
            pc = _parse_float(raw_pc, row_num, "pc")

        values = {
            name: _parse_float(row.get(col(name)), row_num, name)
            for name in ("pm", "t", "tmax", "tmin", "w", "ep")
        }
        hm = _parse_float(row.get(col("hm")), row_num, "hm") if has_hm else None
        try:
            records.append(DailyRecord(date=date, pc=pc, hm=hm, **values))
        except DataError as exc:
            raise DataError(f"row {row_num}: {exc}") from None
    return records


def build_frame(records):
    """Assemble a ModelFrame, dropping incomplete or nonpositive-pm rows.

    Records must be strictly increasing in date. Dropped rows are listed in
    the frame's drop_log; emitted + dropped row counts always equal the
    input count.
    """
    records = list(records)
    for prev, curr in zip(records, records[1:]):
        if curr.date <= prev.date:
            raise DataError(
                f"records out of order: {curr.date} follows {prev.date}"
            )

    kept = []
    drop_log = []
    for rec in records:
        if not rec.complete:
            drop_log.append((rec.date, "missing field"))
        elif rec.pm <= 0:
            drop_log.append((rec.date, "nonpositive concentration"))
        else:
            kept.append(rec)

    lpm = np.array([10.0 * math.log(rec.pm) for rec in kept])
    return ModelFrame(
        dates=np.array([rec.date for rec in kept], dtype="datetime64[D]"),
        lpm=lpm,
        trg=np.array([rec.tmax - rec.tmin for rec in kept], dtype=float),
        t=np.array([rec.t for rec in kept], dtype=float),
        w=np.array([rec.w for rec in kept], dtype=float),
        pc=np.array([rec.pc for rec in kept], dtype=float),
        ep=np.array([rec.ep for rec in kept], dtype=float),
        id=np.array([float(id_from_lpm(v)) for v in lpm]),
        drop_log=tuple(drop_log),
    )


class SlotForecast(NamedTuple):
    slot: int
    t: float
    tmax: float
    tmin: float
    pc: float
    w: float


@dataclass(frozen=True)
class NcepSixHourly:
    """All forecast cycles issued for one calendar day."""

    date: dt.date
    slots: tuple


@dataclass(frozen=True)
class AggregatedDay:
    """Daily predictor row collapsed from four six-hourly forecasts."""

    date: dt.date
    t: float
    tmax: float
    tmin: float
    trg: float
    pc: float
    w: float


def parse_ncep(source):
    """Parse a six-hourly forecast CSV (`date,slot,t,tmax,tmin,pc,w`).

    Rows are grouped per date, sorted by date then slot. Slot must be one
    of 0, 6, 12, 18; every other field must be numeric (the forecast
    product has no missing cells).
    """
    lines = _open_text(source)
    reader = csv.DictReader(lines)
    header = reader.fieldnames or []
    for name in ("date", "slot", "t", "tmax", "tmin", "pc", "w"):
        if name not in header:
            raise DataError(f"missing required column {name!r}")

    by_date = {}
    for row_num, row in enumerate(reader, start=1):
        raw_date = (row.get("date") or "").strip()
        try:
            date = dt.date.fromisoformat(raw_date)
        except ValueError:
            raise DataError(f"row {row_num}: bad date value {raw_date!r}") from None
        raw_slot = (row.get("slot") or "").strip()
        try:
            slot = int(raw_slot)
        except ValueError:
            raise DataError(f"row {row_num}: bad slot value {raw_slot!r}") from None
        if slot not in NCEP_SLOTS:
            raise DataError(f"row {row_num}: slot must be one of {NCEP_SLOTS}")
        values = []
        for name in ("t", "tmax", "tmin", "pc", "w"):
            value = _parse_float(row.get(name), row_num, name)
            if value is None:
                raise DataError(f"row {row_num}: missing {name}")
            values.append(value)
        by_date.setdefault(date, []).append(SlotForecast(slot, *values))

    return [
        NcepSixHourly(date=date, slots=tuple(sorted(by_date[date])))
        for date in sorted(by_date)
    ]


def aggregate_ncep(day):
    """Collapse one day's four forecast cycles to a single predictor row.

    t, tmax, tmin, pc aggregate by arithmetic mean and w by maximum;
    trg = mean(tmax) - mean(tmin), which may come out negative.
    """
    slots = day.slots
    if len(slots) != 4 or {s.slot for s in slots} != set(NCEP_SLOTS):
        raise AggregationError(
            f"{day.date}: need exactly the four slots {NCEP_SLOTS}, "
            f"got {sorted(s.slot for s in slots)}"
        )
    tmax = sum(s.tmax for s in slots) / 4.0
    tmin = sum(s.tmin for s in slots) / 4.0
    return AggregatedDay(
        date=day.date,
        t=sum(s.t for s in slots) / 4.0,
        tmax=tmax,
        tmin=tmin,
        trg=tmax - tmin,
        pc=sum(s.pc for s in slots) / 4.0,
        w=max(s.w for s in slots),
    )


def write_aggregated_csv(days, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "t", "tmax", "tmin", "trg", "pc", "w"])
        for day in days:
            writer.writerow(
                [day.date.isoformat()]
                + [repr(float(v)) for v in (day.t, day.tmax, day.tmin, day.trg, day.pc, day.w)]
            )
