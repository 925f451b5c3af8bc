"""Frozen single-value concentration model, interval forecasts, validation.

The frozen model works on the concentration scale:

    pm_hat = exp(a*exp(-b/trg) + c_w*w + c_t*t + c_pc*pc + c_ep*ep + c_id*id)

Coefficients map from a 7-parameter log-scale estimate by dividing through
by the log-transform factor 10, except b, which sits inside the inner
exponential and carries over unchanged. Forecasts come from one column
path, `forecast_series`: `_log_pm` evaluates the id-free exponent once per
day, and the algorithm-2 indicator (the id of that exponent's forecast)
and pm_hat both use it.
"""

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import (
    ONE_DAY, _convert, _floats, _iso_dates, _open_text, _read_columns, _write_columns,
    _write_json, id_from_lpm, lpm_from_pm,
)
from .errors import DataError
from .numerics import _elementwise

FORECAST_COLUMNS = ("date", "pm_hat", "id_source", "arm", "lo", "hi", "flags")
ARMS = ("low", "band", "high")
ID_SOURCES = ("algo1", "algo2", "observed")

# pm_hat below LOW_ARM_CUT forecasts the fixed band (0, LOW_ARM_CUT), above
# HIGH_ARM_CUT the open band (HIGH_ARM_CUT, inf)
LOW_ARM_CUT = 35.0
HIGH_ARM_CUT = 150.0

# Predictor ranges seen while building the frozen model; leaving them marks
# a forecast as extrapolation.
BUILD_RANGES = {
    "t": (-38.0, 243.0),
    "trg": (9.0, 205.0),
    "w": (16.0, 91.0),
    "pc": (0.0, 689.0),
    "ep": (0.0, 64.0),
}


class Predictors(NamedTuple):
    trg: float
    w: float
    t: float
    pc: float
    ep: float


class PredictorTable(NamedTuple):
    """Predictor columns of the forecast days in input order: `date` is
    datetime64[D], the Predictors fields float arrays."""

    date: np.ndarray
    trg: np.ndarray
    w: np.ndarray
    t: np.ndarray
    pc: np.ndarray
    ep: np.ndarray


@dataclass(frozen=True)
class ForecastTable:
    """Interval forecasts as columns, one entry per forecast day.

    `date` is datetime64[D]; `pm_hat`, `lo` and `hi` are floats;
    `id_source`, `arm` and `flags` are strings, `flags` the row's hazard
    flags joined by ';' ('' when it has none).
    """

    date: np.ndarray
    pm_hat: np.ndarray
    id_source: np.ndarray
    arm: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    flags: np.ndarray

    def __len__(self):
        return len(self.date)

    def covers(self, pm):
        """True on the rows whose interval holds the row's observed pm."""
        return _covers(self.arm, self.lo, self.hi, pm)


@dataclass(frozen=True)
class FrozenModel:
    a: float
    b: float
    c_w: float
    c_t: float
    c_pc: float
    c_ep: float
    c_id: float

    @classmethod
    def from_lpm_params(cls, theta):
        """Convert a 7-parameter log-scale estimate to concentration scale."""
        theta = [float(v) for v in theta]
        if len(theta) != 7:
            raise ValueError("need exactly 7 parameters")
        return cls(
            a=theta[0] / 10.0,
            b=theta[1],
            c_w=theta[2] / 10.0,
            c_t=theta[3] / 10.0,
            c_pc=theta[4] / 10.0,
            c_ep=theta[5] / 10.0,
            c_id=theta[6] / 10.0,
        )

    def to_json(self, path):
        _write_json(self.__dict__, path)

    @classmethod
    def from_json(cls, path):
        """FrozenModel of a JSON object holding every coefficient as a
        finite number, read as UTF-8 with or without a byte-order mark."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            raw = json.loads(data.decode("utf-8-sig"))
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise DataError(f"coefficients file: not UTF-8 text (byte {byte:#04x})") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"coefficients file: {exc}") from None
        if not isinstance(raw, dict):
            raise DataError("coefficients file must hold a JSON object")
        values = {}
        for key in cls.__dataclass_fields__:
            if key not in raw:
                raise DataError(f"coefficients file missing key {key!r}")
            value = raw[key]
            # int and float compare exactly: nan, +-inf and integers beyond
            # the float range all fail
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise DataError(f"coefficients file: {key} must be a finite number, got {value!r}")
            values[key] = float(value)
        return cls(**values)


# Bias-corrected estimate shipped as the default coefficient set.
PRESETS = {
    "thesis-2018": FrozenModel(
        a=4.567223,
        b=0.34431,
        c_w=-0.002258,
        c_t=-0.000109,
        c_pc=-0.000912,
        c_ep=-0.005976,
        c_id=0.736975,
    )
}


@dataclass(frozen=True)
class IntervalProfile:
    """Band offsets around pm_hat: (r, 1.5r) standard, (1.5r, r) ncep."""

    kind: str
    r: float

    def __post_init__(self):
        if self.kind not in ("standard", "ncep"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.r <= 0:
            raise ValueError("r must be positive")

    @property
    def offsets(self):
        if self.kind == "standard":
            return self.r, 1.5 * self.r
        return 1.5 * self.r, self.r


PROFILES = {
    "standard-i1": IntervalProfile("standard", 20.0),
    "standard-i2": IntervalProfile("standard", 30.0),
    "ncep-i1": IntervalProfile("ncep", 20.0),
    "ncep-i2": IntervalProfile("ncep", 30.0),
}


@dataclass(frozen=True)
class IntervalForecast:
    arm: str  # "low", "band" or "high"
    lo: float
    hi: float
    pm_hat: float

    def covers(self, pm):
        return bool(_covers(self.arm, self.lo, self.hi, pm))


def _covers(arm, lo, hi, pm):
    """True where pm falls inside its interval: below LOW_ARM_CUT in the low
    arm, above HIGH_ARM_CUT in the high arm, within [lo, hi] in a band."""
    inside = (lo <= pm) & (pm <= hi)
    return np.where(arm == "low", pm < LOW_ARM_CUT, np.where(arm == "high", pm > HIGH_ARM_CUT, inside))


def _safe_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_pm(model, predictors):
    """Id-free log-scale forecasts over predictor columns: the sum is taken
    left to right as the formula reads, the inner exponential per element."""
    for name in Predictors._fields:
        values = getattr(predictors, name)
        if not np.isfinite(values).all():
            raise DataError(f"predictor {name} is non-finite: {values[~np.isfinite(values)][0]}")
    # overflow, 0 * inf and a zero trg pass silently, as they do on Python
    # floats; the callers refuse or skip a trg = 0 day
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (
            model.a * _elementwise(_safe_exp, -model.b / predictors.trg)
            + model.c_w * predictors.w
            + model.c_t * predictors.t
            + model.c_pc * predictors.pc
            + model.c_ep * predictors.ep
        )


def predict_pm(model, predictors, id_value):
    """Single-value concentration forecast from the frozen model."""
    if id_value not in (-1, 0, 1):
        raise ValueError(f"id must be -1, 0 or 1, got {id_value}")
    columns = Predictors(*np.array([predictors], dtype=float).T)
    log_pm = float(_log_pm(model, columns)[0])
    if columns.trg[0] == 0.0:
        raise DataError("trg = 0: the nonlinear term is undefined")
    return _safe_exp(log_pm + model.c_id * id_value)


def _id_from_pm(pm):
    # an id-free forecast can underflow to pm = 0, whose lpm is -inf
    return id_from_lpm(lpm_from_pm(pm))


def predict_id_algo1(prev_pm):
    """Indicator from the previous day's observed concentration."""
    if prev_pm is None or prev_pm <= 0:
        raise DataError("previous-day concentration unavailable or nonpositive")
    return int(_id_from_pm(prev_pm)[0])


def _intervals(pm_hat, profile):
    """(arm, lo, hi) columns of the interval forecasts around pm_hat."""
    bad = ~(pm_hat > 0)
    if bad.any():
        raise ValueError(f"pm_hat must be positive, got {pm_hat[bad][0]}")
    d_lo, d_hi = profile.offsets
    low = pm_hat < LOW_ARM_CUT
    high = pm_hat > HIGH_ARM_CUT
    arm = np.where(low, "low", np.where(high, "high", "band"))
    lo = np.where(low, 0.0, np.where(high, HIGH_ARM_CUT, np.maximum(pm_hat - d_lo, 0.0)))
    hi = np.where(low, LOW_ARM_CUT, np.where(high, math.inf, pm_hat + d_hi))
    return arm, lo, hi


def interval(pm_hat, profile):
    """Interval forecast around pm_hat.

    Arms: below 35 -> the fixed low band (0, 35); above 150 -> the open
    high band; otherwise a band of width 2.5r around pm_hat with the
    profile's offsets, lower bound clamped at 0. pm_hat exactly 150 falls
    in the band arm by convention. An infinite pm_hat (an overflowing
    forecast) is in the high arm; a nan one is refused.
    """
    arm, lo, hi = _intervals(np.array([pm_hat], dtype=float), profile)
    return IntervalForecast(str(arm[0]), float(lo[0]), float(hi[0]), pm_hat)


def _hazards(predictors, pm_hat):
    """Each forecast's hazard flags joined by ';', '' when it has none."""
    negative = predictors.trg < 0
    hits = {}
    for name in ("t", "trg", "w", "pc", "ep"):
        lo, hi = BUILD_RANGES[name]
        values = getattr(predictors, name)
        outside = ~((lo <= values) & (values <= hi))
        hits[f"EXTRAPOLATION({name})"] = outside & ~negative if name == "trg" else outside
    hits["NEGATIVE_TRG"] = negative
    hits["UNRELIABLE"] = negative & (pm_hat > 300.0)
    flags = np.array(list(hits))
    hits = np.array(list(hits.values()))
    cells = [""] * len(pm_hat)
    for i in np.flatnonzero(hits.any(axis=0)).tolist():
        cells[i] = ";".join(flags[hits[:, i]])
    return np.array(cells, dtype=str)


def forecast_series(model, predictors, profile, id_source="algo1", observations=None):
    """Run the single-value and interval models over a PredictorTable.

    id_source selects the indicator: "algo1" thresholds the previous day's
    observed concentration and falls back to algorithm 2 for days without
    one; "algo2" uses the id-free forecast; "observed" thresholds the same
    day's observed concentration. Observed concentrations are the pm
    column of `observations`, an Observations table. Returns (table,
    skipped): a ForecastTable, and (date, reason) in date order for the days
    that could not be forecast. A day's reason is the first that holds of:
    trg = 0, no same-day observed concentration (id_source "observed"),
    pm_hat underflowing to 0, and pm_hat undefined.
    """
    if id_source not in ID_SOURCES:
        raise ValueError(f"unknown id source {id_source!r}")
    date = predictors.date
    if observations is None or id_source == "algo2":
        pm = np.full(len(date), math.nan)
    else:
        pm = observations.lookup("pm", date - ONE_DAY if id_source == "algo1" else date)
    log_pm = _log_pm(model, predictors)
    from_obs = pm > 0
    id_value = _id_from_pm(np.where(from_obs, pm, _elementwise(_safe_exp, log_pm)))
    with np.errstate(over="ignore", invalid="ignore"):
        pm_hat = _elementwise(_safe_exp, log_pm + model.c_id * id_value)
    reason = np.select(
        [predictors.trg == 0.0, ~from_obs & (id_source == "observed"), pm_hat == 0.0,
         np.isnan(pm_hat)],
        ["trg = 0: single-value model undefined", "no observed concentration for id",
         "pm_hat underflows to 0", "pm_hat is undefined (0 * inf or inf - inf)"],
        "",
    )
    keep = reason == ""
    predictors = PredictorTable(*(column[keep] for column in predictors))
    pm_hat, source = pm_hat[keep], np.where(from_obs, id_source, "algo2")[keep]
    arm, lo, hi = _intervals(pm_hat, profile)
    flags = _hazards(predictors, pm_hat)
    skipped = list(zip(date[~keep].tolist(), reason[~keep].tolist()))
    return ForecastTable(predictors.date, pm_hat, source, arm, lo, hi, flags), skipped


def _predictor_table(keep, reason, date, trg, w, t, pc, ep):
    """PredictorTable of the rows where `keep` holds; (date, reason) elsewhere."""
    table = PredictorTable(*(column[keep] for column in (date, trg, w, t, pc, ep)))
    return table, [(d, reason) for d in date[~keep].tolist()]


def predictors_from_aggregated(daily, observations):
    """Join an NcepDaily table with the observed evaporation.

    Evaporation has no forecast product, so each day takes the observed
    value; days without one are skipped and reported.
    """
    ep = observations.lookup("ep", daily.date)
    return _predictor_table(
        ~np.isnan(ep), "no observed ep", daily.date, daily.trg, daily.w, daily.t, daily.pc, ep
    )


def predictors_from_records(obs):
    """Predictor rows straight from the complete rows of an Observations table."""
    return _predictor_table(
        obs.complete, "missing field", obs.date, obs.tmax - obs.tmin, obs.w, obs.t, obs.pc, obs.ep
    )


def write_forecast_csv(table, path):
    """Forecast table: `date,pm_hat,id_source,arm,lo,hi,flags`."""
    _write_columns(path, FORECAST_COLUMNS, [getattr(table, name) for name in FORECAST_COLUMNS])


def read_forecast_csv(path):
    """ForecastTable of a forecast CSV.

    A cell that does not parse makes its row malformed. pm_hat must be
    positive; an infinite one is an overflowing forecast and is kept. lo
    and hi must not be nan, lo must not exceed hi, a low row must record
    (0, LOW_ARM_CUT) and a high row (HIGH_ARM_CUT, inf), arm must be one of
    ARMS and id_source one of ID_SOURCES.
    """
    cells = _read_columns(_open_text(path), FORECAST_COLUMNS)
    malformed = "malformed forecast row"
    date = _convert(cells["date"], _iso_dates, malformed)
    pm_hat, lo, hi = (_convert(cells[name], _floats, malformed) for name in ("pm_hat", "lo", "hi"))
    arm, id_source, flags = (np.array(cells[n], dtype=str) for n in ("arm", "id_source", "flags"))
    low, high = arm == "low", arm == "high"
    for name, bad in (
        ("pm_hat", ~(pm_hat > 0)),
        ("id_source", ~np.isin(id_source, ID_SOURCES)),
        ("arm", ~np.isin(arm, ARMS)),
        ("lo", np.isnan(lo) | (lo > hi) | low & (lo != 0.0) | high & (lo != HIGH_ARM_CUT)),
        ("hi", np.isnan(hi) | low & (hi != LOW_ARM_CUT) | high & (hi != math.inf)),
    ):
        rows = np.flatnonzero(bad)
        if rows.size:
            raise DataError(f"row {rows[0] + 1}: bad {name} value {cells[name][rows[0]]!r}")
    return ForecastTable(date, pm_hat, id_source, arm, lo, hi, flags)


def inclusion_report(table, observed):
    """Per-profile and per-id-source inclusion rates for a ForecastTable.

    `observed` holds the observed concentration of each forecast day, NaN
    where there is none; such a day raises. Besides the rates of the
    intervals as recorded, each preset profile is re-derived from pm_hat
    (arm cuts depend on pm_hat alone, so presets are comparable on any
    forecast table).
    """
    unmatched = np.isnan(observed)
    if unmatched.any():
        raise DataError(
            "no observation for: " + ", ".join(map(str, table.date[unmatched].tolist()))
        )
    n = len(table)
    if not n:
        raise ValueError("empty forecast table")

    def rates(arm, lo, hi):
        covered = _covers(arm, lo, hi, observed)
        members = {a: arm == a for a in ARMS}
        return {
            "rate": int(covered.sum()) / n,
            "arms": {a: {"n": int(m.sum()), "covered": int((covered & m).sum())}
                     for a, m in members.items()},
        }

    covered = table.covers(observed)
    report = {
        "n": n,
        "recorded": rates(table.arm, table.lo, table.hi),
        "profiles": {name: rates(*_intervals(table.pm_hat, p)) for name, p in PROFILES.items()},
        "by_id_source": {},
    }
    for source in sorted(set(table.id_source.tolist())):
        members = table.id_source == source
        count = int(members.sum())
        report["by_id_source"][source] = {"n": count, "rate": int(covered[members].sum()) / count}
    return report
