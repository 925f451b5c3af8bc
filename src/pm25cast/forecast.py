"""Frozen single-value concentration model, interval forecasts, validation.

The frozen model works on the concentration scale:

    pm_hat = exp(a*exp(-b/trg) + c_w*w + c_t*t + c_pc*pc + c_ep*ep + c_id*id)

Coefficients map from a 7-parameter log-scale estimate by dividing through
by the log-transform factor 10, except b, which sits inside the inner
exponential and carries over unchanged.
"""

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _read_columns, id_from_lpm
from .errors import DataError

FORECAST_COLUMNS = ("date", "pm_hat", "id_source", "arm", "lo", "hi", "flags")

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return cls(**{k: float(raw[k]) for k in ("a", "b", "c_w", "c_t", "c_pc", "c_ep", "c_id")})
        except KeyError as exc:
            raise DataError(f"coefficients file missing key {exc}") from None


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
    flags: tuple = ()

    def covers(self, pm):
        if self.arm == "low":
            return pm < 35.0
        if self.arm == "high":
            return pm > 150.0
        return self.lo <= pm <= self.hi


def _safe_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def predict_pm(model, predictors, id_value):
    """Single-value concentration forecast from the frozen model."""
    if id_value not in (-1, 0, 1):
        raise ValueError(f"id must be -1, 0 or 1, got {id_value}")
    for name in Predictors._fields:
        value = getattr(predictors, name)
        if not math.isfinite(value):
            raise DataError(f"predictor {name} is non-finite: {value}")
    if predictors.trg == 0.0:
        raise DataError("trg = 0: the nonlinear term is undefined")
    expo = _safe_exp(-model.b / predictors.trg)
    return _safe_exp(
        model.a * expo
        + model.c_w * predictors.w
        + model.c_t * predictors.t
        + model.c_pc * predictors.pc
        + model.c_ep * predictors.ep
        + model.c_id * id_value
    )


def _id_from_pm(pm):
    # the frame's indicator on lpm = 10*ln(pm); an id-free forecast can
    # underflow to pm = 0, whose lpm is -inf
    return int(id_from_lpm(-math.inf if pm <= 0 else 10.0 * math.log(pm)))


def predict_id_algo1(prev_pm):
    """Indicator from the previous day's observed concentration."""
    if prev_pm is None or prev_pm <= 0:
        raise DataError("previous-day concentration unavailable or nonpositive")
    return _id_from_pm(prev_pm)


def predict_id_algo2(model, predictors):
    """Indicator from the id-free single-value forecast."""
    pm_prime = predict_pm(model, predictors, 0)
    return _id_from_pm(pm_prime)


def interval(pm_hat, profile):
    """Interval forecast around pm_hat.

    Arms: below 35 -> the fixed low band (0, 35); above 150 -> the open
    high band; otherwise a band of width 2.5r around pm_hat with the
    profile's offsets, lower bound clamped at 0. pm_hat exactly 150 falls
    in the band arm by convention. An infinite pm_hat (an overflowing
    forecast) is in the high arm; a nan one is refused.
    """
    if not pm_hat > 0:
        raise ValueError(f"pm_hat must be positive, got {pm_hat}")
    if pm_hat < 35.0:
        return IntervalForecast("low", 0.0, 35.0, pm_hat)
    if pm_hat > 150.0:
        return IntervalForecast("high", 150.0, math.inf, pm_hat)
    d_lo, d_hi = profile.offsets
    return IntervalForecast("band", max(0.0, pm_hat - d_lo), pm_hat + d_hi, pm_hat)


def inclusion_rate(forecasts, observed):
    """Fraction of observations falling inside their interval forecast."""
    forecasts = list(forecasts)
    observed = list(observed)
    if len(forecasts) != len(observed):
        raise ValueError("forecasts and observations must align")
    if not forecasts:
        raise ValueError("inclusion rate undefined on empty input")
    covered = sum(fc.covers(pm) for fc, pm in zip(forecasts, observed))
    return covered / len(forecasts)


def hazard_flags(predictors, pm_hat, build_ranges=None):
    """Extrapolation markers for a forecast row.

    EXTRAPOLATION(var) for any predictor outside its build range, except
    that a negative trg reports the dedicated NEGATIVE_TRG flag instead;
    UNRELIABLE joins it when a negative trg drives pm_hat above 300.
    """
    ranges = BUILD_RANGES if build_ranges is None else build_ranges
    flags = []
    for name in ("t", "trg", "w", "pc", "ep"):
        value = getattr(predictors, name)
        if name == "trg" and value < 0:
            continue
        lo, hi = ranges[name]
        if not lo <= value <= hi:
            flags.append(f"EXTRAPOLATION({name})")
    if predictors.trg < 0:
        flags.append("NEGATIVE_TRG")
        if pm_hat > 300.0:
            flags.append("UNRELIABLE")
    return tuple(flags)


@dataclass(frozen=True)
class ForecastRow:
    date: dt.date
    pm_hat: float
    id_source: str
    interval: IntervalForecast


def forecast_series(
    model,
    dated_predictors,
    profile,
    id_source="algo1",
    prev_pm_by_date=None,
    pm_by_date=None,
):
    """Run the single-value and interval models over dated predictor rows.

    id_source selects the indicator: "algo1" thresholds the previous day's
    observed concentration and falls back to algorithm 2 for days without
    one; "algo2" uses the id-free forecast; "observed" thresholds the same
    day's observed concentration. Returns (rows, skipped) where skipped
    lists (date, reason) for rows that could not be forecast.
    """
    if id_source not in ("algo1", "algo2", "observed"):
        raise ValueError(f"unknown id source {id_source!r}")
    prev_pm_by_date = prev_pm_by_date or {}
    pm_by_date = pm_by_date or {}
    rows = []
    skipped = []
    for date, predictors in dated_predictors:
        if predictors.trg == 0.0:
            skipped.append((date, "trg = 0: single-value model undefined"))
            continue
        used = id_source
        if id_source == "algo1":
            prev = prev_pm_by_date.get(date - dt.timedelta(days=1))
            if prev is not None and prev > 0:
                id_value = _id_from_pm(prev)
            else:
                id_value = predict_id_algo2(model, predictors)
                used = "algo2"
        elif id_source == "algo2":
            id_value = predict_id_algo2(model, predictors)
        else:
            pm_today = pm_by_date.get(date)
            if pm_today is None or pm_today <= 0:
                skipped.append((date, "no observed concentration for id"))
                continue
            id_value = _id_from_pm(pm_today)
        pm_hat = predict_pm(model, predictors, id_value)
        fc = interval(pm_hat, profile)
        fc = IntervalForecast(
            fc.arm, fc.lo, fc.hi, pm_hat, hazard_flags(predictors, pm_hat)
        )
        rows.append(ForecastRow(date, pm_hat, used, fc))
    return rows, skipped


def _split_rows(keep, reason, date, *columns):
    """(date, Predictors) rows where `keep` holds, (date, reason) elsewhere.

    `columns` are the five predictor arrays in Predictors field order.
    """
    values = (c[keep].tolist() for c in columns)
    dated = [(d, Predictors(*row)) for d, *row in zip(date[keep].tolist(), *values)]
    return dated, [(d, reason) for d in date[~keep].tolist()]


def predictors_from_aggregated(daily, observations):
    """Join an NcepDaily table with the observed evaporation.

    Evaporation has no forecast product, so each day takes the observed
    value; days without one are skipped and reported.
    """
    ep_by_date = observations.by_date("ep")
    ep = np.array([ep_by_date.get(d, math.nan) for d in daily.date.tolist()], dtype=float)
    return _split_rows(
        ~np.isnan(ep), "no observed ep", daily.date, daily.trg, daily.w, daily.t, daily.pc, ep
    )


def predictors_from_records(obs):
    """Predictor rows straight from the complete rows of an Observations table."""
    return _split_rows(
        obs.complete, "missing field", obs.date, obs.tmax - obs.tmin, obs.w, obs.t, obs.pc, obs.ep
    )


def write_forecast_csv(rows, path):
    """Forecast table: `date,pm_hat,id_source,arm,lo,hi,flags`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FORECAST_COLUMNS)
        for row in rows:
            fc = row.interval
            writer.writerow(
                [
                    row.date.isoformat(),
                    repr(float(row.pm_hat)),
                    row.id_source,
                    fc.arm,
                    repr(float(fc.lo)),
                    repr(float(fc.hi)),
                    ";".join(fc.flags),
                ]
            )


def read_forecast_csv(path):
    """ForecastRow list of a forecast table.

    An infinite pm_hat is an overflowing forecast and is kept; a nan one
    is refused.
    """
    columns = _read_columns(path, FORECAST_COLUMNS).values()
    rows = []
    for row_num, (date, pm_hat, id_source, arm, lo, hi, flags) in enumerate(zip(*columns), 1):
        try:
            pm = float(pm_hat)
            flagged = tuple(f for f in flags.split(";") if f)
            fc = IntervalForecast(arm, float(lo), float(hi), pm, flagged)
            rows.append(ForecastRow(dt.date.fromisoformat(date), pm, id_source, fc))
        except ValueError:
            raise DataError(f"row {row_num}: malformed forecast row") from None
        if math.isnan(pm):
            raise DataError(f"row {row_num}: bad pm_hat value {pm_hat!r}")
    return rows


def inclusion_report(rows, pm_by_date):
    """Per-profile and per-id-source inclusion rates for a forecast table.

    Every forecast date must have an observation; unmatched dates raise.
    Besides the rates of the intervals as recorded, each preset profile is
    re-derived from pm_hat (arm cuts depend on pm_hat alone, so presets
    are comparable on any forecast table).
    """
    rows = list(rows)
    unmatched = [row.date for row in rows if row.date not in pm_by_date]
    if unmatched:
        raise DataError(
            "no observation for: " + ", ".join(d.isoformat() for d in unmatched)
        )
    if not rows:
        raise ValueError("empty forecast table")
    observed = [pm_by_date[row.date] for row in rows]

    def arm_counts(forecasts):
        counts = {"low": 0, "band": 0, "high": 0}
        covered = {"low": 0, "band": 0, "high": 0}
        for fc, pm in zip(forecasts, observed):
            counts[fc.arm] += 1
            covered[fc.arm] += bool(fc.covers(pm))
        return {
            arm: {"n": counts[arm], "covered": covered[arm]} for arm in counts
        }

    recorded = [row.interval for row in rows]
    report = {
        "n": len(rows),
        "recorded": {
            "rate": inclusion_rate(recorded, observed),
            "arms": arm_counts(recorded),
        },
        "profiles": {},
        "by_id_source": {},
    }
    for name, profile in PROFILES.items():
        forecasts = [interval(row.pm_hat, profile) for row in rows]
        report["profiles"][name] = {
            "rate": inclusion_rate(forecasts, observed),
            "arms": arm_counts(forecasts),
        }
    for source in sorted({row.id_source for row in rows}):
        members = [row for row in rows if row.id_source == source]
        report["by_id_source"][source] = {
            "n": len(members),
            "rate": inclusion_rate(
                [row.interval for row in members],
                [pm_by_date[row.date] for row in members],
            ),
        }
    return report
