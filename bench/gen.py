"""Seeded input generator for the benchmark workloads.

Every table is a pure function of (input set, seed): the same pair always
writes byte-identical CSV files. Values use the station's raw 0.1-unit
scale. lpm follows the with-id equation at THETA_TRUE plus Gaussian noise,
with the id level picked among the levels consistent with the resulting
lpm, so each level (-1, 0, 1) holds a sizeable share of the rows and the
fits converge.

Edge cases appear in fixed counts at seeded positions, so every seed sees
the same amount of each:

- days with a blank field (the frame's drop_log),
- trace-precipitation tokens in pc,
- days with no observed pm (and no ep), which force the algo-1 fallback
  to algo 2 on the following forecast day,
- days with no observed ep, which the forecast skips,
- six-hourly days whose mean tmax is below the mean tmin (negative trg),
  which the forecast flags.
"""

import datetime as dt
from dataclasses import dataclass

import numpy as np

THETA_TRUE = (70.0, 20.0, -0.1, -0.02, -0.01, -0.15, 6.0)
LPM_NOISE_SD = 3.0
TRACE_TOKENS = ("微量", "T", "trace")
OBS_HEADER = "date,pm,t,tmax,tmin,pc,w,ep"
NCEP_HEADER = "date,slot,t,tmax,tmin,pc,w"
START = dt.date(2010, 1, 1)


@dataclass(frozen=True)
class Sizes:
    """Row counts of one workload's generated tables."""

    days: int                # observation rows (and six-hourly days)
    incomplete_days: int = 0
    trace_days: int = 0
    gap_every: int = 0       # records between season gaps (0: no gaps)
    gap_days: int = 0
    six_hourly: bool = False  # also write a six-hourly table over the same days
    no_pm_days: int = 0
    no_ep_days: int = 0
    negative_trg_days: int = 0


# Input sets by name; run.py records which workload uses which, and why.
SIZES = {
    "fit-large": Sizes(days=3030, incomplete_days=30, trace_days=60, gap_every=180, gap_days=30),
    "bootstrap-small": Sizes(days=371, incomplete_days=6, trace_days=8),
    "forecast-roundtrip": Sizes(
        days=1460,
        trace_days=29,
        six_hourly=True,
        no_pm_days=15,
        no_ep_days=15,
        negative_trg_days=8,
    ),
}
INPUT_SETS = tuple(SIZES)


def _rng(name, seed):
    return np.random.default_rng([seed, INPUT_SETS.index(name)])


def _weather(rng, n):
    """Seasonal daily weather: t, trg, w, pc, ep as integer raw units."""
    doy = np.arange(n) % 365
    t = np.round(110.0 - 130.0 * np.cos(2 * np.pi * doy / 365.0) + rng.normal(0, 25, n))
    trg = np.round(rng.uniform(40.0, 160.0, n))
    w = np.round(rng.uniform(15.0, 90.0, n))
    wet = rng.random(n) < 0.3
    pc = np.where(wet, np.round(rng.exponential(60.0, n)) + 1.0, 0.0)
    ep = np.round(rng.uniform(0.0, 60.0, n))
    return t, trg, w, pc, ep


def _lpm_with_id(rng, t, trg, w, pc, ep):
    """lpm from the with-id equation, with a level consistent with lpm."""
    th = THETA_TRUE
    base = (
        th[0] * np.exp(-th[1] / trg) + th[2] * w + th[3] * t + th[4] * pc + th[5] * ep
        + rng.normal(0.0, LPM_NOISE_SD, t.size)
    )
    levels = np.array([-1.0, 0.0, 1.0])
    lpm = np.empty_like(base)
    pick = rng.random(base.size)
    for i, b in enumerate(base):
        cand = b + th[6] * levels
        ok = levels[_id(cand) == levels]
        lpm[i] = b + th[6] * ok[min(int(pick[i] * ok.size), ok.size - 1)]
    return lpm


def _id(lpm):
    return np.where(lpm <= 35.0, -1.0, np.where(lpm <= 50.0, 0.0, 1.0))


def _dates(n, gap_every, gap_days):
    dates = []
    day = START
    for i in range(n):
        dates.append(day)
        day += dt.timedelta(days=1)
        if gap_every and (i + 1) % gap_every == 0:
            day += dt.timedelta(days=gap_days)
    return dates


def _positions(rng, n, count, exclude=()):
    pool = np.setdiff1d(np.arange(n), np.asarray(sorted(exclude), dtype=int))
    return set(int(i) for i in rng.choice(pool, size=count, replace=False))


def observation_rows(name, seed):
    """Observation table rows as lists of cell strings (no header)."""
    sz = SIZES[name]
    rng = _rng(name, seed)
    n = sz.days
    t, trg, w, pc, ep = _weather(rng, n)
    lpm = _lpm_with_id(rng, t, trg, w, pc, ep)
    pm = np.maximum(np.round(np.exp(lpm / 10.0), 1), 0.1)
    tmin = np.round(t - trg / 2.0)
    tmax = tmin + trg

    incomplete = _positions(rng, n, sz.incomplete_days)
    no_pm = _positions(rng, n, sz.no_pm_days, incomplete)
    no_ep = _positions(rng, n, sz.no_ep_days, incomplete | no_pm)
    dry = set(int(i) for i in np.nonzero(pc == 0.0)[0]) - incomplete
    trace = set(int(i) for i in rng.choice(sorted(dry), size=sz.trace_days, replace=False))
    blank_field = rng.integers(0, 7, n)

    rows = []
    for i, day in enumerate(_dates(n, sz.gap_every, sz.gap_days)):
        cells = [day.isoformat()] + [
            f"{v:g}" for v in (pm[i], t[i], tmax[i], tmin[i], pc[i], w[i], ep[i])
        ]
        if i in trace:
            cells[5] = TRACE_TOKENS[i % len(TRACE_TOKENS)]
        if i in incomplete:
            cells[1 + blank_field[i]] = ""
        if i in no_pm:
            cells[1] = cells[7] = ""
        if i in no_ep:
            cells[7] = ""
        rows.append(cells)
    return rows


def ncep_rows(name, seed):
    """Six-hourly forecast rows (four slots a day) as cell strings."""
    sz = SIZES[name]
    rng = np.random.default_rng([seed, INPUT_SETS.index(name), 1])
    n = sz.days
    t, trg, w, _, _ = _weather(rng, n)
    negative = _positions(rng, n, sz.negative_trg_days)
    rows = []
    for i, day in enumerate(_dates(n, 0, 0)):
        day_trg = -rng.uniform(10.0, 60.0) if i in negative else trg[i]
        for slot in (0, 6, 12, 18):
            st = t[i] + rng.normal(0.0, 8.0)
            slot_trg = day_trg + rng.normal(0.0, 4.0)
            smin = st - slot_trg / 2.0
            cells = (
                st,
                smin + slot_trg,
                smin,
                max(0.0, rng.normal(0.0, 3.0)),
                max(1.0, w[i] + rng.normal(0.0, 5.0)),
            )
            rows.append([day.isoformat(), str(slot)] + [f"{v:.3f}" for v in cells])
    return rows


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


def write_inputs(name, seed, out_dir):
    """Write the input set's CSV inputs into out_dir; return their paths."""
    paths = {"obs": out_dir / "obs.csv"}
    _write(paths["obs"], OBS_HEADER, observation_rows(name, seed))
    if SIZES[name].six_hourly:
        paths["ncep"] = out_dir / "ncep_6h.csv"
        _write(paths["ncep"], NCEP_HEADER, ncep_rows(name, seed))
    return paths


def read_obs(path):
    """Independent reader for the generated observation table.

    Returns {date: {field: float or None}}; trace tokens read as pc = 0.
    Kept separate from the package parser so output checks do not trust
    the code under test.
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rec = {}
            for name, cell in zip(names[1:], cells[1:]):
                if cell == "":
                    rec[name] = None
                elif name == "pc" and cell in TRACE_TOKENS:
                    rec[name] = 0.0
                else:
                    rec[name] = float(cell)
            out[dt.date.fromisoformat(cells[0])] = rec
    return out

