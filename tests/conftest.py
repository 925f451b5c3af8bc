"""Shared fixtures: bundled data tables and synthetic frame builders."""

import collections
import datetime as dt

import numpy as np
import pytest

from pm25cast import Observations, build_frame
from pm25cast.data import OBS_REQUIRED

# January 2014 observation month shipped with the demos:
# (day, pm, t, tmax, tmin, pc, w, ep) in raw 0.1-scaled units.
JAN_2014 = [
    (1, 153, 44, 179, -26, 0, 27, 17),
    (2, 181, 44, 155, -25, 0, 21, 14),
    (3, 174, 60, 162, -10, 0, 55, 21),
    (4, 112, 45, 160, -11, 0, 17, 15),
    (5, 147, 41, 161, -35, 0, 40, 19),
    (6, 185, 69, 102, 29, 10, 41, 12),
    (7, 268, 54, 62, 50, 167, 44, 22),
    (8, 202, 47, 78, 12, 13, 57, 16),
    (9, 208, 17, 88, -23, 0, 27, 12),
    (10, 128, 32, 68, -12, 8, 38, 13),
    (11, 91, 41, 52, 28, 50, 30, 15),
    (12, 168, 48, 106, -11, 0, 48, 16),
    (13, 266, 23, 101, -23, 0, 30, 13),
    (14, 227, 16, 109, -35, 0, 32, 11),
    (15, 165, 21, 106, -25, 0, 38, 13),
    (16, 122, 53, 131, -4, 0, 22, 15),
    (17, 237, 50, 135, -6, 0, 26, 10),
    (18, 234, 23, 115, -40, 0, 32, 15),
    (19, 221, 28, 128, -27, 0, 27, 20),
    (20, 148, 48, 146, -21, 0, 49, 22),
    (21, 67, 11, 117, -49, 0, 41, 18),
    (22, 91, 40, 131, -47, 0, 38, 15),
    (23, 100, 81, 164, -4, 0, 45, 27),
    (24, 126, 111, 218, 52, 0, 51, 24),
    (25, 248, 84, 142, 31, 0, 47, 21),
    (26, 287, 67, 138, 15, 0, 27, 13),
    (27, 214, 66, 140, 16, 0, 27, 10),
    (28, 284, 82, 97, 42, 5, 28, 3),
    (29, 286, 74, 98, 64, 118, 38, 1),
    (30, 151, 85, 157, 25, 2, 30, 0),
    (31, 177, 151, 254, 73, 0, 44, 0),
]

# December 2017: observed pm and ep alongside daily-aggregated forecast
# predictors (t, tmax, tmin, pc by mean of four slots, w by max).
# (day, pm, t, tmax, tmin, pc, w, ep)
DEC_2017 = [
    (1, 54, 73.075, 112.5, 83.5, 0.025, 24.287, 11),
    (2, 69, 100.055, 59.5, 52.5, 0.025, 18.381, 8),
    (3, 84, 97.210, 33.5, 33.5, 0, 19.593, 7),
    (4, 180, 75.593, 139.5, 50.5, 0, 46.179, 14),
    (5, 162, 58.695, 138.5, 89.5, 0, 27.523, 14),
    (6, 137, 77.448, 83.5, 68.5, 0, 18.627, 9),
    (7, 95, 78.368, 48.5, 54.5, 0.025, 44.110, 9),
    (8, 86, 45.310, 136.5, 64.5, 0, 32.275, 20),
    (9, 70, 57.568, 140.5, 91.5, 0, 21.645, 19),
    (10, 75, 60.923, 72.5, 85.5, 0, 30.513, 17),
    (11, 53, 68.405, 71.5, 66.5, 0, 30.206, 17),
    (12, 67, 69.568, 148.5, 82.5, 0, 30.825, 14),
    (13, 71, 48.108, 143.5, 105.5, 2.275, 43.633, 9),
    (14, 43, 52.308, 91.5, 78.5, 0.675, 30.239, 2),
    (15, 56, 40.060, 60.5, 60.5, 0.150, 42.954, 3),
    (16, 90, 29.965, 147.5, 75.5, 0, 49.343, 19),
    (17, 71, 19.305, 155.5, 108.5, 0, 20.537, 14),
    (18, 81, 27.500, 87.5, 78.5, 0, 24.945, 10),
    (19, 91, 37.700, 69.5, 58.5, 0, 16.832, 7),
    (20, 85, 54.598, 160.5, 74.5, 0, 26.737, 10),
    (21, 103, 68.648, 163.5, 94.5, 0, 26.565, 12),
    (22, 84, 93.020, 69.5, 54.5, 0, 29.130, 16),
    (23, 125, 86.245, 28.5, 24.5, 0, 26.848, 6),
    (24, 133, 69.595, 105.5, 36.5, 0, 28.485, 18),
    (25, 56, 62.388, 114.5, 73.5, 0, 25.389, 17),
    (26, 85, 76.848, 54.5, 52.5, 0, 19.443, 14),
    (27, 109, 87.700, 42.5, 35.5, 0.250, 27.098, 9),
    (28, 125, 77.833, 144.5, 51.5, 6.650, 20.427, 4),
    (29, 144, 91.293, 149.5, 80.5, 0, 22.401, 5),
    (30, 143, 64.803, 77.5, 56.5, 0, 37.523, 13),
    (31, 130, 65.753, 53.5, 41.5, 0, 11.729, 17),
]


def obs_table(rows):
    """Observations table from (date, pm, t, tmax, tmin, pc, w, ep) rows;
    None marks a blank cell."""
    columns = list(zip(*rows))
    return Observations(
        date=np.array(columns[0], dtype="datetime64[D]"),
        **{name: np.array(col, dtype=float) for name, col in zip(OBS_REQUIRED, columns[1:])},
    )


ObsRow = collections.namedtuple("ObsRow", ("date",) + OBS_REQUIRED)


def obs_rows(table):
    """The rows of an Observations table as ObsRow tuples, NaN for a blank."""
    columns = [table.date.tolist()] + [getattr(table, name).tolist() for name in OBS_REQUIRED]
    return [ObsRow(*row) for row in zip(*columns)]


def jan2014_records():
    return obs_table(
        (dt.date(2014, 1, day), pm, t, tmax, tmin, pc, w, ep)
        for day, pm, t, tmax, tmin, pc, w, ep in JAN_2014
    )


@pytest.fixture(scope="session")
def jan2014_frame():
    return build_frame(jan2014_records())


def synthetic_records(n=40, seed=0, start=dt.date(2020, 1, 1), gap_every=None):
    """Random but physically plausible daily records.

    `gap_every` skips a calendar day after every that many records, which
    creates season-style boundaries for lag-pair tests.
    """
    rng = np.random.default_rng(seed)
    records = []
    date = start
    for i in range(n):
        trg = float(rng.uniform(30.0, 200.0))
        tmin = float(rng.uniform(-40.0, 40.0))
        pm = float(np.exp(rng.uniform(2.5, 5.5)))
        t = float(rng.uniform(-30.0, 230.0))
        pc = float(rng.uniform(0.0, 600.0))
        w = float(rng.uniform(16.0, 90.0))
        ep = float(rng.uniform(0.0, 60.0))
        records.append((date, pm, t, tmin + trg, tmin, pc, w, ep))
        date += dt.timedelta(days=1)
        if gap_every and (i + 1) % gap_every == 0:
            date += dt.timedelta(days=2)
    return obs_table(records)


@pytest.fixture
def synth_frame():
    return build_frame(synthetic_records(n=40, seed=0))


def noise_free_frame(theta, n=60, seed=5):
    """Frame whose lpm equals the 6-parameter family exactly at `theta`.

    Concentrations are back-computed as pm = exp(f/10), so a fit of the
    same family recovers `theta` with zero residual.
    """
    import math

    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        trg = float(rng.uniform(30.0, 200.0))
        t = float(rng.uniform(-30.0, 230.0))
        w = float(rng.uniform(16.0, 90.0))
        pc = float(rng.uniform(0.0, 600.0))
        ep = float(rng.uniform(0.0, 60.0))
        f = (
            theta[0] * math.exp(-theta[1] / trg)
            + theta[2] * w
            + theta[3] * t
            + theta[4] * pc
            + theta[5] * ep
        )
        records.append(
            (dt.date(2021, 1, 1) + dt.timedelta(days=i), math.exp(f / 10.0), t, trg, 0.0, pc, w, ep)
        )
    return build_frame(obs_table(records))
