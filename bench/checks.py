"""Per-job output checks for the benchmark workloads.

Each check reads the files one job wrote, raises CheckError on the first
problem it finds, and returns the number of work items the job completed.
No check compares floats bit for bit against a stored value: the numeric
core may legitimately change last bits, so values are checked against the
model formula, against identities, or against a reference within a
recorded relative tolerance. The one byte-level comparison is between two
runs of the same commit (bootstrap output must not depend on the worker
count).
"""

import csv
import datetime as dt
import json
import math

import numpy as np


class CheckError(Exception):
    """A job's outputs failed a check."""


# Largest accepted |J'r| / (|J|_F |r|) at a converged with-id fit. On the
# fit-large inputs the ratio is ~2e-11 at the written theta, and a relative
# change of 1e-6 in any single theta component pushes it above 5e-8.
OPTIMALITY_TOL = 1e-8
# Recomputed residuals must match residuals.csv to this share of max |lpm|.
RESIDUAL_TOL = 1e-10
MSE_REL_TOL = 1e-9


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _finite(values, what):
    _require(
        all(v is not None and math.isfinite(v) for v in values),
        f"{what} not finite: {values}",
    )


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def with_id_design(theta, rows):
    """Response, expectation and Jacobian of the with-id family.

    `rows` are observation dicts in the raw scale; the formula is written
    out here, independent of the package's model module.
    """
    lpm = np.array([10.0 * math.log(r["pm"]) for r in rows])
    trg = np.array([r["tmax"] - r["tmin"] for r in rows])
    cols = {k: np.array([r[k] for r in rows]) for k in ("w", "t", "pc", "ep")}
    ids = np.where(lpm <= 35.0, -1.0, np.where(lpm <= 50.0, 0.0, 1.0))
    th = theta
    e = np.exp(-th[1] / trg)
    f = th[0] * e + th[2] * cols["w"] + th[3] * cols["t"] + th[4] * cols["pc"] + th[5] * cols["ep"] + th[6] * ids
    jac = np.column_stack([e, -th[0] * e / trg, cols["w"], cols["t"], cols["pc"], cols["ep"], ids])
    return lpm, f, jac


def check_fit(out_dir, obs, reference=None):
    """`fit --family with-id` outputs against the generated observations.

    obs maps date -> raw observation dict (gen.read_obs). reference, when
    given, holds theta, rss, rho_k_n and rho_k_p with their rel_tol.
    """
    report = _load_json(out_dir / "diagnostics.json")
    fit = report["fit"]
    _require(fit["converged"] is True, "fit did not converge")
    theta = fit["theta"]
    _require(len(theta) == 7, f"theta has {len(theta)} entries")
    _finite(theta, "theta")
    _finite([fit["rss"], report["curvature"]["rho_k_n"], report["curvature"]["rho_k_p"]], "rss/rhoK")
    _finite(report["box_bias"]["bias"], "box bias")

    complete = {
        d: r for d, r in obs.items() if None not in r.values() and r["pm"] > 0
    }
    _require(
        len(fit["rows_dropped"]) == len(obs) - len(complete),
        f"{len(fit['rows_dropped'])} rows dropped, expected {len(obs) - len(complete)}",
    )
    resid_rows = _read_csv(out_dir / "residuals.csv")
    _require(len(resid_rows) == len(complete), "residuals.csv row count differs from complete days")
    _require(fit["n_observations"] == len(complete), "n_observations differs from complete days")
    dates = [dt.date.fromisoformat(r["date"]) for r in resid_rows]
    _require(dates == sorted(complete), "residual dates differ from complete days")

    lpm, f, jac = with_id_design(np.array(theta), [complete[d] for d in dates])
    resid = lpm - f
    written = np.array([float(r["residual"]) for r in resid_rows])
    gap = float(np.max(np.abs(resid - written)))
    _require(
        gap <= RESIDUAL_TOL * float(np.max(np.abs(lpm))),
        f"residuals.csv differs from lpm - f(theta) by {gap:.3e}",
    )
    _require(
        math.isclose(float(resid @ resid), fit["rss"], rel_tol=1e-9),
        "rss differs from the residual sum of squares",
    )
    ratio = float(np.linalg.norm(jac.T @ resid) / (np.linalg.norm(jac) * np.linalg.norm(resid)))
    _require(ratio <= OPTIMALITY_TOL, f"first-order optimality ratio {ratio:.3e} > {OPTIMALITY_TOL}")

    if reference is not None:
        tol = reference["rel_tol"]
        got = {
            "theta": theta,
            "rss": [fit["rss"]],
            "rho_k_n": [report["curvature"]["rho_k_n"]],
            "rho_k_p": [report["curvature"]["rho_k_p"]],
        }
        for key, values in got.items():
            want = reference[key] if key == "theta" else [reference[key]]
            for g, w in zip(values, want):
                _require(
                    math.isclose(g, w, rel_tol=tol),
                    f"{key} {g!r} differs from reference {w!r} beyond rel_tol {tol}",
                )
    return len(complete)


def check_simulate(out_dir, reference_csv, reps):
    """`simulate` outputs: byte-equal replications, mse identity."""
    got = (out_dir / "replications.csv").read_bytes()
    _require(got == reference_csv, "replications.csv differs from the workers-1 reference")
    _require(got.count(b"\n") == reps + 1, "replications.csv has the wrong row count")
    summary = _load_json(out_dir / "simulation.json")
    _require(summary["replications"] == reps, "simulation.json replication count")
    _require(summary["converged"] > 0, "no replication converged")
    for mse, std, bias in zip(summary["mse"], summary["std"], summary["bias"]):
        _finite([mse, std, bias], "mse/std/bias")
        _require(
            math.isclose(mse, std * std + bias * bias, rel_tol=MSE_REL_TOL, abs_tol=1e-300),
            f"mse {mse!r} != std^2 + bias^2 {std * std + bias * bias!r}",
        )
    _finite(summary["corrected"]["theta"], "corrected theta")
    return reps


NCEP_I1 = (30.0, 20.0)  # (below, above) pm_hat offsets of the default profile


def _arm(pm_hat):
    if pm_hat < 35.0:
        return "low"
    if pm_hat > 150.0:
        return "high"
    return "band"


def _covers(arm, lo, hi, pm):
    if arm == "low":
        return pm < 35.0
    if arm == "high":
        return pm > 150.0
    return lo <= pm <= hi


def ncep_day_trg(ncep_path):
    """Mean tmax minus mean tmin per date of a six-hourly table."""
    sums = {}
    for row in _read_csv(ncep_path):
        acc = sums.setdefault(dt.date.fromisoformat(row["date"]), [0.0, 0.0])
        acc[0] += float(row["tmax"])
        acc[1] += float(row["tmin"])
    return {d: (a[0] - a[1]) / 4.0 for d, a in sums.items()}


def check_forecast(out_dir, obs, day_trg):
    """aggregate-ncep -> forecast -> validate outputs of one round trip.

    day_trg maps every six-hourly input date to its aggregated trg.
    """
    daily = _read_csv(out_dir / "ncep_daily.csv")
    _require(len(daily) == len(day_trg), "ncep_daily.csv row count differs from input days")

    rows = _read_csv(out_dir / "forecast.csv")
    meta = _load_json(out_dir / "forecast_meta.json")
    fc_dates = [dt.date.fromisoformat(r["date"]) for r in rows]
    skipped = {dt.date.fromisoformat(d) for d, _ in meta["skipped"]}
    _require(meta["rows"] == len(rows), "forecast_meta rows differs from forecast.csv")
    _require(
        len(rows) + len(meta["skipped"]) == len(day_trg)
        and set(fc_dates) | skipped == set(day_trg),
        "forecast rows plus skipped days do not cover the input days",
    )
    counts = {"low": [0, 0], "band": [0, 0], "high": [0, 0]}
    by_source = {}
    for date, row in zip(fc_dates, rows):
        pm_hat, lo, hi, arm = float(row["pm_hat"]), float(row["lo"]), float(row["hi"]), row["arm"]
        _require(arm == _arm(pm_hat), f"{date}: arm {arm!r} does not match pm_hat {pm_hat!r}")
        if arm == "band":
            _require(
                math.isclose(lo, max(0.0, pm_hat - NCEP_I1[0]), rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(hi, pm_hat + NCEP_I1[1], rel_tol=1e-12),
                f"{date}: band limits do not match the ncep-i1 profile",
            )
        prev = obs.get(date - dt.timedelta(days=1))
        want_source = "algo1" if prev is not None and prev["pm"] is not None else "algo2"
        _require(row["id_source"] == want_source, f"{date}: id_source {row['id_source']!r}, expected {want_source!r}")
        flagged = "NEGATIVE_TRG" in row["flags"].split(";")
        _require(flagged == (day_trg[date] < 0), f"{date}: NEGATIVE_TRG flag disagrees with trg")
        pm = obs[date]["pm"]
        counts[arm][0] += 1
        counts[arm][1] += _covers(arm, lo, hi, pm)
        by_source[row["id_source"]] = by_source.get(row["id_source"], 0) + 1

    report = _load_json(out_dir / "validation.json")
    _require(report["n"] == len(rows), "validation n differs from forecast.csv rows")
    arms = report["recorded"]["arms"]
    for arm, (n, covered) in counts.items():
        _require(
            arms[arm] == {"n": n, "covered": covered},
            f"validation arm {arm} {arms[arm]} differs from forecast.csv ({n}, {covered})",
        )
    covered_all = sum(c for _, c in counts.values())
    _require(
        math.isclose(report["recorded"]["rate"], covered_all / len(rows), rel_tol=1e-12),
        "validation rate differs from forecast.csv coverage",
    )
    _require(
        {k: v["n"] for k, v in report["by_id_source"].items()} == by_source,
        "validation id-source counts differ from forecast.csv",
    )
    return len(rows)
