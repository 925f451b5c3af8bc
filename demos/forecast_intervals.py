"""Turn gridded 6-hourly weather fields into next-day interval forecasts.

The chain demonstrated here is the operational one: aggregate a month of
6-hourly analysis fields to daily predictors, join each day with the
observed evaporation (the one variable without a forecast product), run
the frozen single-value model, and wrap every point forecast in a
three-arm interval. Observed concentrations for the same month then
score the intervals.

Run from the repository root:

    python3 demos/forecast_intervals.py
"""

from pathlib import Path

from pm25cast import (
    PRESETS,
    PROFILES,
    aggregate_ncep,
    inclusion_rate,
    interval,
    parse_ncep,
    parse_observations,
)
from pm25cast.forecast import (
    forecast_series,
    inclusion_report,
    predictors_from_aggregated,
)

HERE = Path(__file__).resolve().parent
NCEP = HERE / "data" / "ncep_201712_6h.csv"
OBS = HERE / "data" / "obs_201712.csv"


def main():
    daily = aggregate_ncep(parse_ncep(NCEP))
    print(f"aggregated {len(daily.date)} days from 6-hourly fields")

    observations = parse_observations(OBS)
    pm_by_date = observations.by_date("pm")

    dated, skipped_join = predictors_from_aggregated(daily, observations)
    model = PRESETS["thesis-2018"]
    rows, skipped_fc = forecast_series(
        model,
        dated,
        PROFILES["ncep-i1"],
        id_source="algo1",
        prev_pm_by_date=pm_by_date,
    )
    for date, reason in skipped_join + skipped_fc:
        print(f"  skipped {date}: {reason}")

    print(f"\n{len(rows)} forecasts (ncep-i1 profile, indicator from the "
          "previous day's observation where available):")
    print(f"  {'date':>10} {'pm_hat':>8} {'id':>6} {'arm':>5} "
          f"{'interval':>16} {'obs':>5}  flags")
    for row in rows:
        fc = row.interval
        hi = "inf" if fc.hi == float("inf") else f"{fc.hi:.1f}"
        span = f"[{fc.lo:.1f}, {hi}]"
        obs = pm_by_date[row.date]
        hit = "*" if fc.covers(obs) else " "
        flags = ",".join(fc.flags) if fc.flags else "-"
        print(f"  {row.date.isoformat():>10} {row.pm_hat:>8.1f} "
              f"{row.id_source:>6} {fc.arm:>5} {span:>16} {obs:>5.0f}{hit} {flags}")

    report = inclusion_report(rows, pm_by_date)
    print(f"\nrecorded inclusion rate: {report['recorded']['rate']:.3f} "
          f"over {report['n']} days")
    print("the same point forecasts under each preset interval profile:")
    for name in PROFILES:
        print(f"  {name:>12}: {report['profiles'][name]['rate']:.3f}")
    print("by indicator source:")
    for source, block in report["by_id_source"].items():
        print(f"  {source:>12}: {block['rate']:.3f} over {block['n']} days")

    # the wider band is not free: compare the band widths directly
    at = rows[0].pm_hat
    narrow = interval(at, PROFILES["ncep-i1"])
    wide = interval(at, PROFILES["ncep-i2"])
    print(f"\nwidth at pm_hat={at:.1f}: ncep-i1 {narrow.hi - narrow.lo:.0f}, "
          f"ncep-i2 {wide.hi - wide.lo:.0f}")
    covered = inclusion_rate([narrow], [pm_by_date[rows[0].date]])
    print(f"(first day covered under ncep-i1: {bool(covered)})")


if __name__ == "__main__":
    main()
