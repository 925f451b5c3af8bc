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

    predictors, skipped_join = predictors_from_aggregated(daily, observations)
    model = PRESETS["thesis-2018"]
    table, skipped_fc = forecast_series(
        model,
        predictors,
        PROFILES["ncep-i1"],
        id_source="algo1",
        observations=observations,
    )
    for date, reason in skipped_join + skipped_fc:
        print(f"  skipped {date}: {reason}")

    observed = observations.lookup("pm", table.date)
    covered = table.covers(observed)
    print(f"\n{len(table)} forecasts (ncep-i1 profile, indicator from the "
          "previous day's observation where available):")
    print(f"  {'date':>10} {'pm_hat':>8} {'id':>6} {'arm':>5} "
          f"{'interval':>16} {'obs':>5}  flags")
    columns = (table.date, table.pm_hat, table.id_source, table.arm, table.lo,
               table.hi, observed, covered, table.flags)
    for date, pm_hat, source, arm, lo, hi, obs, hit, flags in zip(*(c.tolist() for c in columns)):
        hi = "inf" if hi == float("inf") else f"{hi:.1f}"
        span = f"[{lo:.1f}, {hi}]"
        hit = "*" if hit else " "
        flags = flags.replace(";", ",") or "-"
        print(f"  {date.isoformat():>10} {pm_hat:>8.1f} "
              f"{source:>6} {arm:>5} {span:>16} {obs:>5.0f}{hit} {flags}")

    report = inclusion_report(table, observed)
    print(f"\nrecorded inclusion rate: {report['recorded']['rate']:.3f} "
          f"over {report['n']} days")
    print("the same point forecasts under each preset interval profile:")
    for name in PROFILES:
        print(f"  {name:>12}: {report['profiles'][name]['rate']:.3f}")
    print("by indicator source:")
    for source, block in report["by_id_source"].items():
        print(f"  {source:>12}: {block['rate']:.3f} over {block['n']} days")

    # the wider band is not free: compare the band widths directly
    at = float(table.pm_hat[0])
    narrow = interval(at, PROFILES["ncep-i1"])
    wide = interval(at, PROFILES["ncep-i2"])
    print(f"\nwidth at pm_hat={at:.1f}: ncep-i1 {narrow.hi - narrow.lo:.0f}, "
          f"ncep-i2 {wide.hi - wide.lo:.0f}")
    print(f"(first day covered under ncep-i1: {narrow.covers(float(observed[0]))})")


if __name__ == "__main__":
    main()
