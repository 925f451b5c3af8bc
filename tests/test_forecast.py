import datetime as dt
import json
import math

import numpy as np
import pytest

from pm25cast import (
    DataError,
    FrozenModel,
    IntervalProfile,
    Predictors,
    interval,
    predict_id_algo1,
    predict_pm,
)
from pm25cast.forecast import (
    PROFILES,
    PRESETS,
    ForecastTable,
    PredictorTable,
    forecast_series,
    inclusion_report,
    read_forecast_csv,
    write_forecast_csv,
)

from conftest import DEC_2017, JAN_2014, obs_table

MODEL = PRESETS["thesis-2018"]

ROW1 = Predictors(trg=205.0, w=27.0, t=44.0, pc=0.0, ep=17.0)


def oracle_pm(model, p, id_value):
    lpm = (model.a * math.exp(-model.b / p.trg)
           + model.c_w * p.w + model.c_t * p.t
           + model.c_pc * p.pc + model.c_ep * p.ep
           + model.c_id * id_value)
    return math.exp(lpm)


# ---------------------------------------------------------------- frozen model


def test_preset_coefficients():
    m = MODEL
    assert (m.a, m.b) == (4.567223, 0.34431)
    assert (m.c_w, m.c_t, m.c_pc, m.c_ep, m.c_id) == (
        -0.002258, -0.000109, -0.000912, -0.005976, 0.736975)


def test_from_lpm_params_divides_all_but_decay():
    theta = np.array([45.67223, 0.34431, -0.02258, -0.00109, -0.00912, -0.05976, 7.36975])
    m = FrozenModel.from_lpm_params(theta)
    assert m.a == pytest.approx(4.567223, abs=1e-12)
    assert m.b == 0.34431  # exponent scale does not shift with the response
    assert m.c_w == pytest.approx(-0.002258, abs=1e-12)
    assert m.c_id == pytest.approx(0.736975, abs=1e-12)


def test_from_lpm_params_needs_seven_values():
    with pytest.raises(ValueError, match="^need exactly 7 parameters$"):
        FrozenModel.from_lpm_params([45.0, 0.3, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("j", [0, 1, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_lpm_params_refuses_a_non_finite_parameter(j, bad):
    """A non-finite theta would give a model whose JSON `from_json` refuses."""
    theta = [45.67223, 0.34431, -0.02258, -0.00109, -0.00912, -0.05976, 7.36975]
    theta[j] = bad
    with pytest.raises(ValueError, match=rf"^theta{j + 1} must be finite, got {bad!r}$"):
        FrozenModel.from_lpm_params(theta)


def test_model_json_roundtrip(tmp_path):
    path = tmp_path / "coef.json"
    MODEL.to_json(path)
    again = FrozenModel.from_json(path)
    assert again == MODEL


def test_model_json_missing_key(tmp_path):
    path = tmp_path / "coef.json"
    path.write_text('{"a": 4.5, "b": 0.3}')
    with pytest.raises(DataError):
        FrozenModel.from_json(path)


def test_predict_pm_against_hand_evaluation():
    for idv in (-1, 0, 1):
        got = predict_pm(MODEL, ROW1, idv)
        assert got == pytest.approx(oracle_pm(MODEL, ROW1, idv), rel=1e-12)
    assert abs(predict_pm(MODEL, ROW1, 1) - 168.878) < 1e-3


def test_predict_pm_limit_large_trg():
    p = Predictors(trg=1e12, w=0.0, t=0.0, pc=0.0, ep=0.0)
    assert predict_pm(MODEL, p, 0) == pytest.approx(math.exp(MODEL.a), rel=1e-6)


def test_id_steps_multiply_by_constant_factor():
    lo = predict_pm(MODEL, ROW1, -1)
    mid = predict_pm(MODEL, ROW1, 0)
    hi = predict_pm(MODEL, ROW1, 1)
    assert mid / lo == pytest.approx(math.exp(MODEL.c_id), rel=1e-12)
    assert hi / mid == pytest.approx(math.exp(MODEL.c_id), rel=1e-12)


def test_predict_pm_monotonicity():
    base = predict_pm(MODEL, ROW1, 0)
    assert predict_pm(MODEL, ROW1._replace(w=50.0), 0) < base
    assert predict_pm(MODEL, ROW1._replace(pc=300.0), 0) < base
    assert predict_pm(MODEL, ROW1._replace(ep=40.0), 0) < base
    assert predict_pm(MODEL, ROW1._replace(trg=300.0), 0) > base


def test_predict_pm_preconditions():
    with pytest.raises(DataError):
        predict_pm(MODEL, ROW1._replace(trg=0.0), 0)
    with pytest.raises(ValueError):
        predict_pm(MODEL, ROW1, 2)
    with pytest.raises(ValueError):
        predict_pm(MODEL, ROW1, 0.5)


@pytest.mark.parametrize("field", ["trg", "w", "t", "pc", "ep"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_predict_pm_refuses_non_finite_predictors(field, bad):
    with pytest.raises(DataError, match=f"predictor {field} "):
        predict_pm(MODEL, ROW1._replace(**{field: bad}), 0)


def test_negative_trg_still_evaluates():
    # sign flip turns decay into growth; value stays finite here
    out = predict_pm(MODEL, ROW1._replace(trg=-6.0), 0)
    assert np.isfinite(out) and out > 0


# ---------------------------------------------------------------- id algorithms


def test_algo1_thresholds():
    assert predict_id_algo1(30.0) == -1
    assert predict_id_algo1(math.exp(3.5)) == -1
    assert predict_id_algo1(100.0) == 0
    assert predict_id_algo1(math.exp(5.0)) == 0
    assert predict_id_algo1(200.0) == 1
    assert predict_id_algo1(math.inf) == 1


def test_algo1_round_trip_against_frame_indicator():
    from pm25cast.data import id_from_lpm

    for pm in range(1, 501):
        assert predict_id_algo1(float(pm)) == id_from_lpm(10.0 * math.log(pm))


def test_algo1_agrees_with_frame_indicator_next_to_the_cuts():
    from pm25cast.data import id_from_lpm

    for cut in (math.exp(3.5), math.exp(5.0)):
        pm = cut
        for _ in range(3):
            pm = float(np.nextafter(pm, 0.0))
        for _ in range(7):
            assert predict_id_algo1(pm) == id_from_lpm(10.0 * math.log(pm)), pm
            pm = float(np.nextafter(pm, math.inf))


def test_algo1_requires_previous_value():
    with pytest.raises(DataError):
        predict_id_algo1(None)
    with pytest.raises(DataError):
        predict_id_algo1(0.0)
    # a nan pm is a missing day, as forecast_series reads it
    with pytest.raises(DataError, match="^previous-day concentration unavailable or nonpositive$"):
        predict_id_algo1(math.nan)


def algo2_ids(model, p):
    """The ids whose formula value is the pm_hat `forecast_series` gives
    one day with predictors p under id_source "algo2"."""
    table, skipped = forecast_series(
        model, PredictorTable(np.array(["2017-12-01"], dtype="datetime64[D]"),
                              *(np.array([v]) for v in p)), PROFILES["ncep-i1"], id_source="algo2")
    assert not skipped and table.id_source.tolist() == ["algo2"]
    return [idv for idv in (-1, 0, 1) if table.pm_hat[0] == oracle_pm(model, p, idv)]


def test_algo2_uses_id_free_prediction():
    pm_prime = oracle_pm(MODEL, ROW1, 0)
    from pm25cast.forecast import _id_from_pm

    assert algo2_ids(MODEL, ROW1) == [int(_id_from_pm(pm_prime)[0])]


def test_algo2_boundary_exact():
    # contrived coefficients put the id-free prediction exactly at e^3.5
    m = FrozenModel(a=3.5, b=0.0, c_w=0.0, c_t=0.0, c_pc=0.0, c_ep=0.0, c_id=1.0)
    p = Predictors(trg=10.0, w=0.0, t=0.0, pc=0.0, ep=0.0)
    assert algo2_ids(m, p) == [-1]


# ---------------------------------------------------------------- intervals


def test_profile_catalogue():
    assert set(PROFILES) == {"standard-i1", "standard-i2", "ncep-i1", "ncep-i2"}
    assert PROFILES["standard-i1"].r == 20.0
    assert PROFILES["ncep-i2"].r == 30.0


def test_interval_offsets_at_100():
    cases = {
        "standard-i1": (80.0, 130.0),
        "standard-i2": (70.0, 145.0),
        "ncep-i1": (70.0, 120.0),
        "ncep-i2": (55.0, 130.0),
    }
    for name, (lo, hi) in cases.items():
        band = interval(100.0, PROFILES[name])
        assert band.arm == "band"
        assert (band.lo, band.hi) == (lo, hi)
        assert band.hi - band.lo == 2.5 * PROFILES[name].r


def test_interval_arm_cuts():
    prof = PROFILES["standard-i1"]
    assert interval(34.999, prof).arm == "low"
    assert interval(35.0, prof).arm == "band"
    assert interval(150.0, prof).arm == "band"
    assert interval(150.001, prof).arm == "high"
    low = interval(20.0, prof)
    assert (low.lo, low.hi) == (0.0, 35.0)
    high = interval(400.0, prof)
    assert high.lo == 150.0 and math.isinf(high.hi)


def test_interval_lower_clamp():
    band = interval(36.0, PROFILES["standard-i2"])  # lo offset 30
    assert band.lo == 6.0
    clamped = interval(35.0, PROFILES["ncep-i2"])  # lo offset 45 clamps at 0
    assert clamped.lo == 0.0
    assert clamped.arm == "band"


def test_interval_rejects_nonpositive():
    with pytest.raises(ValueError):
        interval(0.0, PROFILES["ncep-i1"])


def test_interval_refuses_nan_and_puts_inf_in_the_high_arm():
    with pytest.raises(ValueError, match="nan"):
        interval(math.nan, PROFILES["ncep-i1"])
    with pytest.raises(ValueError):
        interval(-math.inf, PROFILES["ncep-i1"])
    overflowing = predict_pm(MODEL, ROW1._replace(trg=-0.001), 0)
    assert overflowing == math.inf
    high = interval(overflowing, PROFILES["ncep-i1"])
    assert high.arm == "high" and high.lo == 150.0 and math.isinf(high.hi)


def test_profile_validation():
    for r in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^r must be positive and finite"):
            IntervalProfile(kind="standard", r=r)
    with pytest.raises(ValueError):
        IntervalProfile(kind="narrow", r=20.0)
    assert IntervalProfile(kind="standard", r=20.0).offsets == (20.0, 30.0)
    assert IntervalProfile(kind="ncep", r=20.0).offsets == (30.0, 20.0)


def test_covers_and_inclusion_rate():
    fc = [interval(v, PROFILES["ncep-i1"]) for v in (20.0, 100.0, 400.0)]
    assert fc[0].covers(30.0) and not fc[0].covers(35.0)
    assert fc[1].covers(70.0) and fc[1].covers(120.0) and not fc[1].covers(121.0)
    assert fc[2].covers(151.0) and not fc[2].covers(150.0)

    def table(n):
        return ForecastTable(
            date=np.datetime64("2017-12-01") + np.arange(n),
            pm_hat=np.array([f.pm_hat for f in fc[:n]]), id_source=np.full(n, "algo2"),
            arm=np.array([f.arm for f in fc[:n]], dtype=str),
            lo=np.array([f.lo for f in fc[:n]]), hi=np.array([f.hi for f in fc[:n]]),
            flags=np.full(n, ""))

    rate = inclusion_report(table(3), np.array([30.0, 121.0, 151.0]))["recorded"]["rate"]
    assert rate == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        inclusion_report(table(0), np.array([]))


# ---------------------------------------------------------------- hazards


def _flags(p, pm_hat):
    """The flags cell forecast_series writes for one day with predictors p
    and a forecast of about pm_hat (a model whose exponent is the constant
    log(pm_hat))."""
    model = FrozenModel(a=math.log(pm_hat), b=0.0, c_w=0.0, c_t=0.0, c_pc=0.0, c_ep=0.0, c_id=0.0)
    table, skipped = forecast_series(
        model, PredictorTable(np.array(["2017-12-01"], dtype="datetime64[D]"),
                              *(np.array([v]) for v in p)), PROFILES["ncep-i1"], id_source="algo2")
    assert not skipped and table.pm_hat[0] == pytest.approx(pm_hat, rel=1e-12)
    return tuple(filter(None, table.flags[0].split(";")))


def test_hazard_in_range_is_clean():
    assert _flags(ROW1, 168.9) == ()


def test_hazard_extrapolation_per_variable():
    assert _flags(ROW1._replace(w=95.0), 100.0) == ("EXTRAPOLATION(w)",)
    assert _flags(ROW1._replace(t=-39.0), 100.0) == ("EXTRAPOLATION(t)",)
    assert _flags(ROW1._replace(pc=700.0), 100.0) == ("EXTRAPOLATION(pc)",)
    assert _flags(ROW1._replace(ep=65.0), 100.0) == ("EXTRAPOLATION(ep)",)
    assert _flags(ROW1._replace(trg=4.0), 100.0) == ("EXTRAPOLATION(trg)",)


def test_hazard_negative_trg_supersedes_range_flag():
    flags = _flags(ROW1._replace(trg=-6.0), 100.0)
    assert flags == ("NEGATIVE_TRG",)
    flags = _flags(ROW1._replace(trg=-6.0), 350.0)
    assert flags == ("NEGATIVE_TRG", "UNRELIABLE")
    assert _flags(ROW1._replace(trg=-6.0), 290.0) == ("NEGATIVE_TRG",)
    assert _flags(ROW1._replace(trg=4.0), 350.0) == ("EXTRAPOLATION(trg)",)


def test_hazard_multiple_flags_ordered():
    flags = _flags(ROW1._replace(w=95.0, ep=65.0, t=250.0, trg=300.0, pc=-1.0), 100.0)
    assert flags == ("EXTRAPOLATION(t)", "EXTRAPOLATION(trg)", "EXTRAPOLATION(w)",
                     "EXTRAPOLATION(pc)", "EXTRAPOLATION(ep)")


# ---------------------------------------------------------------- series


def _predictors():
    day, _, t, tmax, tmin, pc, w, ep = (np.array(col) for col in zip(*DEC_2017))
    return PredictorTable(date=np.datetime64("2017-11-30") + day, trg=tmax - tmin,
                          w=w, t=t, pc=pc, ep=ep)


def _observations(skip_day=None):
    """The month's observed pm in an Observations table."""
    return obs_table((dt.date(2017, 12, day), float(pm), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                     for day, pm, *_ in DEC_2017 if day != skip_day)


def _column_by_date(table, name):
    return dict(zip(table.date.tolist(), getattr(table, name).tolist()))


def test_forecast_series_skips_flat_range_days():
    table, skipped = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                                     id_source="algo2")
    dates = table.date.tolist()
    assert len(table) == 29
    assert dt.date(2017, 12, 3) not in dates
    assert dt.date(2017, 12, 15) not in dates
    assert len(skipped) == 2
    assert all("trg" in reason for _, reason in skipped)


def test_forecast_series_algo1_fallback():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo1", observations=_observations())
    by_date = _column_by_date(table, "id_source")
    # first day has no previous observation, falls back to algorithm 2
    assert by_date[dt.date(2017, 12, 1)] == "algo2"
    assert by_date[dt.date(2017, 12, 2)] == "algo1"
    # Dec 4 follows the skipped Dec 3, whose observation still exists
    assert by_date[dt.date(2017, 12, 4)] == "algo1"


def test_forecast_series_observed_id():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="observed", observations=_observations())
    assert set(table.id_source.tolist()) == {"observed"}


def test_forecast_series_negative_trg_flagged():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo2")
    by_date = _column_by_date(table, "flags")
    assert "NEGATIVE_TRG" in by_date[dt.date(2017, 12, 7)].split(";")
    assert "NEGATIVE_TRG" in by_date[dt.date(2017, 12, 10)].split(";")


# Build ranges and flag order, written out apart from forecast.BUILD_RANGES
RANGES = (("t", -38.0, 243.0), ("trg", 9.0, 205.0), ("w", 16.0, 91.0),
          ("pc", 0.0, 689.0), ("ep", 0.0, 64.0))


def oracle_interval(pm_hat, r_lo, r_hi):
    """(arm, lo, hi): the fixed low band below 35, the open high band above
    150, else pm_hat - r_lo (at least 0) to pm_hat + r_hi."""
    if pm_hat < 35.0:
        return "low", 0.0, 35.0
    if pm_hat > 150.0:
        return "high", 150.0, math.inf
    return "band", max(pm_hat - r_lo, 0.0), pm_hat + r_hi


def oracle_flags(p, pm_hat):
    """EXTRAPOLATION(name) per predictor outside its range in RANGES order,
    a negative trg reported as NEGATIVE_TRG instead, then UNRELIABLE where
    a negative trg forecasts above 300."""
    flags = [f"EXTRAPOLATION({name})" for name, lo, hi in RANGES
             if not lo <= getattr(p, name) <= hi and not (name == "trg" and p.trg < 0)]
    if p.trg < 0:
        flags.append("NEGATIVE_TRG")
        if pm_hat > 300.0:
            flags.append("UNRELIABLE")
    return ";".join(flags)


def test_forecast_series_gives_each_skipped_day_its_first_reason_in_date_order():
    """One reason table: trg = 0, then no same-day pm, then a pm_hat that
    underflows to 0, then an undefined one (0 * inf: exp(-b/trg) overflows
    for trg < 140.9), each day listed once with the first that holds."""
    model = FrozenModel(a=0.0, b=-1e5, c_w=0.0, c_t=0.0, c_pc=-1.0, c_ep=0.0, c_id=0.0)
    # Dec 1-7: kept, underflow, trg = 0 (no pm too), nan, no pm (nan too),
    # no pm (underflow too), kept
    trg = np.array([200.0, 200.0, 0.0, 50.0, 50.0, 200.0, 200.0])
    pc = np.array([0.0, 1000.0, 0.0, 0.0, 0.0, 1000.0, 0.0])
    has_pm = [True, True, False, True, False, False, True]
    zeros = np.zeros(trg.size)
    date = np.datetime64("2017-12-01") + np.arange(trg.size)
    observations = obs_table((d, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                             for d, keep in zip(date.tolist(), has_pm) if keep)
    table, skipped = forecast_series(
        model, PredictorTable(date=date, trg=trg, w=zeros, t=zeros, pc=pc, ep=zeros),
        PROFILES["ncep-i1"], id_source="observed", observations=observations)
    assert table.date.tolist() == [dt.date(2017, 12, 1), dt.date(2017, 12, 7)]
    assert table.pm_hat.tolist() == [1.0, 1.0]
    assert skipped == [
        (dt.date(2017, 12, 2), "pm_hat underflows to 0"),
        (dt.date(2017, 12, 3), "trg = 0: single-value model undefined"),
        (dt.date(2017, 12, 4), "pm_hat is undefined (0 * inf or inf - inf)"),
        (dt.date(2017, 12, 5), "no observed concentration for id"),
        (dt.date(2017, 12, 6), "no observed concentration for id"),
    ]


def test_forecast_series_refuses_an_unknown_id_source():
    with pytest.raises(ValueError, match="^unknown id source 'algo3'$"):
        forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"], id_source="algo3")


@pytest.mark.parametrize("id_source", ["algo1", "algo2", "observed"])
def test_forecast_series_is_the_scalar_model_bit_for_bit(id_source):
    """Every column equals the row-by-row formula: pm_hat from math.exp,
    the indicator from 10*math.log(pm), the interval and flags by the
    rules written out above. np.exp or np.log would differ in the last bit
    on a few percent of these rows."""
    rng = np.random.default_rng(3)
    n = 400
    predictors = PredictorTable(
        date=np.datetime64("2017-01-01") + np.arange(n),
        trg=rng.uniform(-20.0, 220.0, n), w=rng.uniform(10.0, 95.0, n),
        t=rng.uniform(-40.0, 250.0, n), pc=rng.uniform(0.0, 700.0, n),
        ep=rng.uniform(0.0, 70.0, n))
    pm = np.exp(rng.uniform(2.0, 6.0, n))
    pm[rng.random(n) < 0.2] = math.nan
    observations = obs_table((d, p, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                             for d, p in zip(predictors.date.tolist(), pm.tolist()))
    table, skipped = forecast_series(MODEL, predictors, PROFILES["ncep-i2"],
                                     id_source=id_source, observations=observations)
    assert len(table) + len(skipped) == n

    def indicator(value):
        lpm = 10.0 * math.log(value)
        return -1 if lpm <= 35.0 else 0 if lpm <= 50.0 else 1

    rows = zip(*(getattr(predictors, name).tolist() for name in ("date",) + Predictors._fields))
    expected = []
    for date, *values in rows:
        p = Predictors(*values)
        known = pm[(date - dt.date(2017, 1, 1)).days - (id_source == "algo1")]
        if id_source == "algo1" and date == dt.date(2017, 1, 1):
            known = math.nan
        if id_source == "observed" and not known > 0:
            continue
        if id_source != "algo2" and known > 0:
            source, id_value = id_source, indicator(known)
        else:
            source, id_value = "algo2", indicator(oracle_pm(MODEL, p, 0))
        pm_hat = oracle_pm(MODEL, p, id_value)
        # the ncep-i2 profile: 45 below pm_hat, 30 above
        expected.append((date, pm_hat, source, *oracle_interval(pm_hat, 45.0, 30.0),
                         oracle_flags(p, pm_hat)))
    got = list(zip(*(getattr(table, name).tolist() for name in
                     ("date", "pm_hat", "id_source", "arm", "lo", "hi", "flags"))))
    assert got == expected


def test_forecast_csv_roundtrip(tmp_path):
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo2")
    path = tmp_path / "fc.csv"
    write_forecast_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "date,pm_hat,id_source,arm,lo,hi,flags"
    again = read_forecast_csv(path)
    assert len(again) == len(table)
    for name in ("date", "pm_hat", "id_source", "arm", "lo", "hi", "flags"):
        assert getattr(again, name).tolist() == getattr(table, name).tolist(), name


def test_forecast_csv_high_arm_serializes_inf(tmp_path):
    fc = interval(400.0, PROFILES["ncep-i1"])
    table = ForecastTable(date=np.array(["2017-12-01"], dtype="datetime64[D]"),
                          pm_hat=np.array([400.0]), id_source=np.array(["algo2"]),
                          arm=np.array([fc.arm]), lo=np.array([fc.lo]),
                          hi=np.array([fc.hi]), flags=np.array([""]))
    path = tmp_path / "one.csv"
    write_forecast_csv(table, path)
    assert ",inf," in path.read_text() or path.read_text().strip().endswith("inf,")
    again = read_forecast_csv(path)
    assert math.isinf(again.hi[0])


@pytest.mark.parametrize("pm_hat", ["nan", "NaN"])
def test_forecast_csv_refuses_nan_pm_hat(tmp_path, pm_hat):
    path = tmp_path / "fc.csv"
    path.write_text("date,pm_hat,id_source,arm,lo,hi,flags\n"
                    "2017-12-01,80.0,algo2,band,50.0,100.0,\n"
                    f"2017-12-02,{pm_hat},algo2,band,50.0,100.0,\n")
    with pytest.raises(DataError, match=f"^row 2: bad pm_hat value '{pm_hat}'$"):
        read_forecast_csv(path)


def test_forecast_csv_short_row_reads_blank_flags(tmp_path):
    path = tmp_path / "fc.csv"
    path.write_text("date,pm_hat,id_source,arm,lo,hi,flags\n"
                    "2017-12-01,80.0,algo2,band,50.0,100.0\n")
    table = read_forecast_csv(path)
    assert table.flags.tolist() == [""] and table.hi.tolist() == [100.0]


def test_forecast_csv_keeps_infinite_pm_hat(tmp_path):
    path = tmp_path / "fc.csv"
    path.write_text("date,pm_hat,id_source,arm,lo,hi,flags\n"
                    "2017-12-01,inf,algo2,high,150.0,inf,\n")
    table = read_forecast_csv(path)
    assert math.isinf(table.pm_hat[0])
    assert table.arm.tolist() == ["high"] and table.covers(np.array([400.0])).tolist() == [True]


# ---------------------------------------------------------------- validation


def test_inclusion_report_centres_cover_everything():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo2")
    fake_obs = np.where(table.arm == "band", 0.5 * (table.lo + table.hi),
                        np.where(table.arm == "low", 20.0, 200.0))
    rep = inclusion_report(table, fake_obs)
    assert rep["recorded"]["rate"] == 1.0


def test_inclusion_report_real_month():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo2")
    rep = inclusion_report(table, _observations().lookup("pm", table.date))
    assert rep["n"] == 29
    assert 0.0 <= rep["recorded"]["rate"] <= 1.0
    assert set(rep["profiles"]) == set(PROFILES)
    for name in PROFILES:
        assert 0.0 <= rep["profiles"][name]["rate"] <= 1.0
    assert "algo2" in rep["by_id_source"]


def test_inclusion_report_rejects_unmatched_dates():
    table, _ = forecast_series(MODEL, _predictors(), PROFILES["ncep-i1"],
                               id_source="algo2")
    partial = _observations(skip_day=20).lookup("pm", table.date)
    with pytest.raises(DataError) as err:
        inclusion_report(table, partial)
    assert "2017-12-20" in str(err.value)
