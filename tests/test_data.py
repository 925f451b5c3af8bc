import dataclasses
import datetime as dt
import io
import json
import math
import re
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from pm25cast import (
    AggregationError,
    DataError,
    aggregate_ncep,
    build_frame,
    parse_ncep,
    parse_observations,
)
from pm25cast import data
from pm25cast.data import SixHourly, id_from_lpm, write_aggregated_csv
from pm25cast.forecast import read_forecast_csv

from conftest import JAN_2014, jan2014_records, obs_rows, obs_table, synthetic_records
from reference import write_frame_csv

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN_FORECAST = Path(__file__).resolve().parent / "data" / "golden" / "ncep" / "forecast.csv"


# ------------------------------------------------------------ Observations


def test_record_rejects_negative_quantities():
    base = dict(date=dt.date(2020, 1, 1), pm=10.0, t=0.0, tmax=5.0, tmin=0.0, pc=0.0, w=1.0, ep=0.0)
    for field, bad in (("pm", -1.0), ("pc", -0.1), ("w", -2.0), ("ep", -5.0)):
        kw = dict(base)
        kw[field] = bad
        with pytest.raises(DataError, match=rf"^row 1: 2020-01-01: negative {field} \({bad}\)$"):
            obs_table([tuple(kw.values())])


def test_record_rejects_inverted_temperature_range():
    with pytest.raises(DataError, match=r"^row 2: 2020-01-02: tmax \(-1.0\) below tmin \(0.0\)$"):
        obs_table([(dt.date(2020, 1, 1), 10.0, 0.0, 5.0, 0.0, 0.0, 1.0, 0.0),
                   (dt.date(2020, 1, 2), 10.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0)])


def test_record_complete_flag():
    table = obs_table([(dt.date(2020, 1, 1), 10.0, 0.0, 5.0, 0.0, 0.0, 1.0, None),
                       (dt.date(2020, 1, 2), 10.0, 0.0, 5.0, 0.0, 0.0, 1.0, 3.0)])
    assert not table.complete[0]
    assert table.complete[1]


# ------------------------------------------------------------ observation CSV


def _csv(text):
    return io.StringIO(text)


def test_parse_observations_basic():
    recs = obs_rows(parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep\n"
        "2014-01-01,153,44,179,-26,0,27,17\n"
    )))
    assert len(recs) == 1
    r = recs[0]
    assert r.date == dt.date(2014, 1, 1)
    assert (r.pm, r.t, r.tmax, r.tmin, r.pc, r.w, r.ep) == (153.0, 44.0, 179.0, -26.0, 0.0, 27.0, 17.0)


@pytest.mark.parametrize("token", ["微量", "T", "trace"])
def test_parse_trace_precipitation_tokens(token):
    recs = parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep\n"
        f"2014-01-01,153,44,179,-26,{token},27,17\n"
    ))
    assert recs.pc[0] == 0.0


def test_parse_empty_cells_become_none():
    recs = parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep\n"
        "2014-01-01,153,,179,-26,0,27,\n"
    ))
    assert math.isnan(recs.t[0])
    assert math.isnan(recs.ep[0])
    assert not recs.complete[0]


def test_parse_bad_value_reports_row():
    with pytest.raises(DataError) as err:
        parse_observations(_csv(
            "date,pm,t,tmax,tmin,pc,w,ep\n"
            "2014-01-01,153,44,179,-26,0,27,17\n"
            "2014-01-02,oops,44,155,-25,0,21,14\n"
        ))
    assert "row 3" in str(err.value) or "row 2" in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "parse,text,field",
    [
        (parse_observations,
         "date,pm,t,tmax,tmin,pc,w,ep\n"
         "2014-01-01,153,44,179,-26,0,27,17\n"
         "2014-01-02,{},44,155,-25,0,21,14\n", "pm"),
        (parse_ncep,
         "date,slot,t,tmax,tmin,pc,w\n"
         "2017-12-01,0,1,2,0,0,5\n"
         "2017-12-01,6,1,{},0,0,5\n", "tmax"),
    ],
    ids=["obs-pm", "ncep-tmax"],
)
def test_parse_rejects_non_finite_cells(token, parse, text, field):
    with pytest.raises(DataError) as err:
        parse(_csv(text.format(token)))
    assert f"row 2: non-finite {field}" in str(err.value)


def test_parse_missing_column():
    with pytest.raises(DataError):
        parse_observations(_csv("date,pm,t\n2014-01-01,153,44\n"))


def test_parse_header_only():
    assert obs_rows(parse_observations(_csv("date,pm,t,tmax,tmin,pc,w,ep\n"))) == []


def _columns(table):
    """(name, dtype, bytes) of each column."""
    columns = [(f.name, getattr(table, f.name)) for f in dataclasses.fields(table)]
    return [(name, a.dtype.str, a.tobytes()) for name, a in columns]


@pytest.mark.parametrize("parse,path", [
    (parse_observations, DEMO_DATA / "obs_201401.csv"),
    (parse_ncep, DEMO_DATA / "ncep_201712_6h.csv"),
    (read_forecast_csv, GOLDEN_FORECAST),
], ids=["observations", "six-hourly", "forecast"])
def test_byte_order_mark_and_crlf_read_as_the_plain_file(tmp_path, parse, path):
    """Excel's "CSV UTF-8" starts a file with a byte-order mark; a path, a
    byte stream or a text stream with one, and with \n or \r\n line ends,
    reads as the plain file does."""
    plain = path.read_bytes().replace(b"\r\n", b"\n")
    copy = tmp_path / "copy.csv"
    for text in (plain, plain.replace(b"\n", b"\r\n")):
        copy.write_bytes(b"\xef\xbb\xbf" + text)
        sources = (copy, io.BytesIO(copy.read_bytes()), io.StringIO(copy.read_text("utf-8")))
        for source in sources:
            assert _columns(parse(source)) == _columns(parse(io.BytesIO(plain)))


def _parse_ncep_cell_by_cell(source):
    """parse_ncep by its csv route, the one taken by text numpy's reader refuses."""
    with mock.patch.object(data, "_ncep_by_loadtxt", return_value=None):
        return parse_ncep(source)


@pytest.mark.parametrize("parse,path", [
    (parse_observations, DEMO_DATA / "obs_201401.csv"),
    (parse_ncep, DEMO_DATA / "ncep_201712_6h.csv"),
    (_parse_ncep_cell_by_cell, DEMO_DATA / "ncep_201712_6h.csv"),
    (read_forecast_csv, GOLDEN_FORECAST),
], ids=["observations", "six-hourly", "six-hourly-cells", "forecast"])
def test_padded_header_names_read_as_the_plain_file(parse, path):
    """Header names are stripped as every cell is, so `date, pm, t` reads as
    `date,pm,t`; a name that repeats once stripped is still refused."""
    plain = path.read_text(encoding="utf-8").replace("\r\n", "\n")
    head, body = plain.split("\n", 1)
    names = head.split(",")
    padded = ",".join(f" {name}\t" for name in names) + "\n" + body
    if parse is parse_ncep:
        assert data._ncep_by_loadtxt(padded) is not None
    assert _columns(parse(io.StringIO(padded))) == _columns(parse(io.StringIO(plain)))
    repeated = ",".join([*names, f" {names[1]} "]) + "\n" + body
    with pytest.raises(DataError, match=f"^duplicate column '{names[1]}'$"):
        parse(io.StringIO(repeated))


def test_a_repeated_column_no_parser_reads_is_allowed():
    table = parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep,note,note,,\n"
        "2014-01-01,153,44,179,-26,0,27,17,a,b,,\n"
    ))
    assert obs_rows(table)[0].pm == 153.0


@pytest.mark.parametrize("header,cells", [
    ("hm", ["51", "x", "1e999"]),
    ("hm", ["", " ", ""]),
    ("hm,hm", ["51,7", "x,", ",nan"]),
], ids=["numbers-and-text", "blanks", "repeated"])
def test_an_hm_column_reads_as_the_file_without_it(header, cells):
    """No model reads humidity: an hm column, whatever it holds and however
    often, is left unread like any other column."""
    head = "date,pm,t,tmax,tmin,pc,w,ep"
    rows = ["2014-01-01,153,44,179,-26,0,27,17", "2014-01-02,181,,155,-25,T,21,14",
            "2014-01-03,96,40,150,-20,0,21,"]
    plain = "\n".join([head, *rows]) + "\n"
    with_hm = "\n".join([f"{head},{header}", *map(",".join, zip(rows, cells))]) + "\n"
    assert _columns(parse_observations(_csv(with_hm))) == _columns(parse_observations(_csv(plain)))


def test_lookup_takes_the_last_non_blank_row_of_a_date():
    table = parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep\n"
        "2014-01-03,30,44,179,-26,0,27,\n"
        "2014-01-01,10,44,179,-26,0,27,17\n"
        "2014-01-01,11,44,179,-26,0,27,\n"
        "2014-01-03,,44,179,-26,0,27,\n"
        "2014-01-01,12,44,179,-26,0,27,\n"
    ))
    dates = np.array(["2014-01-01", "2014-01-02", "2014-01-03", "2013-12-31", "2014-01-04"],
                     dtype="datetime64[D]")
    assert repr(table.lookup("pm", dates).tolist()) == "[12.0, nan, 30.0, nan, nan]"
    assert repr(table.lookup("ep", dates).tolist()) == "[17.0, nan, nan, nan, nan]"
    assert repr(table.lookup("ep", dates[:1]).tolist()) == "[17.0]"
    assert repr(parse_observations(_csv(
        "date,pm,t,tmax,tmin,pc,w,ep\n2014-01-01,10,44,179,-26,0,27,\n"
    )).lookup("ep", dates[:2]).tolist()) == "[nan, nan]"


# Cells numpy's column conversion must read exactly as float() and int() do:
# digit grouping, non-ASCII digits, padding, signed and spelled-out
# specials, overflow, and text that only looks numeric.
NUMBER_CELLS = (
    "1_0", "1__0", "_1", "1_", "１２", "١٢", "٣.٥", "−1", " 5 ", "\t7\n", "\u20035\xa0",
    "+nan", "-NaN", "nan(1)", "snan", "infinity", "-Infinity", "iNf", "1e400", "-1e400", "1e-400",
    "-0", "+0.0", "007", "0x10", "0b1", "0o7", "1e", "e5", "1E5", "1e+5", "1.", ".5", ".",
    "1,5", "1 000", "+-1", "1j", "True", "", " ", "1.5", "-2", "4" * 25, "-" + "9" * 19,
)
DATE_CELLS = (
    "2014-01-01", "2016-02-29", "2014-02-29", "2014-02-30", "2014-13-01", "2014-00-10",
    "2014-01-00", "0001-01-01", "9999-12-31", "0000-01-01", "10000-01-01", "-001-01-01",
    "20140101", "2014-W01-1", "2014-01", "2014", "2014-1-1", "2014-01-01T00", "2014-01-01Z",
    "+2014-01-01", "２０１４-01-01", "NaT", "nat", "today", "now", "", "2014/01/01",
)


def _python_int(text):
    # integers beyond int64 are refused as well: no slot is that large
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(text)
    return value


def _python_date(text):
    if not (len(text) == 10 and text[4] == text[7] == "-" and text.replace("-", "").isascii()
            and text.replace("-", "").isdigit()):
        raise ValueError(text)
    return dt.date.fromisoformat(text)


@pytest.mark.parametrize("parse,reference,cells", [
    (data._floats, float, NUMBER_CELLS),
    (data._ints, _python_int, NUMBER_CELLS),
    (data._iso_dates, _python_date, DATE_CELLS),
], ids=["float", "int", "date"])
def test_column_conversion_matches_python_cell_for_cell(parse, reference, cells):
    """Whole-column conversion gives what the Python constructor gives on
    every cell, and where the constructor refuses a cell the column fails
    at that cell's row; on every cell alone and on 500 seeded columns."""
    rng = np.random.default_rng(7)
    columns = [[cell] for cell in cells]
    columns += [[cells[i] for i in rng.integers(len(cells), size=rng.integers(1, 9))]
                for _ in range(500)]
    for column in columns:
        expected = []
        for text in column:
            try:
                expected.append(reference(text))
            except ValueError:
                message = f"row {len(expected) + 1}: {text!r}"
                with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                    data._convert(column, parse, "{!r}")
                break
        else:
            got = data._convert(column, parse, "{!r}").tolist()
            assert list(map(repr, got)) == list(map(repr, expected)), column


def test_demo_observation_file_matches_table():
    recs = obs_rows(parse_observations(DEMO_DATA / "obs_201401.csv"))
    assert len(recs) == len(JAN_2014)
    for rec, row in zip(recs, JAN_2014):
        day, pm, t, tmax, tmin, pc, w, ep = row
        assert rec.date == dt.date(2014, 1, day)
        assert rec.pm == pm and rec.t == t and rec.tmax == tmax
        assert rec.tmin == tmin and rec.pc == pc and rec.w == w and rec.ep == ep


# ------------------------------------------------------------ frame building


def test_build_frame_transforms(jan2014_frame):
    f = jan2014_frame
    assert f.n == 31
    assert f.lpm[0] == pytest.approx(10.0 * math.log(153.0), abs=1e-12)
    assert f.trg[0] == 205.0  # 179 - (-26)
    assert f.id[0] == 1.0  # lpm = 50.3 > 50
    # pm=67 on Jan 21: lpm = 42.05, in (35, 50] -> id 0
    assert f.id[20] == 0.0


def test_id_thresholds_exact():
    # class cuts sit at lpm = 35 and lpm = 50 with <= semantics
    assert id_from_lpm(np.array([34.9, 35.0, 35.1, 50.0, 50.1])).tolist() == [-1.0, -1.0, 0.0, 0.0, 1.0]


def test_build_frame_drops_incomplete_and_nonpositive():
    recs = obs_rows(jan2014_records())
    recs[4] = recs[4]._replace(t=None)
    recs[7] = recs[7]._replace(pm=0.0)
    frame = build_frame(obs_table(recs))
    assert frame.n == 29
    reasons = dict(frame.drop_log)
    assert "missing field" in reasons[recs[4].date]
    assert "nonpositive" in reasons[recs[7].date]


def test_build_frame_requires_increasing_dates():
    recs = obs_rows(jan2014_records())
    with pytest.raises(DataError):
        build_frame(obs_table([recs[1], recs[0]]))
    with pytest.raises(DataError):
        build_frame(obs_table([recs[0], recs[0]]))


def test_frame_id_consistent_with_lpm(jan2014_frame):
    assert np.array_equal(jan2014_frame.id, id_from_lpm(jan2014_frame.lpm))


def test_lag_pairs_consecutive_only():
    frame = build_frame(synthetic_records(n=12, seed=1, gap_every=4))
    prev, curr = frame.lag_pairs()
    # gaps after records 4 and 8 remove two pairs
    assert len(prev) == 9
    d = frame.dates
    for i, j in zip(prev, curr):
        assert (d[j] - d[i]).astype(int) == 1


def test_lag_pairs_dense(jan2014_frame):
    prev, curr = jan2014_frame.lag_pairs()
    assert len(prev) == 30
    assert prev[0] == 0 and curr[-1] == 30


def test_stacked_subset_and_its_lag_pairs(jan2014_frame):
    """A stack of samples is a (samples, m) array of frame rows; its lag
    pairs are frame rows too, one row of pairs per sample."""
    rows = np.array([[0, 1, 2, 5, 6], [3, 4, 8, 9, 10]])
    prev, curr = jan2014_frame.lag_pairs(rows)
    assert np.array_equal(prev, [[0, 1, 5], [3, 8, 9]])
    assert np.array_equal(curr, [[1, 2, 6], [4, 9, 10]])
    with pytest.raises(ValueError, match="lag-pair count"):
        jan2014_frame.lag_pairs(np.array([[0, 1, 2], [0, 2, 4]]))


def test_lag_pairs_of_one_sample_are_frame_rows(jan2014_frame):
    prev, curr = jan2014_frame.lag_pairs([2, 3, 7, 8, 8, 9])
    assert prev.tolist() == [2, 7, 8] and curr.tolist() == [3, 8, 9]
    every_row = jan2014_frame.lag_pairs(np.arange(jan2014_frame.n))
    assert all(map(np.array_equal, every_row, jan2014_frame.lag_pairs()))


def test_lag_pairs_of_samples_shorter_than_two_rows_are_empty(jan2014_frame):
    for rows, shape in (([4], (0,)), ([], (0,)), ([[4], [9], [20]], (3, 0))):
        prev, curr = jan2014_frame.lag_pairs(np.array(rows, dtype=int))
        assert prev.shape == curr.shape == shape


def test_subset_and_order_checks(jan2014_frame):
    sub = jan2014_frame.subset([0, 3, 3, 7])
    assert sub.n == 4
    assert sub.lpm[1] == sub.lpm[2]
    with pytest.raises(DataError):
        jan2014_frame.subset([5, 2])


@pytest.mark.parametrize("column", ["lpm", "trg", "t", "w", "pc", "ep", "id"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_frame_rejects_non_finite_columns(jan2014_frame, column, bad):
    values = getattr(jan2014_frame, column).copy()
    values[4] = bad
    with pytest.raises(DataError, match=f"column {column} .*{jan2014_frame.dates[4]}"):
        dataclasses.replace(jan2014_frame, **{column: values})
    # a stack of samples is an index array, never a frame of 2-d columns
    with pytest.raises(DataError, match=f"column {column} has mismatched length"):
        dataclasses.replace(jan2014_frame, **{column: values.reshape(1, -1)})
    with pytest.raises(DataError, match="frame columns must be 1-d"):
        jan2014_frame.subset([[0, 1, 2], [3, 5, 6]])


def test_frame_csv_roundtrip(tmp_path, jan2014_frame):
    out = tmp_path / "frame.csv"
    write_frame_csv(jan2014_frame, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "date,lpm,trg,t,w,pc,ep,id"
    assert len(lines) == 32
    first = lines[1].split(",")
    assert first[0] == "2014-01-01"
    assert float(first[2]) == 205.0


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def test_json_reports_write_every_non_finite_number_as_null(tmp_path):
    """JSON has no nan or inf (RFC 8259, section 6): _write_json writes each
    as null, whatever its type and wherever it sits, and a finite float as
    its repr."""
    bad = [math.nan, math.inf, -math.inf]
    payload = {
        "float": bad,
        "scalar": tuple(np.float64(v) for v in bad),
        "array": np.array(bad),
        "nested": {"list": [{"tuple": (np.array([[0.1, math.nan]]), np.float32(-math.inf))}]},
        "finite": [1 / 3, np.float64(2.5e-300), np.int64(7), np.bool_(True), None, "nan"],
    }
    path = tmp_path / "report.json"
    data._write_json(payload, path)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text, parse_constant=_not_json) == {
        "float": [None] * 3,
        "scalar": [None] * 3,
        "array": [None] * 3,
        "nested": {"list": [{"tuple": [[[0.1, None]], None]}]},
        "finite": [1 / 3, 2.5e-300, 7, True, None, "nan"],
    }
    for value in (0.1, 1 / 3, 2.5e-300):
        assert f" {value!r}" in text


# ------------------------------------------------------------ six-hourly data


def _ncep_day(date, rows):
    """SixHourly table of one date from (slot, t, tmax, tmin, pc, w) rows."""
    slot, *values = (np.array(col) for col in zip(*rows))
    fields = dict(zip(("t", "tmax", "tmin", "pc", "w"), values))
    return SixHourly(date=np.full(len(rows), date, dtype="datetime64[D]"), slot=slot, **fields)


def _daily_row(daily, i):
    """Row i of an NcepDaily table, as scalars."""
    return types.SimpleNamespace(
        **{f.name: getattr(daily, f.name)[i].item() for f in dataclasses.fields(daily)}
    )


def _aggregate_day(day):
    """The one row that aggregate_ncep makes of a one-date table."""
    daily = aggregate_ncep(day)
    assert daily.date.shape == (1,)
    return _daily_row(daily, 0)


def test_aggregate_means_and_max_wind():
    day = _ncep_day(dt.date(2017, 12, 1), [
        (0, 70.0, 110.0, 80.0, 0.0, 24.0),
        (6, 72.0, 112.0, 82.0, 0.0, 10.0),
        (12, 74.0, 114.0, 84.0, 0.1, 18.0),
        (18, 76.0, 114.0, 88.0, 0.0, 30.5),
    ])
    agg = _aggregate_day(day)
    assert agg.t == pytest.approx(73.0)
    assert agg.tmax == pytest.approx(112.5)
    assert agg.tmin == pytest.approx(83.5)
    assert agg.trg == pytest.approx(112.5 - 83.5)
    assert agg.pc == pytest.approx(0.025)
    assert agg.w == 30.5


def test_aggregate_identical_slots_idempotent():
    day = _ncep_day(dt.date(2017, 12, 3), [(s, 97.21, 33.5, 33.5, 0.0, 19.593) for s in (0, 6, 12, 18)])
    agg = _aggregate_day(day)
    assert (agg.t, agg.tmax, agg.tmin, agg.pc, agg.w) == (97.21, 33.5, 33.5, 0.0, 19.593)
    assert agg.trg == 0.0


@pytest.mark.parametrize("slots", [(0, 6, 12), (0, 6, 12, 18, 18), (0, 6, 12, 17)])
def test_aggregate_requires_exact_slot_set(slots):
    day = _ncep_day(dt.date(2017, 12, 5), [(s, 70.0, 110.0, 80.0, 0.0, 24.0) for s in slots])
    with pytest.raises(AggregationError) as err:
        aggregate_ncep(day)
    assert "2017-12-05" in str(err.value)


@pytest.mark.parametrize("field", ["t", "tmax", "tmin", "pc"])
def test_aggregate_refuses_an_overflowing_day_without_a_warning(field):
    """Four slots of 1e308 sum past the float range: the day and field are
    named, and numpy's overflow warning does not reach the user."""
    row = {"t": 70.0, "tmax": 110.0, "tmin": 80.0, "pc": 0.0, "w": 24.0, field: 1e308}
    table = _ncep_day(dt.date(2017, 12, 2), [(s, *row.values()) for s in (0, 6, 12, 18)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AggregationError, match=rf"^2017-12-02: daily {field} overflows"):
            aggregate_ncep(table)


def test_parse_ncep_groups_and_sorts():
    days = parse_ncep(_csv(
        "date,slot,t,tmax,tmin,pc,w\n"
        "2017-12-02,6,1,2,0,0,5\n"
        "2017-12-01,0,1,2,0,0,5\n"
        "2017-12-01,18,1,2,0,0,5\n"
        "2017-12-02,0,1,2,0,0,5\n"
    ))
    assert np.unique(days.date).tolist() == [dt.date(2017, 12, 1), dt.date(2017, 12, 2)]
    assert days.slot[days.date == np.datetime64("2017-12-01")].tolist() == [0, 18]
    assert days.date.tolist() == [dt.date(2017, 12, d) for d in (1, 1, 2, 2)]
    assert days.slot.tolist() == [0, 18, 0, 6]


def test_parse_ncep_rejects_missing_cells():
    with pytest.raises(DataError):
        parse_ncep(_csv("date,slot,t,tmax,tmin,pc,w\n2017-12-01,0,1,,0,0,5\n"))


def test_demo_ncep_file_aggregates_to_table():
    from conftest import DEC_2017

    daily = aggregate_ncep(parse_ncep(DEMO_DATA / "ncep_201712_6h.csv"))
    assert len(daily.date) == 31
    for i, row in enumerate(DEC_2017):
        dnum, pm, t, tmax, tmin, pc, w, ep = row
        agg = _daily_row(daily, i)
        assert agg.date == dt.date(2017, 12, dnum)
        assert agg.t == pytest.approx(t, abs=1e-9)
        assert agg.trg == pytest.approx(tmax - tmin, abs=1e-9)
        assert agg.w == pytest.approx(w, abs=1e-9)


def test_write_aggregated_csv(tmp_path):
    day = _ncep_day(dt.date(2017, 12, 1), [(s, 70.0, 110.0, 80.0, 0.0, 24.0) for s in (0, 6, 12, 18)])
    out = tmp_path / "daily.csv"
    write_aggregated_csv(aggregate_ncep(day), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "date,t,tmax,tmin,trg,pc,w"
    assert lines[1].startswith("2017-12-01,70.0,110.0,80.0,30.0")
