"""Every DataError an input parser raises, pinned to its exact message.

Each input holds one fault. The inputs go through the command line, so
each message is checked as a user sees it: `error: <message>` on stderr
and exit code 1.
"""

import dataclasses
import io
import itertools
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pm25cast import (
    DataError, Pm25CastError, aggregate_ncep, build_frame, parse_ncep, parse_observations,
)
from pm25cast import data
from pm25cast.cli import main
from pm25cast.forecast import read_forecast_csv

from test_data import DATE_CELLS, NUMBER_CELLS

OBS_2014 = Path(__file__).resolve().parent.parent / "demos" / "data" / "obs_201401.csv"

OBS = "date,pm,t,tmax,tmin,pc,w,ep\n"
DAY1 = "2014-01-01,153,44,179,-26,0,27,17\n"
DAY2 = "2014-01-02,181,44,155,-25,0,21,14\n"
NCEP = "date,slot,t,tmax,tmin,pc,w\n"
FORECAST = "date,pm_hat,id_source,arm,lo,hi,flags\n"
FC1 = "2014-01-01,120.0,algo2,band,90.0,150.0,\n"


def _slots(date, slots):
    return "".join(f"{date},{slot},70,110,80,0,24\n" for slot in slots)


CASES = [
    # observations, read by `fit`
    pytest.param("fit", "date,pm,t,tmax,tmin,pc,w\n2014-01-01,153,44,179,-26,0,27\n",
                 "missing required column 'ep'", id="obs-missing-column"),
    pytest.param("fit", "date,pm,t,tmax,tmin,pc,w,ep,pm\n2014-01-01,153,44,179,-26,0,27,17,5\n",
                 "duplicate column 'pm'", id="obs-duplicate-column"),
    pytest.param("fit", OBS + DAY1 + "2014-02-30,181,44,155,-25,0,21,14\n",
                 "row 2: bad date value '2014-02-30'", id="obs-bad-date"),
    pytest.param("fit", OBS + DAY1 + "2014-01-02,oops,44,155,-25,0,21,14\n",
                 "row 2: bad pm value 'oops'", id="obs-bad-cell"),
    pytest.param("fit", OBS + "2014-01-01,153,44,179,-26,wet,27,17\n",
                 "row 1: bad pc value 'wet'", id="obs-bad-pc"),
    pytest.param("fit", OBS + "2014-01-01,153,44,179,-26,0,inf,17\n",
                 "row 1: non-finite w value 'inf'", id="obs-non-finite"),
    pytest.param("fit", OBS + "2014-01-01,-1,44,179,-26,0,27,17\n",
                 "row 1: 2014-01-01: negative pm (-1.0)", id="obs-negative-pm"),
    pytest.param("fit", OBS + DAY1 + "2014-01-02,181,44,155,-25,-0.5,21,14\n",
                 "row 2: 2014-01-02: negative pc (-0.5)", id="obs-negative-pc"),
    pytest.param("fit", OBS + "2014-01-01,153,44,179,-26,0,-2,17\n",
                 "row 1: 2014-01-01: negative w (-2.0)", id="obs-negative-w"),
    pytest.param("fit", OBS + "2014-01-01,153,44,179,-26,0,27,-5\n",
                 "row 1: 2014-01-01: negative ep (-5.0)", id="obs-negative-ep"),
    pytest.param("fit", OBS + "2014-01-01,153,44,-30,-26,0,27,17\n",
                 "row 1: 2014-01-01: tmax (-30.0) below tmin (-26.0)", id="obs-tmax-below-tmin"),
    pytest.param("fit", OBS + DAY2 + DAY1,
                 "records out of order: 2014-01-01 follows 2014-01-02", id="obs-out-of-order"),
    pytest.param("fit", OBS + DAY1 + DAY1,
                 "records out of order: 2014-01-01 follows 2014-01-01", id="obs-repeated-date"),
    pytest.param("fit", OBS + "\n" + DAY1 + "\n\n" + "2014-01-02,181,44,155,-25,0,21,x\n",
                 "row 2: bad ep value 'x'", id="obs-after-blank-line"),
    pytest.param("fit", OBS + DAY1 + "\n" + "2014-01-02,181,44,155,-25,0,21," + "1" * 140_000 + "\n",
                 "row 2: field larger than field limit (131072)", id="obs-oversized-cell"),
    # six-hourly forecasts, read by `aggregate-ncep`
    pytest.param("aggregate-ncep", "date,slot,t,tmax,tmin,pc\n2017-12-01,0,70,110,80,0\n",
                 "missing required column 'w'", id="ncep-missing-column"),
    pytest.param("aggregate-ncep", "date,slot,t,tmax,tmin,pc,w,t\n2017-12-01,0,70,110,80,0,24,5\n",
                 "duplicate column 't'", id="ncep-duplicate-column"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-32,0,70,110,80,0,24\n",
                 "row 1: bad date value '2017-12-32'", id="ncep-bad-date"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-01,six,70,110,80,0,24\n",
                 "row 1: bad slot value 'six'", id="ncep-bad-slot"),
    pytest.param("aggregate-ncep", NCEP + _slots("2017-12-01", (0, 6)) + "2017-12-01,3,70,110,80,0,24\n",
                 "row 3: slot must be one of (0, 6, 12, 18)", id="ncep-slot-outside-set"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-01,0,70,,80,0,24\n",
                 "row 1: missing tmax", id="ncep-blank-cell"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-01,0,70,110,80,0\n",
                 "row 1: missing w", id="ncep-short-row"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-01,0,70,110,80,wet,24\n",
                 "row 1: bad pc value 'wet'", id="ncep-bad-cell"),
    pytest.param("aggregate-ncep", NCEP + "2017-12-01,0,-inf,110,80,0,24\n",
                 "row 1: non-finite t value '-inf'", id="ncep-non-finite"),
    pytest.param("aggregate-ncep",
                 NCEP + _slots("2017-12-03", (0,)) + _slots("2017-12-01", (0, 6, 12, 18))
                 + _slots("2017-12-02", (12, 0, 6)),
                 "2017-12-02: need exactly the four slots (0, 6, 12, 18), got [0, 6, 12]",
                 id="ncep-missing-slot"),
    pytest.param("aggregate-ncep", NCEP + _slots("2017-12-01", (0, 6, 12, 18, 18)),
                 "2017-12-01: need exactly the four slots (0, 6, 12, 18), got [0, 6, 12, 18, 18]",
                 id="ncep-repeated-slot"),
    pytest.param("aggregate-ncep", NCEP + "\n" + _slots("2017-12-01", (0,)) + "\n"
                 + "2017-12-01,6,70,110,80,0,nan\n",
                 "row 2: non-finite w value 'nan'", id="ncep-after-blank-line"),
    pytest.param("aggregate-ncep",
                 NCEP + _slots("2017-12-01", (0, 6, 12, 18))
                 + "".join(f"2017-12-02,{slot},1e308,110,80,0,24\n" for slot in (0, 6, 12, 18)),
                 "2017-12-02: daily t overflows the float range", id="ncep-overflowing-mean"),
    # forecast tables, read by `validate`
    pytest.param("validate", FORECAST.replace("flags", "flags,arm") + FC1.replace("\n", ",low\n"),
                 "duplicate column 'arm'", id="forecast-duplicate-column"),
    pytest.param("validate", FORECAST + FC1 + "x\n",
                 "row 2: malformed forecast row", id="forecast-bad-date"),
    pytest.param("validate", FORECAST + FC1 + "2014-01-02,high,algo2,band,90.0,150.0,\n",
                 "row 2: malformed forecast row", id="forecast-bad-cell"),
    pytest.param("validate", FORECAST + "\n" + FC1 + "\n" + "2014-01-02,120.0,algo2,band,lo,150.0,\n",
                 "row 2: malformed forecast row", id="forecast-after-blank-line"),
    pytest.param("validate", FORECAST + FC1 + "2014-01-02,80.0,algo2,band,nan,100.0,\n",
                 "row 2: bad lo value 'nan'", id="forecast-nan-bound"),
    *(pytest.param("validate", FORECAST + FC1 + f"2014-01-02,{pm_hat},algo2,low,0.0,35.0,\n",
                   f"row 2: bad pm_hat value '{pm_hat}'", id=f"forecast-pm-hat-{pm_hat}")
      for pm_hat in ("-inf", "0", "-5")),
    pytest.param("validate", FORECAST + FC1 + "2014-01-02,80.0,algo2,middle,60.0,100.0,\n",
                 "row 2: bad arm value 'middle'", id="forecast-unknown-arm"),
    pytest.param("validate", FORECAST + FC1 + "2014-01-03,inf,x,high,150,inf,\n",
                 "row 2: bad id_source value 'x'", id="forecast-unknown-id-source"),
    pytest.param("validate", FORECAST + FC1 + "2014-01-02,80.0,algo2,band,100.0,60.0,\n",
                 "row 2: bad lo value '100.0'", id="forecast-lo-above-hi"),
    pytest.param("validate", FORECAST + "2014-01-01,200.0,algo2,high,0.0,10.0,\n",
                 "row 1: bad lo value '0.0'", id="forecast-high-arm-bounds"),
    pytest.param("validate", FORECAST + FC1 + "2014-01-02,20.0,algo2,low,0.0,40.0,\n",
                 "row 2: bad hi value '40.0'", id="forecast-low-arm-bounds"),
]

# Dates are exactly YYYY-MM-DD with a year from 1 to 9999, on every Python:
# date.fromisoformat accepts the first two from Python 3.11 on and reads
# the week date as 2013-12-30; numpy's datetime64 parser accepts the rest.
CASES += [
    pytest.param("fit", OBS + DAY1 + f"{date},181,44,155,-25,0,21,14\n",
                 f"row 2: bad date value '{date}'", id=f"obs-date-{date}")
    for date in ("20140102", "2014-W01-4", "2014-01", "2014", "2014-01-02T00", "+2014-01-02",
                 "NaT", "today", "0000-01-02", "10000-01-02", "-001-01-02")
]


@pytest.mark.parametrize("command,text,message", CASES)
def test_parser_error_message(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--out-dir", out, path],
        "aggregate-ncep": ["aggregate-ncep", "--out-dir", out, path],
        "validate": ["validate", "--out-dir", out, path, OBS_2014],
    }[command]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# the January 2014 demo month with the pc cell of 2014-01-05 written as 微量
# in GBK, as station files often are; its lines end in \r\n
GBK_OBS = OBS_2014.read_bytes().replace(b"2014-01-05,147,41,161,-35,0,",
                                        "2014-01-05,147,41,161,-35,微量,".encode("gbk"))
PARSERS = {"fit": parse_observations, "forecast": parse_observations,
           "aggregate-ncep": parse_ncep, "validate": read_forecast_csv}


@pytest.mark.parametrize("command,raw,message", [
    pytest.param("fit", GBK_OBS, "row 5: not UTF-8 text (byte 0xc1)", id="obs-gbk-row"),
    pytest.param("forecast", GBK_OBS, "row 5: not UTF-8 text (byte 0xc1)", id="forecast-obs-gbk-row"),
    pytest.param("aggregate-ncep",
                 (NCEP + "\n" + _slots("2017-12-01", (0,)) + "\n").encode()
                 + b"2017-12-01,6,70,110,80,0,2\xb04\n",
                 "row 2: not UTF-8 text (byte 0xb0)", id="ncep-latin-1-row"),
    pytest.param("validate", (FORECAST + FC1).encode() + b"2014-01-02,120.0,algo2,band,90,150,caf\xe9\n",
                 "row 2: not UTF-8 text (byte 0xe9)", id="forecast-latin-1-row"),
    pytest.param("fit", b"\xef\xbb\xbf\r\n\r\n" + OBS.replace("ep", "\xe9p").encode("latin-1")
                 + DAY1.encode(), "header: not UTF-8 text (byte 0xe9)", id="obs-header"),
])
def test_byte_that_is_not_utf8_names_its_row(tmp_path, capsys, command, raw, message):
    """Rows are counted as for every other parse error: the header is the
    first line that is not blank, and blank lines are not counted. A path
    and a byte stream give the same message."""
    path = tmp_path / "input.csv"
    path.write_bytes(raw)
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--out-dir", out, path],
        "forecast": ["forecast", "--obs", path, "--out-dir", out],
        "aggregate-ncep": ["aggregate-ncep", "--out-dir", out, path],
        "validate": ["validate", "--out-dir", out, path, OBS_2014],
    }[command]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(DataError) as info:
        PARSERS[command](io.BytesIO(raw))
    assert str(info.value) == message


COEFFICIENTS = '"b": 0.3, "c_w": 0, "c_t": 0, "c_pc": 0, "c_ep": 0, "c_id": 0.7'


@pytest.mark.parametrize("text,message", [
    pytest.param("[4.5, 0.3]", "coefficients file must hold a JSON object", id="list"),
    pytest.param('"a"', "coefficients file must hold a JSON object", id="string"),
    pytest.param('{"b": 0.3}', "coefficients file missing key 'a'", id="missing-key"),
    *(pytest.param(f'{{"a": {value}, {COEFFICIENTS}}}',
                   f"coefficients file: a must be a finite number, got {shown}", id=f"a-{name}")
      for name, value, shown in (
          ("null", "null", "None"), ("string", '"4.5"', "'4.5'"), ("bool", "true", "True"),
          ("nan", "NaN", "nan"), ("-inf", "-Infinity", "-inf"), ("1e999", "1e999", "inf"),
          ("huge-int", "1" + "0" * 400, "1" + "0" * 400))),
    pytest.param("{", "coefficients file: Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1)", id="syntax-error"),
    pytest.param(b'\xef\xbb\xbf{"a": 4.5, "caf\xe9": 1}', "coefficients file: not UTF-8 text (byte 0xe9)",
                 id="not-utf-8"),
])
def test_coefficients_file_error_message(tmp_path, capsys, text, message):
    model = tmp_path / "model.json"
    model.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["forecast", "--model", model, "--obs", OBS_2014,
            "--out-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_nul_byte_names_its_row(tmp_path, capsys):
    """The csv module refuses a NUL byte before Python 3.11 and passes it
    on from 3.11; on every version the row is named, in a number cell and
    after a date alike."""
    path = tmp_path / "input.csv"
    for row in ("2014-01-02,181,44,155,-25,0,21,1\x004\n",
                "2014-01-02\x00,181,44,155,-25,0,21,14\n"):
        path.write_text(OBS + DAY1 + row, encoding="utf-8")
        assert main(["fit", "--out-dir", str(tmp_path / "out"), str(path)]) == 1
        assert capsys.readouterr().err == "error: row 2: line contains NUL\n"


# Cells that have broken parsers before, or come close: blanks, non-finite
# and overflowing numbers, digits outside ASCII, quotes and stray commas
EDGE_CELLS = ["", " ", "nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e-999",
              "1_0", " 5", "٣", "１２", "0x10", "9" * 30, "-0", "NaT", "today", "2014-01",
              '"', '""', '"1,2"', ",", ",,", "\x00", "微量", "T"]
ANY_CELL = st.one_of(st.sampled_from(EDGE_CELLS), st.text(max_size=6),
                     st.floats().map(repr), st.integers().map(str))
NUMBER = st.sampled_from(["0", "1", "24", "35.0", "80.5", "110", "1e308"])


def _csv(header, body, cell=ANY_CELL):
    """Strategy for a CSV text: `header`, then the rows `body` draws (lists
    of cells) with up to three cells replaced by a draw of `cell`. Cells are
    joined with no quoting, so a comma or quote in one shifts the rest of
    its row."""
    edits = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), cell), max_size=3)

    def text(body, edits):
        for i, j, cell in edits:
            row = body[i % len(body)]
            row[j % len(row)] = cell
        return "\n".join([header, *map(",".join, body)]) + "\n"

    return st.builds(text, body, edits)


def _dated(row, max_days):
    """Strategy for 1 to `max_days` rows: a date a day, then a draw of `row`."""
    return st.lists(row, min_size=1, max_size=max_days).map(
        lambda rows: [[f"2014-01-{day:02d}", *cells] for day, cells in enumerate(rows, 1)])


OBS_TEXT = _csv("date,pm,t,tmax,tmin,pc,w,ep,hm", _dated(st.tuples(*[NUMBER] * 8), 6))
NCEP_HEADER = "date,slot,t,tmax,tmin,pc,w"
NCEP_ROWS = _dated(st.tuples(*[NUMBER] * 20), 3).map(
    lambda days: [[date, str(slot), *cells[5 * k:5 * k + 5]]
                  for date, *cells in days for k, slot in enumerate((0, 6, 12, 18))])
NCEP_TEXT = _csv(NCEP_HEADER, NCEP_ROWS)
FORECAST_TEXT = _csv("date,pm_hat,id_source,arm,lo,hi,flags", _dated(st.one_of(
    st.tuples(NUMBER, st.just("algo1"), st.just("low"), st.just("0.0"), st.just("35.0"),
              st.just("")),
    st.tuples(NUMBER, st.just("algo2"), st.just("band"), NUMBER, NUMBER, st.just("")),
    st.tuples(NUMBER, st.just("observed"), st.just("high"), st.just("150.0"), st.just("inf"),
              st.just("NEGATIVE_TRG")),
), 6))


@pytest.mark.parametrize("text,parse", [
    pytest.param(OBS_TEXT, lambda text: build_frame(parse_observations(io.StringIO(text))),
                 id="observations"),
    pytest.param(NCEP_TEXT, lambda text: aggregate_ncep(parse_ncep(io.StringIO(text))),
                 id="ncep"),
    pytest.param(FORECAST_TEXT, lambda text: read_forecast_csv(io.StringIO(text)),
                 id="forecast"),
])
def test_parsers_raise_only_their_own_errors_on_any_cell_text(text, parse):
    """Whatever the cells hold, a parser returns or raises a Pm25CastError;
    no ValueError, IndexError or csv.Error of its machinery gets out."""

    @settings(max_examples=300, deadline=None)
    @given(text)
    def check(csv_text):
        try:
            parse(csv_text)
        except Pm25CastError:
            pass

    check()


# Six-hourly text for the two routes of parse_ncep: NCEP_TEXT's rows with
# edge cells in any column, lines ending in \r\n, \r, \x0c or \u2028,
# blank and whitespace-only lines, and rows with cells added or cut off
SLOT_CELLS = ["06", "012", "+6", "6.0", " 6", "6 ", "3", "99", "٦"]
ROUTE_CELL = st.one_of(st.sampled_from(EDGE_CELLS + list(NUMBER_CELLS) + list(DATE_CELLS)
                                       + SLOT_CELLS), ANY_CELL)
LINE_EDITS = st.lists(st.tuples(st.integers(0, 99),
                                st.sampled_from(["", " ", "\t", ",", ",9", ",x,", ',"', "cut"])),
                      max_size=3)
LINE_ENDS = st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0c", "\u2028"]),
                     min_size=1, max_size=4)


def _edit_lines(text, edits, ends, final_end):
    """`text` with each (line, edit) applied: a cell cut off the line's end,
    cells added to it, or a blank line put after it; line ends then cycle
    through `ends`, and the last line keeps its end only if `final_end`."""
    lines = text.split("\n")[:-1]
    for i, edit in edits:
        i %= len(lines)
        if edit == "cut":
            lines[i] = lines[i].rpartition(",")[0]
        elif edit.startswith(","):
            lines[i] += edit
        else:
            lines.insert(i + 1, edit)
    ends = [end for end, _ in zip(itertools.cycle(ends), lines)]
    return "".join(map(str.__add__, lines, ends[:-1] + [ends[-1] if final_end else ""]))


NCEP_ROUTE_TEXT = st.builds(_edit_lines, _csv(NCEP_HEADER, NCEP_ROWS, ROUTE_CELL), LINE_EDITS,
                            LINE_ENDS, st.booleans())


_DAY = "".join(f"2017-12-01,{slot},70,110,80,0,24\n" for slot in (0, 6, 12, 18))
# Texts each refusal of the C reader exists for: cells it would cut short
# or read otherwise, line ends it does not split at, a quote that joins
# lines in csv, a cell over csv's field limit, and text with no rows
ROUTE_EXAMPLES = [
    NCEP_HEADER + "\n" + _DAY.replace(",6,", old, 1)
    for old in (",012,", ",0006,", ",3,", ",6.0,", ",06,")
] + [
    NCEP_HEADER + "\n" + _DAY.replace("2017-12-01", day, 1)
    for day in ("2017-12-01T0", "2017-12-01Z", "0000-01-01", "2017-12-01\x00", " 2017-12-01")
] + [
    NCEP_HEADER + "\n" + _DAY.replace(",24\n", f",24,x{end}", 1)
    for end in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", ',"\n')
] + [
    NCEP_HEADER + "\n" + _DAY.replace(",70,", f",{cell},", 1)
    for cell in ("nan", "1e999", "1_0", "０", " 7 ", "0." + "0" * 140_000)
] + [NCEP_HEADER + ",x" + "y" * 140_000 + "\n" + _DAY, NCEP_HEADER + "\n", NCEP_HEADER + "\n\n",
     "\ufeff" + NCEP_HEADER + "\n" + _DAY, NCEP_HEADER + "\r\n" + _DAY.replace("\n", "\r\n"),
     NCEP_HEADER + ",t\n" + _DAY]


def _outcome(call):
    """A list of (dtype, bytes) of the arrays a call returns, or the
    message of the DataError it raises."""
    try:
        result = call()
    except DataError as exc:
        return str(exc)
    if result is None:
        return None
    if isinstance(result, tuple):
        date, slot, values = result
        arrays = [date, slot, *values.values()]
    else:
        arrays = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [(a.dtype.str, a.tobytes()) for a in arrays]


def test_c_reader_reads_what_the_cell_path_reads():
    """Where numpy's C reader takes a six-hourly text, it gives the cell
    path's columns, dtype and bytes alike; and parse_ncep returns or raises
    on every text what it does with the cell path alone."""
    read = []

    @settings(max_examples=500, deadline=None)
    @given(NCEP_ROUTE_TEXT)
    def check(text):
        by_loadtxt = _outcome(lambda: data._ncep_by_loadtxt(text))
        if by_loadtxt is not None:
            assert by_loadtxt == _outcome(lambda: data._ncep_by_cells(text))
            read.append(isinstance(by_loadtxt, list))
        with mock.patch.object(data, "_ncep_by_loadtxt", return_value=None):
            expected = _outcome(lambda: parse_ncep(io.StringIO(text)))
        assert _outcome(lambda: parse_ncep(io.StringIO(text))) == expected

    for text in ROUTE_EXAMPLES:
        check = example(text)(check)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check()
    assert any(read)


def test_c_reader_reads_the_demo_six_hourly_table():
    text = data._open_text(OBS_2014.parent / "ncep_201712_6h.csv")
    assert data._ncep_by_loadtxt(text) is not None
    assert _outcome(lambda: data._ncep_by_loadtxt(text)) == _outcome(
        lambda: data._ncep_by_cells(text))
