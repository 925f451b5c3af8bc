import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pm25cast
from pm25cast.cli import build_parser, main
from pm25cast.forecast import PRESETS

from conftest import obs_rows, synthetic_records

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
OBS_2014 = str(DEMO_DATA / "obs_201401.csv")
NCEP_2017 = str(DEMO_DATA / "ncep_201712_6h.csv")
OBS_2017 = str(DEMO_DATA / "obs_201712.csv")


def run(*argv):
    """Invoke the CLI in-process; argparse usage errors surface as SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _digests(*paths):
    """The config echo's inputs: each path with the SHA-256 of its bytes."""
    return {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _subcommand(command):
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[command]


def _dests(command):
    """Names of a subcommand's arguments as they appear on the parsed args."""
    return {a.dest for a in _subcommand(command)._actions if a.dest != "help"}


def write_obs_csv(path, table):
    """An Observations table as an observation CSV, each number as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "pm", "t", "tmax", "tmin", "pc", "w", "ep"])
        for r in obs_rows(table):
            writer.writerow([r.date.isoformat()]
                            + [repr(v) for v in (r.pm, r.t, r.tmax, r.tmin, r.pc, r.w, r.ep)])


def run_quiet(*argv):
    """run() with stderr swallowed, for paths that intentionally fail."""
    import contextlib
    import io

    with contextlib.redirect_stderr(io.StringIO()):
        return run(*argv)


# ---------------------------------------------------------------- fit


def test_fit_writes_reports(tmp_path):
    out = tmp_path / "fit"
    code = run("fit", "--family", "with-id", "--out-dir", str(out), OBS_2014)
    assert code == 0
    trace = (out / "fit_trace.csv").read_text().strip().splitlines()
    assert trace[0].startswith("step,theta1")
    assert len(trace) >= 3

    residuals = list(csv.DictReader(open(out / "residuals.csv")))
    assert len(residuals) == 31
    assert set(residuals[0]) == {"date", "fitted", "residual", "std_residual"}

    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["fit"]["converged"] is True
    assert "curvature" in diag and "box_bias" in diag and "residuals" in diag
    assert diag["config"]["options"]["family"] == "with-id"
    assert diag["config"]["inputs"] == _digests(OBS_2014)
    assert set(diag["config"]["options"]) == _dests("fit") | {"command"}


def test_fit_explicit_start_and_alpha(tmp_path):
    out = tmp_path / "fit2"
    code = run("fit", "--family", "initial", "--alpha", "0.01",
               "--start", "40,1,0,0,0,0", "--out-dir", str(out), OBS_2014)
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["curvature"]["alpha"] == 0.01
    assert diag["config"]["options"]["start"] == "40,1,0,0,0,0"


def test_fit_non_convergence_exit_code(tmp_path):
    out = tmp_path / "fit3"
    code = run_quiet("fit", "--family", "with-id", "--max-steps", "0",
                     "--out-dir", str(out), OBS_2014)
    assert code == 2
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["fit"]["converged"] is False


def test_fit_non_finite_start_fails_cleanly(tmp_path, capsys):
    code = run("fit", "--family", "with-id", "--start", "40,-10000,0,0,0,0,1",
               "--out-dir", str(tmp_path), OBS_2014)
    err = capsys.readouterr().err
    assert code != 0
    assert "non-finite" in err
    assert "must not contain infs or NaNs" not in err


def _reject_non_json(token):
    raise ValueError(f"{token} is not a JSON number")


def test_fit_non_finite_end_point_exits_2_and_writes_reports(tmp_path, capsys):
    """The fit stops unconverged at an infinite RSS: no derivatives exist
    there, so the diagnostic blocks are null, but the trace and the report
    are written and the exit code is the non-convergence one."""
    out = tmp_path / "fit"
    code = run("fit", "--family", "with-id", "--start", "40,-10000,0,0,0,0,1",
               "--out-dir", str(out), OBS_2014)
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    trace = (out / "fit_trace.csv").read_text().strip().splitlines()
    assert len(trace) == 2 and trace[1].endswith(",inf")
    diag = json.loads((out / "diagnostics.json").read_text(), parse_constant=_reject_non_json)
    assert diag["fit"]["converged"] is False
    assert diag["fit"]["rss"] is None and diag["fit"]["sigma_hat"] is None
    assert diag["curvature"] is None
    assert diag["box_bias"] is None
    assert diag["residuals"] is None


def _scipy_modules_after(code):
    """The sorted scipy modules that `code` leaves loaded in a fresh
    interpreter, printed as a list; the demo files are there as `obs_2014`,
    `ncep_2017` and `obs_2017`."""
    src = str(Path(pm25cast.__file__).resolve().parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "obs_2014, ncep_2017, obs_2017 = sys.argv[2:]; " + code +
              "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script, src, OBS_2014, NCEP_2017, OBS_2017],
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("code", [
    "import pm25cast",
    "import pm25cast.cli as cli; cli.build_parser()",
])
def test_import_loads_no_scipy(code):
    """Importing the package and building the parser load no scipy module."""
    assert _scipy_modules_after(code) == "[]"


def test_forecast_path_loads_no_scipy_and_fit_does(tmp_path):
    """No command loads a scipy module: neither the forecast path on the
    December 2017 demo files nor `fit` and `simulate` on the January 2014
    month, whose quantiles and p-values come from `numerics` alone. (The
    name is from when `fit` loaded scipy.special.)"""
    forecast_path = (
        "import pm25cast.cli as cli; "
        f"out = {str(tmp_path)!r}; "
        "assert cli.main(['aggregate-ncep', '--out-dir', out + '/agg', ncep_2017]) == 0; "
        "assert cli.main(['forecast', '--ncep', ncep_2017, '--obs', obs_2017, "
        "'--out-dir', out + '/fc']) == 0; "
        "assert cli.main(['validate', '--out-dir', out + '/val', "
        "out + '/fc/forecast.csv', obs_2017]) == 0"
    )
    assert _scipy_modules_after(forecast_path) == "[]"
    fit_and_simulate = (
        "import pm25cast.cli as cli; "
        f"out = {str(tmp_path)!r}; "
        "assert cli.main(['fit', '--out-dir', out + '/fit', obs_2014]) == 0; "
        "assert cli.main(['simulate', '--size', '25', '--reps', '50', "
        "'--out-dir', out + '/sim', obs_2014]) == 0"
    )
    assert _scipy_modules_after(fit_and_simulate) == "[]"


@pytest.mark.parametrize("argv", [
    ["fit", OBS_2014],
    ["simulate", "--size", "25", "--reps", "50", OBS_2014],
    ["aggregate-ncep", NCEP_2017],
    ["forecast", "--ncep", NCEP_2017, "--obs", OBS_2017],
], ids=lambda argv: argv[0])
def test_commands_import_numpy_ma_only_where_numpy_does(tmp_path, argv):
    """numpy 2 imports numpy.ma on first use (numpy 1.24 at `import
    numpy`), and its `np.unique` is such a use: numpy.ma then costs ~1 MB
    of a fresh process's ru_maxrss. A command run in a fresh process leaves
    numpy.ma imported exactly when `import numpy` already did."""
    src = str(Path(pm25cast.__file__).resolve().parent.parent)
    script = ("import sys, numpy; eager = 'numpy.ma' in sys.modules; "
              "sys.path.insert(0, sys.argv[1]); import pm25cast.cli as cli; "
              "code = cli.main(sys.argv[2:]); print(code, eager, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script, src, *argv, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    code, eager, loaded = done.stdout.split()
    assert code == "0"
    assert loaded == eager


def test_fit_and_simulate_need_no_scipy(tmp_path):
    """With scipy blocked (`sys.modules["scipy"] = None` makes every scipy
    import fail), `fit` and `simulate` on the demo month exit 0 and write
    the bytes of an unblocked run into the same directory."""
    src = str(Path(pm25cast.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "block, src, out, obs = sys.argv[1:]\n"
        "if block == 'block':\n"
        "    sys.modules['scipy'] = None\n"
        "sys.path.insert(0, src)\n"
        "import pm25cast.cli as cli\n"
        "sys.exit(cli.main(['fit', '--out-dir', out, obs])\n"
        "         or cli.main(['simulate', '--size', '25', '--reps', '200', '--out-dir', out, obs]))\n"
    )
    written = []
    for block in ("free", "block"):
        done = subprocess.run([sys.executable, "-c", script, block, src, str(tmp_path), OBS_2014],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append({path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())})
    assert sorted(written[0]) == ["diagnostics.json", "fit_trace.csv", "replications.csv",
                                  "residuals.csv", "simulation.json"]
    assert written[0] == written[1]


@pytest.mark.parametrize("start", ["40,-10000,0,0,0,0,1", "0,-10000,0,0,0,0,1"],
                         ids=["overflow", "zero-times-inf"])
def test_fit_non_finite_end_point_warns_nothing(tmp_path, start):
    """The overflow of exp(-b/trg) at such a start, and with a = 0 the
    0 * inf it meets at the start, are reported through the unconverged fit,
    not as a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run("fit", "--family", "with-id", "--start", start,
                   "--out-dir", str(tmp_path), OBS_2014)
    assert code == 2


def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch):
    from pm25cast import numerics

    seen = []
    monkeypatch.setattr(numerics, "_openblas_thread_controls", lambda: ((lambda: 3, seen.append),))
    assert run("fit", "--out-dir", str(tmp_path), OBS_2014) == 0
    assert seen == [1, 3]


def test_fit_past_10000_rows_writes_the_same_bytes_whatever_the_blas_threads(tmp_path):
    """OpenBLAS splits a dot product longer than 10000 entries across its
    threads, and the RSS is one: `fit` on 12000 rows, each run in a fresh
    process with OPENBLAS_NUM_THREADS unset and set to 2, writes the same
    bytes into the same directory, because the command runs on one BLAS
    thread whatever the environment says."""
    obs = tmp_path / "obs.csv"
    write_obs_csv(obs, synthetic_records(n=12000, seed=5))
    out = tmp_path / "fit"
    src = str(Path(pm25cast.__file__).resolve().parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import pm25cast.cli as cli; "
              "sys.exit(cli.main(sys.argv[2:]))")
    written = []
    for threads in (None, "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", script, src, "fit", "--out-dir", str(out),
                               str(obs)], capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(written[0]) == ["diagnostics.json", "fit_trace.csv", "residuals.csv"]
    assert written[0] == written[1]


def test_fit_with_fewer_than_3_lag_pairs_leaves_out_the_lag_test(tmp_path):
    """Every other day of January 2014 holds no consecutive-day residual
    pair: the fit converges, and the lag-1 screen is written as null."""
    lines = Path(OBS_2014).read_text(encoding="utf-8").splitlines()
    obs = tmp_path / "alternate_days.csv"
    obs.write_text("\n".join([lines[0], *lines[1::2]]) + "\n", encoding="utf-8")
    out = tmp_path / "fit"
    assert run("fit", "--out-dir", str(out), str(obs)) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["fit"]["converged"] is True
    assert diag["residuals"]["lag1"] is None
    assert diag["residuals"]["autocorrelated"] is None
    assert diag["residuals"]["ks_normality"]["p"] > 0.0
    assert len(list(csv.DictReader(open(out / "residuals.csv")))) == 16
    assert (out / "fit_trace.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["fit", "--alpha", "0"], "--alpha: must be strictly between 0 and 1, got '0'"),
    (["fit", "--alpha", "1.5"], "--alpha: must be strictly between 0 and 1, got '1.5'"),
    (["fit", "--alpha", "nan"], "--alpha: must be strictly between 0 and 1, got 'nan'"),
    (["fit", "--max-steps", "-3"], "--max-steps: must be at least 0, got '-3'"),
    (["fit", "--max-steps", "1.5"], "--max-steps: invalid int value: '1.5'"),
    (["fit", "--rel-tol", "nan"], "--rel-tol: must be at least 0, got 'nan'"),
    (["fit", "--rel-tol", "-1"], "--rel-tol: must be at least 0, got '-1'"),
    (["simulate", "--size", "25", "--alpha", "0"],
     "--alpha: must be strictly between 0 and 1, got '0'"),
    (["simulate", "--size", "0"], "--size: must be at least 1, got '0'"),
    (["simulate", "--size", "25", "--reps", "-1"], "--reps: must be at least 1, got '-1'"),
    (["simulate", "--size", "25", "--seed", "-1"], "--seed: must be at least 0, got '-1'"),
    (["simulate", "--size", "25", "--workers", "0"], "--workers: must be at least 1, got '0'"),
    (["simulate", "--size", "25", "--min-ks-pass", "7"],
     "--min-ks-pass: must be between 0 and 1, got '7'"),
    (["simulate", "--size", "25", "--min-ks-pass", "-0.1"],
     "--min-ks-pass: must be between 0 and 1, got '-0.1'"),
], ids=lambda value: "_".join(value) if isinstance(value, list) else "")
def test_numeric_options_are_checked_before_any_input_is_read(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", str(out), str(tmp_path / "absent.csv")) == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(f" error: argument {message}")
    assert not out.exists()


def test_fit_missing_file_exit_code(tmp_path):
    assert run_quiet("fit", "--family", "with-id", "--out-dir", str(tmp_path),
                     str(tmp_path / "absent.csv")) == 1


def test_fit_bad_family_usage_error(tmp_path):
    assert run_quiet("fit", "--family", "bogus", "--out-dir", str(tmp_path), OBS_2014) == 1


def test_fit_iterated_requires_rho(tmp_path):
    assert run_quiet("fit", "--family", "iterated", "--out-dir", str(tmp_path), OBS_2014) == 1
    code = run("fit", "--family", "iterated", "--rho", "0.5",
               "--out-dir", str(tmp_path), OBS_2014)
    assert code == 0


@pytest.mark.parametrize("argv,message", [
    (["--family", "iterated"], "iterated family needs a finite rho"),
    (["--family", "iterated", "--rho", "nan"], "iterated family needs a finite rho"),
    (["--family", "with-id", "--rho", "0.3"], "family 'with-id' takes no rho"),
])
def test_rho_usage_errors_name_the_family(tmp_path, capsys, argv, message):
    for command in (["fit"], ["simulate", "--size", "25"]):
        assert run(*command, *argv, "--out-dir", str(tmp_path), OBS_2014) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_fit_skips_blank_lines_before_the_header(tmp_path):
    padded = tmp_path / "padded.csv"
    padded.write_text("\n\n" + Path(OBS_2014).read_text(encoding="utf-8"), encoding="utf-8")
    for name, obs in (("plain", OBS_2014), ("padded", str(padded))):
        assert run("fit", "--out-dir", str(tmp_path / name), obs) == 0
    for leaf in ("fit_trace.csv", "residuals.csv"):
        assert (tmp_path / "padded" / leaf).read_bytes() == (tmp_path / "plain" / leaf).read_bytes()


def test_fit_and_simulate_drop_a_flat_day_as_if_deleted(tmp_path):
    """A day with tmax == tmin cannot enter the model: fit and simulate drop
    it, list it under rows_dropped and write the bytes of the same file
    without that row."""
    lines = Path(OBS_2014).read_text(encoding="utf-8").splitlines(keepends=True)
    (i,) = [i for i, line in enumerate(lines) if line.startswith("2014-01-10,")]
    cells = lines[i].rstrip("\r\n").split(",")
    cells[3] = cells[4]  # tmax = tmin
    copies = {"flat": lines[:i] + [",".join(cells) + "\r\n"] + lines[i + 1:],
              "deleted": lines[:i] + lines[i + 1:]}
    for name, text in copies.items():
        obs = tmp_path / f"{name}.csv"
        obs.write_text("".join(text), encoding="utf-8")
        assert run("fit", "--out-dir", str(tmp_path / name / "fit"), str(obs)) == 0
        assert run("simulate", "--reps", "12", "--size", "25", "--seed", "3",
                   "--out-dir", str(tmp_path / name / "sim"), str(obs)) == 0
    for leaf in ("fit/fit_trace.csv", "fit/residuals.csv", "sim/replications.csv"):
        assert (tmp_path / "flat" / leaf).read_bytes() == (tmp_path / "deleted" / leaf).read_bytes()
    diag = json.loads((tmp_path / "flat" / "fit" / "diagnostics.json").read_text())
    assert diag["fit"]["rows_dropped"] == [["2014-01-10", "zero temperature range"]]


def test_fit_bad_start_length(tmp_path):
    assert run_quiet("fit", "--family", "with-id", "--start", "1,2,3",
                     "--out-dir", str(tmp_path), OBS_2014) == 1


def test_fit_start_that_is_not_a_number_names_the_option_and_the_cell(tmp_path, capsys):
    out = tmp_path / "fit"
    assert run("fit", "--start", "1,2,x,4,5,6,7", "--out-dir", str(out), OBS_2014) == 1
    assert capsys.readouterr().err == "error: --start value 3 is not a number: 'x'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["fit"], ["simulate", "--reps", "2", "--size", "25"]],
                         ids=["fit", "simulate"])
def test_empty_start_is_refused_not_ignored(tmp_path, capsys, command):
    """`--start ""`, as an unset shell variable gives, is not the default start."""
    out = tmp_path / "out"
    assert run(*command, "--start", "", "--out-dir", str(out), OBS_2014) == 1
    assert capsys.readouterr().err == "error: --start value 1 is not a number: ''\n"
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["fit"], ["simulate", "--reps", "2", "--size", "25"]],
                         ids=["fit", "simulate"])
def test_non_finite_start_names_the_option_and_the_cell(tmp_path, capsys, command, cell):
    out = tmp_path / "out"
    assert run(*command, "--start", f"40,{cell},0,0,0,0,1", "--out-dir", str(out), OBS_2014) == 1
    assert capsys.readouterr().err == f"error: --start value 2 is not finite: '{cell}'\n"
    assert not out.exists()


def test_fit_with_no_usable_row_exits_1(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("date,pm,t,tmax,tmin,pc,w,ep\n2014-01-01,,44,179,-26,0,27,17\n")
    out = tmp_path / "fit"
    assert run("fit", "--out-dir", str(out), str(obs)) == 1
    assert capsys.readouterr().err == "error: no usable rows after filtering\n"
    assert not out.exists()


# ---------------------------------------------------------------- simulate


def test_simulate_reports(tmp_path):
    out = tmp_path / "sim"
    code = run("simulate", "--reps", "12", "--size", "25", "--seed", "3",
               "--out-dir", str(out), OBS_2014)
    assert code == 0
    rows = list(csv.DictReader(open(out / "replications.csv")))
    assert len(rows) == 12

    payload = json.loads((out / "simulation.json").read_text())
    assert payload["replications"] == 12
    assert len(payload["baseline"]["theta"]) == 7
    assert len(payload["corrected"]["theta"]) == 7
    assert payload["config"]["options"]["seed"] == 3
    base = payload["baseline"]["theta"]
    corr = payload["corrected"]["theta"]
    bias = payload["bias"]
    for b, c, d in zip(base, corr, bias):
        assert c == pytest.approx(b - d, rel=1e-9, abs=1e-12)


def test_simulate_deterministic_across_runs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert run("simulate", "--reps", "10", "--size", "20", "--seed", "41",
                   "--workers", "2", "--out-dir", str(out), OBS_2014) == 0
    assert (out1 / "replications.csv").read_text() == (out2 / "replications.csv").read_text()
    p1 = json.loads((out1 / "simulation.json").read_text())
    p2 = json.loads((out2 / "simulation.json").read_text())
    for key in ("bias", "std", "mse", "theta_corrected", "converged", "ks_pass"):
        assert p1[key] == p2[key]


def test_simulate_size_too_large(tmp_path):
    assert run_quiet("simulate", "--reps", "5", "--size", "999", "--seed", "1",
                     "--out-dir", str(tmp_path), OBS_2014) == 1


def test_simulate_stops_when_the_baseline_fit_does_not_converge(tmp_path, capsys):
    """exp(-th2/trg) overflows at th2 = -10000: the baseline fit ends at a
    non-finite RSS, so no replication is drawn and nothing is written."""
    out = tmp_path / "sim"
    code = run("simulate", "--start", "0,-10000,0,0,0,0,1", "--size", "25", "--reps", "20",
               "--out-dir", str(out), OBS_2014)
    assert code == 2
    assert capsys.readouterr().err == "baseline fit did not converge\n"
    assert not out.exists()


def test_simulate_no_converged_replication_exit_code(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_obs_csv(obs, synthetic_records(n=365, seed=3))
    out = tmp_path / "sim"
    code = run("simulate", "--family", "iterated", "--rho", "0.3", "--reps", "20",
               "--size", "25", "--seed", "0", "--out-dir", str(out), str(obs))
    assert code == 2
    assert "no replication converged" in capsys.readouterr().err
    assert len(list(csv.DictReader(open(out / "replications.csv")))) == 20
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["converged"] == 0
    assert payload["corrected"] is None


# ---------------------------------------------------------------- aggregate


def test_aggregate_ncep(tmp_path):
    out = tmp_path / "agg"
    assert run("aggregate-ncep", "--out-dir", str(out), NCEP_2017) == 0
    rows = list(csv.DictReader(open(out / "ncep_daily.csv")))
    assert len(rows) == 31
    first = rows[0]
    assert first["date"] == "2017-12-01"
    assert float(first["trg"]) == pytest.approx(29.0)
    assert float(first["w"]) == pytest.approx(24.287)
    # two days collapse to a zero range, one to a negative range
    assert float(rows[2]["trg"]) == 0.0
    assert float(rows[9]["trg"]) < 0.0


# ---------------------------------------------------------------- forecast


def test_forecast_pipeline(tmp_path):
    import contextlib
    import io

    out = tmp_path / "fc"
    stream = io.StringIO()
    with contextlib.redirect_stderr(stream):
        code = run("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017,
                   "--model", "thesis-2018", "--profile", "ncep-i1",
                   "--id-algo", "1", "--out-dir", str(out))
    assert code == 0
    err = stream.getvalue()
    assert "2017-12-03" in err and "2017-12-15" in err

    rows = list(csv.DictReader(open(out / "forecast.csv")))
    assert len(rows) == 29
    by_date = {r["date"]: r for r in rows}
    assert by_date["2017-12-01"]["id_source"] == "algo2"
    assert by_date["2017-12-02"]["id_source"] == "algo1"
    assert "NEGATIVE_TRG" in by_date["2017-12-07"]["flags"]

    meta = json.loads((out / "forecast_meta.json").read_text())
    assert len(meta["skipped"]) == 2
    assert meta["config"]["options"]["profile"] == "ncep-i1"
    # a preset is no file: only the two CSVs are digested
    assert meta["config"]["inputs"] == _digests(OBS_2017, NCEP_2017)


def test_forecast_model_from_file(tmp_path):
    coef = tmp_path / "coef.json"
    coef.write_text(json.dumps({
        "a": 4.567223, "b": 0.34431, "c_w": -0.002258, "c_t": -0.000109,
        "c_pc": -0.000912, "c_ep": -0.005976, "c_id": 0.736975}))
    out = tmp_path / "fc"
    code = run_quiet("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017,
                     "--model", str(coef), "--id-algo", "2", "--out-dir", str(out))
    assert code == 0
    rows = list(csv.DictReader(open(out / "forecast.csv")))
    assert all(r["id_source"] == "algo2" for r in rows)
    meta = json.loads((out / "forecast_meta.json").read_text())
    assert meta["config"]["inputs"] == _digests(OBS_2017, str(coef), NCEP_2017)


def test_forecast_model_file_with_a_byte_order_mark_forecasts_the_same_bytes(tmp_path):
    """Some Windows editors start a file with a byte-order mark; the
    coefficients file reads as every CSV input does, with or without one."""
    coef = tmp_path / "coef.json"
    PRESETS["thesis-2018"].to_json(coef)
    bom = tmp_path / "coef_bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + coef.read_bytes())
    written = []
    for model in (coef, bom):
        out = tmp_path / model.stem
        assert run("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017, "--model", str(model),
                   "--out-dir", str(out)) == 0
        written.append((out / "forecast.csv").read_bytes())
    assert written[0] == written[1]


def test_forecast_unknown_model(tmp_path):
    assert run_quiet("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017,
                     "--model", "no-such-preset", "--out-dir", str(tmp_path)) == 1


def test_forecast_of_no_day_exits_1_and_writes_nothing(tmp_path, capsys):
    """The December 2017 observations hold only pm and ep, so without --ncep
    every day is skipped: the command fails the way fit does on a frame
    with no usable row, rather than write a forecast table with no rows."""
    out = tmp_path / "fc"
    out.mkdir()
    assert run("forecast", "--obs", OBS_2017, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count(": missing field\n") == 31
    assert err.endswith("error: no day could be forecast\n")
    assert list(out.iterdir()) == []


def test_forecast_skips_a_day_whose_pm_hat_underflows(tmp_path):
    """pc = 1e6 on 2014-01-05 drives the preset's exponent below -745, so
    that day's pm_hat underflows to 0: it is skipped with its reason and
    every other day is forecast as in the golden run."""
    rows = [line.split(",") for line in Path(OBS_2014).read_text().splitlines()]
    pc = rows[0].index("pc")
    (day,) = [r for r in rows if r[0] == "2014-01-05"]
    day[pc] = "1000000"
    obs = tmp_path / "obs.csv"
    obs.write_text("".join(",".join(r) + "\n" for r in rows))
    out = tmp_path / "fc"
    assert run_quiet("forecast", "--obs", str(obs), "--out-dir", str(out)) == 0
    golden = Path(__file__).resolve().parent / "data" / "golden" / "observed" / "forecast.csv"
    kept = golden.read_bytes().splitlines(True)
    assert (out / "forecast.csv").read_bytes() == b"".join(
        line for line in kept if not line.startswith(b"2014-01-05"))
    meta = json.loads((out / "forecast_meta.json").read_text())
    assert meta["skipped"] == [["2014-01-05", "pm_hat underflows to 0"]]


def test_forecast_with_underflowing_coefficients_names_each_day(tmp_path, capsys):
    coef = tmp_path / "coef.json"
    coef.write_text(json.dumps({**dataclasses.asdict(PRESETS["thesis-2018"]), "a": -800}))
    out = tmp_path / "fc"
    assert run("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017, "--model", str(coef),
               "--out-dir", str(out)) == 0
    # two zero-range days are skipped before the forecast; of the other 29,
    # only the two with the smallest range (trg 4 and 2) keep a pm_hat above 0
    assert capsys.readouterr().err.count(": pm_hat underflows to 0\n") == 27
    rows = list(csv.DictReader(open(out / "forecast.csv")))
    assert [r["date"] for r in rows] == ["2017-12-23", "2017-12-26"]


def test_forecast_with_undefined_pm_hat_names_each_day(tmp_path, capsys):
    """a = 0 and b = -100000 make a * exp(-b / trg) = 0 * inf = nan on every
    day with 0 < trg < 140.9: each such day is skipped with its reason,
    rather than the run stopping at the first nan pm_hat."""
    coef = tmp_path / "coef.json"
    coef.write_text(json.dumps({**{k: 0 for k in dataclasses.asdict(PRESETS["thesis-2018"])},
                                "b": -100000}))
    out = tmp_path / "fc"
    assert run("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017, "--model", str(coef),
               "--out-dir", str(out)) == 0
    # two zero-range days are skipped for trg = 0; only the two negative-range
    # days, where exp(-b / trg) is 0, keep a pm_hat
    assert capsys.readouterr().err.count(": pm_hat is undefined (0 * inf or inf - inf)\n") == 27
    rows = list(csv.DictReader(open(out / "forecast.csv")))
    assert [r["date"] for r in rows] == ["2017-12-07", "2017-12-10"]
    skipped = json.loads((out / "forecast_meta.json").read_text())["skipped"]
    assert [d for d, _ in skipped] == sorted(d for d, _ in skipped)


# ---------------------------------------------------------------- validate


def test_validate_pipeline(tmp_path):
    fc = tmp_path / "fc"
    assert run_quiet("forecast", "--ncep", NCEP_2017, "--obs", OBS_2017,
                     "--model", "thesis-2018", "--profile", "ncep-i1",
                     "--out-dir", str(fc)) == 0
    out = tmp_path / "val"
    code = run("validate", "--out-dir", str(out),
               str(fc / "forecast.csv"), OBS_2017)
    assert code == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["n"] == 29
    assert 0.0 <= payload["recorded"]["rate"] <= 1.0
    assert set(payload["profiles"]) == {"standard-i1", "standard-i2", "ncep-i1", "ncep-i2"}
    assert payload["config"]["inputs"] == _digests(str(fc / "forecast.csv"), OBS_2017)
    assert set(payload["config"]["options"]) == _dests("validate") | {"command"}


def test_validate_unmatched_dates(tmp_path):
    fc_csv = tmp_path / "forecast.csv"
    fc_csv.write_text(
        "date,pm_hat,id_source,arm,lo,hi,flags\n"
        "2099-01-01,100.0,algo2,band,70.0,120.0,\n")
    assert run_quiet("validate", "--out-dir", str(tmp_path), str(fc_csv), OBS_2017) == 1


# ---------------------------------------------------------------- usage


def test_missing_subcommand_is_usage_error():
    assert run_quiet() == 1


def test_unknown_flag_is_usage_error(tmp_path):
    assert run_quiet("fit", "--nonsense", "--out-dir", str(tmp_path), OBS_2014) == 1


@pytest.mark.parametrize("argv,option", [
    (["simulate", "--size", "25", "--rel-tol", "0.5", OBS_2014], "--rel-tol"),
    (["simulate", "--size", "25", "--max-steps", "0", OBS_2014], "--max-steps"),
    (["forecast", "--obs", OBS_2014, "--predictors", "observed"], "--predictors"),
], ids=["simulate-rel-tol", "simulate-max-steps", "forecast-predictors"])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv, option):
    """simulate's solver settings are fixed, and forecast takes its
    predictors from --ncep when given: these options no longer exist."""
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: pm25cast ")
    assert f"error: unrecognized arguments: {option}" in err
    assert not out.exists()


def _model_file(tmp_path):
    path = tmp_path / "model.json"
    dataclasses.replace(PRESETS["thesis-2018"], c_id=0.5).to_json(path)
    return path


def _two_months_obs_file(tmp_path):
    """The January 2014 observations followed by the December 2017 ones,
    which hold only pm and ep: each month is forecast from one source."""
    path = tmp_path / "obs_two_months.csv"
    _, *december = Path(OBS_2017).read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(Path(OBS_2014).read_text(encoding="utf-8") + "".join(december),
                    encoding="utf-8")
    return path


# The arguments every run of a command passes
BASE_ARGS = {
    "fit": [OBS_2014],
    "simulate": ["--size", "25", "--reps", "12", OBS_2014],
    "forecast": ["--obs", OBS_2014],
}
# (command, option): (arguments of the default run besides BASE_ARGS, a
# non-default value, None for a flag). A required option, or one only
# valid beside another, is given in the default run too; the value given
# last wins. A callable argument or value is called with the test's
# tmp_path for the path of a file it writes.
NON_DEFAULT = {
    ("fit", "--family"): ([], "initial"),
    ("fit", "--rho"): (["--family", "iterated", "--rho", "0.3"], "0.6"),
    ("fit", "--start"): ([], "40,1,0,0,0,0,0.5"),
    ("fit", "--alpha"): ([], "0.01"),
    ("fit", "--rel-tol"): ([], "0.01"),
    ("fit", "--max-steps"): ([], "1"),
    ("simulate", "--family"): ([], "initial"),
    ("simulate", "--rho"): (["--family", "iterated", "--rho", "0.3"], "0.6"),
    ("simulate", "--start"): ([], "40,1,0,0,0,0,0.5"),
    ("simulate", "--alpha"): ([], "0.01"),
    ("simulate", "--reps"): ([], "13"),
    ("simulate", "--size"): ([], "20"),
    ("simulate", "--seed"): ([], "1"),
    ("simulate", "--workers"): ([], "2"),
    ("simulate", "--with-replacement"): ([], None),
    ("simulate", "--min-ks-pass"): ([], "0.5"),
    ("forecast", "--ncep"): (["--obs", _two_months_obs_file], NCEP_2017),
    ("forecast", "--obs"): ([], _two_months_obs_file),
    ("forecast", "--model"): ([], _model_file),
    ("forecast", "--id-algo"): ([], "2"),
    ("forecast", "--profile"): ([], "standard-i2"),
}
# Options that change no output, and why they stay
DEAD_OPTIONS = {
    ("simulate", "--workers"): "accepted for compatibility; the bootstrap runs on one thread",
}


def _options(command):
    """Every option of a subcommand but --help and --out-dir, which names
    where the outputs go."""
    return [a.option_strings[-1] for a in _subcommand(command)._actions
            if a.option_strings and a.option_strings[-1] not in ("--help", "--out-dir")]


def _outputs(out):
    """{file name: bytes} of a run's outputs; JSON without its config echo."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload.pop("config")
            files[path.name] = json.dumps(payload).encode("utf-8")
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("command,option", [
    (command, option) for command in BASE_ARGS for option in _options(command)
])
def test_every_option_changes_the_output(tmp_path, command, option):
    """A non-default value of each option writes other bytes than the
    default run, so the command line takes no input that changes nothing;
    the options DEAD_OPTIONS lists, with the reason they stay, write the
    same bytes."""
    assert (command, option) in NON_DEFAULT, f"{command} {option}: no non-default value listed"
    default, value = NON_DEFAULT[command, option]
    default = [str(a(tmp_path)) if callable(a) else a for a in default]
    if callable(value):
        value = value(tmp_path)
    given = [option] if value is None else [option, str(value)]
    for name, argv in {"default": default, "given": default + given}.items():
        # 2, non-convergence, still writes every report
        code = run_quiet(command, *BASE_ARGS[command], *argv, "--out-dir", str(tmp_path / name))
        assert code in (0, 2), f"{name} run exited {code}"
    changed = _outputs(tmp_path / "given") != _outputs(tmp_path / "default")
    assert changed is ((command, option) not in DEAD_OPTIONS)
