"""Golden outputs of the forecast path, one fit and one bootstrap run on the
bundled demo data.

The files under tests/data/golden/ are the outputs of `aggregate-ncep`,
`forecast` and `validate` on the demo inputs, the model frame of the
January 2014 month, `fit_trace.csv` / `residuals.csv` / `diagnostics.json`
of the with-id fit of that month, and `replications.csv` /
`simulation.json` of a with-id resampling run on it. Nothing on the
forecast path calls LAPACK, so its bytes must match on every platform and
every supported Python.

The fit and the resampling run go through np.exp, BLAS products and
LAPACK's QR, whose last bits depend on the build and on the CPU code
paths numpy and OpenBLAS pick at run time. `regenerate` therefore also
writes FINGERPRINT, a hash of those primitives on fixed inputs. The fit
and resampling files are compared as bytes only where the fingerprint
matches the committed one, and at a relative tolerance (FIT_RTOL,
SIMULATE_RTOL) everywhere (the numpy 1.x floor in CI links another
LAPACK).

JSON reports are compared without their `config` block, which echoes
input and output paths; the golden JSON files are stored without it.
"""

import contextlib
import datetime as dt
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pm25cast
from pm25cast import build_frame, parse_observations
from pm25cast.cli import main

from conftest import obs_table
from reference import write_frame_csv

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# (subdirectory, forecast options, observation file)
FORECASTS = (
    ("ncep", ["--ncep", str(DEMO_DATA / "ncep_201712_6h.csv")], DEMO_DATA / "obs_201712.csv"),
    ("observed", [], DEMO_DATA / "obs_201401.csv"),
    ("ncep-algo2", ["--ncep", str(DEMO_DATA / "ncep_201712_6h.csv"), "--id-algo", "2"],
     DEMO_DATA / "obs_201712.csv"),
    ("ncep-id-observed",
     ["--ncep", str(DEMO_DATA / "ncep_201712_6h.csv"), "--id-algo", "observed"],
     DEMO_DATA / "obs_201712.csv"),
    ("observed-standard-i2", ["--profile", "standard-i2"],
     DEMO_DATA / "obs_201401.csv"),
)
GOLDEN_FILES = (
    "ncep_daily.csv",
    "frame.csv",
    *(f"{name}/{leaf}" for name, _, _ in FORECASTS
      for leaf in ("forecast.csv", "forecast_meta.json", "validation.json")),
)
FIT_FILES = ("fit/fit_trace.csv", "fit/residuals.csv", "fit/diagnostics.json")
FIT_RTOL = 1e-8
SIMULATE_FILES = ("simulate/replications.csv", "simulate/simulation.json")
# A replication whose last step sits at the RSS rounding floor stops where
# the last bits of the build put it; such replications have moved by about
# 1e-8 of a column's largest magnitude between builds.
SIMULATE_RTOL = 1e-6
RTOL = {**dict.fromkeys(FIT_FILES, FIT_RTOL), **dict.fromkeys(SIMULATE_FILES, SIMULATE_RTOL)}
FINGERPRINT = "numerics_fingerprint.txt"


def numerics_fingerprint():
    """SHA-256 of numpy's major version, np.exp over a fixed grid, and
    products and the R factor of a fixed 3000 x 7 matrix: the primitives
    whose last bits the fit and resampling files inherit."""
    matrix = np.random.default_rng(0).uniform(-1.0, 1.0, (3000, 7))
    digest = hashlib.sha256(np.__version__.split(".")[0].encode())
    for part in (
        np.exp(np.linspace(-30.0, 30.0, 200_000)),
        matrix.T @ matrix,
        matrix @ matrix[0],
        matrix[None, :, None, :] @ matrix[None, :, :, None],
        np.linalg.qr(matrix, mode="r"),
    ):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


SAME_NUMERICS = (GOLDEN / FINGERPRINT).read_text(encoding="utf-8").strip() == numerics_fingerprint()


def _cli(*argv):
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0


def regenerate(out):
    """Write every golden output, and the fingerprint of the numerics that
    made them, under `out`."""
    (out / FINGERPRINT).write_text(numerics_fingerprint() + "\n", encoding="utf-8")
    _cli("aggregate-ncep", "--out-dir", out, DEMO_DATA / "ncep_201712_6h.csv")
    for name, options, obs in FORECASTS:
        _cli("forecast", *options, "--obs", obs, "--out-dir", out / name)
        _cli("validate", out / name / "forecast.csv", obs, "--out-dir", out / name)
    write_frame_csv(build_frame(parse_observations(DEMO_DATA / "obs_201401.csv")),
                    out / "frame.csv")
    _cli("fit", "--family", "with-id", "--out-dir", out / "fit", DEMO_DATA / "obs_201401.csv")
    _cli("simulate", "--family", "with-id", "--size", 25, "--reps", 200, "--seed", 11,
         "--out-dir", out / "simulate", DEMO_DATA / "obs_201401.csv")


def _comparable(path):
    if path.suffix != ".json":
        return path.read_bytes()
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("config", None)
    return json.dumps(payload, indent=2, ensure_ascii=False).encode("utf-8")


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    regenerate(out)
    return out


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden_bytes(regenerated, name):
    assert _comparable(regenerated / name) == _comparable(GOLDEN / name)


@pytest.mark.skipif(not SAME_NUMERICS, reason=f"numerics differ from {FINGERPRINT}'s build")
@pytest.mark.parametrize("name", FIT_FILES + SIMULATE_FILES)
def test_fit_output_matches_golden_bytes(regenerated, name):
    assert _comparable(regenerated / name) == _comparable(GOLDEN / name)


def run_demo(demo, cwd):
    """Run demos/DEMO.py alone in `cwd`, on this package's source, with
    numpy's RuntimeWarnings as errors."""
    src = Path(pm25cast.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMO_DATA.parent / f"{demo}.py")],
        capture_output=True, timeout=120, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize("demo", sorted(p.stem for p in (GOLDEN / "demos").glob("*.txt")))
def test_demo_prints_golden_bytes(tmp_path, demo):
    """Each demo, run alone with numpy's RuntimeWarnings as errors, exits 0
    on every build, and prints the bytes stored under golden/demos where
    the numerics fingerprint matches."""
    done = run_demo(demo, tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    if not SAME_NUMERICS:
        pytest.skip(f"ran; bytes not compared: numerics differ from {FINGERPRINT}'s build")
    assert done.stdout == (GOLDEN / "demos" / f"{demo}.txt").read_bytes()


def _csv_table(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    return header, [row[0] for row in cells], np.array([row[1:] for row in cells], dtype=float)


def _json_within(value, golden, rtol, floor=0.0):
    """Same JSON shape and equal non-float leaves; each float within rtol of
    its golden value, with a list's largest float magnitude as the floor."""
    if isinstance(golden, dict):
        return (isinstance(value, dict) and value.keys() == golden.keys()
                and all(_json_within(value[k], golden[k], rtol) for k in golden))
    if isinstance(golden, list):
        floor = max((abs(g) for g in golden if isinstance(g, float)), default=0.0)
        return (isinstance(value, list) and len(value) == len(golden)
                and all(_json_within(v, g, rtol, floor) for v, g in zip(value, golden)))
    if isinstance(golden, float) and isinstance(value, float):
        return value == golden or abs(value - golden) <= rtol * (abs(golden) + floor)
    return type(value) is type(golden) and value == golden


@pytest.mark.parametrize("name", FIT_FILES + SIMULATE_FILES)
def test_fit_output_matches_golden_within_tolerance(regenerated, name):
    rtol = RTOL[name]
    if name.endswith(".json"):
        value, golden = (json.loads(_comparable(root / name)) for root in (regenerated, GOLDEN))
        assert _json_within(value, golden, rtol)
        return
    header, keys, values = _csv_table(regenerated / name)
    golden_header, golden_keys, golden_values = _csv_table(GOLDEN / name)
    assert (header, keys) == (golden_header, golden_keys)
    # nan (an unconverged replication's ks_p) where the golden file has it
    missing = np.isnan(golden_values)
    assert (np.isnan(values) == missing).all()
    # relative to each value, with the column's largest magnitude as the
    # floor, so a coefficient or residual near 0 is not held to its own size
    golden_values, values = np.where(missing, 0.0, golden_values), np.where(missing, 0.0, values)
    bound = rtol * (np.abs(golden_values) + np.abs(golden_values).max(axis=0))
    assert (np.abs(values - golden_values) <= bound).all()


def test_aggregation_is_a_left_fold_in_slot_order(tmp_path):
    """Means are (0.0 + s0 + s1 + s2 + s3) / 4 and wind the first maximum.

    Python 3.12 made the builtin sum() of floats compensated, which turns
    this day's t into 0.5; ndarray.max returns 0.0 for these wind slots
    where Python's max keeps the first -0.0.
    """
    ncep = tmp_path / "ncep.csv"
    ncep.write_text(
        "date,slot,t,tmax,tmin,pc,w\n"
        "2017-12-01,0,1e16,2,1,0,-0.0\n"
        "2017-12-01,6,1.0,2,1,0,0.0\n"
        "2017-12-01,12,-1e16,2,1,0,0.0\n"
        "2017-12-01,18,1.0,2,1,0,0.0\n",
        encoding="utf-8",
    )
    _cli("aggregate-ncep", "--out-dir", tmp_path, ncep)
    lines = (tmp_path / "ncep_daily.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["date,t,tmax,tmin,trg,pc,w", "2017-12-01,0.25,2.0,1.0,1.0,0.0,-0.0"]


def test_lpm_is_math_log_bit_for_bit():
    """lpm = 10 * math.log(pm) exactly; np.log differs from math.log in the
    last bit on some inputs, most often near pm = 1."""
    pm = np.random.default_rng(0).uniform(0.5, 2.0, 2000)
    start = dt.date(2000, 1, 1)
    frame = build_frame(obs_table(
        (start + dt.timedelta(days=i), p, 50.0, 100.0, 0.0, 0.0, 20.0, 10.0)
        for i, p in enumerate(pm.tolist())
    ))
    assert frame.lpm.tolist() == [10.0 * math.log(p) for p in pm.tolist()]
