"""Tests of the benchmark itself: generator, output checks, tracer, contract.

Run from the repository root with `python -m pytest bench/tests -q`.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from pm25cast import cli  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.INPUT_SETS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    gen.write_inputs(workload, 7, tmp_path / "a")
    gen.write_inputs(workload, 7, tmp_path / "b")
    gen.write_inputs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["obs.csv"] != _files(tmp_path / "c")["obs.csv"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generator_edge_cases(seed, tmp_path):
    sizes = gen.SIZES
    paths = gen.write_inputs("fit-large", seed, tmp_path)
    obs = gen.read_obs(paths["obs"])
    assert len(obs) == sizes["fit-large"].days
    complete = [r for r in obs.values() if None not in r.values()]
    assert len(obs) - len(complete) == sizes["fit-large"].incomplete_days
    lpm = 10.0 * np.log([r["pm"] for r in complete])
    ids = np.where(lpm <= 35.0, -1, np.where(lpm <= 50.0, 0, 1))
    assert all(np.mean(ids == level) > 0.15 for level in (-1, 0, 1))
    text = paths["obs"].read_text(encoding="utf-8")
    assert all(token in text for token in gen.TRACE_TOKENS)

    paths = gen.write_inputs("forecast-roundtrip", seed, tmp_path)
    obs = gen.read_obs(paths["obs"])
    no_pm = [d for d, r in obs.items() if r["pm"] is None]
    no_ep_only = [d for d, r in obs.items() if r["ep"] is None and r["pm"] is not None]
    assert len(no_pm) == sizes["forecast-roundtrip"].no_pm_days
    assert len(no_ep_only) == sizes["forecast-roundtrip"].no_ep_days
    day_trg = checks.ncep_day_trg(paths["ncep"])
    assert len(day_trg) == sizes["forecast-roundtrip"].days
    assert sum(v < 0 for v in day_trg.values()) == sizes["forecast-roundtrip"].negative_trg_days
    assert all(v != 0 for v in day_trg.values())


def _cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("fit")
    paths = gen.write_inputs("fit-large", run.REFERENCE_SEED, work)
    _cli("fit", "--family", "with-id", "--out-dir", work / "out", paths["obs"])
    return work / "out", gen.read_obs(paths["obs"])


def _reference():
    return json.loads(run.REFERENCE_FIT.read_text(encoding="utf-8"))


def test_fit_check_accepts_fit_output(fit_run):
    out, obs = fit_run
    sz = gen.SIZES["fit-large"]
    assert checks.check_fit(out, obs, _reference()) == sz.days - sz.incomplete_days


@pytest.mark.parametrize("component", range(7))
def test_fit_check_rejects_perturbed_theta(fit_run, tmp_path, component):
    out, obs = fit_run
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    report = json.loads((bad / "diagnostics.json").read_text(encoding="utf-8"))
    report["fit"]["theta"][component] *= 1.0 + 1e-6
    (bad / "diagnostics.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckError):
        checks.check_fit(bad, obs)


def test_fit_check_rejects_reference_mismatch(fit_run):
    out, obs = fit_run
    reference = _reference()
    reference["rho_k_n"] *= 1.0 + 10 * reference["rel_tol"]
    with pytest.raises(checks.CheckError, match="rho_k_n"):
        checks.check_fit(out, obs, reference)


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("sim")
    paths = gen.write_inputs("bootstrap-small", 3, work)
    common = ["simulate", "--family", "with-id", "--reps", 40, "--size", 25, "--seed", 3]
    _cli(*common, "--workers", 1, "--out-dir", work / "w1", paths["obs"])
    _cli(*common, "--workers", 2, "--out-dir", work / "w2", paths["obs"])
    return work


def test_simulate_check_accepts_parallel_output(sim_run):
    reference = (sim_run / "w1" / "replications.csv").read_bytes()
    assert checks.check_simulate(sim_run / "w2", reference, 40) == 40


def test_simulate_check_rejects_changed_replications(sim_run, tmp_path):
    reference = (sim_run / "w1" / "replications.csv").read_bytes()
    bad = tmp_path / "out"
    shutil.copytree(sim_run / "w2", bad)
    with open(bad / "replications.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5][-1] = repr(float(rows[5][-1]) * (1.0 + 1e-12))
    with open(bad / "replications.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    assert (bad / "replications.csv").read_bytes() != reference
    with pytest.raises(checks.CheckError, match="workers-1 reference"):
        checks.check_simulate(bad, reference, 40)


def test_simulate_check_rejects_broken_mse(sim_run, tmp_path):
    reference = (sim_run / "w1" / "replications.csv").read_bytes()
    bad = tmp_path / "out"
    shutil.copytree(sim_run / "w2", bad)
    summary = json.loads((bad / "simulation.json").read_text(encoding="utf-8"))
    summary["mse"][0] *= 1.001
    (bad / "simulation.json").write_text(json.dumps(summary), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="mse"):
        checks.check_simulate(bad, reference, 40)


@pytest.fixture(scope="module")
def forecast_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("fc")
    state = run._prepare_forecast(work / "in", 5)
    out = work / "out"
    for argv in run._forecast_argvs(state, out):
        code, _ = run._run_cli(cli, argv)
        assert code == 0
    return out, state["obs"], state["day_trg"]


def test_forecast_check_accepts_round_trip(forecast_run):
    out, obs, day_trg = forecast_run
    sz = gen.SIZES["forecast-roundtrip"]
    rows = checks.check_forecast(out, obs, day_trg)
    assert rows == sz.days - sz.no_pm_days - sz.no_ep_days


def test_forecast_check_rejects_flipped_arm(forecast_run, tmp_path):
    out, obs, day_trg = forecast_run
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    with open(bad / "forecast.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    flip = next(i for i, row in enumerate(rows) if row[3] == "band")
    rows[flip][3] = "high"
    with open(bad / "forecast.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckError, match="arm"):
        checks.check_forecast(bad, obs, day_trg)


def test_forecast_check_rejects_validation_count_mismatch(forecast_run, tmp_path):
    out, obs, day_trg = forecast_run
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    report = json.loads((bad / "validation.json").read_text(encoding="utf-8"))
    report["recorded"]["arms"]["low"]["covered"] += 1
    (bad / "validation.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="validation arm"):
        checks.check_forecast(bad, obs, day_trg)


def test_tracer_rebinds_every_namespace_and_restores():
    import pm25cast
    from pm25cast import bootstrap, diagnostics, numerics, solver

    originals = (numerics.qr_full, solver.qr_full, diagnostics.qr_full, bootstrap.gauss_newton)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for fn in (numerics.qr_full, solver.qr_full, diagnostics.qr_full, pm25cast.qr_full):
            assert fn.__wrapped__ is originals[0]
        assert bootstrap.gauss_newton is solver.gauss_newton
        assert bootstrap.gauss_newton.__wrapped__ is originals[3]
        numerics.qr_full(np.eye(3))
        with pytest.raises(ValueError):
            numerics.qr_full(np.ones((1, 2)))
    finally:
        tracer.uninstall()
    assert (numerics.qr_full, solver.qr_full, diagnostics.qr_full, bootstrap.gauss_newton) == originals
    assert [(s[1], s[6]) for s in tracer.spans] == [
        ("numerics.qr_full", False),
        ("numerics.qr_full", True),
    ]
    assert tracer.spans[0][7] == 3 * 3 * 8


def _span(sid, name, start, end, parent=None, job=0):
    return (sid, name, start, end, parent, job, False, None)


def test_self_times_nested_and_parallel():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "child", 1.0, 3.0, 0),
        _span(2, "grandchild", 1.5, 2.0, 1),
        # two worker threads under the root, overlapping on [5, 7]
        _span(3, "worker", 4.0, 7.0, 0),
        _span(4, "worker", 5.0, 9.0, 0),
    ]
    got = tracing.self_times(spans)
    assert got[2] == pytest.approx(0.5)
    assert got[1] == pytest.approx(1.5)
    assert got[3] == pytest.approx(1.0 + 1.0)
    assert got[4] == pytest.approx(1.0 + 2.0)
    assert got[0] == pytest.approx(1.0 + 1.0 + 1.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_tail_percentile():
    assert run.tail(list(range(11))) == (0, pytest.approx(100 / 11))
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    phase = run.Phase([1.0, 2.0], 2, 2, 0, [])
    layer = run.per_layer(phase, phase, tracing.Tracer())
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit-large", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
