"""pm25cast benchmark: two CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload fit-large --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another

The benchmark imports the package from ./src and drives `pm25cast.cli.main`
in-process as one closed-loop client: the next job starts only when the
previous one has returned. Inputs are generated from --seed (bench/gen.py)
and the program sees only the generated CSV files. Every job's outputs are
checked (bench/checks.py); a job that raises, exits non-zero or fails a
check counts as failed. bootstrap-small runs with OPENBLAS_NUM_THREADS=1
unless the caller sets it.

--trace 0 measures the end-to-end metrics with tracing off: job_s_p50 (median
job wall time), job_s_tail (the highest percentile with at least ten jobs
beyond it; the percentile and the job count are printed), items_per_s (items
over the summed job wall time; checks are not timed), peak_rss_mb (the
process's ru_maxrss) and setup_s (median time for a fresh interpreter to
import pm25cast.cli and build its parser). failed_ratio is printed and is
carried by the result's `failed` and `attempted` counts. --trace 1 runs
half the time untraced and half traced (bench/tracer.py) and reports the
per-layer metrics, as means per traced job, plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it
give the environment and every metric by name with its unit. Details and
the span table go to .bench_out/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer as tracing  # noqa: E402

# job_s_tail is the highest percentile with at least ten samples beyond it,
# so a timed run needs at least eleven jobs.
MIN_JOBS = 11
TRACE_MIN_JOBS = 3
SETUP_REPEATS = 3
REFERENCE_SEED = 0
REFERENCE_FIT = BENCH_DIR / "reference_fit.json"
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import pm25cast.cli as c; c.build_parser()"

SIM_REPS = 1000
SIM_ARGS = ["--family", "with-id", "--reps", str(SIM_REPS), "--size", "25"]

E2E_UNITS = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Workload:
    name: str
    why: str
    item: str
    prepare: Callable  # (work_dir, seed, cli) -> state dict
    argvs: Callable    # (state, out_dir) -> list of argument lists
    check: Callable    # (state, out_dir) -> items completed
    ratios: Callable   # (state, out_dir) -> derived per-layer ratios
    blas_threads: str | None = None  # OPENBLAS_NUM_THREADS unless the caller sets it


def _run_cli(cli, argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _prepare_forecast(work, seed):
    work.mkdir()
    paths = gen.write_inputs("forecast-roundtrip", seed, work)
    return {
        "obs_path": paths["obs"],
        "ncep_path": paths["ncep"],
        "obs": gen.read_obs(paths["obs"]),
        "day_trg": checks.ncep_day_trg(paths["ncep"]),
    }


def _forecast_argvs(state, out):
    return [
        ["aggregate-ncep", "--out-dir", out, state["ncep_path"]],
        ["forecast", "--ncep", state["ncep_path"], "--obs", state["obs_path"], "--out-dir", out],
        ["validate", "--out-dir", out, out / "forecast.csv", state["obs_path"]],
    ]


def _prepare_fit(work, seed, cli):
    paths = gen.write_inputs("fit-large", seed, work)
    reference = None
    if seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE_FIT.read_text(encoding="utf-8"))
    return {
        "obs_path": paths["obs"],
        "obs": gen.read_obs(paths["obs"]),
        "reference": reference,
        "forecast": _prepare_forecast(work / "forecast", seed),
    }


def _fit_argvs(state, out):
    fit = ["fit", "--family", "with-id", "--out-dir", out, state["obs_path"]]
    return [fit] + _forecast_argvs(state["forecast"], out)


def _fit_check(state, out):
    fc = state["forecast"]
    rows = checks.check_fit(out, state["obs"], state["reference"])
    return rows + checks.check_forecast(out, fc["obs"], fc["day_trg"])


def _fit_ratios(state, out):
    meta = json.loads((out / "forecast_meta.json").read_text(encoding="utf-8"))
    return {"forecast.skipped_ratio": len(meta["skipped"]) / len(state["forecast"]["day_trg"])}


def _simulate_argv(state, workers, out):
    return ["simulate", *SIM_ARGS, "--seed", state["seed"], "--workers", workers, "--out-dir", out, state["obs_path"]]


def _prepare_simulate(work, seed, cli):
    """Inputs, the workers-1 reference, and one checked run of the thread pool.

    Timed jobs run on one worker: two worker threads on a shared two-core
    host spread job times far more than the work itself, so the pool is
    checked here, untimed, against the reference instead.
    """
    paths = gen.write_inputs("bootstrap-small", seed, work)
    state = {"obs_path": paths["obs"], "seed": seed}
    ref_dir = work / "reference"
    code, err = _run_cli(cli, _simulate_argv(state, 1, ref_dir))
    if code != 0:
        raise RuntimeError(f"workers-1 reference simulate exited {code}: {err.strip()}")
    state["reference"] = (ref_dir / "replications.csv").read_bytes()
    pool_dir = work / "pool"
    code, err = _run_cli(cli, _simulate_argv(state, 2, pool_dir))
    if code != 0:
        raise RuntimeError(f"workers-2 simulate exited {code}: {err.strip()}")
    checks.check_simulate(pool_dir, state["reference"], SIM_REPS)
    return state


def _simulate_ratios(state, out):
    summary = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    reps = summary["replications"]
    return {
        "bootstrap.converged_ratio": summary["converged"] / reps,
        "bootstrap.curvature_pass_ratio": summary["curvature_pass"] / reps,
    }


# A forecast round trip of its own (aggregate-ncep, forecast, validate over
# 7300 days) was dropped as a workload: it is pure-Python parsing, and on a
# shared 2-core host whose speed drifts by up to 2x over tens of seconds its
# run-to-run spread (IQR/median 0.15-0.33 over ten seeds) exceeded any usable
# bound. Its layers are measured inside fit-large instead, at 1460 days.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="fit-large",
            why=(
                "fit with-id on 3000 days, then a 1460-day aggregate-ncep/forecast/validate "
                "round trip: n x n QR and curvature dominate (thin-QR target); no bootstrap"
            ),
            item="fitted observation row or forecast day",
            prepare=_prepare_fit,
            argvs=_fit_argvs,
            check=_fit_check,
            ratios=_fit_ratios,
        ),
        Workload(
            name="bootstrap-small",
            why=(
                "simulate, 1000 reps of size 25, timed on 1 worker and 1 BLAS thread (2 workers checked untimed): "
                "~2000 tiny fits where per-call overhead dominates (batched-bootstrap target)"
            ),
            item="replication",
            prepare=_prepare_simulate,
            argvs=lambda s, out: [_simulate_argv(s, 1, out)],
            check=lambda s, out: checks.check_simulate(out, s["reference"], SIM_REPS),
            ratios=_simulate_ratios,
            # thousands of tiny BLAS calls: after each one OpenBLAS's helper
            # thread spins on the host's other core, and the job times then
            # follow the neighbours on that core rather than the program
            blas_threads="1",
        ),
    )
}


@dataclass
class Phase:
    times: list
    items: int
    attempted: int
    failed: int
    ratios: list


def run_jobs(cli, wl, state, work, seconds, min_jobs, tracer=None):
    """Closed loop: run checked jobs until `seconds` pass and min_jobs ran."""
    phase = Phase([], 0, 0, 0, [])
    begin = time.perf_counter()
    while phase.attempted < min_jobs or time.perf_counter() - begin < seconds:
        out = work / f"job{phase.attempted}"
        if tracer is not None:
            tracer.job = phase.attempted
        elapsed = None
        gc.collect()  # each job starts with empty young generations
        start = time.perf_counter()
        try:
            for argv in wl.argvs(state, out):
                code, err = _run_cli(cli, argv)
                if code != 0:
                    raise checks.CheckError(f"{argv[0]} exited {code}: {err.strip()[-500:]}")
            elapsed = time.perf_counter() - start
            phase.items += wl.check(state, out)
            if tracer is not None:
                phase.ratios.append(wl.ratios(state, out))
        except Exception as exc:  # a failed job is counted, never fatal
            if elapsed is None:
                elapsed = time.perf_counter() - start
            phase.failed += 1
            if phase.failed <= 3:
                print(f"job {phase.attempted} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        phase.times.append(elapsed)
        phase.attempted += 1
        shutil.rmtree(out, ignore_errors=True)
    return phase


def tail(times):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_seconds():
    """Median wall time of a fresh interpreter importing the CLI and building its parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_probe_ms():
    """Median time of a fixed pure-Python loop, a gauge of the host's current speed.

    Shared hosts change speed over minutes; recording the gauge with each
    result lets a reader tell a slow host from a slow commit.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def environment(workload, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "cpu_probe_ms_start": cpu_probe_ms(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def end_to_end(phase):
    value, pct = tail(phase.times)
    metrics = {
        "job_s_p50": statistics.median(phase.times),
        "job_s_tail": value,
        "items_per_s": phase.items / sum(phase.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"job_s_tail_percentile": pct, "job_samples": len(phase.times)}
    return metrics, notes


def per_layer(plain, traced, tracer):
    metrics, self_sum = tracing.layer_metrics(tracer.spans, traced.attempted)
    for key in ("bootstrap.converged_ratio", "bootstrap.curvature_pass_ratio", "forecast.skipped_ratio"):
        values = [r[key] for r in traced.ratios if key in r]
        metrics[key] = statistics.fmean(values) if values else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(plain.times)
    outside = [t - self_sum.get(job, 0.0) for job, t in enumerate(traced.times)]
    metrics["trace.outside_s"] = statistics.fmean(outside)
    return metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".q_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_step")):
        return "ratio"
    return "count"


def run(args):
    import pm25cast.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pm25cast":
        raise SystemExit(f"pm25cast imported from {cli.__file__}, not from {SRC}")
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        setup = None if args.trace else setup_seconds()
        state = wl.prepare(work, args.seed, cli)
        # keep the benchmark's own objects (inputs, references) out of the
        # collections the timed jobs trigger
        gc.collect()
        gc.freeze()
        warm = run_jobs(cli, wl, state, work, 0.0, 1)
        if args.trace:
            plain = run_jobs(cli, wl, state, work, args.seconds / 2.0, TRACE_MIN_JOBS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_jobs(cli, wl, state, work, args.seconds / 2.0, TRACE_MIN_JOBS, tracer)
            finally:
                tracer.uninstall()
            tracer.write_csv(out_dir / f"spans-{wl.name}.csv")
            metrics = per_layer(plain, traced, tracer)
            units = {name: layer_unit(name) for name in metrics}
            phases, notes = (warm, plain, traced), {"traced_jobs": traced.attempted}
        else:
            plain = run_jobs(cli, wl, state, work, args.seconds, MIN_JOBS)
            metrics, notes = end_to_end(plain)
            metrics["setup_s"] = setup
            units = E2E_UNITS
            phases = (warm, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    notes.update(failed_ratio=failed / attempted, cpu_probe_ms_end=cpu_probe_ms(), item=wl.item, why=wl.why)
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    for name, value in notes.items():
        print(f"{wl.name} {name} {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = dict(result, env=env, notes=notes, job_times=[p.times for p in phases])
    (out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pm25cast" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'pm25cast'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = WORKLOADS[args.workload].blas_threads
    if threads and "OPENBLAS_NUM_THREADS" not in os.environ:
        # numpy is loaded already, so the thread count takes a fresh interpreter
        os.environ["OPENBLAS_NUM_THREADS"] = threads
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *map(str, argv)])
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
