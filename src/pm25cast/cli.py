"""Command-line pipeline: fit, simulate, forecast, validate, aggregate-ncep.

Exit codes: 0 success, 1 input or configuration error, 2 model
non-convergence. Every JSON report embeds the resolved options and a
SHA-256 digest of each input file.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import bootstrap, data, diagnostics, forecast, model, numerics, solver
from .errors import Pm25CastError

CLI_FAMILIES = tuple(family for family in model.FAMILIES if family != "linear")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for non-convergence here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, holds, requirement):
    """argparse type: convert(text), refused unless holds(value) does."""

    def parse(text):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_PROBABILITY = _checked(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
_SHARE = _checked(float, lambda v: 0.0 <= v <= 1.0, "between 0 and 1")
_TOLERANCE = _checked(float, lambda v: v >= 0.0, "at least 0")
_COUNT = _checked(int, lambda v: v >= 0, "at least 0")
_POSITIVE_COUNT = _checked(int, lambda v: v >= 1, "at least 1")


def _config_echo(args, input_paths):
    return {
        "command": args.command,
        "options": {k: v for k, v in sorted(vars(args).items()) if not callable(v)},
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in input_paths},
    }


def _parse_start(text, q):
    values = []
    for i, cell in enumerate(text.split(","), start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"--start value {i} is not a number: {cell!r}") from None
        if not np.isfinite(values[-1]):
            raise ValueError(f"--start value {i} is not finite: {cell!r}")
    if len(values) != q:
        raise ValueError(f"--start needs {q} comma-separated values, got {len(values)}")
    return np.array(values)


def _load_frame(path):
    frame = data.build_frame(data.parse_observations(path))
    if frame.n == 0:
        raise Pm25CastError("no usable rows after filtering")
    return frame


def _fit_with_diagnostics(spec, frame, args):
    theta0 = _parse_start(args.start, spec.q) if args.start is not None else None
    fit = solver.gauss_newton(
        spec, frame, theta0=theta0, max_steps=args.max_steps, rel_tol=args.rel_tol
    )
    if not (np.isfinite(fit.rss) and np.isfinite(fit.theta).all()):
        return fit, None, None, None  # no derivatives at a non-finite end point
    curv = diagnostics.curvature_at(spec, fit.theta, frame, fit.sigma_hat, alpha=args.alpha)
    bias = diagnostics.BiasReport(curv.bias, fit.theta)
    resid = diagnostics.residual_screen(fit, frame, alpha=args.alpha)
    return fit, curv, bias, resid


def _fit_summary(fit, frame):
    return {
        "family": fit.spec.family,
        "rho": fit.spec.rho,
        "theta": fit.theta,
        "rss": fit.rss,
        "sigma_hat": fit.sigma_hat,
        "converged": fit.converged,
        "steps": fit.steps,
        "n_observations": fit.residuals.size,
        "rows_dropped": [[d.isoformat(), reason] for d, reason in frame.drop_log],
    }


def cmd_fit(args):
    frame = _load_frame(args.obs)
    spec = model.ModelSpec(args.family, args.rho)
    fit, curv, bias, resid = _fit_with_diagnostics(spec, frame, args)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solver.write_trace_csv(fit, out / "fit_trace.csv")
    data._write_columns(
        out / "residuals.csv",
        ["date", "fitted", "residual", "std_residual"],
        [frame.dates[model.rows_used(spec, frame)], fit.fitted, fit.residuals, fit.std_residuals],
    )
    report = {
        "config": _config_echo(args, [args.obs]),
        "fit": _fit_summary(fit, frame),
    }
    report.update(diagnostics.diagnostics_report(curv, bias, resid))
    data._write_json(report, out / "diagnostics.json")
    if curv is None:
        print("fit did not converge: non-finite end point, diagnostics skipped", file=sys.stderr)
        return 2
    if not fit.converged:
        print("fit did not converge", file=sys.stderr)
        return 2
    return 0


def cmd_simulate(args):
    frame = _load_frame(args.obs)
    spec = model.ModelSpec(args.family, args.rho)
    theta0 = _parse_start(args.start, spec.q) if args.start is not None else None
    baseline = solver.gauss_newton(spec, frame, theta0=theta0)
    if not baseline.converged:
        print("baseline fit did not converge", file=sys.stderr)
        return 2
    summary = bootstrap.run_simulation(
        spec,
        frame,
        baseline,
        reps=args.reps,
        size=args.size,
        seed=args.seed,
        workers=args.workers,
        with_replacement=args.with_replacement,
        alpha=args.alpha,
        theta0=theta0,
        min_ks_pass=args.min_ks_pass,
    )
    corrected = None
    if summary.converged_count:
        correction = bootstrap.apply_correction(baseline, summary, spec, frame, alpha=args.alpha)
        corrected = {
            "theta": correction.fit.theta,
            "rss_model_scale": correction.fit.rss,
            "rss_observation_before": correction.rss_observation_before,
            "rss_observation_after": correction.rss_observation_after,
            "curvature": {
                "rho_k_n": correction.curvature.rho_k_n,
                "rho_k_p": correction.curvature.rho_k_p,
                "critical": correction.curvature.critical,
                "planar_ok": correction.curvature.planar_ok,
                "uniform_ok": correction.curvature.uniform_ok,
            },
        }

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bootstrap.write_replications_csv(summary, out / "replications.csv")
    payload = bootstrap.summary_dict(summary)
    payload["baseline"] = _fit_summary(baseline, frame)
    payload["corrected"] = corrected
    payload["config"] = _config_echo(args, [args.obs])
    data._write_json(payload, out / "simulation.json")
    if corrected is None:
        print("no replication converged", file=sys.stderr)
        return 2
    return 0


def cmd_forecast(args):
    if args.model in forecast.PRESETS:
        frozen, inputs = forecast.PRESETS[args.model], [args.obs]
    else:
        frozen, inputs = forecast.FrozenModel.from_json(args.model), [args.obs, args.model]
    profile = forecast.PROFILES[args.profile]
    observations = data.parse_observations(args.obs)

    if args.ncep is None:
        predictors, skipped = forecast.predictors_from_records(observations)
    else:
        daily = data.aggregate_ncep(data.parse_ncep(args.ncep))
        predictors, skipped = forecast.predictors_from_aggregated(daily, observations)
        inputs.append(args.ncep)

    id_source = {"1": "algo1", "2": "algo2", "observed": "observed"}[args.id_algo]
    table, skipped_fc = forecast.forecast_series(
        frozen, predictors, profile, id_source=id_source, observations=observations
    )
    skipped.extend(skipped_fc)
    for date, reason in skipped:
        print(f"skipped {date}: {reason}", file=sys.stderr)
    if not len(table):
        raise Pm25CastError("no day could be forecast")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    forecast.write_forecast_csv(table, out / "forecast.csv")
    data._write_json(
        {
            "config": _config_echo(args, inputs),
            "rows": len(table),
            "skipped": [[d.isoformat(), reason] for d, reason in skipped],
        },
        out / "forecast_meta.json",
    )
    return 0


def cmd_validate(args):
    table = forecast.read_forecast_csv(args.forecast)
    observed = data.parse_observations(args.obs).lookup("pm", table.date)
    report = forecast.inclusion_report(table, observed)
    report["config"] = _config_echo(args, [args.forecast, args.obs])
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data._write_json(report, out / "validation.json")
    return 0


def cmd_aggregate_ncep(args):
    six_hourly = data.parse_ncep(args.ncep)
    if not six_hourly.date.size:
        raise Pm25CastError("no six-hourly rows to aggregate")
    daily = data.aggregate_ncep(six_hourly)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data.write_aggregated_csv(daily, out / "ncep_daily.csv")
    return 0


def _add_fit_options(parser):
    parser.add_argument("--family", choices=CLI_FAMILIES, default="with-id")
    parser.add_argument("--rho", type=float, default=None)
    parser.add_argument("--start", default=None, help="comma-separated starting theta")
    parser.add_argument("--alpha", type=_PROBABILITY, default=0.05)


def build_parser():
    parser = _Parser(prog="pm25cast")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit a family and write diagnostics")
    p_fit.add_argument("obs", help="observation CSV")
    _add_fit_options(p_fit)
    p_fit.add_argument("--rel-tol", type=_TOLERANCE, default=1e-8)
    p_fit.add_argument("--max-steps", type=_COUNT, default=50)
    p_fit.add_argument("--out-dir", default=".")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="resampling study and bias correction")
    p_sim.add_argument("obs", help="observation CSV")
    _add_fit_options(p_sim)
    p_sim.add_argument("--reps", type=_POSITIVE_COUNT, default=1000)
    p_sim.add_argument("--size", type=_POSITIVE_COUNT, required=True)
    p_sim.add_argument("--seed", type=_COUNT, default=0)
    p_sim.add_argument("--workers", type=_POSITIVE_COUNT, default=1)
    p_sim.add_argument("--with-replacement", action="store_true")
    p_sim.add_argument("--min-ks-pass", type=_SHARE, default=0.95)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_fc = sub.add_parser("forecast", help="daily interval forecasts")
    p_fc.add_argument("--ncep", default=None,
                      help="six-hourly forecast CSV; without it the --obs rows are the predictors")
    p_fc.add_argument("--obs", required=True, help="observation CSV (ep and pm)")
    p_fc.add_argument("--model", default="thesis-2018", help="preset name or coefficients JSON")
    p_fc.add_argument("--id-algo", choices=("1", "2", "observed"), default="1")
    p_fc.add_argument("--profile", choices=sorted(forecast.PROFILES), default="ncep-i1")
    p_fc.add_argument("--out-dir", default=".")
    p_fc.set_defaults(func=cmd_forecast)

    p_val = sub.add_parser("validate", help="inclusion rates of a forecast table")
    p_val.add_argument("forecast", help="forecast CSV")
    p_val.add_argument("obs", help="observation CSV")
    p_val.add_argument("--out-dir", default=".")
    p_val.set_defaults(func=cmd_validate)

    p_agg = sub.add_parser("aggregate-ncep", help="collapse six-hourly rows to daily")
    p_agg.add_argument("ncep", help="six-hourly forecast CSV")
    p_agg.add_argument("--out-dir", default=".")
    p_agg.set_defaults(func=cmd_aggregate_ncep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with numerics.one_blas_thread():
            return args.func(args)
    except (Pm25CastError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
