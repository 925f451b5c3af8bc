"""Fit the concentration model on one month and inspect its diagnostics.

Walks the core loop end to end: load daily observations, fit the
seven-parameter family by Gauss-Newton, then ask whether the linear
approximation behind the usual inference is actually trustworthy here
(curvature measures), how biased the estimates are expected to be
(second-order bias), and whether the residuals look like noise.

Run from the repository root:

    python3 demos/fit_and_diagnose.py
"""

from pathlib import Path

import numpy as np

from pm25cast import (
    BiasReport,
    ModelSpec,
    build_frame,
    curvature_at,
    gauss_newton,
    parse_observations,
    residual_screen,
)

DATA = Path(__file__).resolve().parent / "data" / "obs_201401.csv"


def main():
    frame = build_frame(parse_observations(DATA))
    print(f"loaded {frame.n} days ({frame.dates[0]} .. {frame.dates[-1]})")

    spec = ModelSpec("with-id")
    fit = gauss_newton(spec, frame)
    print(f"\nconverged={fit.converged} in {fit.steps} steps, rss={fit.rss:.3f}")
    for i, value in enumerate(fit.theta, start=1):
        print(f"  theta{i} = {value:+.6f}")

    print("\niteration trace (rss must never increase):")
    for step, entry in enumerate(fit.trace):
        print(f"  step {step}: rss = {entry.rss:.4f}")

    cur = curvature_at(spec, fit.theta, frame, fit.sigma_hat)
    print(f"\ncurvature: intrinsic rho*K = {cur.rho_k_n:.5f}, "
          f"parameter-effects rho*K = {cur.rho_k_p:.5f}")
    print(f"critical value = {cur.critical:.4f} "
          f"(stricter marks at {cur.thresholds[1]:.4f} and {cur.thresholds[2]:.4f})")
    print(f"planarity ok: {cur.planar_ok}; uniform coordinates ok: {cur.uniform_ok}")

    # Box's bias comes out of the same pass as the curvature measures
    bias = BiasReport(cur.bias, fit.theta)
    print("\nexpected estimation bias (percent of each estimate):")
    for i, pct in enumerate(bias.percent_bias, start=1):
        print(f"  theta{i}: {pct:+.3f}%")

    res = residual_screen(fit, frame)
    print(f"\nresidual screen at alpha={res.alpha}:")
    print(f"  heteroscedastic: {res.heteroscedastic}")
    print(f"  autocorrelated (lag 1): {res.autocorrelated} "
          f"(r={res.lag1.statistic:.3f}, p={res.lag1.pvalue:.3f})")
    print(f"  normality p-value: {res.ks_normality.pvalue:.3f}")
    worst = max(res.spearman, key=lambda k: abs(res.spearman[k].statistic))
    print(f"  strongest |scale| association: {worst} "
          f"(rho={res.spearman[worst].statistic:+.3f})")

    # one month is a small sample; the point of the demo is the workflow,
    # not the verdicts
    if np.any(np.abs(bias.percent_bias) > 1.0):
        print("\nnote: some estimates carry >1% expected bias; see the "
              "bootstrap_correction demo for the remedy used downstream")


if __name__ == "__main__":
    main()
