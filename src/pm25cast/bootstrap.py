"""Stratified case-resampling study and parameter bias correction.

Replications are reproducible to the bit regardless of worker count: all
sample indices are drawn up front in the caller's process from per-rep
substreams of one seed, workers run RNG-free fits, and results are reduced
in replication order.
"""

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model
from .diagnostics import bates_curvature
from .errors import DataError, RankDeficiencyError, StratificationError
from .numerics import ks_two_sample
from .solver import FitResult, evaluate, gauss_newton


class Replication(NamedTuple):
    rep: int
    converged: bool
    curvature_pass: bool
    ks_p: float
    ks_pass: bool
    ks_strong: bool
    identical_residuals: bool
    theta: np.ndarray


@dataclass(frozen=True)
class BootstrapSummary:
    """Aggregate of a resampling run.

    bias, std and mse are taken over converged replications only, with
    population (ddof=0) scaling, so mse_j = std_j^2 + bias_j^2 holds as an
    exact identity up to float rounding.
    """

    replications: int
    converged_count: int
    curvature_pass_count: int
    ks_pass_count: int
    ks_strong_count: int
    identical_residual_count: int
    bias: np.ndarray
    std: np.ndarray
    mse: np.ndarray
    theta_corrected: np.ndarray
    min_ks_pass: float
    gate_ok: bool
    detail: tuple


@dataclass(frozen=True)
class CorrectionResult:
    fit: FitResult
    curvature: object
    rss_observation_before: float | None
    rss_observation_after: float | None


def _allocate(sizes, total):
    """Largest-remainder allocation of `total` across strata `sizes`."""
    sizes = np.asarray(sizes, dtype=int)
    quotas = total * sizes / sizes.sum()
    base = np.floor(quotas).astype(int)
    shortfall = total - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:shortfall]] += 1
    return base


def _sample_indices(frame, size, rng, with_replacement):
    if frame.n == 0:
        raise StratificationError("cannot sample from an empty frame")
    if not 0 < size <= frame.n:
        raise StratificationError(f"sample size {size} outside 1..{frame.n}")
    levels = np.unique(frame.id)
    strata = [np.nonzero(frame.id == level)[0] for level in levels]
    allocs = _allocate([s.size for s in strata], size)
    picks = [
        rng.choice(stratum, size=alloc, replace=with_replacement)
        for stratum, alloc in zip(strata, allocs)
    ]
    return np.sort(np.concatenate(picks))


def stratified_sample(frame, size, seed, with_replacement=False):
    """Draw `size` rows stratified by id, proportionally allocated.

    Allocation uses largest-remainder rounding over the id levels present
    in the frame; rows are sampled without replacement within each stratum
    (unless `with_replacement`) and returned in date order.
    """
    rng = np.random.default_rng(seed)
    return frame.subset(_sample_indices(frame, size, rng, with_replacement))


def _shared_residuals_identical(sample_idx, rep_fit, rep_frame, baseline, frame, spec):
    base_rows = model.rows_used(spec, frame)
    base_pos = {int(row): i for i, row in enumerate(base_rows)}
    rep_rows = sample_idx[model.rows_used(spec, rep_frame)]
    shared = [
        (i, base_pos[int(row)])
        for i, row in enumerate(rep_rows)
        if int(row) in base_pos
    ]
    if not shared:
        return False
    return all(
        rep_fit.residuals[i] == baseline.residuals[j] for i, j in shared
    )


def run_simulation(
    spec,
    frame,
    baseline,
    reps,
    size,
    seed,
    workers=1,
    with_replacement=False,
    alpha=0.05,
    theta0=None,
    min_ks_pass=0.95,
):
    """Resample, refit and screen `reps` times; summarize parameter error.

    Per replication: draw a stratified sample, refit by Gauss-Newton from
    `theta0` (the family's standard start by default), then screen for (a)
    convergence, (b) both curvature measures under the critical value, (c)
    a KS two-sample test of the replication residuals against the baseline
    fit's residuals, and (d) the replication residual vector not being an
    exact copy of the baseline's on shared rows. Failed fits are counted
    as unconverged, never fatal.

    bias_j = mean(theta*_j) - theta_hat_j over converged replications;
    theta_corrected = theta_hat - bias. `gate_ok` reports whether the KS
    pass fraction reached `min_ks_pass`.
    """
    if reps < 1:
        raise ValueError("reps must be positive")

    children = np.random.SeedSequence(seed).spawn(reps)
    jobs = [
        (r, _sample_indices(frame, size, np.random.default_rng(children[r]), with_replacement))
        for r in range(reps)
    ]

    def work(job):
        r, idx = job
        sub = frame.subset(idx)
        failed = Replication(
            r, False, False, float("nan"), False, False, False,
            np.full(spec.q, np.nan),
        )
        try:
            fit = gauss_newton(spec, sub, theta0=theta0)
        except (RankDeficiencyError, DataError, ValueError):
            return failed
        if not fit.converged:
            return failed._replace(theta=fit.theta)
        try:
            curv = bates_curvature(
                model.jacobian(spec, fit.theta, sub),
                model.hessian_cube(spec, fit.theta, sub),
                fit.sigma_hat,
                alpha=alpha,
            )
            curvature_pass = curv.planar_ok and curv.uniform_ok
        except (RankDeficiencyError, ValueError):
            curvature_pass = False
        ks = ks_two_sample(fit.residuals, baseline.residuals)
        identical = _shared_residuals_identical(idx, fit, sub, baseline, frame, spec)
        return Replication(
            rep=r,
            converged=True,
            curvature_pass=curvature_pass,
            ks_p=ks.pvalue,
            ks_pass=ks.pvalue > 0.05,
            ks_strong=ks.pvalue > 0.5,
            identical_residuals=identical,
            theta=fit.theta,
        )

    if workers <= 1:
        detail = [work(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            detail = list(pool.map(work, jobs))
    detail.sort(key=lambda rec: rec.rep)

    kept = np.array([rec.theta for rec in detail if rec.converged])
    if kept.size:
        bias = kept.mean(axis=0) - baseline.theta
        std = kept.std(axis=0, ddof=0)
        mse = np.mean((kept - baseline.theta) ** 2, axis=0)
    else:
        bias = std = mse = np.full(spec.q, np.nan)
    ks_pass_count = sum(rec.ks_pass for rec in detail)
    return BootstrapSummary(
        replications=reps,
        converged_count=sum(rec.converged for rec in detail),
        curvature_pass_count=sum(rec.curvature_pass for rec in detail),
        ks_pass_count=ks_pass_count,
        ks_strong_count=sum(rec.ks_strong for rec in detail),
        identical_residual_count=sum(rec.identical_residuals for rec in detail),
        bias=bias,
        std=std,
        mse=mse,
        theta_corrected=baseline.theta - bias,
        min_ks_pass=min_ks_pass,
        gate_ok=ks_pass_count >= min_ks_pass * reps,
        detail=tuple(detail),
    )


def apply_correction(fit, summary, spec, frame, alpha=0.05):
    """Re-evaluate the model at theta_corrected and compare the fits.

    Returns the corrected evaluation as a FitResult (single-entry trace,
    no iteration), its curvature report, and the before/after residual sum
    of squares of the structural equation on the observation scale (None
    for the linear test family, which has no structural form).
    """
    corrected = evaluate(spec, summary.theta_corrected, frame)
    theta_c = corrected.theta
    curvature = bates_curvature(
        model.jacobian(spec, theta_c, frame),
        model.hessian_cube(spec, theta_c, frame),
        corrected.sigma_hat,
        alpha=alpha,
    )
    if spec.family == "linear":
        before = after = None
    else:
        before = model.structural_rss(fit.theta, frame)
        after = model.structural_rss(theta_c, frame)
    return CorrectionResult(
        fit=corrected,
        curvature=curvature,
        rss_observation_before=before,
        rss_observation_after=after,
    )


def write_replications_csv(summary, path):
    """Per-replication record: `rep,converged,ks_p,theta1..thetaq`."""
    q = summary.theta_corrected.size
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["rep", "converged", "ks_p"] + [f"theta{j + 1}" for j in range(q)]
        )
        for rec in summary.detail:
            writer.writerow(
                [rec.rep, int(rec.converged), repr(float(rec.ks_p))]
                + [repr(float(v)) for v in rec.theta]
            )


def summary_dict(summary):
    """JSON-ready view of a BootstrapSummary (omits per-rep detail)."""

    def listed(arr):
        return [None if not np.isfinite(v) else float(v) for v in arr]

    return {
        "replications": summary.replications,
        "converged": summary.converged_count,
        "curvature_pass": summary.curvature_pass_count,
        "ks_pass": summary.ks_pass_count,
        "ks_strong": summary.ks_strong_count,
        "identical_residuals": summary.identical_residual_count,
        "min_ks_pass": summary.min_ks_pass,
        "gate_ok": summary.gate_ok,
        "bias": listed(summary.bias),
        "std": listed(summary.std),
        "mse": listed(summary.mse),
        "theta_corrected": listed(summary.theta_corrected),
    }


def write_summary_json(summary, path, extra=None):
    payload = summary_dict(summary)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, ensure_ascii=False)
        fh.write("\n")
