"""Stratified case-resampling study and parameter bias correction.

All sample indices are drawn up front from per-replication substreams of
one seed (strata and allocation are computed once per run), as one
(reps, size) array of sorted frame rows. The replications are then fitted
in lockstep, a stack of up to `FIT_STACK` replications at a time: the
stack's rows go to `solver.fit_stack`, and the rows of its converged
replications go straight on to the model functions and the stacked forms
of `bates_curvature` and `ks_two_sample`, which screen them. Every stacked
operation works replication by replication, so each replication's result
is bit-for-bit the same whatever stack it shares, whatever its size, and
whatever `workers` says; repeated runs with one seed give identical
output.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .data import _write_columns
from .diagnostics import bates_curvature, finite_or_none
from .errors import StratificationError
from .numerics import ks_two_sample
from .solver import FitResult, fit_stack, gauss_newton

# Replications fitted and screened together. A stack holds its Jacobians,
# QR factors and face entries, stack x size x (q + m) floats each, and
# nothing q x q per observation. For 1000 replications of size 25 (one
# BLAS thread, 2-core x86-64 host), a stack of 100 took 98-103 ms per run,
# peaked at 1.68 MiB of traced memory, and left ru_maxrss at 42.5 MB after
# eight in-process `simulate` jobs; a stack of 200 took 92-99 ms, 3.07 MiB
# and 44.0 MB.
FIT_STACK = 100


@dataclass(frozen=True)
class BootstrapSummary:
    """Aggregate of a resampling run, with one entry per replication in the
    arrays `converged`, `curvature_pass`, `ks_p` (nan where the replication
    did not converge), `identical_residuals` and `theta` (reps x q, nan for
    a replication whose fit failed); `theta_hat` is the baseline estimate.

    bias, std, mse and theta_corrected are derived from `theta`,
    `converged` and `theta_hat`. The moments are taken over converged
    replications only, with population (ddof=0) scaling, so
    mse_j = std_j^2 + bias_j^2 holds as an exact identity up to float
    rounding; they are nan when no replication converged.
    """

    converged: np.ndarray
    curvature_pass: np.ndarray
    ks_p: np.ndarray
    identical_residuals: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    min_ks_pass: float

    def _moment(self, of_kept):
        kept = self.theta[self.converged]
        return of_kept(kept) if kept.size else np.full(self.theta.shape[1], np.nan)

    bias = property(lambda self: self._moment(lambda kept: kept.mean(axis=0) - self.theta_hat))
    std = property(lambda self: self._moment(lambda kept: kept.std(axis=0, ddof=0)))
    mse = property(lambda self: self._moment(lambda k: np.mean((k - self.theta_hat) ** 2, axis=0)))
    theta_corrected = property(lambda self: self.theta_hat - self.bias)

    ks_pass = property(lambda self: self.ks_p > 0.05)
    ks_strong = property(lambda self: self.ks_p > 0.5)
    replications = property(lambda self: self.converged.size)
    converged_count = property(lambda self: int(self.converged.sum()))
    curvature_pass_count = property(lambda self: int(self.curvature_pass.sum()))
    ks_pass_count = property(lambda self: int(self.ks_pass.sum()))
    ks_strong_count = property(lambda self: int(self.ks_strong.sum()))
    identical_residual_count = property(lambda self: int(self.identical_residuals.sum()))
    # whether the KS pass fraction reached min_ks_pass
    gate_ok = property(lambda self: self.ks_pass_count >= self.min_ks_pass * self.replications)


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


def _strata(frame, size):
    """Row indices of each id level and the rows drawn from each."""
    if frame.n == 0:
        raise StratificationError("cannot sample from an empty frame")
    if not 0 < size <= frame.n:
        raise StratificationError(f"sample size {size} outside 1..{frame.n}")
    levels = np.unique(frame.id)
    strata = [np.nonzero(frame.id == level)[0] for level in levels]
    return strata, _allocate([s.size for s in strata], size)


def _draw(strata, allocs, seeds, with_replacement):
    """Rows of one stratified sample per seed, stratum by stratum, unsorted,
    as a (len(seeds), size) array: each seed's generator fills its row with
    indices within the strata, and one gather maps them to frame rows."""
    sizes = np.array([stratum.size for stratum in strata])
    ends = np.cumsum(allocs)
    local = np.empty((len(seeds), int(ends[-1])), dtype=np.intp)
    for row, seed in zip(local, seeds):
        rng = np.random.default_rng(seed)
        for size, alloc, end in zip(sizes.tolist(), allocs.tolist(), ends.tolist()):
            row[end - alloc : end] = rng.choice(size, size=alloc, replace=with_replacement)
    # stratum s of the concatenated strata starts at sum(sizes[:s])
    local += np.repeat(np.cumsum(sizes) - sizes, allocs)
    return np.concatenate(strata)[local]


def stratified_sample(frame, size, seed, with_replacement=False):
    """Draw `size` rows stratified by id, proportionally allocated.

    Allocation uses largest-remainder rounding over the id levels present
    in the frame; rows are sampled without replacement within each stratum
    (unless `with_replacement`) and returned in date order.
    """
    return frame.subset(np.sort(_draw(*_strata(frame, size), [seed], with_replacement)[0]))


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
    exact copy of the baseline's on shared rows. Failed fits, and samples
    with no more observations than parameters, which are not fitted, are
    counted as unconverged, never fatal. A `theta0` that is not a finite
    q-vector raises ValueError (`model.check_theta`) before any draw.

    bias_j = mean(theta*_j) - theta_hat_j over converged replications;
    theta_corrected = theta_hat - bias. `gate_ok` reports whether the KS
    pass fraction reached `min_ks_pass`.

    Replications with the same observation count are fitted in lockstep
    stacks of up to `FIT_STACK`, and the converged ones of each stack are
    screened together right after their fit. `workers` is accepted for
    compatibility and changes neither speed nor output: everything runs
    on one thread.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    start = model.check_theta(spec, model.default_start(spec) if theta0 is None else theta0)

    # the 1000 spawned seed sequences of a default run hold ~0.3 MB: not kept past the draw
    rows = _draw(*_strata(frame, size), np.random.SeedSequence(seed).spawn(reps), with_replacement)
    rows.sort(axis=1)

    theta = np.full((reps, spec.q), np.nan)
    converged = np.zeros(reps, dtype=bool)
    curvature_pass = np.zeros(reps, dtype=bool)
    identical = np.zeros(reps, dtype=bool)
    ks_p = np.full(reps, np.nan)
    baseline_at = np.full(frame.n, -1)
    baseline_at[model.rows_used(spec, frame)] = np.arange(baseline.residuals.size)

    # stacks must be rectangular: group the replications by observation count;
    # a sample with no more observations than parameters cannot be fitted
    counts = model.observation_counts(spec, frame, rows)
    for count in np.unique(counts[counts > spec.q]):
        members = np.flatnonzero(counts == count)
        for stack in np.split(members, range(FIT_STACK, members.size, FIT_STACK)):
            run = fit_stack(spec, frame, rows[stack], start)
            ok = np.array([f is None for f in run.fault], dtype=bool)
            theta[stack[ok]] = run.theta[ok]
            done = np.flatnonzero(ok & run.converged)
            if done.size == 0:
                continue
            screened, resid, th = stack[done], run.residuals[done], run.theta[done]
            sample = rows[screened]
            converged[screened] = True
            curv = bates_curvature(
                model.jacobian(spec, th, frame, sample),
                model.faces(spec, th, frame, sample),
                run.sigma_hat[done],
                alpha=alpha,
            )
            curvature_pass[screened] = curv.planar_ok & curv.uniform_ok
            ks_p[screened] = ks_two_sample(resid, baseline.residuals).pvalue

            at = baseline_at[model.rows_used(spec, frame, sample)]
            shared = at >= 0
            same = resid == baseline.residuals[at]
            identical[screened] = shared.any(axis=1) & (same | ~shared).all(axis=1)

    return BootstrapSummary(
        converged=converged,
        curvature_pass=curvature_pass,
        ks_p=ks_p,
        identical_residuals=identical,
        theta=theta,
        theta_hat=baseline.theta,
        min_ks_pass=min_ks_pass,
    )


def apply_correction(fit, summary, spec, frame, alpha=0.05):
    """Re-evaluate the model at theta_corrected and compare the fits.

    Returns the corrected evaluation as a FitResult (single-entry trace,
    no iteration), its curvature report, and the before/after residual sum
    of squares of the structural equation on the observation scale (None
    for the linear test family, which has no structural form).
    """
    corrected = gauss_newton(spec, frame, theta0=summary.theta_corrected, max_steps=0)
    theta_c = corrected.theta
    curvature = bates_curvature(
        model.jacobian(spec, theta_c, frame),
        model.faces(spec, theta_c, frame),
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
    reps, q = summary.theta.shape
    _write_columns(
        path,
        ["rep", "converged", "ks_p"] + [f"theta{j + 1}" for j in range(q)],
        [np.arange(reps), summary.converged.astype(int), summary.ks_p, *summary.theta.T],
    )


def summary_dict(summary):
    """JSON-ready view of a BootstrapSummary (omits the per-replication arrays)."""

    def listed(arr):
        return [finite_or_none(v) for v in arr]

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
