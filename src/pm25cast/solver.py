"""Gauss-Newton least squares over the model families."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import model
from .data import _write_columns
from .errors import RankDeficiencyError
# qr_full stays bound here for bench/tests/test_bench.py::test_tracer_rebinds_every_namespace_and_restores
from .numerics import qr_full, r_factor, solve_upper, vecdot  # noqa: F401

# A full step that fails to decrease the RSS is halved up to this many times.
MAX_HALVINGS = 10


class TraceStep(NamedTuple):
    theta: np.ndarray
    rss: float


@dataclass(frozen=True)
class FitResult:
    """Converged or best-effort fit state.

    `trace` holds one TraceStep per accepted step, starting with the
    initial point, so rss values along it are non-increasing; `theta`,
    `rss` and `steps` are read from it. Residuals and `rss` are on the
    model scale (lpm units for the built-in families).
    """

    spec: model.ModelSpec
    sigma_hat: float
    fitted: np.ndarray
    residuals: np.ndarray
    trace: tuple
    converged: bool

    @property
    def theta(self):
        return self.trace[-1].theta

    @property
    def rss(self):
        return self.trace[-1].rss

    @property
    def steps(self):
        return len(self.trace) - 1

    @property
    def std_residuals(self):
        """residuals / sigma_hat: nan when sigma_hat is not finite, 0 when it is 0."""
        if not np.isfinite(self.sigma_hat):
            return np.full_like(self.residuals, np.nan)
        if self.sigma_hat > 0:
            return self.residuals / self.sigma_hat
        return np.zeros_like(self.residuals)


class StackFit(NamedTuple):
    """End state of `fit_stack`, one entry (or row) per sample.

    `fault[i]` is None, or the exception a single fit of sample i raises
    (the RankDeficiencyError `r_factor` reports for its Jacobian, or a
    non-finite trial theta); the other fields of a faulted sample are
    meaningless. A non-finite Jacobian is no fault. `path` starts with
    (all samples, start theta, start RSS) and then lists the accepted steps
    of each round of trials as (samples, theta, rss), in order.
    """

    theta: np.ndarray
    rss: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    fault: list
    path: list

    @property
    def sigma_hat(self):
        """sqrt(rss / (n - q)) per sample."""
        return np.sqrt(self.rss / (self.residuals.shape[-1] - self.theta.shape[-1]))

    def trace(self, i):
        """TraceSteps of sample i: its start, then every accepted step."""
        steps = []
        for samples, theta, rss in self.path:
            hit = np.flatnonzero(samples == i)
            if hit.size:
                steps.append(TraceStep(theta[hit[0]].copy(), float(rss[hit[0]])))
        return steps


@np.errstate(over="ignore", invalid="ignore")
def fit_stack(spec, frame, rows, theta0, max_steps=50, rel_tol=1e-8):
    """Gauss-Newton with step halving on every sample of a stack at once.

    Every sample follows exactly the iteration `gauss_newton` documents, in
    lockstep with the others: one stacked Jacobian, R factor and triangular
    solve per iteration, and one stacked evaluation per round of step
    trials. The samples still trying share the round's step scale; each
    keeps its own accept mask and stop flag, and leaves the active set when
    it converges or stops. Every operation works sample by sample, so a
    sample's result does not depend on which other samples share the stack.

    `rows` is the (samples, m) stack of frame row indices, and the dates
    of each sample must be non-decreasing. `theta0` is a q-vector (shared
    start) or a (samples, q) array. Raises ValueError on unsorted samples
    and when the samples have no more observations than parameters, and
    DataError when the iterated families find no lag pair. A frame holds
    no row the model cannot evaluate, so the start is one evaluation of
    the whole stack; a sample whose Jacobian loses rank or whose trial
    theta turns non-finite is reported in `fault`. One guard silences
    overflow and inf - inf (an RSS, a step and its back substitution, a
    trial theta, |Q1'r|^2); the sample ends as a non-finite fit or fault.
    """
    rows = np.asarray(rows)
    if np.any(np.diff(frame.dates[rows], axis=-1) < np.timedelta64(0, "D")):
        raise ValueError("the dates of each sample must be non-decreasing")
    y = model.response(spec, frame, rows)
    k, n = y.shape
    q = spec.q
    if n <= q:
        raise ValueError(f"need more observations than parameters (n={n}, q={q})")
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (k, q)))
    fault = [None] * k
    fitted = model.eval_f(spec, theta, frame, rows)
    resid = y - fitted
    rss = vecdot(resid, resid)
    converged = np.zeros(k, dtype=bool)
    path = [(np.arange(k), theta.copy(), rss.copy())]
    live = np.flatnonzero(np.isfinite(rss))

    for _ in range(max_steps):
        if not live.size:
            break
        jac_r = np.concatenate(
            [model.jacobian(spec, theta[live], frame, rows[live]), resid[live][..., None]], axis=-1
        )
        r_mat, qr_fault = r_factor(jac_r, q)
        del jac_r  # not held through the step trials
        factored = np.array([exc is None for exc in qr_fault], dtype=bool)
        if not factored.all():
            for i in np.flatnonzero(~factored):
                if isinstance(qr_fault[i], RankDeficiencyError):
                    fault[live[i]] = qr_fault[i]
            live, r_mat = live[factored], r_mat[factored]
        if not live.size:
            break
        sub = rows[live]
        # R of [J | r] is [[R1, Q1'r], [0, |r - Q1 Q1'r|]]
        gain = r_mat[:, :q, q]
        delta = solve_upper(r_mat[:, :q, :q], gain)

        scale = 1.0
        accepted = np.zeros(live.size, dtype=bool)
        trying = np.arange(live.size)
        for _ in range(MAX_HALVINGS + 1):
            theta_try = theta[live[trying]] + scale * delta[trying]
            finite = np.isfinite(theta_try).all(axis=1)
            if not finite.all():
                for i in live[trying[~finite]]:
                    fault[i] = ValueError("theta must be finite")
                trying, theta_try = trying[finite], theta_try[finite]
                if not trying.size:
                    break
            fitted_try = model.eval_f(spec, theta_try, frame, sub[trying])
            resid_try = y[live[trying]] - fitted_try
            rss_try = vecdot(resid_try, resid_try)
            down = np.isfinite(rss_try) & (rss_try <= rss[live[trying]])
            took = live[trying[down]]
            rss_prev = rss[took]
            theta[took], fitted[took], resid[took], rss[took] = (
                theta_try[down], fitted_try[down], resid_try[down], rss_try[down]
            )
            path.append((took, theta_try[down], rss_try[down]))
            converged[took] = rss_prev - rss[took] <= rel_tol * rss_prev
            accepted[trying[down]] = True
            trying = trying[~down]
            scale *= 0.5
            if not trying.size:
                break
        # Halving exhausted for the samples still trying: a point where the
        # predicted decrease |Q1'r|^2 is already below rel_tol*RSS is a minimum
        # at the rounding floor (each trial step came out a few ulps above the RSS).
        stuck = live[trying]
        floor = vecdot(gain[trying], gain[trying]) <= rel_tol * rss[stuck]
        converged[stuck[floor]] = True
        live = live[accepted & ~converged[live]]

    return StackFit(theta, rss, fitted, resid, converged, fault, path)


def gauss_newton(spec, frame, theta0=None, max_steps=50, rel_tol=1e-8):
    """Fit `spec` on `frame` by Gauss-Newton with step halving.

    Each iteration solves R1*delta = Q1'*r, both read from the R factor of
    [J | r] (neither the normal matrix nor an orthogonal factor is formed).
    A full step that fails to decrease the RSS is halved up to MAX_HALVINGS
    times. Convergence is declared when an
    accepted step changes the RSS by less than `rel_tol` relative, or when
    the halving budget runs out at a point whose predicted decrease
    |Q1'r|^2 is at most `rel_tol` times the RSS (a minimum at the rounding
    floor of the RSS); otherwise exhausting the budget ends the fit
    unconverged.

    Returns a FitResult; non-convergence is reported through the
    `converged` flag, not an exception. A non-finite RSS at the start or a
    non-finite Jacobian ends the fit unconverged at the current point.
    Rank deficiency of the Jacobian raises RankDeficiencyError. A trial
    step that turns theta non-finite re-raises `fit_stack`'s
    ValueError("theta must be finite"), as a malformed `theta0` raises ValueError.

    This is `fit_stack` run on a stack of one sample, the whole frame.
    """
    theta = model.check_theta(spec, model.default_start(spec) if theta0 is None else theta0)
    run = fit_stack(spec, frame, np.arange(frame.n)[None], theta, max_steps, rel_tol)
    if run.fault[0] is not None:
        raise run.fault[0]
    return FitResult(spec, float(run.sigma_hat[0]), run.fitted[0], run.residuals[0],
                     tuple(run.trace(0)), bool(run.converged[0]))


def write_trace_csv(fit, path):
    """Iteration trace as `step,theta1..thetaq,rss`."""
    theta, rss = (np.array(column, dtype=float) for column in zip(*fit.trace))
    _write_columns(
        path,
        ["step"] + [f"theta{j + 1}" for j in range(fit.spec.q)] + ["rss"],
        [np.arange(rss.size), *theta.T, rss],
    )
