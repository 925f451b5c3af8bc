"""Gauss-Newton least squares over the model families."""

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular

from . import model
# qr_full stays bound here for bench/tests/test_bench.py::test_tracer_rebinds_every_namespace_and_restores
from .numerics import qr_full, qr_thin  # noqa: F401


class TraceStep(NamedTuple):
    theta: np.ndarray
    rss: float


@dataclass(frozen=True)
class FitResult:
    """Converged or best-effort fit state.

    `trace` holds one TraceStep per accepted step, starting with the
    initial point, so rss values along it are non-increasing. `rss`
    and residuals are on the model scale (lpm units for the built-in
    families).
    """

    spec: model.ModelSpec
    theta: np.ndarray
    rss: float
    sigma_hat: float
    fitted: np.ndarray
    residuals: np.ndarray
    std_residuals: np.ndarray
    trace: tuple
    converged: bool
    steps: int


def _fit_result(spec, theta, fitted, resid, trace, converged):
    rss = trace[-1].rss
    sigma_hat = float(np.sqrt(rss / (resid.size - spec.q)))
    return FitResult(
        spec=spec,
        theta=theta,
        rss=rss,
        sigma_hat=sigma_hat,
        fitted=fitted,
        residuals=resid,
        std_residuals=resid / sigma_hat if sigma_hat > 0 else np.zeros_like(resid),
        trace=tuple(trace),
        converged=converged,
        steps=len(trace) - 1,
    )


def gauss_newton(spec, frame, theta0=None, max_steps=50, rel_tol=1e-8, max_halvings=10):
    """Fit `spec` on `frame` by Gauss-Newton with step halving.

    Each iteration solves R1*delta = Q1'*r from a reduced QR factorisation
    of the Jacobian (neither the normal matrix nor an n x n orthogonal
    factor is formed). A full step that fails to decrease the RSS is
    halved up to `max_halvings` times; exhausting the halving budget ends
    the fit unconverged. Convergence is declared when an accepted step
    changes the RSS by less than `rel_tol` relative.

    Returns a FitResult; non-convergence is reported through the
    `converged` flag, not an exception. A non-finite RSS at the start or a
    non-finite Jacobian ends the fit unconverged at the current point.
    Rank deficiency of the Jacobian raises RankDeficiencyError.
    """
    y = model.response(spec, frame)
    n, q = y.size, spec.q
    if n <= q:
        raise ValueError(f"need more observations than parameters (n={n}, q={q})")
    theta = np.array(model.default_start(spec) if theta0 is None else theta0, dtype=float)
    if theta.shape != (q,):
        raise ValueError(f"theta0 must have length {q}")

    fitted = model.eval_f(spec, theta, frame)
    resid = y - fitted
    rss = float(resid @ resid)
    trace = [TraceStep(theta.copy(), rss)]
    converged = False

    for _ in range(max_steps):
        if not np.isfinite(rss):
            break
        v1 = model.jacobian(spec, theta, frame)
        if not np.isfinite(v1).all():
            break
        q1, r1 = qr_thin(v1)
        delta = solve_triangular(r1, q1.T @ resid)

        scale = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            theta_try = theta + scale * delta
            fitted_try = model.eval_f(spec, theta_try, frame)
            resid_try = y - fitted_try
            rss_try = float(resid_try @ resid_try)
            if np.isfinite(rss_try) and rss_try <= rss:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break

        rss_prev = rss
        theta, fitted, resid, rss = theta_try, fitted_try, resid_try, rss_try
        trace.append(TraceStep(theta.copy(), rss))
        if rss_prev - rss <= rel_tol * rss_prev:
            converged = True
            break

    return _fit_result(spec, theta, fitted, resid, trace, converged)


def evaluate(spec, theta, frame):
    """Fit state at a given theta, without iterating.

    The trace holds the single point theta, `steps` is 0 and `converged`
    is False, since no Gauss-Newton step ran.
    """
    theta = np.array(theta, dtype=float)
    fitted = model.eval_f(spec, theta, frame)
    resid = model.response(spec, frame) - fitted
    trace = [TraceStep(theta.copy(), float(resid @ resid))]
    return _fit_result(spec, theta, fitted, resid, trace, False)


def write_trace_csv(fit, path):
    """Iteration trace as `step,theta1..thetaq,rss`."""
    q = fit.spec.q
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"theta{j + 1}" for j in range(q)] + ["rss"])
        for step, (theta, rss) in enumerate(fit.trace):
            writer.writerow([step] + [repr(float(v)) for v in theta] + [repr(float(rss))])
