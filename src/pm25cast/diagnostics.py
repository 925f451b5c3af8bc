"""Nonlinearity diagnostics: mean-square curvatures, bias, residual screens.

The curvature measures rest on the faces M_s = L' V2_s L, L = R1^-1, of a
reduced QR V1 = Q1 R1 of the Jacobian. Rotating the face stack by the full
orthogonal factor, A_t = sum_s Q[s,t] M_s, splits it into q tangent faces
(parameter-effects part) and n-q residual faces (intrinsic part). Only the
tangent faces are formed, as L' (sum_s Q1[s,t] V2_s) L. Because Q is
orthogonal, sum_t ||A_t||_F^2 and sum_t tr(A_t)^2 over all n rotated faces
equal the same sums over the unrotated faces M_s, so the intrinsic sums
are the totals minus the tangent sums (Bates & Watts 1980). The totals
need no M_s either: with P = L L', tr(M_s) = <V2_s, P> and
||M_s||_F^2 = tr(V2_s P V2_s P). No n x n matrix is built.
`rotated_faces` keeps the explicit rotation of all n faces by the complete
Q as the reference route for tests.

Mean-square curvatures come from the closed-form sphere integral; reports
carry them premultiplied by rho = sigma_hat*sqrt(q) so they compare
directly against 1/sqrt(F(q, n-q, alpha)). `bates_curvature` also takes a
stack of fits (the bootstrap screens a block of replications in one call).
"""

import math
from dataclasses import dataclass

import numpy as np
from . import model
from .numerics import (
    f_quantile,
    ks_normal,
    pearson_test,
    qr_full,
    qr_stack,
    solve_upper,
    spearman_test,
    vecdot,
)


@dataclass(frozen=True)
class CurvatureReport:
    """Scaled curvatures and their critical value, as `bates_curvature` made
    them. Derived: advisory `thresholds` at 1x, 0.5x and 0.2x critical, and
    pass flags against 1x, `planar_ok` for rho_k_n and `uniform_ok` for
    rho_k_p (bools for one fit, (k,) arrays for a stack)."""

    rho_k_n: float
    rho_k_p: float
    critical: float
    alpha: float

    thresholds = property(lambda self: (self.critical, 0.5 * self.critical, 0.2 * self.critical))
    planar_ok = property(lambda self: self.rho_k_n < self.critical)
    uniform_ok = property(lambda self: self.rho_k_p < self.critical)


@dataclass(frozen=True)
class BiasReport:
    bias: np.ndarray
    percent_bias: np.ndarray  # nan marks entries where theta_hat is 0


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Residual screen results. Derived: `heteroscedastic` when a Spearman
    p-value is below `alpha`, `autocorrelated` when the lag-1 one is (None
    without a lag test)."""

    spearman: dict
    lag1: tuple | None  # None when fewer than 3 consecutive-day pairs exist
    ks_normality: tuple
    alpha: float

    heteroscedastic = property(
        lambda self: any(res.pvalue < self.alpha for res in self.spearman.values())
    )
    autocorrelated = property(
        lambda self: None if self.lag1 is None else self.lag1.pvalue < self.alpha
    )


def _factor(v1, v2):
    """Q1 and L = R1^-1 of a stack of Jacobians, after the shape checks.

    `v1` is (k, n, q) and `v2` (k, n, q, q). Also returns the per-sample
    fault list of `qr_stack`; the factors of a faulted sample are nan.
    """
    k, n, q = v1.shape
    if n <= q:
        raise ValueError(f"need n > q faces (n={n}, q={q})")
    if v2.shape != (k, n, q, q):
        raise ValueError(f"second-derivative array must be ({n}, {q}, {q})")
    q1, r1, fault = qr_stack(v1)
    bad = np.array([f is not None for f in fault], dtype=bool)
    q1[bad] = np.nan
    r1[bad] = np.nan
    return q1, solve_upper(r1, np.broadcast_to(np.eye(q), r1.shape)), fault


def _face_traces(v2, ell):
    """tr(M_s) = <V2_s, L L'> for every face, without forming M_s."""
    k, n, q = v2.shape[:3]
    p_mat = ell @ np.swapaxes(ell, -1, -2)
    return vecdot(v2.reshape(k, n, q * q), p_mat.reshape(k, 1, q * q)), p_mat


def rotated_faces(v1, v2):
    """Rotated face stacks (parameter-effects part, intrinsic part).

    The rotation applies Q' along the face index: A[t] = sum_s Q[s,t]*M[s].
    The first q rotated faces span the tangent directions, the remaining
    n-q the residual directions. This builds the complete n x n Q and all
    n faces M_s, and is kept as the reference for `bates_curvature`, which
    needs neither.
    """
    q_mat, r1 = qr_full(v1)
    ell = solve_upper(r1, np.eye(r1.shape[0]))
    faces = np.einsum("ki,skl,lj->sij", ell, np.asarray(v2, dtype=float), ell)
    q = faces.shape[1]
    rotated = np.einsum("st,sij->tij", q_mat, faces)
    return rotated[:q], rotated[q:]


def _face_sums(faces):
    """(sum of squared Frobenius norms, sum of squared traces) of a stack.

    Leading axes of `faces` (..., n, q, q) are kept: each sample's sums are
    one dot product of its own entries.
    """
    flat = faces.reshape(faces.shape[:-3] + (-1,))
    traces = np.trace(faces, axis1=-2, axis2=-1)
    return vecdot(flat, flat), vecdot(traces, traces)


def _sphere_average(frob, trace_sq, q):
    # Sums that came out of a subtraction may sit a rounding error below 0,
    # where the exact value is >= 0. `maximum` keeps a nan.
    return np.sqrt(np.maximum(2.0 * frob + trace_sq, 0.0) / (q * (q + 2)))


def mean_square_curvature(faces, q):
    """Closed form of the sphere-averaged squared curvature of a face stack.

    For each symmetric face A the direction average of (d'Ad)^2 over the
    unit sphere is (2*tr(A^2) + tr(A)^2) / (q*(q+2)); summing over faces
    and taking the square root gives the mean-square curvature.
    """
    return float(_sphere_average(*_face_sums(np.asarray(faces, dtype=float)), q))


def bates_curvature(v1, v2, sigma_hat, alpha=0.05):
    """Scaled mean-square curvatures with their critical value.

    Returns a CurvatureReport carrying rho*K for the intrinsic and
    parameter-effects parts (rho = sigma_hat*sqrt(q)) and the critical value
    1/sqrt(F(q, n-q, 1-alpha quantile)).

    The intrinsic sums are the totals over the unrotated faces minus the
    tangent sums (see the module docstring); they agree with the explicit
    rotation of `rotated_faces` up to rounding.

    Stacked input, `v1` (k, n, q), `v2` (k, n, q, q) and `sigma_hat` (k,),
    gives one report whose measures and flags are (k,) arrays. There a
    Jacobian that `qr_full` would reject gives nan measures and failed
    flags instead of an exception.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    single = v1.ndim == 2
    if single:
        v1, v2 = v1[None], v2[None]
    q1, ell, fault = _factor(v1, v2)
    if single and fault[0] is not None:
        raise fault[0]
    k, n, q = q1.shape
    # tangent faces: L' (sum_s Q1[s,t] V2_s) L
    folded = (np.swapaxes(q1, -1, -2) @ v2.reshape(k, n, q * q)).reshape(k, q, q, q)
    frob_p, trace_sq_p = _face_sums(np.swapaxes(ell, -1, -2)[:, None] @ folded @ ell[:, None])
    # totals over the n faces M_s = L' V2_s L: tr(M_s) = <V2_s, P> and
    # ||M_s||_F^2 = tr(V2_s P V2_s P), P = L L', so M_s is never formed
    traces, p_mat = _face_traces(v2, ell)
    trace_sq_total = vecdot(traces, traces)
    twisted = v2 @ p_mat[:, None]
    per_row = vecdot(twisted, np.swapaxes(twisted, -1, -2))
    frob_total = vecdot(per_row.reshape(k, n * q), np.ones(n * q))
    rho = np.asarray(sigma_hat, dtype=float).reshape(k) * math.sqrt(q)
    rho_k_p = rho * _sphere_average(frob_p, trace_sq_p, q)
    rho_k_n = rho * _sphere_average(frob_total - frob_p, trace_sq_total - trace_sq_p, q)
    critical = 1.0 / math.sqrt(f_quantile(1.0 - alpha, q, n - q))
    if single:
        rho_k_n, rho_k_p = float(rho_k_n[0]), float(rho_k_p[0])
    return CurvatureReport(rho_k_n=rho_k_n, rho_k_p=rho_k_p, critical=critical, alpha=alpha)


def box_bias(v1, v2, sigma_hat, theta_hat):
    """Leading-order estimation bias of theta_hat and its percentage form.

    bias = -(sigma_hat^2 / 2) * L L' * sum_i V1_i' * tr(M_i) with
    M_i = L' V2_i L. Entries of percent_bias where theta_hat is exactly 0
    are reported as nan.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.ndim != 2:
        raise ValueError(f"box_bias takes one Jacobian (n, q), got shape {v1.shape}")
    _, ell, fault = _factor(v1[None], v2[None])
    if fault[0] is not None:
        raise fault[0]
    face_traces, p_mat = _face_traces(v2[None], ell)
    bias = -0.5 * float(sigma_hat) ** 2 * p_mat[0] @ (v1.T @ face_traces[0])
    percent = np.full_like(bias, np.nan)
    nonzero = theta_hat != 0.0
    percent[nonzero] = 100.0 * bias[nonzero] / theta_hat[nonzero]
    return BiasReport(bias=bias, percent_bias=percent)


def residual_screen(fit, frame, alpha=0.05):
    """Heteroscedasticity, autocorrelation and normality screens.

    Spearman tests relate |standardized residual| to the fitted values and
    to each raw regressor on the used rows (constant columns are skipped);
    the lag test is a Pearson correlation over consecutive-day residual
    pairs, left out (`lag1` and `autocorrelated` None) when fewer than 3
    pairs exist; normality is a KS test on the raw residuals. The report's
    flags compare p-values against `alpha`.
    """
    if fit.residuals.size < 3:
        raise ValueError("need at least 3 residuals")
    idx = model.rows_used(fit.spec, frame)
    abs_sr = np.abs(fit.std_residuals)

    spearman = {"fitted": spearman_test(abs_sr, fit.fitted)}
    for name, col in model.regressor_columns(fit.spec, frame).items():
        if np.ptp(col) == 0.0:
            continue
        spearman[name] = spearman_test(abs_sr, col)

    step = frame.day_steps(idx)
    lag1 = None
    if step.sum() >= 3:
        lag1 = pearson_test(fit.std_residuals[:-1][step], fit.std_residuals[1:][step])
    return ResidualDiagnostics(
        spearman=spearman, lag1=lag1, ks_normality=ks_normal(fit.residuals), alpha=alpha
    )


def finite_or_none(value):
    """`value` as a float, or None (JSON null) when it is not finite."""
    value = float(value)
    return value if math.isfinite(value) else None


def diagnostics_report(curvature, bias, residuals):
    """JSON-ready dict combining the three diagnostic blocks.

    Curvature and bias values appear raw and rounded to 5 decimals; nan
    percent-bias markers become null. A block passed as None (not
    computed) is written as null.
    """
    report = {"curvature": None, "box_bias": None, "residuals": None}
    if curvature is not None:
        report["curvature"] = {
            "rho_k_n": curvature.rho_k_n,
            "rho_k_p": curvature.rho_k_p,
            "rho_k_n_rounded": round(curvature.rho_k_n, 5),
            "rho_k_p_rounded": round(curvature.rho_k_p, 5),
            "critical": curvature.critical,
            "thresholds": list(curvature.thresholds),
            "planar_ok": curvature.planar_ok,
            "uniform_ok": curvature.uniform_ok,
            "alpha": curvature.alpha,
        }
    if bias is not None:
        report["box_bias"] = {
            "bias": [float(v) for v in bias.bias],
            "bias_rounded": [round(float(v), 5) for v in bias.bias],
            "percent_bias": [finite_or_none(v) for v in bias.percent_bias],
        }
    if residuals is not None:
        report["residuals"] = {
            "spearman": {
                name: {"rho": res.statistic, "p": res.pvalue}
                for name, res in residuals.spearman.items()
            },
            "lag1": (
                None if residuals.lag1 is None
                else {"r": residuals.lag1.statistic, "p": residuals.lag1.pvalue}
            ),
            "ks_normality": {
                "D": residuals.ks_normality.statistic,
                "p": residuals.ks_normality.pvalue,
            },
            "heteroscedastic": residuals.heteroscedastic,
            "autocorrelated": residuals.autocorrelated,
            "alpha": residuals.alpha,
        }
    return report
