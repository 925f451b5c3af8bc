"""Nonlinearity diagnostics: mean-square curvatures, bias, residual screens.

The curvature computation factors the Jacobian V1 = Q1 R1 by a reduced QR
and transforms each second-derivative face by L = R1^-1, giving the faces
M_s = L' V2_s L. Rotating the stack by the full orthogonal factor,
A_t = sum_s Q[s,t] M_s, splits it into q tangent faces (parameter-effects
part) and n-q residual faces (intrinsic part). Only the tangent faces are
formed, from Q1. Because Q is orthogonal, sum_t ||A_t||_F^2 and
sum_t tr(A_t)^2 over all n rotated faces equal the same sums over the
unrotated faces M_s, so the intrinsic sums are the totals minus the
tangent sums (Bates & Watts 1980); no n x n matrix is built.
`rotated_faces` keeps the explicit rotation by the complete Q as the
reference route for tests.

Mean-square curvatures come from the closed-form sphere integral; reports
carry them premultiplied by rho = sigma_hat*sqrt(q) so they compare
directly against 1/sqrt(F(q, n-q, alpha)).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import model
from .numerics import f_quantile, ks_normal, pearson_test, qr_full, qr_thin, spearman_test


@dataclass(frozen=True)
class CurvatureReport:
    rho_k_n: float
    rho_k_p: float
    critical: float
    thresholds: tuple
    planar_ok: bool
    uniform_ok: bool
    alpha: float


@dataclass(frozen=True)
class BiasReport:
    bias: np.ndarray
    percent_bias: np.ndarray  # nan marks entries where theta_hat is 0


@dataclass(frozen=True)
class ResidualDiagnostics:
    spearman: dict
    lag1: tuple
    ks_normality: tuple
    heteroscedastic: bool
    autocorrelated: bool
    alpha: float


def _transformed_faces(v1, v2, qr=qr_thin):
    """Orthogonal factor from `qr` plus the faces M = L' V2_face L, L = R1^-1."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n, q = v1.shape
    if n <= q:
        raise ValueError(f"need n > q faces (n={n}, q={q})")
    if v2.shape != (n, q, q):
        raise ValueError(f"second-derivative array must be ({n}, {q}, {q})")
    q_mat, r1 = qr(v1)
    ell = solve_triangular(r1, np.eye(q))
    faces = np.einsum("ki,skl,lj->sij", ell, v2, ell)
    return q_mat, ell, faces


def rotated_faces(v1, v2):
    """Rotated face stacks (parameter-effects part, intrinsic part).

    The rotation applies Q' along the face index: A[t] = sum_s Q[s,t]*M[s].
    The first q rotated faces span the tangent directions, the remaining
    n-q the residual directions. This builds the complete n x n Q and is
    kept as the reference for `bates_curvature`, which needs only the
    tangent faces.
    """
    q_mat, _, faces = _transformed_faces(v1, v2, qr=qr_full)
    q = faces.shape[1]
    rotated = np.einsum("st,sij->tij", q_mat, faces)
    return rotated[:q], rotated[q:]


def _face_sums(faces):
    """(sum of squared Frobenius norms, sum of squared traces) of a stack."""
    traces = np.einsum("tii->t", faces)
    return np.einsum("tij,tij->", faces, faces), float(traces @ traces)


def _sphere_average(frob, trace_sq, q):
    # Sums that came out of a subtraction may sit a rounding error below 0,
    # where the exact value is >= 0. `max` keeps a nan (it compares false).
    return math.sqrt(max(2.0 * frob + trace_sq, 0.0) / (q * (q + 2)))


def mean_square_curvature(faces, q):
    """Closed form of the sphere-averaged squared curvature of a face stack.

    For each symmetric face A the direction average of (d'Ad)^2 over the
    unit sphere is (2*tr(A^2) + tr(A)^2) / (q*(q+2)); summing over faces
    and taking the square root gives the mean-square curvature.
    """
    return _sphere_average(*_face_sums(faces), q)


@functools.lru_cache(maxsize=128)
def _critical(alpha, q, dfd):
    return 1.0 / math.sqrt(f_quantile(1.0 - alpha, q, dfd))


def bates_curvature(v1, v2, sigma_hat, alpha=0.05):
    """Scaled mean-square curvatures with their critical value.

    Returns a CurvatureReport carrying rho*K for the intrinsic and
    parameter-effects parts (rho = sigma_hat*sqrt(q)), the critical value
    1/sqrt(F(q, n-q, 1-alpha quantile)), advisory thresholds at 1x, 0.5x
    and 0.2x critical, and pass flags against the 1x threshold: planar_ok
    for the intrinsic measure, uniform_ok for the parameter-effects one.

    The intrinsic sums are the totals over the unrotated faces minus the
    tangent sums (see the module docstring); they agree with the explicit
    rotation of `rotated_faces` up to rounding.
    """
    q1, _, faces = _transformed_faces(v1, v2)
    n, q = q1.shape
    frob_total, trace_sq_total = _face_sums(faces)
    frob_p, trace_sq_p = _face_sums(np.einsum("st,sij->tij", q1, faces))
    rho = float(sigma_hat) * math.sqrt(q)
    rho_k_p = rho * _sphere_average(frob_p, trace_sq_p, q)
    rho_k_n = rho * _sphere_average(frob_total - frob_p, trace_sq_total - trace_sq_p, q)
    critical = _critical(alpha, q, n - q)
    return CurvatureReport(
        rho_k_n=rho_k_n,
        rho_k_p=rho_k_p,
        critical=critical,
        thresholds=(critical, 0.5 * critical, 0.2 * critical),
        planar_ok=rho_k_n < critical,
        uniform_ok=rho_k_p < critical,
        alpha=alpha,
    )


def box_bias(v1, v2, sigma_hat, theta_hat):
    """Leading-order estimation bias of theta_hat and its percentage form.

    bias = -(sigma_hat^2 / 2) * L L' * sum_i V1_i' * tr(M_i) with
    M_i = L' V2_i L. Entries of percent_bias where theta_hat is exactly 0
    are reported as nan.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    _, ell, faces = _transformed_faces(v1, v2)
    face_traces = np.einsum("sii->s", faces)
    bias = -0.5 * float(sigma_hat) ** 2 * (ell @ ell.T) @ (np.asarray(v1).T @ face_traces)
    percent = np.full_like(bias, np.nan)
    nonzero = theta_hat != 0.0
    percent[nonzero] = 100.0 * bias[nonzero] / theta_hat[nonzero]
    return BiasReport(bias=bias, percent_bias=percent)


def residual_screen(fit, frame, alpha=0.05):
    """Heteroscedasticity, autocorrelation and normality screens.

    Spearman tests relate |standardized residual| to the fitted values and
    to each raw regressor on the used rows (constant columns are skipped);
    the lag test is a Pearson correlation over consecutive-day residual
    pairs; normality is a KS test on the raw residuals. Flags compare
    p-values against `alpha`.
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

    dates = frame.dates[idx]
    step = np.diff(dates) == np.timedelta64(1, "D")
    lag1 = pearson_test(fit.std_residuals[:-1][step], fit.std_residuals[1:][step])
    ks = ks_normal(fit.residuals)
    return ResidualDiagnostics(
        spearman=spearman,
        lag1=lag1,
        ks_normality=ks,
        heteroscedastic=any(res.pvalue < alpha for res in spearman.values()),
        autocorrelated=lag1.pvalue < alpha,
        alpha=alpha,
    )


def _clean(value):
    value = float(value)
    return value if math.isfinite(value) else None


def diagnostics_report(curvature, bias, residuals):
    """JSON-ready dict combining the three diagnostic blocks.

    Curvature and bias values appear raw and rounded to 5 decimals; nan
    percent-bias markers become null.
    """
    return {
        "curvature": {
            "rho_k_n": curvature.rho_k_n,
            "rho_k_p": curvature.rho_k_p,
            "rho_k_n_rounded": round(curvature.rho_k_n, 5),
            "rho_k_p_rounded": round(curvature.rho_k_p, 5),
            "critical": curvature.critical,
            "thresholds": list(curvature.thresholds),
            "planar_ok": curvature.planar_ok,
            "uniform_ok": curvature.uniform_ok,
            "alpha": curvature.alpha,
        },
        "box_bias": {
            "bias": [float(v) for v in bias.bias],
            "bias_rounded": [round(float(v), 5) for v in bias.bias],
            "percent_bias": [_clean(v) for v in bias.percent_bias],
        },
        "residuals": {
            "spearman": {
                name: {"rho": res.statistic, "p": res.pvalue}
                for name, res in residuals.spearman.items()
            },
            "lag1": {"r": residuals.lag1.statistic, "p": residuals.lag1.pvalue},
            "ks_normality": {
                "D": residuals.ks_normality.statistic,
                "p": residuals.ks_normality.pvalue,
            },
            "heteroscedastic": residuals.heteroscedastic,
            "autocorrelated": residuals.autocorrelated,
            "alpha": residuals.alpha,
        },
    }
