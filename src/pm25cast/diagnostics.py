"""Nonlinearity diagnostics: mean-square curvatures, bias, residual screens.

The curvature measures rest on the faces M_s = L' V2_s L, L = R1^-1, of a
QR factorisation V1 = Q1 R1 of the Jacobian. Rotating them by the complete
orthogonal factor, A_t = sum_s Q[s,t] M_s, splits them into q tangent
faces (parameter-effects part) and n-q residual faces (intrinsic part)
(Bates & Watts 1980). Neither Q nor a face is formed: each V2_s is
sum_k C[s,k] E_k over the m pairs (i, j) of its family's support
(`model.Faces`; E_k is the symmetric unit matrix of pair k), so
A_t = L' (sum_k W[t,k] E_k) L with W = Q'C, and one R factor of
[V1 | C] = Q [[R1, R12], [0, R22]] holds every row of W that is not 0:
R12 = Q1'C is the tangent part, R22 the residual part. With P = L L',
tau_k = tr(E_k P) and K_kl = tr(E_k P E_l P), a part with rows W has
sum_t ||A_t||_F^2 = <W'W, K> and sum_t tr(A_t)^2 = |W tau|^2. Box bias,
-sigma^2/2 L R12 tau, is L times the tangent faces' traces: the curvature
pass reports it, so one factor per fit serves `box_bias` too. The
n x (q + m) matrix is the largest array. A dense (n, q, q) array is read on
its full upper triangle (m = q(q+1)/2). `rotated_faces` keeps the explicit
rotation of all n faces by the complete Q as the reference for tests.

Mean-square curvatures come from the closed-form sphere integral; reports
carry them premultiplied by rho = sigma_hat*sqrt(q) so they compare
directly against 1/sqrt(F(q, n-q, alpha)). `bates_curvature` also takes a
stack of fits (the bootstrap screens each stack of refits in one call).
`curvature_at` runs the pass at theta, from `model.jacobian` and
`model.faces` there; `fit`, the bootstrap screen and the correction use it.
"""

import math
from dataclasses import dataclass

import numpy as np
from . import model
from .numerics import (_midranks, f_quantile, ks_normal, pearson_test, qr_full, r_factor,
                       solve_upper, vecdot)


@dataclass(frozen=True)
class CurvatureReport:
    """Scaled curvatures, critical value and Box bias, as `bates_curvature`
    made them. Derived: advisory `thresholds` at 1x, 0.5x and 0.2x critical,
    and pass flags against 1x, `planar_ok` for rho_k_n and `uniform_ok` for
    rho_k_p (bools for one fit, (k,) arrays for a stack)."""

    rho_k_n: float
    rho_k_p: float
    critical: float
    alpha: float
    bias: np.ndarray  # (q,) for one fit, (k, q) for a stack

    thresholds = property(lambda self: (self.critical, 0.5 * self.critical, 0.2 * self.critical))
    planar_ok = property(lambda self: self.rho_k_n < self.critical)
    uniform_ok = property(lambda self: self.rho_k_p < self.critical)


@dataclass(frozen=True)
class BiasReport:
    """Box bias of `theta_hat`. Derived: `percent_bias`, 100 * bias /
    theta_hat, nan where theta_hat is exactly 0."""

    bias: np.ndarray
    theta_hat: np.ndarray

    percent_bias = property(lambda self: np.divide(
        100.0 * self.bias, self.theta_hat, out=np.full_like(self.bias, np.nan),
        where=self.theta_hat != 0.0))


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
    """L, R12, R22, tau and K of one Jacobian (n, q) or a stack (k, n, q),
    each with a leading k axis, and `r_factor`'s faults (a faulted sample
    reads nan). `v2` is the matching (..., n, q, q) array or `model.Faces`."""
    v1 = np.asarray(v1, dtype=float)
    n, q = v1.shape[-2:]
    if n <= q:
        raise ValueError(f"need n > q faces (n={n}, q={q})")
    if not isinstance(v2, model.Faces):
        v2 = np.asarray(v2, dtype=float)
        if v2.shape != v1.shape + (q,):
            raise ValueError(f"second-derivative array must be ({n}, {q}, {q})")
        upper = np.triu_indices(q)
        v2 = model.Faces(v2[..., upper[0], upper[1]], tuple(zip(*upper)))
    entries, pairs = np.asarray(v2.entries, dtype=float), v2.pairs
    m = len(pairs)
    if entries.shape != v1.shape[:-1] + (m,):
        raise ValueError(f"face entries must be ({n}, {m})")
    r_mat, fault = r_factor(np.concatenate([v1, entries], axis=-1).reshape(-1, n, q + m), q)
    r_mat[[f is not None for f in fault]] = np.nan
    k = r_mat.shape[0]
    ell = solve_upper(r_mat[:, :q, :q], np.broadcast_to(np.eye(q), (k, q, q)))
    unit = np.zeros((m, q, q))
    for at, (i, j) in enumerate(pairs):
        unit[at, i, j] = unit[at, j, i] = 1.0
    # E_k P for every pair, so tau_k = tr(E_k P), K_kl = <E_k P, (E_l P)'>
    ep = unit @ (ell @ np.swapaxes(ell, -1, -2))[:, None]
    tau = np.trace(ep, axis1=-2, axis2=-1)
    k_mat = ep.reshape(k, m, q * q) @ np.swapaxes(ep, -1, -2).reshape(k, m, q * q).swapaxes(-1, -2)
    return ell, r_mat[:, :q, q:], r_mat[:, q:, q:], tau, k_mat, fault


def _weighted_sums(weights, tau, k_mat):
    """(sum of squared Frobenius norms, traces) of the faces
    L' (sum_k weights[t, k] E_k) L, one pair per sample of the stack."""
    k = weights.shape[0]
    gram = np.swapaxes(weights, -1, -2) @ weights
    return vecdot(gram.reshape(k, -1), k_mat.reshape(k, -1)), (weights @ tau[..., None])[..., 0]


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


def _sphere_average(frob, trace_sq, q):
    # A sum that rounds a hair below its exact value 0 must not reach the
    # square root negative. `maximum` keeps a nan.
    return np.sqrt(np.maximum(2.0 * frob + trace_sq, 0.0) / (q * (q + 2)))


def mean_square_curvature(faces, q):
    """Closed form of the sphere-averaged squared curvature of a face stack.

    For each symmetric face A the direction average of (d'Ad)^2 over the
    unit sphere is (2*tr(A^2) + tr(A)^2) / (q*(q+2)); summing over faces
    and taking the square root gives the mean-square curvature.
    """
    faces = np.asarray(faces, dtype=float)
    flat, traces = faces.ravel(), np.trace(faces, axis1=-2, axis2=-1).ravel()
    return float(_sphere_average(flat @ flat, traces @ traces, q))


def bates_curvature(v1, v2, sigma_hat, alpha=0.05):
    """Scaled mean-square curvatures with their critical value.

    Returns a CurvatureReport carrying rho*K for the intrinsic and
    parameter-effects parts (rho = sigma_hat*sqrt(q)), the critical value
    1/sqrt(F(q, n-q, 1-alpha quantile)) and the Box bias of the fit (see
    `box_bias`), read from the same tangent traces. `v2` is the dense
    (n, q, q) second-derivative array or `model.faces`. Both parts agree
    with the explicit rotation of `rotated_faces` up to rounding.

    Stacked input, `v1` (k, n, q), `v2` (k, n, q, q) or Faces with
    (k, n, m) entries, and `sigma_hat` (k,), gives one report of (k,)
    arrays, each sample's bits as alone. There a Jacobian that `qr_full`
    would reject gives nan measures and failed flags instead of raising.
    """
    single = np.ndim(v1) == 2
    ell, tangent, residual, tau, k_mat, fault = _factor(v1, v2)
    if single and fault[0] is not None:
        raise fault[0]
    k, q = ell.shape[:2]
    n = np.shape(v1)[-2]
    sigma = np.asarray(sigma_hat, dtype=float).reshape(k)
    rho = sigma * math.sqrt(q)
    frob_p, traces_p = _weighted_sums(tangent, tau, k_mat)
    frob_n, traces_n = _weighted_sums(residual, tau, k_mat)
    rho_k_p = rho * _sphere_average(frob_p, vecdot(traces_p, traces_p), q)
    rho_k_n = rho * _sphere_average(frob_n, vecdot(traces_n, traces_n), q)
    bias = ((-0.5 * sigma ** 2)[:, None, None] * ell @ traces_p[..., None])[..., 0]
    critical = 1.0 / math.sqrt(f_quantile(1.0 - alpha, q, n - q))
    if single:
        rho_k_n, rho_k_p, bias = float(rho_k_n[0]), float(rho_k_p[0]), bias[0]
    return CurvatureReport(rho_k_n, rho_k_p, critical, alpha, bias)


def curvature_at(spec, theta, frame, sigma_hat, rows=None, alpha=0.05):
    """`bates_curvature` of the model at `theta` on frame `rows` (None for
    every row): one fit, or a (k, q) stack of thetas over a (k, m) stack of
    samples with (k,) `sigma_hat`. The report's `bias` is Box's bias there."""
    v1, v2 = model.jacobian(spec, theta, frame, rows), model.faces(spec, theta, frame, rows)
    return bates_curvature(v1, v2, sigma_hat, alpha)


def box_bias(v1, v2, sigma_hat, theta_hat):
    """Leading-order estimation bias of theta_hat and its percentage form.

    bias = -(sigma_hat^2 / 2) * L L' * sum_i V1_i' * tr(M_i) with
    M_i = L' V2_i L, which is -(sigma_hat^2 / 2) * L R12 tau (see the
    module docstring), read from `bates_curvature`'s report. `v2` is as for
    `bates_curvature`. percent_bias is nan where theta_hat is exactly 0.
    """
    if np.ndim(v1) != 2:
        raise ValueError(f"box_bias takes one Jacobian (n, q), got shape {np.shape(v1)}")
    return BiasReport(bates_curvature(v1, v2, sigma_hat).bias, np.asarray(theta_hat, dtype=float))


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
    # spearman_test's statistic, with |standardized residual| ranked once
    std = fit.std_residuals
    abs_sr_ranks = _midranks(np.abs(std))

    spearman = {"fitted": pearson_test(abs_sr_ranks, _midranks(fit.fitted))}
    for name, col in model.regressor_columns(fit.spec, frame).items():
        if np.ptp(col) == 0.0:
            continue
        spearman[name] = pearson_test(abs_sr_ranks, _midranks(col))

    step = frame.day_steps(idx)
    lag1 = None
    if step.sum() >= 3:
        lag1 = pearson_test(std[:-1][step], std[1:][step])
    return ResidualDiagnostics(
        spearman=spearman, lag1=lag1, ks_normality=ks_normal(fit.residuals), alpha=alpha
    )


def diagnostics_report(curvature, bias, residuals):
    """Dict combining the three diagnostic blocks, for data._write_json.

    Curvature and bias values appear raw and rounded to 5 decimals. A
    block passed as None (not computed) is written as null.
    """
    report = {"curvature": None, "box_bias": None, "residuals": None}
    if curvature is not None:
        report["curvature"] = {
            "rho_k_n": curvature.rho_k_n,
            "rho_k_p": curvature.rho_k_p,
            "rho_k_n_rounded": round(curvature.rho_k_n, 5),
            "rho_k_p_rounded": round(curvature.rho_k_p, 5),
            "critical": curvature.critical,
            "thresholds": curvature.thresholds,
            "planar_ok": curvature.planar_ok,
            "uniform_ok": curvature.uniform_ok,
            "alpha": curvature.alpha,
        }
    if bias is not None:
        report["box_bias"] = {
            "bias": bias.bias,
            "bias_rounded": [round(float(v), 5) for v in bias.bias],
            "percent_bias": bias.percent_bias,
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
