"""Shared numerical routines: sign-fixed QR, F quantiles, rank and ECDF tests.

The statistical tests return asymptotic p-values from fixed closed forms
(t approximation for the correlation tests, Kolmogorov limit law for the
ECDF tests) so that results are reproducible across library versions.
"""

import contextlib
import functools
import os
from typing import NamedTuple

import numpy as np
from scipy import special, stats

from .errors import RankDeficiencyError


class TestResult(NamedTuple):
    statistic: float
    pvalue: float


def _sign_fixed_qr(a, mode, rank_tol):
    a = np.asarray(a, dtype=float)
    n, ncols = a.shape
    if n < ncols:
        raise ValueError(f"need n >= q, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("cannot factor a matrix with non-finite entries")
    q_mat, r_mat = np.linalg.qr(a, mode=mode)
    r1 = r_mat[:ncols, :]
    for j in range(ncols):
        if r1[j, j] < 0.0:
            r1[j, :] = -r1[j, :]
            q_mat[:, j] = -q_mat[:, j]
    diag = np.abs(np.diag(r1))
    if diag.size and (diag.max() == 0.0 or diag.min() <= rank_tol * diag.max()):
        raise RankDeficiencyError(
            f"columns numerically dependent (min |R1 diag| = {diag.min():.3e})"
        )
    return q_mat, r1


def qr_full(a, rank_tol=1e-10):
    """Complete QR factorisation with a positive R1 diagonal.

    This is the reference route: it builds the whole n x n orthogonal
    factor, which the tests use to check the reduced route (`qr_thin`)
    and the curvature shortcut built on it. Production code paths call
    `qr_thin`.

    Parameters
    ----------
    a : ndarray, shape (n, q)
        Finite matrix with n >= q and full column rank.
    rank_tol : float
        Relative tolerance on the R1 diagonal; entries below
        ``rank_tol * max|diag|`` flag rank deficiency.

    Returns
    -------
    q_mat : ndarray, shape (n, n)
        Orthogonal factor, including the residual-space columns.
    r1 : ndarray, shape (q, q)
        Upper-triangular factor with a strictly positive diagonal.

    Raises
    ------
    ValueError
        If n < q or `a` holds a non-finite entry.
    RankDeficiencyError
        If any diagonal entry of R1 falls below tolerance.

    Notes
    -----
    LAPACK leaves the signs of the factors unspecified. Flipping rows of
    R1 and the matching columns of Q so that diag(R1) > 0 makes every
    downstream quantity that depends on Q itself (rotated second-derivative
    arrays, bias vectors) reproducible bit-for-bit across BLAS builds.
    """
    return _sign_fixed_qr(a, "complete", rank_tol)


def qr_thin(a, rank_tol=1e-10):
    """Reduced QR factorisation with a positive R1 diagonal.

    Same sign convention, rank check and errors as `qr_full`, but returns
    only the first q columns of the orthogonal factor, so memory and time
    grow with n*q rather than n*n.

    Returns
    -------
    q1 : ndarray, shape (n, q)
        Orthonormal basis of the column space of `a`.
    r1 : ndarray, shape (q, q)
        Upper-triangular factor with a strictly positive diagonal.
    """
    return _sign_fixed_qr(a, "reduced", rank_tol)


# OpenBLAS thread-count entry points, as exported by plain, ILP64 and the
# renamed scipy-openblas builds (numpy and scipy wheels each bundle one)
_OPENBLAS_THREAD_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]
_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@functools.lru_cache(maxsize=1)
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Found through /proc/self/maps, so the list is empty off Linux or when
    numpy and scipy use another BLAS.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = (line.split(maxsplit=5) for line in maps if "openblas" in line.lower())
            paths = {f[5].strip() for f in fields if len(f) == 6}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then restore.

    The matrices here are n x q with q <= 7: OpenBLAS still splits the
    level-2 calls of a 3000 x 7 QR across threads, gains nothing from it,
    and its helper threads spin after each call, so wall times follow the
    load on the other cores. A thread count set in the environment
    (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, OMP_NUM_THREADS) is left alone,
    and without OpenBLAS this does nothing.
    """
    if any(name in os.environ for name in _THREAD_ENV_VARS):
        yield
        return
    controls = _openblas_thread_controls()
    before = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, before):
            setter(count)


def f_quantile(p, dfn, dfd):
    """Quantile of the F(dfn, dfd) distribution at probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(stats.f.ppf(p, dfn, dfd))


def _t_two_sided_p(t_stat, df):
    return float(2.0 * stats.t.sf(abs(t_stat), df))


def pearson_test(x, y):
    """Pearson correlation with the two-sided t approximation p-value.

    p = 2 * P(T_{n-2} > |r| * sqrt((n-2) / (1-r^2))). A correlation of
    exactly +-1 gives p = 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt((xd * xd).sum() * (yd * yd).sum())
    if denom == 0.0:
        raise ValueError("zero variance input")
    r = float(np.clip((xd * yd).sum() / denom, -1.0, 1.0))
    if abs(r) == 1.0:
        return TestResult(r, 0.0)
    t_stat = r * np.sqrt((n - 2) / (1.0 - r * r))
    return TestResult(r, _t_two_sided_p(t_stat, n - 2))


def spearman_test(x, y):
    """Spearman rank correlation using mid-ranks for ties.

    The statistic is the Pearson correlation of the rank vectors; the
    p-value reuses the same two-sided t approximation on n-2 degrees of
    freedom. Invariant under strictly increasing transforms of either
    argument.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    rx = stats.rankdata(x)
    ry = stats.rankdata(y)
    return pearson_test(rx, ry)


def _ecdf_distance(a_sorted, b_sorted):
    pooled = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, pooled, side="right") / a_sorted.size
    cdf_b = np.searchsorted(b_sorted, pooled, side="right") / b_sorted.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the sup-distance between the two empirical CDFs evaluated over
    the pooled sample; p = K(sqrt(na*nb/(na+nb)) * D) where K is the
    Kolmogorov survival function. Identical samples give (0, 1).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    d = _ecdf_distance(a, b)
    en = np.sqrt(a.size * b.size / (a.size + b.size))
    return TestResult(d, float(special.kolmogorov(en * d)))


def ks_normal(x):
    """One-sample KS test against a normal fitted by mean and sd (ddof=1).

    D compares the empirical CDF with the fitted normal CDF at the sample
    points (both one-sided gaps); p = K(sqrt(n) * D). The estimated
    parameters make the p-value approximate, which is acceptable for a
    screening diagnostic.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("zero variance input")
    cdf = stats.norm.cdf(x, loc=x.mean(), scale=sd)
    grid = np.arange(1, n + 1) / n
    d = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / n)))))
    return TestResult(d, float(special.kolmogorov(np.sqrt(n) * d)))
