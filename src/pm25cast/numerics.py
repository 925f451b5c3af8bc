"""Shared numerical routines: sign-fixed QR, F quantiles, rank and ECDF tests.

The statistical tests return asymptotic p-values from fixed closed forms
(t approximation for the correlation tests, Kolmogorov limit law for the
ECDF tests) so that results are reproducible across library versions.

P-values and quantiles come straight from the `scipy.special` routines
(`fdtri`, `stdtr`, `ndtr`, `kolmogorov`) that `scipy.stats` itself calls
for these distributions, and ranks from a small numpy mid-rank helper.
`scipy.stats` is never imported, and `scipy.special` only on the first
call that needs one of its four ufuncs (`_special`): importing
`scipy.stats` takes about a second and `scipy.special` about 0.35 s,
against 0.02-0.05 s of work in an `aggregate-ncep`, `forecast` or
`validate` run, none of which computes a p-value.
"""

import contextlib
import functools
import os
from typing import NamedTuple

import numpy as np

from .errors import RankDeficiencyError


# Relative tolerance on the R1 diagonal: entries below RANK_TOL * max|diag|
# flag rank deficiency.
RANK_TOL = 1e-10


class TestResult(NamedTuple):
    statistic: float
    pvalue: float


def _sign_fixed_qr_stack(a, mode):
    a = np.asarray(a, dtype=float)
    n, ncols = a.shape[-2:]
    if n < ncols:
        raise ValueError(f"need n >= q, got shape {a.shape[-2:]}")
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[:, None, None], a, 0.0)
    q_mat, r_mat = np.linalg.qr(a, mode=mode)
    r1 = r_mat[:, :ncols, :]
    sign = np.where(np.diagonal(r1, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    r1 = r1 * sign[:, :, None]
    q_mat[:, :, :ncols] *= sign[:, None, :]
    diag = np.abs(np.diagonal(r1, axis1=-2, axis2=-1))
    fault = [None] * a.shape[0]
    if ncols:
        low = diag.min(axis=-1)
        high = diag.max(axis=-1)
        for k in np.flatnonzero((high == 0.0) | (low <= RANK_TOL * high)):
            fault[k] = RankDeficiencyError(
                f"columns numerically dependent (min |R1 diag| = {low[k]:.3e})"
            )
    for k in np.flatnonzero(~finite):
        fault[k] = ValueError("cannot factor a matrix with non-finite entries")
    return q_mat, r1, fault


def qr_stack(a):
    """Reduced QR of every matrix in a (k, n, q) stack, in one numpy call.

    Each matrix gets the sign convention, rank check and non-finite check
    of `qr_full`, but only the first q columns of its orthogonal factor, so
    memory and time grow with n*q rather than n*n. A failure is reported
    per matrix instead of raised, so one bad matrix does not stop the
    others.

    Returns
    -------
    q1 : ndarray, shape (k, n, q)
        Orthonormal basis of the column space of each matrix.
    r1 : ndarray, shape (k, q, q)
        Upper-triangular factors with a strictly positive diagonal.
    fault : list of length k
        None for a matrix that factored; otherwise the exception `qr_full`
        would raise on it (its factors are then meaningless). A non-finite
        matrix is not factored (ValueError): this is the one finiteness
        check `solver.fit_stack` makes on a Jacobian.
    """
    return _sign_fixed_qr_stack(a, "reduced")


def solve_upper(r, b):
    """Solve r x = b for upper-triangular r, stacked over leading axes.

    `r` is (..., q, q); `b` is (..., q) or (..., q, m), with the same
    leading axes as `r`. Back substitution runs column by column in
    elementwise numpy operations, so each system's result does not depend
    on the others in the stack.
    """
    r = np.asarray(r, dtype=float)
    b = np.asarray(b, dtype=float)
    vector = b.ndim == r.ndim - 1
    x = (b[..., None] if vector else b).copy()
    for j in range(r.shape[-1] - 1, -1, -1):
        x[..., j, :] /= r[..., j, j, None]
        x[..., :j, :] -= r[..., :j, j, None] * x[..., j, None, :]
    return x[..., 0] if vector else x


def qr_full(a):
    """Complete QR factorisation with a positive R1 diagonal.

    This is the reference route: it builds the whole n x n orthogonal
    factor, which the tests use to check the reduced route (`qr_stack`)
    and the curvature shortcut built on it. Production code paths call
    `qr_stack`.

    Parameters
    ----------
    a : ndarray, shape (n, q)
        Finite matrix with n >= q and full column rank.

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
        If any diagonal entry of R1 falls below RANK_TOL times the largest.

    Notes
    -----
    LAPACK leaves the signs of the factors unspecified. Flipping rows of
    R1 and the matching columns of Q so that diag(R1) > 0 makes every
    downstream quantity that depends on Q itself (rotated second-derivative
    arrays, bias vectors) reproducible bit-for-bit across BLAS builds.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {a.shape}")
    q_mat, r1, fault = _sign_fixed_qr_stack(a[None], "complete")
    if fault[0] is not None:
        raise fault[0]
    return q_mat[0], r1[0]


def vecdot(a, b):
    """Dot product over the last axis, broadcast over the leading axes.

    Gives the same bits as numpy 2's `np.vecdot` on real input (each
    result is one BLAS dot of its own two vectors, so it does not depend
    on the other rows), but runs on numpy 1.x too.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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


@functools.cache
def _special():
    """The `scipy.special` module, imported on the first call."""
    from scipy import special

    return special


def f_quantile(p, dfn, dfd):
    """Quantile of the F(dfn, dfd) distribution at probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return float(_special().fdtri(dfn, dfd, p))


def _t_two_sided_p(t_stat, df):
    return float(2.0 * _special().stdtr(df, -abs(t_stat)))


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
    return pearson_test(_midranks(x), _midranks(y))


def _midranks(x):
    """Ranks 1..n of a 1-d sample, ties sharing the mean of their ranks.

    A sample holding a nan gets nan ranks throughout, since its order is
    undefined.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # 0-based start of each tie group, and one past its end
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _ecdf_distance(a_sorted, b_sorted):
    """Sup-distance between the ECDF of each row of `a_sorted` and that of `b_sorted`.

    Both ECDFs are taken over the pooled points of a row and b, as
    searchsorted(sample, pooled, side="right") / size, but b is searched
    once for all rows together.
    """
    k, na = a_sorted.shape
    nb = b_sorted.size
    # at the points of b: #{a <= b_j} = #{i : #{b < a_i} <= j}
    below = np.searchsorted(b_sorted, a_sorted, side="left")
    bins = (below + (nb + 1) * np.arange(k)[:, None]).ravel()
    hist = np.bincount(bins, minlength=k * (nb + 1)).reshape(k, nb + 1)
    a_at_b = np.cumsum(hist, axis=1)[:, :nb] / na
    b_at_b = np.searchsorted(b_sorted, b_sorted, side="right") / nb
    # at the points of a: #{a <= a_i} is one past the last tie of a_i
    ends = np.where(
        np.concatenate([a_sorted[:, 1:] != a_sorted[:, :-1], np.ones((k, 1), bool)], axis=1),
        np.arange(1, na + 1),
        na,
    )
    a_at_a = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1] / na
    b_at_a = np.searchsorted(b_sorted, a_sorted, side="right") / nb
    return np.maximum(
        np.abs(a_at_a - b_at_a).max(axis=1, initial=0.0),
        np.abs(a_at_b - b_at_b).max(axis=1, initial=0.0),
    )


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the sup-distance between the two empirical CDFs evaluated over
    the pooled sample; p = K(sqrt(na*nb/(na+nb)) * D) where K is the
    Kolmogorov survival function. Identical samples give (0, 1).

    A 2-d `a` is a stack of samples, one per row, each tested against the
    same `b`; statistic and p-value are then arrays with one entry per row.
    """
    a = np.asarray(a, dtype=float)
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape[-1] == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    d = _ecdf_distance(np.sort(a.reshape(-1, a.shape[-1]), axis=-1), b)
    en = np.sqrt(a.shape[-1] * b.size / (a.shape[-1] + b.size))
    p = _special().kolmogorov(en * d)
    if a.ndim == 1:
        return TestResult(float(d[0]), float(p[0]))
    return TestResult(d, p)


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
    cdf = _special().ndtr((x - x.mean()) / sd)
    grid = np.arange(1, n + 1) / n
    d = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / n)))))
    return TestResult(d, float(_special().kolmogorov(np.sqrt(n) * d)))
