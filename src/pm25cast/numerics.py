"""Shared numerical routines: sign-fixed QR, F quantiles, rank and ECDF tests.

The statistical tests return asymptotic p-values from fixed closed forms
(t approximation for the correlation tests, Kolmogorov limit law for the
ECDF tests) so that results are reproducible across library versions.

The four distribution functions behind them are written out here with the
`math` module, so numpy is the only run-time dependency: the Kolmogorov
survival function from its two series, the regularized incomplete beta
from a continued fraction (t tails, and F quantiles by Newton's method on
it), and the normal CDF from `math.erfc`. They agree with `scipy.special`
to about 1e-14 relative; tests/test_numerics.py holds them to it. Ranks
come from a small numpy mid-rank helper.

`one_blas_thread` runs every loaded OpenBLAS on one thread for the length
of a command, so the bits of a long fit do not follow the thread count.
"""

import contextlib
import functools
import math
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


def r_factor(a, q):
    """Sign-fixed R factor of every matrix in a (k, n, c) stack, c >= q.

    One numpy call forms R alone (LAPACK's geqrf, no orthogonal factor).
    The sign convention (positive R1 diagonal) and the rank and non-finite
    checks of `qr_full` apply to the first q columns only; the columns
    after them (a residual vector, face entries) ride along, so their rows
    of R above q hold their projections Q1'c and the rows below the
    triangular factor of what Q1 leaves of them.

    Returns (r, fault): r is (k, min(n, c), c); fault[k] is None for a
    matrix that factored, otherwise the exception `qr_full` would raise on
    its first q columns (its factor is then meaningless; first q columns
    that are not finite are not factored). So one bad matrix does not stop
    the others.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2] < q:
        raise ValueError(f"need n >= q, got shape {a.shape[-2:]}")
    finite = np.isfinite(a[..., :q]).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[:, None, None], a, 0.0)
    r_mat = np.linalg.qr(a, mode="r")
    diag = np.diagonal(r_mat[:, :q, :q], axis1=-2, axis2=-1)
    r_mat[:, :q] *= np.where(diag < 0.0, -1.0, 1.0)[:, :, None]
    fault = [None] * a.shape[0]
    if q:
        low, high = diag.min(axis=-1), diag.max(axis=-1)  # diag now reads |diag|
        for k in np.flatnonzero((high == 0.0) | (low <= RANK_TOL * high)):
            fault[k] = RankDeficiencyError(
                f"columns numerically dependent (min |R1 diag| = {low[k]:.3e})"
            )
    for k in np.flatnonzero(~finite):
        fault[k] = ValueError("cannot factor a matrix with non-finite entries")
    return r_mat, fault


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
    factor, which the tests use to check the R-only route (`r_factor`)
    and the curvature shortcut built on it. Production code paths call
    `r_factor`.

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
    fault = r_factor(a[None], a.shape[1])[1][0]
    if fault is not None:
        raise fault
    q_mat, r_mat = np.linalg.qr(a, mode="complete")
    sign = np.where(np.diag(r_mat) < 0.0, -1.0, 1.0)
    q_mat[:, : sign.size] *= sign
    return q_mat, r_mat[: sign.size] * sign[:, None]


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
# renamed scipy-openblas builds (numpy wheels bundle the last; a process
# that also imports scipy holds a second one)
_OPENBLAS_THREAD_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


@functools.lru_cache(maxsize=1)
def _openblas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Found through /proc/self/maps, so the list is empty off Linux or when
    numpy uses another BLAS.
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

    This holds the bits: OpenBLAS splits a dot product longer than 10000
    entries across its threads, and the RSS goes through one (`vecdot`), so
    without the pin a fit past 10000 rows would follow the core count and
    the thread variables of the environment. The pin is kept whatever the
    environment says. It saves no time now that each fit reads everything
    from one R-only QR; on a 2-core host it lowers the benchmark's fit-large
    peak RSS by 0.17-0.30 MB (medians of two sets of paired runs).
    `cli.main` is the one caller: `gauss_newton` or `run_simulation` called
    directly are not pinned, so their bits past 10000 rows follow the
    thread count. Without OpenBLAS this does nothing.
    """
    controls = _openblas_thread_controls()
    before = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, before):
            setter(count)


# The special functions here, and the per-element exp and log of `data` and
# `forecast`, work on Python floats with the `math` module: numpy's exp, log
# and erfc follow CPU-dependent SIMD paths and differ from it in the last bit
# on some inputs.

_KOLMOGOROV_SWITCH = 0.82  # the two series of the Kolmogorov law meet here
# Stirling series of log Gamma(z) - (z - 1/2) log z + z - log sqrt(2 pi):
# B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..8, to double precision for z >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_FROM = 10.0


def _elementwise(fn, x):
    """A scalar math function over every entry of the float array x."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _normal_cdf(z):
    """Standard normal CDF, 0.5 * erfc(-z / sqrt(2)), elementwise."""
    return 0.5 * _elementwise(math.erfc, -np.asarray(z, dtype=float) / math.sqrt(2.0))


def _kolmogorov_sf(x):
    """P(K > x) for the Kolmogorov limit law, at one float x.

    Up to x = 0.82 it is 1 - sqrt(2 pi)/x * sum_k u^((2k-1)^2) with
    u = exp(-pi^2 / (8 x^2)), above it 2 * sum_k (-1)^(k-1) v^(k^2) with
    v = exp(-2 x^2). Each takes one math.exp; the powers are products,
    and three and six terms reach double precision.
    """
    if x <= _KOLMOGOROV_SWITCH:
        if x <= 0.0:
            return 1.0
        u = math.exp(-(math.pi ** 2 / 8.0) / (x * x))
        u8 = u * u
        u8 *= u8
        u8 *= u8
        return 1.0 - math.sqrt(2.0 * math.pi) / x * u * (1.0 + u8 * (1.0 + u8 * u8))
    v = math.exp(-2.0 * x * x)
    v2 = v * v
    v3 = v2 * v
    v5 = v3 * v2
    v7 = v5 * v2
    v9 = v7 * v2
    return 2.0 * v * (1.0 - v3 * (1.0 - v5 * (1.0 - v7 * (1.0 - v9 * (1.0 - v9 * v2)))))


def _stirling_rest(z):
    zz = 1.0 / (z * z)
    total = 0.0
    for coef in reversed(_STIRLING):
        total = total * zz + coef
    return total / z


def _log_beta(a, b):
    """log B(a, b). From 10 on, lgamma(big) - lgamma(small + big) comes from
    Stirling's series, where the two lgamma values would cancel."""
    small, big = min(a, b), max(a, b)
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(small) + small - (big - 0.5) * math.log1p(small / big)
            - small * math.log(small + big) + _stirling_rest(big) - _stirling_rest(small + big))


def _beta_fraction(a, b, x, y):
    """The continued fraction F of I_x(a, b) = x^a y^b / (B(a, b) F).

    The even form of DiDonato and Morris (1992), summed by the modified
    Lentz method: its terms use y = 1 - x beside x, so none cancels when x
    is near 1. It converges fast when lam = a - (a + b) x >= 0.
    """
    tiny = 1e-300
    lam = a * y - b * x
    f = c = a * (lam + 1.0) / (a + 1.0)
    d = 0.0
    for m in range(1, 10_000):
        k = a + 2 * m - 1.0
        num = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x / (k * k)
        den = m + m * (b - m) * x / k + (a + m) * (lam + 1.0 + m * (1.0 + y)) / (k + 2.0)
        d = 1.0 / ((den + num * d) or tiny)
        c = (den + num / c) or tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 2.5e-16:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _betainc(a, b, x, y):
    """I_x(a, b), its complement I_y(b, a) with y = 1 - x, and x^a y^b / B(a, b).

    Taking both x and y keeps either tail's relative precision. The
    continued fraction is summed on the side where it converges fast, and
    the other side is one minus it.
    """
    if x <= 0.0:
        return 0.0, 1.0, 0.0
    if y <= 0.0:
        return 1.0, 0.0, 0.0
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b))
    if a * y >= b * x:
        lower = front / _beta_fraction(a, b, x, y)
        return lower, 1.0 - lower, front
    upper = front / _beta_fraction(b, a, y, x)
    return 1.0 - upper, upper, front


def f_quantile(p, dfn, dfd):
    """Quantile of the F(dfn, dfd) distribution at probability p.

    Newton's method on u = log f, kept inside a bisection bracket, solves
    log I_x(dfn/2, dfd/2) = log p with x = dfn f / (dfn f + dfd); above the
    median it solves the upper tail I_y(dfd/2, dfn/2) = 1 - p instead, so
    that both tails keep their relative precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if not (0.0 < dfn < math.inf and 0.0 < dfd < math.inf):
        return math.nan
    dfn, dfd = float(dfn), float(dfd)
    upper = p > 0.5
    target = 1.0 - p if upper else p
    # the lower tail rises with u and the upper one falls, both at the rate
    # x^a y^b / B(a, b), the `front` of _betainc
    sign = -1.0 if upper else 1.0
    u, lo, hi = 0.0, -745.0, 709.0  # exp(u) stays finite and above 0
    for _ in range(200):
        f = math.exp(u)
        lower_tail, upper_tail, front = _betainc(
            0.5 * dfn, 0.5 * dfd, dfn * f / (dfn * f + dfd), dfd / (dfn * f + dfd))
        tail = upper_tail if upper else lower_tail
        if (tail < target) == upper:
            hi = u
        else:
            lo = u
        step = -sign * math.log(tail / target) * tail / front if tail > 0.0 < front else math.nan
        if abs(step) < 1e-10:
            # Newton converges quadratically: the error left is far below 1e-10
            return math.exp(u + step)
        u = u + step if lo < u + step < hi else 0.5 * (lo + hi)
    return math.exp(u)


def _t_two_sided_p(t_stat, df):
    """2 P(T_df > |t|) = I_x(df/2, 1/2) with x = df / (df + t^2)."""
    t = float(t_stat)
    t_sq = t * t
    if math.isnan(t_sq):
        return math.nan
    return _betainc(0.5 * df, 0.5, df / (df + t_sq), t_sq / (df + t_sq))[0]


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


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    D is the sup-distance between the two empirical CDFs; p =
    K(sqrt(na*nb/(na+nb)) * D) where K is the Kolmogorov survival function.
    Identical samples give (0, 1).

    F_a is flat between the points of `a`, so the sup is reached at one of
    them or just below one. At a point F_a is the last position of its tie
    group over na, just below it the first position less one; F_b there is
    b's count of points <= it (or < it) over nb. Every candidate is a count
    over na less a count over nb, and the largest is also the value at a
    pooled point, so D has the bits of the sup over the pooled sample.

    A 2-d `a` is a stack of samples, one per row, each tested against the
    same `b`; statistic and p-value are then arrays with one entry per row.
    """
    a = np.asarray(a, dtype=float)
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape[-1] == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    rows = np.sort(a.reshape(-1, a.shape[-1]), axis=-1)
    na, nb = rows.shape[1], b.size
    # step[:, j]: rows[:, j - 1] and rows[:, j] differ, or j is an end of the row
    step = np.ones((rows.shape[0], na + 1), bool)
    step[:, 1:-1] = rows[:, 1:] != rows[:, :-1]
    pos = np.arange(na + 1)
    # per point, #{a < point} and #{a <= point}: where its tie group starts and ends
    first = np.maximum.accumulate(np.where(step[:, :-1], pos[:-1], 0), axis=1)
    last = np.minimum.accumulate(np.where(step[:, :0:-1], pos[:0:-1], na), axis=1)[:, ::-1]
    d = np.maximum(
        np.abs(last / na - np.searchsorted(b, rows, side="right") / nb).max(axis=1),
        np.abs(first / na - np.searchsorted(b, rows, side="left") / nb).max(axis=1),
    )
    en = np.sqrt(na * nb / (na + nb))
    p = _elementwise(_kolmogorov_sf, en * d)
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
    cdf = _normal_cdf((x - x.mean()) / sd)
    grid = np.arange(1, n + 1) / n
    d = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / n)))))
    return TestResult(d, _kolmogorov_sf(math.sqrt(n) * d))
