import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from pm25cast import RankDeficiencyError
from pm25cast import numerics
from pm25cast.numerics import (
    f_quantile,
    ks_normal,
    ks_two_sample,
    pearson_test,
    qr_full,
    r_factor,
    solve_upper,
    spearman_test,
)

from reference import qr_stack


# ---------------------------------------------------------------- qr_full


def test_qr_identity():
    q, r1 = qr_full(np.eye(4))
    assert np.allclose(q, np.eye(4))
    assert np.allclose(r1, np.eye(4))


def test_qr_single_column():
    # [[3],[4]] has norm 5; positive-diagonal convention fixes the sign.
    q, r1 = qr_full(np.array([[3.0], [4.0]]))
    assert r1.shape == (1, 1)
    assert abs(r1[0, 0] - 5.0) < 1e-12
    assert np.allclose(q[:, 0], [0.6, 0.8])
    assert np.allclose(q @ q.T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("n,p,seed", [(10, 3, 0), (50, 6, 1), (200, 8, 2), (1000, 10, 3)])
def test_qr_reconstruction_and_orthogonality(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    q, r1 = qr_full(a)
    assert q.shape == (n, n)
    assert r1.shape == (p, p)
    assert np.allclose(q[:, :p] @ r1, a, atol=1e-10)
    assert np.allclose(q.T @ q, np.eye(n), atol=1e-10)
    assert np.all(np.diag(r1) > 0)
    # R1 upper triangular
    assert np.allclose(np.tril(r1, -1), 0.0, atol=1e-12)


def test_qr_rank_deficient_raises():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(20)
    a = np.column_stack([col, 2.0 * col, rng.standard_normal(20)])
    with pytest.raises(RankDeficiencyError):
        qr_full(a)


def test_qr_zero_matrix_raises():
    with pytest.raises(RankDeficiencyError):
        qr_full(np.zeros((5, 2)))


def qr_thin(a):
    """Reduced QR of one matrix: `qr_stack` on a stack of one, raising its fault."""
    q1, r1, fault = qr_stack(np.asarray(a, dtype=float)[None])
    if fault[0] is not None:
        raise fault[0]
    return q1[0], r1[0]


@pytest.mark.parametrize("n,p,seed", [(1, 1, 0), (10, 3, 0), (200, 8, 2), (3000, 7, 3)])
def test_qr_thin_is_the_leading_block_of_the_complete_factor(n, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p))
    q1, r1 = qr_thin(a)
    q_full, r1_full = qr_full(a)
    assert q1.shape == (n, p)
    assert r1.shape == (p, p)
    assert np.all(np.diag(r1) > 0)
    assert np.allclose(np.tril(r1, -1), 0.0, atol=1e-12)
    assert np.allclose(q1 @ r1, a, atol=1e-10)
    assert np.allclose(q1.T @ q1, np.eye(p), atol=1e-10)
    assert np.allclose(r1, r1_full, rtol=0.0, atol=1e-12 * np.abs(r1_full).max())
    assert np.allclose(q1, q_full[:, :p], rtol=0.0, atol=1e-12)


def test_qr_thin_rank_checks():
    rng = np.random.default_rng(4)
    col = rng.standard_normal(20)
    with pytest.raises(RankDeficiencyError):
        qr_thin(np.column_stack([col, 2.0 * col, rng.standard_normal(20)]))
    with pytest.raises(RankDeficiencyError):
        qr_thin(np.zeros((5, 2)))
    with pytest.raises(ValueError, match="n >= q"):
        qr_thin(np.ones((1, 2)))


def test_qr_stack_reports_each_fault_and_factors_the_rest():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 12, 3))
    a[1, 4, 2] = np.nan
    a[2, :, 1] = 2.0 * a[2, :, 0]
    q1, r1, fault = qr_stack(a)
    assert fault[0] is None and fault[3] is None
    assert isinstance(fault[1], ValueError) and "non-finite" in str(fault[1])
    assert isinstance(fault[2], RankDeficiencyError)
    for k in (0, 3):
        ref_q, ref_r = qr_full(a[k])
        assert np.allclose(r1[k], ref_r, rtol=0.0, atol=1e-12 * np.abs(ref_r).max())
        assert np.allclose(q1[k], ref_q[:, :3], rtol=0.0, atol=1e-12)
        # a matrix factors to the same bits alone as in the stack
        alone_q, alone_r, _ = qr_stack(a[k : k + 1])
        assert np.array_equal(q1[k], alone_q[0]) and np.array_equal(r1[k], alone_r[0])


def test_r_factor_checks_its_leading_columns_and_carries_the_rest():
    """The leading q rows of R are those of the complete factor; the
    trailing columns are neither rank- nor finiteness-checked; a stack
    factors each matrix to the bits it gets alone."""
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 12, 5))
    a[1, 4, 2] = np.nan
    a[2, :, 1] = 2.0 * a[2, :, 0]
    a[3, :, 4] = a[3, :, 3]
    r, fault = r_factor(a, 3)
    assert r.shape == (4, 5, 5)
    assert fault[0] is None and fault[3] is None
    assert isinstance(fault[1], ValueError) and "non-finite" in str(fault[1])
    assert isinstance(fault[2], RankDeficiencyError)
    for k in (0, 3):
        q_mat, ref_r = qr_full(a[k, :, :3])
        assert np.allclose(r[k, :3, :3], ref_r, rtol=0.0, atol=1e-12 * np.abs(ref_r).max())
        assert np.allclose(r[k, :3, 3:], q_mat[:, :3].T @ a[k, :, 3:], rtol=0.0, atol=1e-12)
        assert np.allclose(np.tril(r[k], -1), 0.0)
        alone, _ = r_factor(a[k : k + 1], 3)
        assert np.array_equal(r[k], alone[0])
    with pytest.raises(ValueError, match="n >= q"):
        r_factor(np.ones((1, 2, 4)), 3)


@pytest.mark.skipif(not hasattr(np, "vecdot"), reason="np.vecdot is new in numpy 2")
def test_vecdot_matches_numpy_2_bit_for_bit():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 25, 7, 7))
    pairs = [
        (a, a),
        (a, np.swapaxes(a, -1, -2)),
        (a.reshape(6, 25, 49), a[:, :1].reshape(6, 1, 49)),
        (a.reshape(6, -1), np.ones(25 * 49)),
    ]
    for x, y in pairs:
        assert np.array_equal(numerics.vecdot(x, y), np.vecdot(x, y))


def test_solve_upper_matches_triangular_solve():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(14)
    r = np.triu(rng.standard_normal((5, 7, 7))) + 4.0 * np.eye(7)
    b = rng.standard_normal((5, 7))
    x = solve_upper(r, b)
    inv = solve_upper(r, np.broadcast_to(np.eye(7), r.shape))
    for k in range(5):
        assert np.allclose(x[k], solve_triangular(r[k], b[k]), rtol=1e-13, atol=0.0)
        assert np.allclose(inv[k] @ r[k], np.eye(7), atol=1e-13)
    assert np.array_equal(solve_upper(r[2:3], b[2:3])[0], x[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("qr", [qr_full, qr_thin])
def test_qr_rejects_non_finite_input(qr, bad):
    a = np.random.default_rng(5).standard_normal((12, 3))
    a[4, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        qr(a)



def test_qr_full_refuses_a_stack():
    with pytest.raises(ValueError, match=r"^need a 2-d matrix, got shape \(2, 5, 3\)$"):
        qr_full(np.ones((2, 5, 3)))


# ---------------------------------------------------------------- one_blas_thread


class _FakeOpenBlas:
    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, count):
        self.threads = count


@pytest.fixture
def fake_openblas(monkeypatch):
    libs = [_FakeOpenBlas(2), _FakeOpenBlas(4)]
    controls = tuple((lib.get, lib.set) for lib in libs)
    monkeypatch.setattr(numerics, "_openblas_thread_controls", lambda: controls)
    return libs


def test_one_blas_thread_sets_one_and_restores(fake_openblas):
    with numerics.one_blas_thread():
        assert [lib.threads for lib in fake_openblas] == [1, 1]
    assert [lib.threads for lib in fake_openblas] == [2, 4]
    with pytest.raises(RuntimeError):
        with numerics.one_blas_thread():
            raise RuntimeError("inside")
    assert [lib.threads for lib in fake_openblas] == [2, 4]


def test_one_blas_thread_reaches_the_loaded_openblas():
    controls = numerics._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy use no OpenBLAS found in /proc/self/maps")
    before = [get() for get, _ in controls]
    with numerics.one_blas_thread():
        assert [get() for get, _ in controls] == [1] * len(controls)
        np.linalg.qr(np.random.default_rng(6).standard_normal((3000, 7)))
    assert [get() for get, _ in controls] == before


# ---------------------------------------------------------------- f_quantile


def test_f_quantile_median_symmetric():
    # F(d, d) has median exactly 1.
    for d in (3, 7, 20):
        assert abs(f_quantile(0.5, d, d) - 1.0) < 1e-8


def test_f_quantile_vs_t_squared():
    # F(1, m) upper quantile equals the squared two-sided t(m) quantile.
    t975 = scipy.stats.t.ppf(0.975, 10)
    assert abs(f_quantile(0.95, 1, 10) - t975 ** 2) < 1e-8


def test_f_quantile_cdf_roundtrip():
    for p in (0.01, 0.25, 0.5, 0.9, 0.99):
        x = f_quantile(p, 7, 524)
        assert abs(scipy.stats.f.cdf(x, 7, 524) - p) < 1e-6


# The special functions are held at a stated relative tolerance to oracles
# of known precision. For the F quantile, the t tail and the incomplete
# beta they are the exact values of tests/data/exact_special_values.json
# (mpmath, rounded to double; tests/make_exact_values.py writes them). The
# test extra admits scipy releases whose fdtri is Cephes's, which forms
# 1 - p and back and so is about 3e-11 off at p = 1e-6. For the Kolmogorov
# law and the normal CDF the oracle is scipy.stats. ORACLE_RTOL is the
# tightest tolerance all of them meet, worst seen: F quantile 8.7e-15,
# t tail 1.5e-14, incomplete beta 1.3e-14, normal CDF 1.2e-14 and
# Kolmogorov 9.8e-15 (against scipy 1.17, itself within 2e-15 of the exact
# values).
ORACLE_RTOL = 2e-14
EXACT = json.loads((Path(__file__).parent / "data" / "exact_special_values.json").read_text())
EXACT_F = {(p, dfn, dfd): value for p, dfn, dfd, value in EXACT["f_quantile"]}
# (1 - alpha, q, n - q) of the curvature screens in the fit and simulate
# goldens, the benchmark's fit-large and bootstrap-small runs (seeds 0 and
# 1) and acceptance item 07
CRITICAL_CASES = [(0.95, 7, 18), (0.95, 7, 24), (0.95, 7, 358), (0.95, 7, 534), (0.95, 7, 2993)]


@pytest.mark.parametrize("dfn", range(2, 9))
def test_f_quantile_equals_scipy_stats_bit_for_bit(dfn):
    """The curvature critical values (p = 1 - alpha, q = 2..8) and a wider
    grid, out to p = 1e-6 and 0.999999 and dfd = 0.5 and 9990, agree with
    the exact quantiles to ORACLE_RTOL. (The name is from when f_quantile
    called scipy.special.fdtri and gave the bits of scipy.stats.f.ppf.)"""
    cases = [(p, dfd) for p, n, dfd in EXACT_F if n == dfn]
    assert len(cases) >= 96  # 8 p by 12 dfd, and the critical cases
    for p, dfd in cases:
        assert f_quantile(p, dfn, dfd) == pytest.approx(EXACT_F[p, dfn, dfd], rel=ORACLE_RTOL, abs=0.0), (p, dfd)


@pytest.mark.parametrize("p,dfn,dfd", CRITICAL_CASES)
def test_f_quantile_is_exact_at_the_pipelines_critical_values(p, dfn, dfd):
    assert f_quantile(p, dfn, dfd) == pytest.approx(EXACT_F[p, dfn, dfd], rel=ORACLE_RTOL, abs=0.0)


@pytest.mark.parametrize("dfn", range(2, 9))
def test_f_quantile_round_trips_through_the_incomplete_beta(dfn):
    """At x = f_quantile(p), I_x(dfn/2, dfd/2) gives p back; above the
    median the upper tail gives 1 - p, which is exact there."""
    for p, n, dfd in EXACT_F:
        if n == dfn:
            f = f_quantile(p, dfn, dfd)
            lower, upper, _ = numerics._betainc(
                dfn / 2, dfd / 2, dfn * f / (dfn * f + dfd), dfd / (dfn * f + dfd))
            got, want = (upper, 1.0 - p) if p > 0.5 else (lower, p)
            assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0), (p, dfd)


@pytest.mark.parametrize("dfn,dfd", [(2, 0.5), (7, 18), (7, 2993), (8, 9990)])
def test_f_quantile_increases_with_p(dfn, dfd):
    ps = np.concatenate([[1e-9, 1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6, 1 - 1e-9]])
    values = [f_quantile(float(p), dfn, dfd) for p in ps]
    assert np.all(np.diff(values) > 0.0)


@pytest.mark.parametrize("big", [0.5, 1.0, 3.5, 14.5, 199.0, 1496.5, 4995.0])
@pytest.mark.parametrize("small", [0.25, 0.5, 1.0, 2.5, 4.0])
def test_betainc_is_exact(big, small):
    """Both tails, with x and y = 1 - x passed apart, against the exact
    I_x(a, b) and 1 - I_x(a, b), down to 1e-20. One parameter is at most
    4, as in every t tail and every F(q <= 8, .) quantile here."""
    rows = [row for row in EXACT["betainc"] if {row[0], row[1]} == {big, small}]
    assert len(rows) > 40
    for a, b, x, want_lower, want_upper in rows:
        lower, upper, _ = numerics._betainc(a, b, x, 1.0 - x)
        for got, want in ((lower, want_lower), (upper, want_upper)):
            if want > 1e-20:
                assert got == pytest.approx(want, rel=ORACLE_RTOL, abs=0.0), (a, b, x)


@pytest.mark.parametrize("dfn,dfd", [(7, 0), (0, 5), (-1, 5), (7, math.inf), (math.inf, 7), (7, math.nan)])
def test_f_quantile_of_a_degenerate_df_is_nan(dfn, dfd):
    assert math.isnan(f_quantile(0.95, dfn, dfd))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_f_quantile_domain(p):
    with pytest.raises(ValueError):
        f_quantile(p, 7, 100)


# ---------------------------------------------------------------- pearson


def test_pearson_exact_line():
    x = np.arange(10.0)
    r, p = pearson_test(x, 2.0 * x + 1.0)
    assert r == 1.0
    assert p == 0.0
    r, p = pearson_test(x, -0.5 * x + 3.0)
    assert r == -1.0
    assert p == 0.0


def test_pearson_p_formula():
    """p must equal the two-sided t-tail at r*sqrt((n-2)/(1-r^2))."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    y = 0.3 * x + rng.standard_normal(40)
    r, p = pearson_test(x, y)
    tstat = r * math.sqrt((40 - 2) / (1.0 - r * r))
    expect = 2.0 * scipy.stats.t.sf(abs(tstat), 38)
    assert abs(p - expect) < 1e-12


def test_pearson_independent_noise():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    r, p = pearson_test(x, y)
    assert abs(r) < 0.1
    assert p > 0.01


def test_pearson_degenerate_inputs():
    with pytest.raises(ValueError):
        pearson_test(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(ValueError):
        pearson_test(np.ones(10), np.arange(10.0))



@pytest.mark.parametrize("test", [pearson_test, spearman_test])
@pytest.mark.parametrize("x,y", [
    (np.arange(5.0), np.arange(6.0)),
    (np.ones((2, 5)), np.ones((2, 5))),
])
def test_correlation_tests_refuse_mismatched_inputs(test, x, y):
    with pytest.raises(ValueError, match="^x and y must be 1-d arrays of equal length$"):
        test(x, y)


@pytest.mark.parametrize("test", [pearson_test, spearman_test])
@pytest.mark.parametrize("nan_in", [0, 1])
def test_correlation_tests_give_nan_on_a_sample_holding_a_nan(test, nan_in):
    """A nan in either sample makes r, t and the p-value nan."""
    samples = [np.arange(10.0), np.arange(10.0) ** 2]
    samples[nan_in][3] = np.nan
    r, p = test(*samples)
    assert math.isnan(r) and math.isnan(p)


# ---------------------------------------------------------------- spearman


def test_spearman_monotone_endpoints():
    x = np.arange(20.0)
    rho, p = spearman_test(x, np.exp(x / 5.0))
    assert rho == 1.0 and p == 0.0
    rho, p = spearman_test(x, -(x ** 3))
    assert rho == -1.0 and p == 0.0


def test_spearman_tied_values_use_midranks():
    # x = [1, 2, 2, 3] has mid-ranks [1, 2.5, 2.5, 4].
    x = np.array([1.0, 2.0, 2.0, 3.0])
    y = np.array([4.0, 1.0, 3.0, 2.0])
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([4.0, 1.0, 3.0, 2.0])
    expect, _ = pearson_test(rx, ry)
    rho, _ = spearman_test(x, y)
    assert abs(rho - expect) < 1e-12


def test_spearman_p_equals_scipy_stats_bit_for_bit():
    """p agrees with the exact two-sided t tail at the t formed from rho to
    ORACLE_RTOL, with and without ties. rho is exact arithmetic on
    mid-ranks, so it equals the recorded one. (The name is from when both
    called scipy.special.stdtr.)"""
    rng = np.random.default_rng(21)
    exact = iter(EXACT["spearman"])
    for n in (3, 4, 10, 57, 400):
        for _ in range(10):
            x = rng.standard_normal(n)
            y = 0.4 * x + rng.standard_normal(n)
            pairs = [(x, y)] if n < 10 else [(x, y), (np.round(x), np.round(y, 1))]
            for a, b in pairs:
                rho, p = spearman_test(a, b)
                want_n, want_rho, want_p = next(exact)
                assert (n, rho) == (want_n, want_rho)
                assert p == pytest.approx(want_p, rel=ORACLE_RTOL, abs=0.0)
    assert next(exact, None) is None


@pytest.mark.parametrize("df", [1, 2, 22, 29, 356, 2991, 2998, 9998])
def test_t_tail_is_exact(df):
    """The two-sided t tail on the degrees of freedom of the demo month,
    the bootstrap-small baseline and fit-large, for |t| up to 300 and down
    to p = 1e-20."""
    rows = [(t, value) for t, d, value in EXACT["t_two_sided"] if d == df]
    assert len(rows) > 100
    for t, value in rows:
        assert numerics._t_two_sided_p(t, df) == pytest.approx(value, rel=ORACLE_RTOL, abs=0.0), t


@pytest.mark.parametrize("sample", [
    [3.0, 1.0, 2.0],
    [1.0, 2.0, 2.0, 3.0, 2.0, 1.0, -0.0, 0.0],
    [7.5] * 6,
    [42.0],
    [np.inf, -np.inf, 1.0, np.inf],
])
def test_midranks_equal_scipy_rankdata(sample):
    assert np.array_equal(numerics._midranks(sample), scipy.stats.rankdata(sample))


def test_midranks_equal_scipy_rankdata_on_random_ties():
    rng = np.random.default_rng(22)
    for n in (1, 2, 5, 30, 500):
        x = rng.integers(0, max(1, n // 4), n).astype(float)
        assert np.array_equal(numerics._midranks(x), scipy.stats.rankdata(x))


def test_midranks_of_a_sample_with_nan_are_all_nan():
    ranks = numerics._midranks([1.0, np.nan, 2.0])
    assert np.isnan(ranks).all()
    assert np.isnan(scipy.stats.rankdata([1.0, np.nan, 2.0])).all()


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    y = rng.standard_normal(50)
    base, _ = spearman_test(x, y)
    for k in range(20):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        for g in (a * x + b, np.exp(a * x), x ** 3, np.arctan(x) * a):
            rho, _ = spearman_test(g, y)
            assert rho == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------- KS


def test_ks_identical_samples():
    rng = np.random.default_rng(9)
    a = rng.standard_normal(100)
    d, p = ks_two_sample(a, a.copy())
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    a = np.arange(50.0)
    b = np.arange(50.0) + 1000.0
    d, p = ks_two_sample(a, b)
    assert d == 1.0
    assert p < 1e-10


def test_ks_symmetry():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(80)
    b = rng.standard_normal(120) + 0.3
    da, pa = ks_two_sample(a, b)
    db, pb = ks_two_sample(b, a)
    assert da == db and pa == pb


def test_ks_hand_case():
    """D for two tiny interleaved samples, worked by hand."""
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.5, 2.5, 3.5])
    d, p = ks_two_sample(a, b)
    assert abs(d - 1.0 / 3.0) < 1e-12
    en = math.sqrt(9.0 / 6.0)
    assert abs(p - scipy.stats.kstwobign.sf(en * d)) < 1e-12
    # ties count through their last member: F_a(2) = 1 = F_b(2), and below 2
    # both are 0 (reading F_a at the first tie as 1/2 would give D = 0.5)
    assert ks_two_sample(np.array([2.0, 2.0]), np.array([2.0])) == (0.0, 1.0)


def test_ks_stack_matches_one_sample_at_a_time():
    """Rows of a stacked first sample, with ties inside a row and shared
    with the second sample, give the statistics of separate calls bit for
    bit."""
    rng = np.random.default_rng(12)
    b = np.round(rng.standard_normal(60), 1)
    a = np.round(rng.standard_normal((9, 25)), 1)
    a[0] = b[:25]
    a[1, :5] = a[1, 0]
    stacked = ks_two_sample(a, b)
    for row, d, p in zip(a, stacked.statistic, stacked.pvalue):
        one = ks_two_sample(row, b)
        sorted_a, sorted_b = np.sort(row), np.sort(b)
        pooled = np.concatenate([sorted_a, sorted_b])
        brute = np.max(np.abs(np.searchsorted(sorted_a, pooled, side="right") / row.size
                              - np.searchsorted(sorted_b, pooled, side="right") / b.size))
        assert one.statistic == d == brute
        assert one.pvalue == p


@st.composite
def _ks_samples(draw):
    """(a, b): a stack of 1-6 rows of 1-30 values and a b of 1-60 values,
    all from a grid of 9 integers, so that ties within a row and with b are
    common."""
    value = st.integers(-4, 4).map(float)
    k, na = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    a = np.array(draw(st.lists(st.lists(value, min_size=na, max_size=na), min_size=k, max_size=k)))
    return a, np.array(draw(st.lists(value, min_size=1, max_size=60)))


@settings(max_examples=300, deadline=None)
@given(samples=_ks_samples())
def test_ks_statistic_is_the_sup_over_the_pooled_points(samples):
    """Each row's D is bit-equal to sup |F_a - F_b| over the pooled points,
    both ECDFs read there by searchsorted, and the stacked call gives the
    per-row calls' statistics and p-values."""
    a, b = samples
    stacked = ks_two_sample(a, b)
    for row, d, p in zip(a, stacked.statistic, stacked.pvalue):
        one = ks_two_sample(row, b)
        sorted_a, sorted_b = np.sort(row), np.sort(b)
        pooled = np.concatenate([sorted_a, sorted_b])
        brute = np.max(np.abs(np.searchsorted(sorted_a, pooled, side="right") / row.size
                              - np.searchsorted(sorted_b, pooled, side="right") / b.size))
        assert one.statistic == d == brute
        assert one.pvalue == p


def test_ks_normal_gaussian_sample():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2000)
    d, p = ks_normal(x)
    assert p > 0.05


def test_ks_normal_bimodal_rejected():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(-2.0, 0.2, 500), rng.normal(2.0, 0.2, 500)])
    d, p = ks_normal(x)
    assert p < 1e-6


def test_ks_normal_statistic_equals_scipy_stats_bit_for_bit():
    """D agrees with the one computed from scipy.stats.norm.cdf to 2e-15
    relative (worst seen 9.1e-16), and p with scipy.stats.kstwobign at D to
    ORACLE_RTOL. (D was bit-equal while both called scipy.special.ndtr.)"""
    rng = np.random.default_rng(23)
    for n in (3, 10, 31, 365, 3000):
        x = np.round(rng.standard_t(4, n) * 3.0, 1)
        d, p = ks_normal(x)
        xs = np.sort(x)
        cdf = scipy.stats.norm.cdf(xs, loc=xs.mean(), scale=xs.std(ddof=1))
        grid = np.arange(1, n + 1) / n
        expect = np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / n))))
        assert d == pytest.approx(expect, rel=2e-15, abs=0.0)
        assert p == pytest.approx(scipy.stats.kstwobign.sf(math.sqrt(n) * d), rel=ORACLE_RTOL, abs=0.0)


def test_normal_cdf_matches_scipy():
    z = np.linspace(-8.0, 8.0, 1601)
    assert numerics._normal_cdf(z) == pytest.approx(scipy.stats.norm.cdf(z), rel=ORACLE_RTOL, abs=0.0)


def test_kolmogorov_sf_matches_scipy_on_both_sides_of_the_series_switch():
    switch = numerics._KOLMOGOROV_SWITCH
    near = [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)]
    for x in np.concatenate([near, np.linspace(0.78, 0.86, 81), np.linspace(0.05, 6.0, 596)]):
        expect = scipy.stats.kstwobign.sf(x)
        assert numerics._kolmogorov_sf(float(x)) == pytest.approx(expect, rel=ORACLE_RTOL, abs=0.0), x
    assert numerics._kolmogorov_sf(0.0) == numerics._kolmogorov_sf(-1.0) == 1.0
    assert numerics._kolmogorov_sf(math.inf) == 0.0
    assert math.isnan(numerics._kolmogorov_sf(math.nan))


def test_kolmogorov_sf_matches_scipy_on_the_golden_simulate_run(monkeypatch, jan2014_frame):
    """Every scaled KS statistic of the golden resampling run (with-id, 200
    replications of size 25, seed 11, on the demo month)."""
    from pm25cast import ModelSpec, gauss_newton, run_simulation

    seen = []
    sf = numerics._kolmogorov_sf
    monkeypatch.setattr(numerics, "_kolmogorov_sf", lambda x: seen.append(x) or sf(x))
    spec = ModelSpec("with-id")
    run_simulation(spec, jan2014_frame, gauss_newton(spec, jan2014_frame), reps=200, size=25, seed=11)
    assert len(seen) == 199
    for x in seen:
        assert sf(x) == pytest.approx(scipy.stats.kstwobign.sf(x), rel=ORACLE_RTOL, abs=0.0), x


@pytest.mark.parametrize("a,b", [(np.array([]), np.arange(5.0)), (np.arange(5.0), np.array([])),
                                 (np.ones((3, 0)), np.arange(5.0))])
def test_ks_two_sample_refuses_an_empty_sample(a, b):
    with pytest.raises(ValueError, match="^both samples must be non-empty$"):
        ks_two_sample(a, b)


def test_ks_normal_degenerate():
    with pytest.raises(ValueError):
        ks_normal(np.ones(50))
    with pytest.raises(ValueError):
        ks_normal(np.array([1.0, 2.0]))
