import dataclasses
import math

import numpy as np
import pytest

from pm25cast import DataError, ModelSpec, build_frame, gauss_newton
from pm25cast.model import (
    FAMILIES,
    default_start,
    eval_f,
    hessian_cube,
    jacobian,
    regressor_columns,
    response,
    rows_used,
    structural_rss,
)

from conftest import synthetic_records


def fd_jacobian(spec, theta, frame):
    """Central finite differences of eval_f, step 1e-6 * max(1, |theta_j|)."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((eval_f(spec, up, frame) - eval_f(spec, dn, frame)) / (2.0 * h))
    return np.column_stack(cols)


def fd_hessian(spec, theta, frame):
    """Central finite differences of the analytic jacobian."""
    theta = np.asarray(theta, dtype=float)
    n = rows_used(spec, frame).size
    q = theta.size
    cube = np.empty((n, q, q))
    for j in range(q):
        h = 1e-6 * max(1.0, abs(theta[j]))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        cube[:, :, j] = (jacobian(spec, up, frame) - jacobian(spec, dn, frame)) / (2.0 * h)
    return cube


def random_theta(spec, rng):
    q = spec.q
    theta = np.empty(q)
    if spec.family == "linear":
        return rng.uniform(-5.0, 5.0, size=2)
    theta[0] = rng.uniform(20.0, 60.0)
    theta[1] = rng.uniform(0.2, 3.0)
    theta[2:6] = rng.uniform(-0.1, 0.1, size=4)
    if q >= 7:
        theta[6] = rng.uniform(-2.0, 10.0)
    if q == 8:
        theta[7] = rng.uniform(-0.8, 0.8)
    return theta


def make_spec(family):
    if family == "iterated":
        return ModelSpec("iterated", rho=0.45)
    return ModelSpec(family)


@pytest.fixture(scope="module")
def frame():
    return build_frame(synthetic_records(n=40, seed=2))


# ------------------------------------------------------------ spec plumbing


def test_family_catalogue():
    assert set(FAMILIES) == {"initial", "with-id", "iterated", "iterated-free-rho", "linear"}
    assert ModelSpec("initial").q == 6
    assert ModelSpec("with-id").q == 7
    assert ModelSpec("iterated", rho=0.3).q == 7
    assert ModelSpec("iterated-free-rho").q == 8
    assert ModelSpec("linear").q == 2


def test_rho_validation():
    with pytest.raises(ValueError):
        ModelSpec("iterated")
    with pytest.raises(ValueError):
        ModelSpec("iterated", rho=float("nan"))
    with pytest.raises(ValueError):
        ModelSpec("with-id", rho=0.5)


def test_unknown_family_is_refused():
    with pytest.raises(ValueError, match="^unknown family 'quadratic'$"):
        ModelSpec("quadratic")


def test_iterated_fit_without_a_lag_pair_raises(frame):
    every_other_day = frame.subset(np.arange(0, frame.n, 2))
    for spec in (ModelSpec("iterated", rho=0.3), ModelSpec("iterated-free-rho")):
        with pytest.raises(DataError, match="no valid lag pairs"):
            gauss_newton(spec, every_other_day)


def test_default_starts():
    assert default_start(ModelSpec("initial")).tolist() == [40.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert default_start(ModelSpec("with-id")).tolist() == [40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    s = default_start(ModelSpec("iterated-free-rho"))
    assert s.size == 8 and s[6] == 1.0 and s[7] == 0.5


def test_rows_used(frame):
    assert rows_used(ModelSpec("initial"), frame).size == frame.n
    prev, curr = frame.lag_pairs()
    assert np.array_equal(rows_used(ModelSpec("iterated", rho=0.2), frame), curr)
    assert np.array_equal(rows_used(ModelSpec("iterated-free-rho"), frame), curr)
    rows = np.array([[0, 1, 2, 5, 6], [3, 4, 8, 9, 10]])
    assert np.array_equal(rows_used(ModelSpec("with-id"), frame, rows), rows)
    assert np.array_equal(rows_used(ModelSpec("iterated", rho=0.2), frame, rows),
                          frame.lag_pairs(rows)[1])


def test_regressor_columns(frame):
    assert "id" not in regressor_columns(ModelSpec("initial"), frame)
    assert "id" in regressor_columns(ModelSpec("with-id"), frame)
    assert set(regressor_columns(ModelSpec("linear"), frame)) == {"t"}


# ------------------------------------------------------------ eval_f


def test_eval_f_term_by_term(frame):
    theta = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07])
    f = eval_f(ModelSpec("initial"), theta, frame)
    i = 11
    expect = (theta[0] * math.exp(-theta[1] / frame.trg[i])
              + theta[2] * frame.w[i] + theta[3] * frame.t[i]
              + theta[4] * frame.pc[i] + theta[5] * frame.ep[i])
    assert f[i] == pytest.approx(expect, rel=1e-14)


def test_eval_f_constant_when_linear_terms_vanish(frame):
    theta = np.array([42.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    f = eval_f(ModelSpec("initial"), theta, frame)
    assert np.allclose(f, 42.0, atol=1e-14)


def test_with_id_adds_indicator_term(frame):
    t6 = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07])
    t7 = np.concatenate([t6, [5.0]])
    f6 = eval_f(ModelSpec("initial"), t6, frame)
    f7 = eval_f(ModelSpec("with-id"), t7, frame)
    assert np.allclose(f7 - f6, 5.0 * frame.id, atol=1e-12)


def test_iterated_rho_zero_is_with_id_on_current_rows(frame):
    theta = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07, 5.0])
    prev, curr = frame.lag_pairs()
    fit_rows = eval_f(ModelSpec("iterated", rho=0.0), theta, frame)
    full = eval_f(ModelSpec("with-id"), theta, frame)
    assert np.allclose(fit_rows, full[curr], atol=1e-12)


def test_free_rho_reconstruction(frame):
    """free-rho f equals the fixed-rho f plus rho * previous lpm."""
    rho = 0.37
    theta7 = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07, 5.0])
    theta8 = np.concatenate([theta7, [rho]])
    prev, curr = frame.lag_pairs()
    f_fixed = eval_f(ModelSpec("iterated", rho=rho), theta7, frame)
    f_free = eval_f(ModelSpec("iterated-free-rho"), theta8, frame)
    assert np.allclose(f_free, f_fixed + rho * frame.lpm[prev], atol=1e-12)


def test_iterated_response_is_differenced(frame):
    rho = 0.37
    prev, curr = frame.lag_pairs()
    y = response(ModelSpec("iterated", rho=rho), frame)
    assert np.allclose(y, frame.lpm[curr] - rho * frame.lpm[prev], atol=1e-14)
    y_free = response(ModelSpec("iterated-free-rho"), frame)
    assert np.allclose(y_free, frame.lpm[curr], atol=1e-14)


def test_zero_trg_row_raises_with_date():
    """exp(-th2/trg) is undefined at trg = 0: a ModelFrame refuses such a row
    and names its date, and build_frame drops the day instead."""
    from conftest import obs_rows, obs_table

    recs = obs_rows(synthetic_records(n=5, seed=7))
    flat = recs[2]._replace(tmax=10.0, tmin=10.0)
    recs[2] = flat
    frame = build_frame(obs_table(recs))
    assert frame.drop_log == ((flat.date, "zero temperature range"),)
    assert flat.date not in frame.dates.tolist()

    whole = build_frame(synthetic_records(n=5, seed=7))
    trg = whole.trg.copy()
    trg[2] = 0.0
    with pytest.raises(DataError, match=f"^frame column trg is zero on {flat.date.isoformat()}$"):
        dataclasses.replace(whole, trg=trg)


def test_theta_length_checked(frame):
    with pytest.raises(ValueError):
        eval_f(ModelSpec("initial"), np.zeros(7), frame)


# ------------------------------------------------------------ derivatives


@pytest.mark.parametrize("family", FAMILIES)
def test_jacobian_matches_fd(family, frame):
    spec = make_spec(family)
    rng = np.random.default_rng(20)
    for _ in range(3):
        theta = random_theta(spec, rng)
        ana = jacobian(spec, theta, frame)
        num = fd_jacobian(spec, theta, frame)
        scale = max(1.0, float(np.max(np.abs(ana))))
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-5 * scale), family


@pytest.mark.parametrize("family", FAMILIES)
def test_hessian_matches_fd(family, frame):
    spec = make_spec(family)
    rng = np.random.default_rng(21)
    for _ in range(3):
        theta = random_theta(spec, rng)
        ana = hessian_cube(spec, theta, frame)
        num = fd_hessian(spec, theta, frame)
        scale = max(1.0, float(np.max(np.abs(ana))))
        assert np.allclose(ana, num, rtol=1e-4, atol=1e-4 * scale), family


@pytest.mark.parametrize("family", FAMILIES)
def test_hessian_symmetric(family, frame):
    spec = make_spec(family)
    theta = random_theta(spec, np.random.default_rng(22))
    cube = hessian_cube(spec, theta, frame)
    assert np.allclose(cube, np.transpose(cube, (0, 2, 1)), atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_frame_evaluates_each_sample_at_its_theta(family, frame):
    """Samples with equal lag-pair counts, each at its own theta, in one call."""
    spec = make_spec(family)
    rng = np.random.default_rng(23)
    rows = np.array([np.arange(0, 20), np.arange(10, 30), np.arange(15, 35)])
    thetas = np.array([random_theta(spec, rng) for _ in rows])
    for fn in (eval_f, jacobian, hessian_cube):
        got = fn(spec, thetas, frame, rows)
        for k, idx in enumerate(rows):
            alone = fn(spec, thetas[k], frame.subset(idx))
            assert np.array_equal(fn(spec, thetas[k], frame, idx), alone)
            assert np.allclose(got[k], alone, rtol=1e-15, atol=1e-15 * np.abs(alone).max())


def test_linear_family_zero_cube(frame):
    cube = hessian_cube(ModelSpec("linear"), np.array([1.0, 2.0]), frame)
    assert np.all(cube == 0.0)


def test_jacobian_linear_columns_are_regressors(frame):
    theta = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07])
    v1 = jacobian(ModelSpec("initial"), theta, frame)
    assert np.allclose(v1[:, 2], frame.w, atol=1e-14)
    assert np.allclose(v1[:, 3], frame.t, atol=1e-14)
    assert np.allclose(v1[:, 4], frame.pc, atol=1e-14)
    assert np.allclose(v1[:, 5], frame.ep, atol=1e-14)


def test_jacobian_theta2_zero_limit(frame):
    # at theta2 = 0 the partial wrt theta2 is -theta1 / trg
    theta = np.array([47.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v1 = jacobian(ModelSpec("initial"), theta, frame)
    assert np.allclose(v1[:, 1], -47.0 / frame.trg, atol=1e-12)


# ------------------------------------------------------------ structural rss


def test_structural_rss_matches_direct(frame):
    theta7 = np.array([47.0, 0.8, -0.05, 0.01, 0.03, 0.07, 5.0])
    direct = float(np.sum((frame.lpm - eval_f(ModelSpec("with-id"), theta7, frame)) ** 2))
    assert structural_rss(theta7, frame) == pytest.approx(direct, rel=1e-14)
    # 8-vector uses its first seven entries
    theta8 = np.concatenate([theta7, [0.4]])
    assert structural_rss(theta8, frame) == structural_rss(theta7, frame)
    theta6 = theta7[:6]
    direct6 = float(np.sum((frame.lpm - eval_f(ModelSpec("initial"), theta6, frame)) ** 2))
    assert structural_rss(theta6, frame) == pytest.approx(direct6, rel=1e-14)
    with pytest.raises(ValueError):
        structural_rss(np.zeros(5), frame)
