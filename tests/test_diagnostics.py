import argparse
import dataclasses
import datetime as dt
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_triangular

from pm25cast import (
    ModelSpec,
    RankDeficiencyError,
    bates_curvature,
    box_bias,
    build_frame,
    curvature_at,
    gauss_newton,
    residual_screen,
)
from pm25cast.diagnostics import (
    _sphere_average,
    diagnostics_report,
    mean_square_curvature,
    rotated_faces,
)
from pm25cast import cli, diagnostics
from pm25cast.model import FAMILIES, Faces, default_start, faces, hessian_cube, jacobian
from pm25cast.numerics import qr_full, r_factor, spearman_test
from pm25cast.solver import FitResult, TraceStep

from conftest import DEC_2017, jan2014_records, obs_table, synthetic_records


def toy_surfaces(theta=(2.5, 0.7), n=10, seed=42):
    """Jacobian and Hessian faces of y = a*exp(-b*x) at fixed theta."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.1, 4.0, n))
    a, b = theta
    e = np.exp(-b * x)
    v1 = np.column_stack([e, -a * x * e])
    v2 = np.empty((n, 2, 2))
    v2[:, 0, 0] = 0.0
    v2[:, 0, 1] = v2[:, 1, 0] = -x * e
    v2[:, 1, 1] = a * x * x * e
    return x, v1, v2


def mc_mean_square(faces, q, n_draws=20_000, seed=7):
    """Monte Carlo version of the directional mean-square curvature."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_draws, q))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    quad = np.einsum("nd,mde,ne->nm", dirs, faces, dirs)
    return float(np.sqrt(np.mean(np.sum(quad ** 2, axis=1))))


# ---------------------------------------------------------------- curvature


def test_closed_form_matches_sphere_average():
    _, v1, v2 = toy_surfaces()
    par, intr = rotated_faces(v1, v2)
    for faces in (par, intr):
        k = mean_square_curvature(faces, 2)
        k_mc = mc_mean_square(faces, 2)
        assert abs(k_mc / k - 1.0) < 0.03


def test_rotation_preserves_frobenius_mass():
    _, v1, v2 = toy_surfaces()
    par, intr = rotated_faces(v1, v2)
    rotated = float(np.sum(par ** 2) + np.sum(intr ** 2))
    # un-rotated faces: L' H_i L stacked over observations
    from scipy.linalg import solve_triangular

    from pm25cast.numerics import qr_full

    _, r1 = qr_full(v1)
    ell = solve_triangular(r1, np.eye(2))
    m = np.einsum("ki,skl,lj->sij", ell, v2, ell)
    assert rotated == pytest.approx(float(np.sum(m ** 2)), rel=1e-12)


def test_face_counts():
    _, v1, v2 = toy_surfaces(n=10)
    par, intr = rotated_faces(v1, v2)
    assert par.shape == (2, 2, 2)
    assert intr.shape == (8, 2, 2)


def test_curvature_dimensionless_under_response_rescale():
    """Multiplying the response scale by c leaves rho*K unchanged."""
    _, v1, v2 = toy_surfaces()
    sigma = 0.3
    r1 = bates_curvature(v1, v2, sigma)
    c = 17.0
    r2 = bates_curvature(c * v1, c * v2, c * sigma)
    assert r2.rho_k_n == pytest.approx(r1.rho_k_n, rel=1e-12)
    assert r2.rho_k_p == pytest.approx(r1.rho_k_p, rel=1e-12)


def test_with_id_curvature_is_unchanged_by_rescaling_lpm(jan2014_frame):
    """Multiplying lpm by c > 0 maps the with-id fit to theta' = (c th1, th2,
    c th3..c th7), a linear reparametrisation of a rescaled response, so the
    fitted rho*K^N and rho*K^P stay the same (Bates & Watts 1980)."""
    spec = ModelSpec("with-id")
    scaled = np.array([True, False, True, True, True, True, True])  # all but th2

    def fitted_curvature(frame, theta0):
        fit = gauss_newton(spec, frame, theta0=theta0)
        assert fit.converged
        curv = bates_curvature(jacobian(spec, fit.theta, frame),
                               hessian_cube(spec, fit.theta, frame), fit.sigma_hat)
        return fit.theta, curv

    theta0 = default_start(spec)
    theta, base = fitted_curvature(jan2014_frame, theta0)

    @settings(max_examples=15, deadline=None)
    @given(c=st.floats(min_value=1e-2, max_value=1e2))
    def invariant(c):
        mapped = np.where(scaled, c, 1.0)
        frame = dataclasses.replace(jan2014_frame, lpm=c * jan2014_frame.lpm)
        theta_c, curv = fitted_curvature(frame, mapped * theta0)
        # about 1e-14 apart on 41 scales from 1e-2 to 1e2
        np.testing.assert_allclose(theta_c, mapped * theta, rtol=1e-9)
        assert curv.rho_k_n == pytest.approx(base.rho_k_n, rel=1e-9)
        assert curv.rho_k_p == pytest.approx(base.rho_k_p, rel=1e-9)

    invariant()


def test_with_id_curvature_is_unchanged_by_rescaling_a_regressor(jan2014_frame):
    """Multiplying one regressor column by c > 0 maps the with-id fit to the
    same fitted values with that column's coefficient divided by c, a linear
    reparametrisation, so the fitted rho*K^N and rho*K^P stay the same
    (Bates & Watts 1980)."""
    spec = ModelSpec("with-id")
    columns = {"w": 2, "t": 3, "ep": 5}  # index of the column's coefficient

    def fitted_curvature(frame, theta0):
        fit = gauss_newton(spec, frame, theta0=theta0)
        assert fit.converged
        curv = bates_curvature(jacobian(spec, fit.theta, frame),
                               hessian_cube(spec, fit.theta, frame), fit.sigma_hat)
        return fit.theta, curv

    theta0 = default_start(spec)
    theta, base = fitted_curvature(jan2014_frame, theta0)

    @settings(max_examples=15, deadline=None)
    @given(name=st.sampled_from(sorted(columns)), c=st.floats(min_value=1e-2, max_value=1e2))
    @example(name="w", c=1e-2)
    @example(name="t", c=3.7)
    @example(name="ep", c=1e2)
    def invariant(name, c):
        mapped = np.ones(spec.q)
        mapped[columns[name]] = 1.0 / c
        frame = dataclasses.replace(jan2014_frame, **{name: c * getattr(jan2014_frame, name)})
        theta_c, curv = fitted_curvature(frame, mapped * theta0)
        np.testing.assert_allclose(theta_c, mapped * theta, rtol=1e-9)
        assert curv.rho_k_n == pytest.approx(base.rho_k_n, rel=1e-9)
        assert curv.rho_k_p == pytest.approx(base.rho_k_p, rel=1e-9)

    invariant()


def test_curvature_row_permutation_invariant():
    _, v1, v2 = toy_surfaces()
    rng = np.random.default_rng(3)
    perm = rng.permutation(v1.shape[0])
    r1 = bates_curvature(v1, v2, 0.3)
    r2 = bates_curvature(v1[perm], v2[perm], 0.3)
    assert r2.rho_k_n == pytest.approx(r1.rho_k_n, rel=1e-12)
    assert r2.rho_k_p == pytest.approx(r1.rho_k_p, rel=1e-12)


def test_linear_model_zero_curvature():
    frame = build_frame(synthetic_records(n=50, seed=9))
    fit = gauss_newton(ModelSpec("linear"), frame)
    v1 = jacobian(ModelSpec("linear"), fit.theta, frame)
    v2 = hessian_cube(ModelSpec("linear"), fit.theta, frame)
    rep = bates_curvature(v1, v2, fit.sigma_hat)
    assert rep.rho_k_n <= 1e-10
    assert rep.rho_k_p <= 1e-10
    assert rep.planar_ok and rep.uniform_ok


def test_critical_value_definition():
    _, v1, v2 = toy_surfaces()
    rep = bates_curvature(v1, v2, 0.3, alpha=0.05)
    import scipy.stats

    expect = 1.0 / math.sqrt(scipy.stats.f.ppf(0.95, 2, 8))
    assert rep.critical == pytest.approx(expect, rel=1e-12)
    assert rep.thresholds == pytest.approx(
        (expect, 0.5 * expect, 0.2 * expect), rel=1e-12)


def test_pass_flags_follow_critical():
    _, v1, v2 = toy_surfaces()
    tiny = bates_curvature(v1, v2, 1e-9)
    assert tiny.planar_ok and tiny.uniform_ok
    huge = bates_curvature(v1, v2, 50.0)
    assert not huge.uniform_ok


def test_curvature_needs_extra_rows():
    _, v1, v2 = toy_surfaces(n=2)
    with pytest.raises(ValueError):
        bates_curvature(v1, v2, 0.3)


# ------------------------------------------- fast route against the reference


def dec2017_records():
    """Observed pm and ep of December 2017 with the daily-aggregated forecast
    predictors; the days whose forecast tmax is not above tmin are left out
    because a daily record needs a positive temperature range."""
    return obs_table(
        (dt.date(2017, 12, day), pm, t, tmax, tmin, pc, w, ep)
        for day, pm, t, tmax, tmin, pc, w, ep in DEC_2017
        if tmax > tmin
    )


EQUIVALENCE_FRAMES = {
    "jan2014": jan2014_records,
    "dec2017": dec2017_records,
    "synthetic-31": functools.partial(synthetic_records, n=31, seed=21),
    "synthetic-365": functools.partial(synthetic_records, n=365, seed=22),
    "synthetic-3000": functools.partial(synthetic_records, n=3000, seed=23),
}


@functools.lru_cache(maxsize=None)
def fitted_surfaces(frame_name, family):
    """Jacobian, second-derivative array, sigma_hat and theta at the fit."""
    frame = build_frame(EQUIVALENCE_FRAMES[frame_name]())
    spec = ModelSpec(family, rho=0.3 if family == "iterated" else None)
    fit = gauss_newton(spec, frame)
    return (jacobian(spec, fit.theta, frame), hessian_cube(spec, fit.theta, frame),
            fit.sigma_hat, fit.theta)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("frame_name", list(EQUIVALENCE_FRAMES))
def test_curvature_matches_explicit_rotation(frame_name, family):
    """The invariance route agrees with rotating all n faces by the complete Q."""
    v1, v2, sigma, _ = fitted_surfaces(frame_name, family)
    q = v1.shape[1]
    rep = bates_curvature(v1, v2, sigma)
    par, intr = rotated_faces(v1, v2)
    rho = sigma * math.sqrt(q)
    ref_n = rho * mean_square_curvature(intr, q)
    ref_p = rho * mean_square_curvature(par, q)
    scale = ref_n ** 2 + ref_p ** 2
    assert abs(rep.rho_k_n ** 2 - ref_n ** 2) <= 1e-12 * scale
    assert abs(rep.rho_k_p ** 2 - ref_p ** 2) <= 1e-12 * scale
    assert rep.planar_ok == (ref_n < rep.critical)
    assert rep.uniform_ok == (ref_p < rep.critical)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("frame_name", list(EQUIVALENCE_FRAMES))
def test_box_bias_matches_complete_factor(frame_name, family):
    v1, v2, sigma, theta = fitted_surfaces(frame_name, family)
    _, r1 = qr_full(v1)
    ell = solve_triangular(r1, np.eye(v1.shape[1]))
    traces = np.einsum("ki,skl,li->s", ell, v2, ell)
    ref = -0.5 * sigma ** 2 * (ell @ ell.T) @ (v1.T @ traces)
    got = box_bias(v1, v2, sigma, theta).bias
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@functools.lru_cache(maxsize=None)
def fitted_faces(frame_name, family):
    """`model.faces` at the fit of `fitted_surfaces`."""
    frame = build_frame(EQUIVALENCE_FRAMES[frame_name]())
    spec = ModelSpec(family, rho=0.3 if family == "iterated" else None)
    return faces(spec, fitted_surfaces(frame_name, family)[3], frame)


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("frame_name", list(EQUIVALENCE_FRAMES))
def test_support_route_matches_explicit_rotation_and_complete_factor(frame_name, family):
    """Face entries on the family's support give the curvature of rotating
    all n dense faces by the complete Q, and the Box bias of the complete
    factor, to 1e-12."""
    v1, v2, sigma, theta = fitted_surfaces(frame_name, family)
    q = v1.shape[1]
    support = fitted_faces(frame_name, family)
    rep = bates_curvature(v1, support, sigma)
    par, intr = rotated_faces(v1, v2)
    rho = sigma * math.sqrt(q)
    ref_n = rho * mean_square_curvature(intr, q)
    ref_p = rho * mean_square_curvature(par, q)
    scale = ref_n ** 2 + ref_p ** 2
    assert abs(rep.rho_k_n ** 2 - ref_n ** 2) <= 1e-12 * scale
    assert abs(rep.rho_k_p ** 2 - ref_p ** 2) <= 1e-12 * scale

    _, r1 = qr_full(v1)
    ell = solve_triangular(r1, np.eye(q))
    traces = np.einsum("ki,skl,li->s", ell, v2, ell)
    ref = -0.5 * sigma ** 2 * (ell @ ell.T) @ (v1.T @ traces)
    got = box_bias(v1, support, sigma, theta).bias
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("family", list(FAMILIES))
def test_stacked_support_route_is_each_fit_alone(family):
    """A stacked call on face entries gives every sample's single-call
    report and `box_bias` bit for bit, and a single call on them matches
    the dense cube."""
    spec = ModelSpec(family, rho=0.3 if family == "iterated" else None)
    frame = build_frame(synthetic_records(n=60, seed=9))
    theta = gauss_newton(spec, frame).theta
    rows = np.array([np.arange(k, k + 30) for k in (0, 7, 13, 30)])
    thetas = np.array([theta * (1.0 + 0.01 * k) for k in range(4)])
    v1 = jacobian(spec, thetas, frame, rows)
    support = faces(spec, thetas, frame, rows)
    sigma = np.array([0.5, 1.0, 2.0, 3.0])
    rep = bates_curvature(v1, support, sigma)
    for k in range(4):
        own = Faces(support.entries[k], support.pairs)
        one = bates_curvature(v1[k], own, sigma[k])
        assert (one.rho_k_n, one.rho_k_p) == (rep.rho_k_n[k], rep.rho_k_p[k])
        assert rep.bias[k].tobytes() == box_bias(v1[k], own, sigma[k], thetas[k]).bias.tobytes()
        dense = bates_curvature(v1[k], hessian_cube(spec, thetas[k], frame, rows[k]), sigma[k])
        assert dense.rho_k_n == pytest.approx(one.rho_k_n, rel=1e-9, abs=1e-12)
        assert dense.rho_k_p == pytest.approx(one.rho_k_p, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_curvature_at_is_the_pass_on_the_model_derivatives(family):
    """`curvature_at` gives `bates_curvature` of `jacobian` and `faces` at
    theta bit for bit: on the whole frame, and on a stack of samples."""
    spec = ModelSpec(family, rho=0.3 if family == "iterated" else None)
    frame = build_frame(synthetic_records(n=60, seed=9))
    fit = gauss_newton(spec, frame)
    rows = np.array([np.arange(k, k + 30) for k in (0, 7, 13, 30)])
    thetas = np.array([fit.theta * (1.0 + 0.01 * k) for k in range(4)])
    sigma = np.array([0.5, 1.0, 2.0, 3.0])
    for theta, sig, sample in ((fit.theta, fit.sigma_hat, None), (thetas, sigma, rows)):
        want = bates_curvature(jacobian(spec, theta, frame, sample),
                               faces(spec, theta, frame, sample), sig, 0.1)
        got = curvature_at(spec, theta, frame, sig, sample, alpha=0.1)
        for name in ("rho_k_n", "rho_k_p", "bias"):
            pair = [np.asarray(getattr(rep, name)).tobytes() for rep in (got, want)]
            assert pair[0] == pair[1]
        assert (got.critical, got.alpha) == (want.critical, 0.1)


def test_mis_shaped_face_entries_are_refused(synth_frame):
    spec = ModelSpec("with-id")
    theta = default_start(spec)
    v1 = jacobian(spec, theta, synth_frame)
    entries, pairs = faces(spec, theta, synth_frame)
    for bad in (Faces(entries[:-1], pairs), Faces(entries, pairs[:1])):
        with pytest.raises(ValueError, match=r"^face entries must be \("):
            bates_curvature(v1, bad, 1.0)
        with pytest.raises(ValueError, match=r"^face entries must be \("):
            box_bias(v1, bad, 1.0, theta)


def test_stacked_curvature_is_each_fit_alone():
    """One call on a stack gives every fit's report and `box_bias` bit for
    bit; a rank-deficient Jacobian in the stack reads nan (bias too) and
    fails both flags instead of raising."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=60, seed=9))
    theta = gauss_newton(spec, frame).theta
    rows = np.array([np.arange(k, k + 30) for k in (0, 7, 13, 30)])
    thetas = np.array([theta * (1.0 + 0.01 * k) for k in range(4)])
    v1 = jacobian(spec, thetas, frame, rows)
    v2 = hessian_cube(spec, thetas, frame, rows)
    sigma = np.array([0.5, 1.0, 2.0, 3.0])
    v1[3, :, 6] = v1[3, :, 5]
    rep = bates_curvature(v1, v2, sigma)
    for k in range(3):
        one = bates_curvature(v1[k], v2[k], sigma[k])
        assert (one.rho_k_n, one.rho_k_p) == (rep.rho_k_n[k], rep.rho_k_p[k])
        assert (one.planar_ok, one.uniform_ok) == (rep.planar_ok[k], rep.uniform_ok[k])
        assert one.critical == rep.critical
        assert rep.bias[k].tobytes() == box_bias(v1[k], v2[k], sigma[k], thetas[k]).bias.tobytes()
    assert math.isnan(rep.rho_k_n[3]) and math.isnan(rep.rho_k_p[3])
    assert np.isnan(rep.bias[3]).all()
    assert not rep.planar_ok[3] and not rep.uniform_ok[3]


def test_curvature_clamps_rounding_below_zero_and_keeps_nan():
    """Sums that cancel to a tiny negative number read as zero curvature;
    a nan face stack still gives nan, so its pass flags are False."""
    _, v1, v2 = toy_surfaces()
    v2_nan = v2.copy()
    v2_nan[3, 1, 1] = np.nan
    rep = bates_curvature(v1, v2_nan, 0.3)
    assert math.isnan(rep.rho_k_n) and math.isnan(rep.rho_k_p)
    assert not rep.planar_ok and not rep.uniform_ok
    assert _sphere_average(-1e-18, -1e-18, 2) == 0.0


def test_fit_and_diagnostics_memory_is_linear_in_n():
    """At n = 10000 one n x n orthogonal factor alone would take 800 MB."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=10000, seed=24))
    tracemalloc.start()
    try:
        fit = gauss_newton(spec, frame)
        v1 = jacobian(spec, fit.theta, frame)
        v2 = hessian_cube(spec, fit.theta, frame)
        bates_curvature(v1, v2, fit.sigma_hat)
        box_bias(v1, v2, fit.sigma_hat, fit.theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_fit_with_diagnostics_factors_once(jan2014_frame, monkeypatch):
    """Curvature and Box bias of the `fit` command share one R factor of the
    Jacobian with the face entries appended (the solver's factors of
    [J | r] go through `solver.r_factor` and are not counted here)."""
    spec = ModelSpec("with-id")
    args = argparse.Namespace(start=None, max_steps=50, rel_tol=1e-8, alpha=0.05)
    shapes = []

    def counted(a, q):
        shapes.append(a.shape)
        return r_factor(a, q)

    monkeypatch.setattr(diagnostics, "r_factor", counted)
    fit, curv, bias, _ = cli._fit_with_diagnostics(spec, jan2014_frame, args)
    assert curv is not None and bias is not None
    m = len(faces(spec, fit.theta, jan2014_frame).pairs)
    assert shapes == [(1, fit.residuals.size, spec.q + m)]
    assert bias.bias.tobytes() == curv.bias.tobytes()


# ---------------------------------------------------------------- bias


def direct_bias(v1, v2, sigma, theta):
    """Normal-matrix form of the expected-bias formula."""
    g = np.linalg.inv(v1.T @ v1)
    d = np.array([np.trace(g @ v2[i]) for i in range(v2.shape[0])])
    return -(sigma ** 2) / 2.0 * (g @ (v1.T @ d))


def test_box_bias_matches_direct_form_toy():
    _, v1, v2 = toy_surfaces()
    theta = np.array([2.5, 0.7])
    rep = box_bias(v1, v2, 0.3, theta)
    assert np.max(np.abs(rep.bias - direct_bias(v1, v2, 0.3, theta))) < 1e-10


def test_box_bias_zero_for_linear():
    frame = build_frame(synthetic_records(n=50, seed=9))
    fit = gauss_newton(ModelSpec("linear"), frame)
    v1 = jacobian(ModelSpec("linear"), fit.theta, frame)
    v2 = hessian_cube(ModelSpec("linear"), fit.theta, frame)
    rep = box_bias(v1, v2, fit.sigma_hat, fit.theta)
    assert np.allclose(rep.bias, 0.0, atol=1e-14)


def test_box_bias_rejects_a_stack():
    """Box bias takes one fit; a stack is refused, not read as its first fit."""
    _, v1, v2 = toy_surfaces()
    with pytest.raises(ValueError, match="one Jacobian"):
        box_bias(np.stack([v1, v1]), np.stack([v2, v2]), 0.3, np.array([2.5, 0.7]))


def test_percent_bias_and_zero_theta_marker():
    _, v1, v2 = toy_surfaces()
    theta = np.array([2.5, 0.0])
    rep = box_bias(v1, v2, 0.3, theta)
    assert rep.percent_bias[0] == pytest.approx(100.0 * rep.bias[0] / 2.5, rel=1e-12)
    assert np.isnan(rep.percent_bias[1])


def test_bias_scales_with_sigma_squared():
    _, v1, v2 = toy_surfaces()
    theta = np.array([2.5, 0.7])
    b1 = box_bias(v1, v2, 0.2, theta).bias
    b2 = box_bias(v1, v2, 0.4, theta).bias
    assert np.allclose(b2, 4.0 * b1, rtol=1e-12)


# ---------------------------------------------------------------- residual screen


def test_single_rank_deficient_jacobian_raises(synth_frame):
    spec = ModelSpec("with-id")
    theta = default_start(spec)
    v1 = jacobian(spec, theta, synth_frame)
    v1[:, 3] = 2.0 * v1[:, 2]
    v2 = hessian_cube(spec, theta, synth_frame)
    with pytest.raises(RankDeficiencyError):
        bates_curvature(v1, v2, 1.0)
    with pytest.raises(RankDeficiencyError):
        box_bias(v1, v2, 1.0, theta)


def test_mis_shaped_second_derivative_array_is_refused(synth_frame):
    spec = ModelSpec("with-id")
    theta = default_start(spec)
    v1 = jacobian(spec, theta, synth_frame)
    v2 = hessian_cube(spec, theta, synth_frame)[:, :, :6]
    message = rf"^second-derivative array must be \({synth_frame.n}, 7, 7\)$"
    with pytest.raises(ValueError, match=message):
        bates_curvature(v1, v2, 1.0)
    with pytest.raises(ValueError, match=message):
        box_bias(v1, v2, 1.0, theta)


def _manual_fit(frame, residuals, fitted=None):
    spec = ModelSpec("with-id")
    res = np.asarray(residuals, dtype=float)
    if fitted is None:
        fitted = frame.lpm - res
    sigma = float(np.sqrt(res @ res / (frame.n - 7)))
    return FitResult(
        spec=spec, sigma_hat=sigma, fitted=np.asarray(fitted, dtype=float), residuals=res,
        trace=(TraceStep(np.zeros(7), float(res @ res)),), converged=True,
    )


def test_screen_clean_residuals(synth_frame):
    rng = np.random.default_rng(15)
    fit = _manual_fit(synth_frame, rng.standard_normal(synth_frame.n))
    rep = residual_screen(fit, synth_frame, alpha=0.01)
    assert not rep.heteroscedastic
    assert rep.ks_normality.pvalue > 0.01


def test_screen_flags_scale_tied_to_regressor(synth_frame):
    # |residual| grows with w, a textbook wedge pattern
    rng = np.random.default_rng(16)
    res = synth_frame.w * rng.choice([-1.0, 1.0], synth_frame.n)
    rep = residual_screen(_manual_fit(synth_frame, res), synth_frame, alpha=0.05)
    assert rep.heteroscedastic
    assert rep.spearman["w"].pvalue < 0.05


def test_screen_flags_lag_correlation(synth_frame):
    # slowly varying residuals are serially dependent day over day
    res = np.sin(np.arange(synth_frame.n) / 3.0) + 0.01
    rep = residual_screen(_manual_fit(synth_frame, res), synth_frame, alpha=0.05)
    assert rep.autocorrelated
    assert rep.lag1.pvalue < 0.05


def test_screen_lag_pairs_respect_date_gaps():
    frame = build_frame(synthetic_records(n=20, seed=18, gap_every=5))
    rng = np.random.default_rng(19)
    fit = _manual_fit(frame, rng.standard_normal(frame.n))
    rep = residual_screen(fit, frame, alpha=0.05)
    assert rep.lag1 is not None


def test_screen_needs_three_rows():
    frame = build_frame(synthetic_records(n=10, seed=20))
    fit = _manual_fit(frame, np.arange(10.0) + 1.0)
    tiny = frame.subset([0, 1])
    with pytest.raises(ValueError):
        residual_screen(_manual_fit_subset(fit, tiny), tiny)


def test_screen_spearman_is_spearman_test_of_each_column(synth_frame):
    """Ranking |standardized residual| once gives each column's
    spearman_test result bit for bit."""
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    rep = residual_screen(fit, synth_frame)
    abs_sr = np.abs(fit.std_residuals)
    columns = {"fitted": fit.fitted, "trg": synth_frame.trg, "t": synth_frame.t,
               "w": synth_frame.w, "pc": synth_frame.pc, "ep": synth_frame.ep,
               "id": synth_frame.id}
    assert rep.spearman.keys() == columns.keys()
    for name, col in columns.items():
        assert rep.spearman[name] == spearman_test(abs_sr, col)


def test_screen_skips_a_constant_nonzero_regressor(synth_frame):
    frame = dataclasses.replace(synth_frame, pc=np.full(synth_frame.n, 5.0))
    rng = np.random.default_rng(21)
    rep = residual_screen(_manual_fit(frame, rng.standard_normal(frame.n)), frame)
    assert set(rep.spearman) == {"fitted", "trg", "t", "w", "ep", "id"}


def _manual_fit_subset(fit, frame):
    res = fit.residuals[: frame.n]
    sigma = float(np.sqrt(res @ res)) or 1.0
    return FitResult(
        spec=fit.spec, sigma_hat=sigma, fitted=frame.lpm - res, residuals=res,
        trace=(TraceStep(fit.theta, float(res @ res)),), converged=True,
    )


# ---------------------------------------------------------------- report


def test_report_json_ready(synth_frame):
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    v1 = jacobian(fit.spec, fit.theta, synth_frame)
    v2 = hessian_cube(fit.spec, fit.theta, synth_frame)
    cur = bates_curvature(v1, v2, fit.sigma_hat)
    bias = box_bias(v1, v2, fit.sigma_hat, fit.theta)
    res = residual_screen(fit, synth_frame)
    rep = diagnostics_report(cur, bias, res)
    text = json.dumps(rep)
    back = json.loads(text)
    assert back["curvature"]["rho_k_n_rounded"] == round(cur.rho_k_n, 5)
    assert back["curvature"]["rho_k_n"] == cur.rho_k_n
    assert len(back["box_bias"]["bias"]) == 7
    assert len(back["box_bias"]["bias_rounded"]) == 7
    assert "fitted" in back["residuals"]["spearman"]
