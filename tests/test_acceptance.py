"""Release checklist. Each test prints one PASS/FAIL line for its criterion."""

import math
import os

import numpy as np
import pytest

from pm25cast import (
    FrozenModel,
    ModelSpec,
    Predictors,
    bates_curvature,
    box_bias,
    build_frame,
    gauss_newton,
    parse_observations,
    predict_id_algo1,
    predict_pm,
    run_simulation,
)
from pm25cast.data import id_from_lpm
from pm25cast.diagnostics import mean_square_curvature, rotated_faces
from pm25cast.forecast import (
    PRESETS,
    PROFILES,
    forecast_series,
    inclusion_report,
    interval,
    predictors_from_records,
)
from pm25cast.model import hessian_cube, jacobian
from pm25cast.numerics import f_quantile, ks_two_sample, spearman_test

from conftest import jan2014_records, noise_free_frame, synthetic_records


def report(num, name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[ACCEPT] {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def toy_surfaces(theta=(2.5, 0.7), n=10, seed=42):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.1, 4.0, n))
    a, b = theta
    e = np.exp(-b * x)
    v1 = np.column_stack([e, -a * x * e])
    v2 = np.empty((n, 2, 2))
    v2[:, 0, 0] = 0.0
    v2[:, 0, 1] = v2[:, 1, 0] = -x * e
    v2[:, 1, 1] = a * x * x * e
    return v1, v2


def test_01_linear_zero_curvature():
    frame = build_frame(synthetic_records(n=50, seed=31))
    fit = gauss_newton(ModelSpec("linear"), frame)
    v1 = jacobian(fit.spec, fit.theta, frame)
    v2 = hessian_cube(fit.spec, fit.theta, frame)
    rep = bates_curvature(v1, v2, fit.sigma_hat)
    worst = max(rep.rho_k_n, rep.rho_k_p)
    report(1, "linear zero curvature", worst <= 1e-10, f"max={worst:.2e}")


def test_02_curvature_monte_carlo_oracle():
    v1, v2 = toy_surfaces()
    par, intr = rotated_faces(v1, v2)
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((100_000, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def sphere_sampled(faces):
        quad = np.einsum("nd,mde,ne->nm", dirs, faces, dirs)
        return float(np.sqrt(np.mean(np.sum(quad ** 2, axis=1))))

    rel_n = abs(sphere_sampled(intr) / mean_square_curvature(intr, 2) - 1.0)
    rel_p = abs(sphere_sampled(par) / mean_square_curvature(par, 2) - 1.0)
    report(2, "curvature Monte Carlo oracle", max(rel_n, rel_p) < 0.01,
           f"rel_n={rel_n:.4f} rel_p={rel_p:.4f}")


def test_03_box_bias_equivalence():
    def direct(v1, v2, sigma):
        g = np.linalg.inv(v1.T @ v1)
        d = np.array([np.trace(g @ v2[i]) for i in range(v2.shape[0])])
        return -(sigma ** 2) / 2.0 * (g @ (v1.T @ d))

    v1, v2 = toy_surfaces()
    toy_gap = np.max(np.abs(
        box_bias(v1, v2, 0.3, np.array([2.5, 0.7])).bias - direct(v1, v2, 0.3)))

    frame = build_frame(jan2014_records())
    fit = gauss_newton(ModelSpec("with-id"), frame)
    w1 = jacobian(fit.spec, fit.theta, frame)
    w2 = hessian_cube(fit.spec, fit.theta, frame)
    month_gap = np.max(np.abs(
        box_bias(w1, w2, fit.sigma_hat, fit.theta).bias - direct(w1, w2, fit.sigma_hat)))
    worst = max(toy_gap, month_gap)
    report(3, "Box bias algebraic equivalence", worst < 1e-10, f"max gap={worst:.2e}")


def test_04_derivatives_match_finite_differences():
    frame = build_frame(synthetic_records(n=40, seed=2))
    rng = np.random.default_rng(33)
    worst_j = 0.0
    worst_h = 0.0

    def sample_theta(spec):
        if spec.family == "linear":
            return rng.uniform(-5.0, 5.0, size=2)
        th = np.empty(spec.q)
        th[0] = rng.uniform(20.0, 60.0)
        th[1] = rng.uniform(0.2, 3.0)
        th[2:6] = rng.uniform(-0.1, 0.1, size=4)
        if spec.q >= 7:
            th[6] = rng.uniform(-2.0, 10.0)
        if spec.q == 8:
            th[7] = rng.uniform(-0.8, 0.8)
        return th

    specs = [ModelSpec("initial"), ModelSpec("with-id"), ModelSpec("iterated", rho=0.45),
             ModelSpec("iterated-free-rho"), ModelSpec("linear")]
    for spec in specs:
        from pm25cast.model import eval_f

        for _ in range(20):
            theta = sample_theta(spec)
            ana_j = jacobian(spec, theta, frame)
            ana_h = hessian_cube(spec, theta, frame)
            num_j = np.empty_like(ana_j)
            num_h = np.empty_like(ana_h)
            for j in range(spec.q):
                h = 1e-6 * max(1.0, abs(theta[j]))
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                num_j[:, j] = (eval_f(spec, up, frame) - eval_f(spec, dn, frame)) / (2 * h)
                num_h[:, :, j] = (jacobian(spec, up, frame) - jacobian(spec, dn, frame)) / (2 * h)
            scale_j = max(1.0, float(np.max(np.abs(ana_j))))
            scale_h = max(1.0, float(np.max(np.abs(ana_h))))
            worst_j = max(worst_j, float(np.max(np.abs(ana_j - num_j))) / scale_j)
            worst_h = max(worst_h, float(np.max(np.abs(ana_h - num_h))) / scale_h)
    report(4, "derivatives match finite differences",
           worst_j < 1e-5 and worst_h < 1e-4,
           f"jac={worst_j:.2e} hess={worst_h:.2e}")


def test_05_solver_recovery():
    true = np.array([50.0, 1.8, -0.06, -0.01, -0.013, -0.15])
    frame = noise_free_frame(true, n=60, seed=5)
    fit = gauss_newton(ModelSpec("initial"), frame)
    rel = float(np.max(np.abs(fit.theta - true) / np.abs(true)))
    rss_path = [s.rss for s in fit.trace]
    monotone = all(b <= a for a, b in zip(rss_path, rss_path[1:]))
    report(5, "solver recovery on noise-free data",
           fit.converged and rel < 1e-8 and fit.steps <= 15 and monotone,
           f"rel={rel:.2e} steps={fit.steps} monotone={monotone}")


def test_06_rho_zero_collapse():
    frame = build_frame(synthetic_records(n=40, seed=3))
    it = gauss_newton(ModelSpec("iterated", rho=0.0), frame)
    wid = gauss_newton(ModelSpec("with-id"), frame.subset(range(1, frame.n)))
    gap = float(np.max(np.abs(it.theta - wid.theta)))
    report(6, "rho=0 collapse to plain family",
           it.converged and wid.converged and gap < 1e-10, f"gap={gap:.2e}")


def test_07_f_quantile_critical_value():
    crit = 1.0 / math.sqrt(f_quantile(0.95, 7, 534))
    report(7, "F-quantile critical value", abs(crit - 0.702) < 0.001,
           f"crit={crit:.5f}")


def test_08_frozen_model_oracle():
    m = PRESETS["thesis-2018"]
    p = Predictors(trg=205.0, w=27.0, t=44.0, pc=0.0, ep=17.0)
    lpm = (m.a * math.exp(-m.b / 205.0) - 0.002258 * 27.0 - 0.000109 * 44.0
           - 0.000912 * 0.0 - 0.005976 * 17.0 + 0.736975 * 1.0)
    oracle = math.exp(lpm)
    got = predict_pm(m, p, 1)
    rel = abs(got / oracle - 1.0)
    report(8, "frozen-model hand oracle", rel < 1e-9 and abs(got - 168.8) < 0.2,
           f"pm_hat={got:.3f} rel={rel:.2e}")


def test_09_interval_arithmetic():
    expect = {"standard-i1": (80.0, 130.0), "standard-i2": (70.0, 145.0),
              "ncep-i1": (70.0, 120.0), "ncep-i2": (55.0, 130.0)}
    ok = True
    for name, (lo, hi) in expect.items():
        band = interval(100.0, PROFILES[name])
        ok &= band.arm == "band" and band.lo == lo and band.hi == hi
        ok &= band.hi - band.lo == 2.5 * PROFILES[name].r
    prof = PROFILES["standard-i1"]
    ok &= interval(34.999, prof).arm == "low"
    ok &= interval(35.0, prof).arm == "band"
    ok &= interval(150.0, prof).arm == "band"
    ok &= interval(150.001, prof).arm == "high"
    report(9, "interval arithmetic", bool(ok))


def test_10_id_round_trip():
    bad = [pm for pm in range(1, 501)
           if predict_id_algo1(float(pm)) != id_from_lpm(10.0 * math.log(pm))]
    report(10, "id algorithms round trip", not bad, f"mismatches={bad[:5]}")


def test_11_bootstrap_determinism_and_identity():
    frame = build_frame(jan2014_records())
    spec = ModelSpec("with-id")
    base = gauss_newton(spec, frame)
    runs = {w: run_simulation(spec, frame, base, reps=200, size=25, seed=11, workers=w)
            for w in (1, 4, 8)}
    again = run_simulation(spec, frame, base, reps=200, size=25, seed=11, workers=1)

    def snap(s):
        return s.theta

    same = (np.array_equal(snap(runs[1]), snap(runs[4]), equal_nan=True)
            and np.array_equal(snap(runs[1]), snap(runs[8]), equal_nan=True)
            and np.array_equal(snap(runs[1]), snap(again), equal_nan=True)
            and runs[1].converged_count == runs[4].converged_count == runs[8].converged_count)
    gap = float(np.max(np.abs(runs[1].mse - (runs[1].std ** 2 + runs[1].bias ** 2))))
    report(11, "bootstrap determinism and moment identity",
           same and gap < 1e-10,
           f"bitwise={same} mse_gap={gap:.2e} converged={runs[1].converged_count}/200")


def test_12_full_dataset_reproduction():
    """Conditional: runs only when the full multi-year dataset is supplied."""
    building = os.environ.get("PM25CAST_BUILDING_OBS")
    obs2017 = os.environ.get("PM25CAST_OBS_2017")
    if not building or not obs2017:
        print("[ACCEPT] 12 full-dataset reproduction: SKIP "
              "(set PM25CAST_BUILDING_OBS and PM25CAST_OBS_2017 to run)")
        pytest.skip("full building/validation dataset not supplied")

    frame = build_frame(parse_observations(building))
    fit = gauss_newton(ModelSpec("iterated", rho=0.2), frame)
    expect_theta = np.array([45.763, 0.348, -0.021, -0.003, -0.009, -0.059, 7.198])
    theta_ok = np.all(np.abs(fit.theta - expect_theta) <= 0.005 * np.abs(expect_theta))
    rss_ok = abs(fit.rss - 4504.411) <= 0.001 * 4504.411

    v1 = jacobian(fit.spec, fit.theta, frame)
    v2 = hessian_cube(fit.spec, fit.theta, frame)
    cur = bates_curvature(v1, v2, fit.sigma_hat)
    cur_ok = abs(cur.rho_k_n - 0.004) <= 0.001 and abs(cur.rho_k_p - 0.013) <= 0.001
    bias = box_bias(v1, v2, fit.sigma_hat, fit.theta)
    bias_ok = np.nanmax(np.abs(bias.percent_bias)) < 0.5

    model = FrozenModel.from_lpm_params(fit.theta - bias.bias)
    records = parse_observations(obs2017)
    vframe = build_frame(records)
    predictors, _ = predictors_from_records(records)
    rates = {}
    for name in ("standard-i1", "standard-i2"):
        # the observed indicator forecasts only days with an observed pm > 0
        table, _ = forecast_series(model, predictors, PROFILES[name],
                                   id_source="observed", observations=records)
        report = inclusion_report(table, records.lookup("pm", table.date))
        rates[name] = 100.0 * report["recorded"]["rate"]
    inc_ok = abs(rates["standard-i1"] - 65.4) <= 0.5 and abs(rates["standard-i2"] - 83.0) <= 0.5

    report(12, "full-dataset reproduction",
           bool(theta_ok and rss_ok and cur_ok and bias_ok and inc_ok),
           f"theta_ok={theta_ok} rss_ok={rss_ok} cur_ok={cur_ok} "
           f"bias_ok={bias_ok} rates={rates}")


def test_13_statistical_test_sanity():
    rng = np.random.default_rng(17)
    a = rng.standard_normal(120)
    d, p = ks_two_sample(a, a.copy())
    ks_ok = d == 0.0 and p == 1.0

    x = rng.standard_normal(60)
    y = rng.standard_normal(60)
    base, _ = spearman_test(x, y)
    sp_ok = True
    for _ in range(100):
        kind = rng.integers(0, 4)
        aa = rng.uniform(0.2, 4.0)
        bb = rng.uniform(-3.0, 3.0)
        if kind == 0:
            g = aa * x + bb
        elif kind == 1:
            g = np.exp(aa * x)
        elif kind == 2:
            g = x ** 3 + bb
        else:
            g = np.arctan(aa * x)
        rho, _ = spearman_test(g, y)
        sp_ok &= abs(rho - base) < 1e-12
    report(13, "statistical test sanity", ks_ok and sp_ok,
           f"ks=({d},{p}) spearman_invariant={sp_ok}")
