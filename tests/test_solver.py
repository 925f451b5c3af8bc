import dataclasses
import datetime as dt
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pm25cast import (
    ModelFrame,
    ModelSpec,
    RankDeficiencyError,
    build_frame,
    gauss_newton,
)
from pm25cast import model, numerics, solver
from pm25cast.model import jacobian
from pm25cast.numerics import vecdot
from pm25cast.solver import fit_stack, write_trace_csv

from conftest import jan2014_records, noise_free_frame, obs_rows, obs_table, synthetic_records
from reference import qr_stack

TRUE_THETA = np.array([50.0, 1.8, -0.06, -0.01, -0.013, -0.15])


def test_noise_free_recovery():
    frame = noise_free_frame(TRUE_THETA, n=60, seed=5)
    fit = gauss_newton(ModelSpec("initial"), frame)
    assert fit.converged
    assert fit.steps <= 15
    rel = np.abs(fit.theta - TRUE_THETA) / np.maximum(1e-12, np.abs(TRUE_THETA))
    assert np.max(rel) < 1e-8
    assert fit.rss < 1e-12


def test_trace_monotone_and_starts_at_initial():
    frame = noise_free_frame(TRUE_THETA, n=60, seed=5)
    fit = gauss_newton(ModelSpec("initial"), frame)
    rss = [step.rss for step in fit.trace]
    assert len(rss) == fit.steps + 1
    assert np.allclose(fit.trace[0].theta, [40.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert all(b <= a for a, b in zip(rss, rss[1:]))


def test_gradient_small_at_solution(synth_frame):
    spec = ModelSpec("with-id")
    fit = gauss_newton(spec, synth_frame)
    assert fit.converged
    v1 = jacobian(spec, fit.theta, synth_frame)
    grad = v1.T @ fit.residuals
    assert np.linalg.norm(grad) / (1.0 + fit.rss) < 1e-6


def test_row_order_invariance():
    """The least-squares solution must not depend on row ordering."""
    recs = obs_rows(synthetic_records(n=30, seed=14))
    rng = np.random.default_rng(0)
    perm = rng.permutation(30)
    shuffled = obs_table(
        recs[k]._replace(date=dt.date(2022, 1, 1) + dt.timedelta(days=i))
        for i, k in enumerate(perm)
    )
    relabeled = obs_table(
        r._replace(date=dt.date(2022, 1, 1) + dt.timedelta(days=i))
        for i, r in enumerate(recs)
    )
    f1 = gauss_newton(ModelSpec("initial"), build_frame(relabeled))
    f2 = gauss_newton(ModelSpec("initial"), build_frame(shuffled))
    assert f1.converged and f2.converged
    assert np.allclose(f1.theta, f2.theta, atol=1e-10)
    assert f1.rss == pytest.approx(f2.rss, rel=1e-12)


def test_non_convergence_is_flagged_not_raised(synth_frame):
    fit = gauss_newton(ModelSpec("with-id"), synth_frame, max_steps=0)
    assert not fit.converged
    assert fit.steps == 0
    assert len(fit.trace) == 1


@pytest.mark.parametrize("theta1", [40.0, 0.0])
def test_non_finite_start_ends_unconverged(theta1):
    """exp(-th2/trg) overflows at th2 = -10000, so the starting RSS is inf
    (th1 = 40) or nan (th1 = 0, 0 * inf), and no numpy warning is raised."""
    theta0 = [theta1, -10000.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    frame = build_frame(jan2014_records())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = gauss_newton(ModelSpec("with-id"), frame, theta0=theta0)
    assert not fit.converged
    assert fit.steps == 0
    assert len(fit.trace) == 1
    assert np.array_equal(fit.trace[0].theta, theta0)
    assert not np.isfinite(fit.rss)


def test_non_finite_jacobian_ends_unconverged(synth_frame, monkeypatch):
    real_jacobian = model.jacobian
    calls = []

    def jacobian_nan_after_first_step(spec, theta, frame, rows=None):
        calls.append(1)
        v1 = real_jacobian(spec, theta, frame, rows)
        if len(calls) > 1:
            v1[0, 0] = np.nan
        return v1

    monkeypatch.setattr(model, "jacobian", jacobian_nan_after_first_step)
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    assert not fit.converged
    assert fit.steps == 1
    assert len(fit.trace) == 2
    assert np.isfinite(fit.rss) and fit.rss < fit.trace[0].rss


def test_fit_stack_ends_a_non_finite_jacobian_unconverged_without_a_fault(monkeypatch):
    """`r_factor` refuses a non-finite Jacobian, but only its rank faults
    are kept: that sample stops unconverged at its start, the others fit
    as they do alone."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=60, seed=9))
    rows = np.array([np.arange(k, k + 30) for k in (0, 5, 11)])
    alone = [gauss_newton(spec, frame.subset(idx)) for idx in rows]
    real_jacobian = model.jacobian

    def jacobian_nan_in_sample_1(spec, theta, frame, rows=None):
        v1 = real_jacobian(spec, theta, frame, rows)
        v1[rows[:, 0] == 5, 0, 0] = np.nan
        return v1

    monkeypatch.setattr(model, "jacobian", jacobian_nan_in_sample_1)
    run = fit_stack(spec, frame, rows, model.default_start(spec))
    assert run.fault == [None, None, None]
    assert not run.converged[1]
    assert np.array_equal(run.theta[1], model.default_start(spec))
    assert len(run.trace(1)) == 1
    for i in (0, 2):
        assert run.converged[i] and alone[i].converged
        assert np.array_equal(run.theta[i], alone[i].theta)


def _overflowing_step_frame(scale):
    """Twelve days whose regressors and exp(-680/trg) are all near 1e-295
    and whose response is near `scale`, so Gauss-Newton's first step from
    (1, 680, 0, 0, 0, 0) overflows: to inf in the back substitution at
    scale 1e12, to inf - inf = nan there at 1e20."""
    rng = np.random.default_rng(0)
    n = 12

    def tiny():
        return rng.uniform(1.0, 2.0, n) * 1e-295

    return ModelFrame(
        dates=np.arange("2020-01-01", "2020-01-13", dtype="datetime64[D]"),
        lpm=rng.uniform(1.0, 2.0, n) * scale,
        trg=np.linspace(1.0, 1.001, n),
        t=tiny(), w=tiny(), pc=tiny(), ep=tiny(), id=np.ones(n),
    )


@pytest.mark.parametrize("scale", [1e12, 1e20])
def test_non_finite_trial_step_is_a_fault_without_warning(scale):
    spec = ModelSpec("initial")
    frame = _overflowing_step_frame(scale)
    theta0 = np.array([1.0, 680.0, 0.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = fit_stack(spec, frame, np.arange(frame.n)[None], theta0)
        with pytest.raises(ValueError, match="^theta must be finite$"):
            gauss_newton(spec, frame, theta0=theta0)
    assert type(run.fault[0]) is ValueError and str(run.fault[0]) == "theta must be finite"
    assert not run.converged[0]
    assert np.array_equal(run.theta[0], theta0)
    assert len(run.trace(0)) == 1


def test_fit_started_at_its_minimum_converges(synth_frame, monkeypatch):
    """Started at its own minimum, every trial step is made to come out a
    few ulps above the RSS, as at the rounding floor: each trial point's
    fitted values are the minimum's, pushed just far enough away from the
    response to raise the RSS. The predicted decrease |Q1'r|^2 there is
    below rel_tol * RSS, so the fit has converged at the floor."""
    spec = ModelSpec("with-id")
    fit = gauss_newton(spec, synth_frame)
    y = model.response(spec, synth_frame, np.arange(synth_frame.n)[None])

    def rss_at(fitted):
        resid = y - fitted
        return vecdot(resid, resid)[0]

    push = np.finfo(float).eps
    while rss_at(fit.fitted - push * fit.residuals) <= fit.rss:
        push *= 2.0
    above = fit.fitted - push * fit.residuals
    real_eval_f = model.eval_f
    trials = []

    def eval_f_above_the_floor(spec, theta, frame, rows=None):
        f = real_eval_f(spec, theta, frame, rows)
        moved = ~np.all(np.asarray(theta) == fit.theta, axis=-1)
        f[moved] = above
        trials.append(int(moved.sum()))
        return f

    monkeypatch.setattr(model, "eval_f", eval_f_above_the_floor)
    again = gauss_newton(spec, synth_frame, theta0=fit.theta)
    q1, _, _ = qr_stack(jacobian(spec, fit.theta, synth_frame)[None])
    gain = q1[0].T @ fit.residuals
    assert gain @ gain <= 1e-8 * fit.rss
    assert sum(trials) == solver.MAX_HALVINGS + 1
    assert again.converged
    assert again.steps == 0
    assert np.array_equal(again.theta, fit.theta)


def test_halving_exhausted_away_from_a_minimum_is_unconverged(synth_frame, monkeypatch):
    """Every trial point is rejected (its f is made infinite) while the
    predicted decrease is large: the fit stops unconverged at its start."""
    real_eval_f = model.eval_f
    start = model.default_start(ModelSpec("with-id"))

    def eval_f_inf_off_start(spec, theta, frame, rows=None):
        f = real_eval_f(spec, theta, frame, rows)
        moved = ~np.all(np.asarray(theta) == start, axis=-1)
        f[moved] = np.inf
        return f

    monkeypatch.setattr(model, "eval_f", eval_f_inf_off_start)
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    assert not fit.converged
    assert fit.steps == 0
    assert np.array_equal(fit.theta, start)


def test_infinite_rss_gives_nan_standardized_residuals_without_warning():
    """exp(-th2/trg) overflows at th2 = -10000, so sigma_hat is inf."""
    frame = build_frame(jan2014_records())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = gauss_newton(ModelSpec("with-id"), frame,
                           theta0=[40.0, -10000.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert fit.sigma_hat == np.inf
    assert np.isnan(fit.std_residuals).all()


def test_fit_stack_matches_single_fits():
    """A stack of samples fits each sample exactly as gauss_newton fits it
    alone, and a sample whose Jacobian loses rank is faulted without
    stopping the others."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=60, seed=9))
    rows = np.array([np.arange(k, k + 30) for k in (0, 5, 11, 30)])
    run = fit_stack(spec, frame, rows, model.default_start(spec))
    for i, idx in enumerate(rows):
        alone = gauss_newton(spec, frame.subset(idx))
        assert run.fault[i] is None
        assert np.array_equal(run.theta[i], alone.theta)
        assert run.rss[i] == alone.rss
        assert bool(run.converged[i]) == alone.converged
        assert [(list(t), r) for t, r in run.trace(i)] == [(list(t), r) for t, r in alone.trace]

    pc = frame.pc.copy()
    pc[:30] = 0.0  # the pc column of rows[0] is zero: its Jacobian has rank 6
    bad = dataclasses.replace(frame, pc=pc)
    run = fit_stack(spec, bad, rows[[3, 0, 1]], model.default_start(spec))
    assert [type(f).__name__ if f else None for f in run.fault] == [
        None, "RankDeficiencyError", None
    ]
    assert run.converged[[0, 2]].all()


STACK_FRAME = build_frame(synthetic_records(n=60, seed=9))
# scale of each parameter's offset from the default start in stacked-fit tests
START_SPREAD = np.array([500.0, 100.0, 0.1, 0.01, 0.01, 0.1, 1.0])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_stack_fits_each_sample_alone(spec, frame, rows, starts, run):
    """Sample i of the stacked `run` is gauss_newton's fit of
    frame.subset(rows[i]) from starts[i], bit for bit, fault included."""
    for i, idx in enumerate(rows):
        try:
            alone = gauss_newton(spec, frame.subset(idx), theta0=starts[i])
        except (RankDeficiencyError, ValueError) as exc:
            assert type(run.fault[i]) is type(exc) and str(run.fault[i]) == str(exc)
            continue
        assert run.fault[i] is None
        assert _bits(run.theta[i]) == _bits(alone.theta)
        assert _bits(run.rss[i]) == _bits(alone.rss)
        assert _bits(run.sigma_hat[i]) == _bits(alone.sigma_hat)
        assert bool(run.converged[i]) == alone.converged
        assert [_bits(t) + _bits(r) for t, r in run.trace(i)] == [
            _bits(t) + _bits(r) for t, r in alone.trace
        ]
        assert alone.rss == alone.trace[-1].rss
        assert alone.steps == len(alone.trace) - 1
        assert _bits(alone.sigma_hat) == _bits(math.sqrt(alone.rss / (idx.size - spec.q)))


@st.composite
def _stacks(draw):
    """(spec, rows, starts): 2-6 sorted row samples of STACK_FRAME, drawn
    with replacement, and one start per sample around the default start."""
    spec = ModelSpec(draw(st.sampled_from(["initial", "with-id"])))
    k = draw(st.integers(2, 6))
    m = draw(st.integers(15, 40))
    sample = st.lists(st.integers(0, STACK_FRAME.n - 1), min_size=m, max_size=m)
    rows = np.sort(np.array(draw(st.lists(sample, min_size=k, max_size=k))), axis=1)
    offset = st.lists(st.floats(-1.0, 1.0), min_size=spec.q, max_size=spec.q)
    offsets = np.array(draw(st.lists(offset, min_size=k, max_size=k)))
    return spec, rows, model.default_start(spec) + offsets * START_SPREAD[: spec.q]


@settings(max_examples=25, deadline=None)
@given(stack=_stacks())
def test_fit_stack_fits_each_sample_as_alone_from_its_own_start(stack):
    spec, rows, starts = stack
    run = fit_stack(spec, STACK_FRAME, rows, starts)
    _assert_stack_fits_each_sample_alone(spec, STACK_FRAME, rows, starts, run)


def test_fit_stack_samples_halve_to_different_depths_in_one_iteration(monkeypatch):
    """In one iteration the sample started at the default start takes its
    full step while the far start needs at least two halvings; both still
    fit exactly as they fit alone."""
    spec = ModelSpec("with-id")
    rows = np.array([np.arange(0, 30), np.arange(20, 50)])
    starts = np.array([model.default_start(spec)] * 2)
    starts[1, :2] = 1000.0, 80.0
    real_eval_f, real_jacobian = model.eval_f, model.jacobian
    rounds = []  # per iteration, the number of samples evaluated in each round

    def counting_jacobian(*args):
        rounds.append([])
        return real_jacobian(*args)

    def counting_eval_f(spec, theta, frame, rows=None):
        if rounds:  # not the start's evaluation
            rounds[-1].append(len(theta))
        return real_eval_f(spec, theta, frame, rows)

    with monkeypatch.context() as patch:
        patch.setattr(model, "jacobian", counting_jacobian)
        patch.setattr(model, "eval_f", counting_eval_f)
        run = fit_stack(spec, STACK_FRAME, rows, starts)
    assert run.fault == [None, None] and run.converged.all()
    assert any(r[:2] == [2, 1] and len(r) >= 3 for r in rounds)
    _assert_stack_fits_each_sample_alone(spec, STACK_FRAME, rows, starts, run)


def test_fit_stack_refuses_a_sample_out_of_date_order():
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=60, seed=9))
    rows = np.array([np.arange(0, 30), np.arange(30, 60)])
    rows[1, [4, 5]] = rows[1, [5, 4]]
    with pytest.raises(ValueError, match="non-decreasing"):
        fit_stack(spec, frame, rows, model.default_start(spec))
    # repeated rows keep the dates non-decreasing
    rows[1] = np.sort(rows[1]).clip(max=50)
    assert fit_stack(spec, frame, rows, model.default_start(spec)).fault == [None, None]


def test_wrong_length_start_is_refused(synth_frame):
    with pytest.raises(ValueError, match=r"^theta0 must have length 7, got shape \(2,\)$"):
        gauss_newton(ModelSpec("with-id"), synth_frame, theta0=[40.0, 1.0])


def test_too_few_rows():
    frame = build_frame(synthetic_records(n=6, seed=3))
    with pytest.raises(ValueError):
        gauss_newton(ModelSpec("with-id"), frame)  # q = 7 needs n > 7


def test_rank_deficiency_raised():
    # t copied into w makes two identical jacobian columns
    recs = []
    rng = np.random.default_rng(6)
    for i in range(20):
        shared = float(rng.uniform(20.0, 80.0))
        trg = float(rng.uniform(30.0, 200.0))
        recs.append((
            dt.date(2022, 3, 1) + dt.timedelta(days=i),
            float(np.exp(rng.uniform(3.0, 5.0))), shared, trg, 0.0,
            float(rng.uniform(0.0, 400.0)), shared, float(rng.uniform(0.0, 50.0)),
        ))
    frame = build_frame(obs_table(recs))
    with pytest.raises(RankDeficiencyError):
        gauss_newton(ModelSpec("initial"), frame)


def test_sigma_hat_and_standardized_residuals(synth_frame):
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    n, q = synth_frame.n, 7
    assert fit.sigma_hat == pytest.approx(np.sqrt(fit.rss / (n - q)), rel=1e-14)
    assert np.allclose(fit.std_residuals, fit.residuals / fit.sigma_hat, atol=1e-14)


def test_zero_residual_standardization():
    frame = noise_free_frame(TRUE_THETA, n=60, seed=5)
    fit = gauss_newton(ModelSpec("initial"), frame)
    assert fit.sigma_hat < 1e-8
    assert np.all(np.isfinite(fit.std_residuals))


def test_exact_fit_has_zero_standardized_residuals(synth_frame):
    """A response the linear family reproduces bit for bit has RSS 0, so
    sigma_hat is 0 and the standardized residuals are 0, not nan."""
    frame = dataclasses.replace(synth_frame, lpm=2.0 + 3.0 * synth_frame.t)
    fit = gauss_newton(ModelSpec("linear"), frame, theta0=[2.0, 3.0], max_steps=0)
    assert fit.rss == 0.0 and fit.sigma_hat == 0.0
    assert np.array_equal(fit.std_residuals, np.zeros(frame.n))


def test_explicit_start_used(synth_frame):
    theta0 = np.array([45.0, 1.2, 0.01, 0.0, 0.0, 0.0, 0.5])
    fit = gauss_newton(ModelSpec("with-id"), synth_frame, theta0=theta0)
    assert np.allclose(fit.trace[0].theta, theta0)
    assert fit.converged


def test_fitted_plus_residuals_is_response(synth_frame):
    spec = ModelSpec("with-id")
    fit = gauss_newton(spec, synth_frame)
    assert np.allclose(fit.fitted + fit.residuals, synth_frame.lpm, atol=1e-10)


def test_iterated_families_fit(synth_frame):
    fit = gauss_newton(ModelSpec("iterated", rho=0.3), synth_frame)
    assert fit.converged
    free = gauss_newton(ModelSpec("iterated-free-rho"), synth_frame)
    assert free.converged
    assert -1.0 < free.theta[7] < 1.0


@pytest.mark.parametrize(
    "spec,theta,rss",
    [
        (ModelSpec("iterated", rho=0.2),
         [47.388992255910374, 1.4346081364325631, -0.056490160984004514,
          0.015355961308871013, 0.04154470446563297, 0.09271747352929366,
          6.495176266496433],
         112.43194062217671),
        (ModelSpec("iterated-free-rho"),
         [47.349846663780106, 1.2729854450614861, -0.06618797942922872,
          0.014355449802777545, 0.0391730791269992, 0.10084917065151143,
          6.872541084277681, 0.04038630687328849],
         110.29584498503844),
    ],
    ids=["iterated", "iterated-free-rho"],
)
def test_iterated_fit_on_january_2014_is_pinned(spec, theta, rss):
    """Estimates recorded with a term-by-term implementation of the iterated
    equations; a sign or term slip shared by f and its derivatives, which the
    finite-difference tests cannot see, moves them."""
    fit = gauss_newton(spec, build_frame(jan2014_records()))
    assert fit.converged
    assert np.allclose(fit.theta, theta, rtol=1e-10, atol=0.0)
    assert fit.rss == pytest.approx(rss, rel=1e-10)


@pytest.mark.parametrize("family", ["initial", "with-id"])
@pytest.mark.parametrize("records", [jan2014_records, lambda: synthetic_records(n=365, seed=3)],
                         ids=["jan2014", "synthetic-365"])
def test_fit_is_the_global_minimum_of_the_theta2_profile(family, records):
    """Given th2 the model is linear in the other parameters, so the RSS
    profiled over them is the squared corner of one R factor of
    [exp(-th2/trg), w, t, pc, ep(, id) | lpm]. On a grid of th2 over
    +-[1e-3, 1e4], no profile point lies below the fit's RSS, and the
    profile at th2-hat is that RSS. A grid point whose exponential column
    overflows or vanishes faults in `r_factor` and is skipped."""
    spec, frame = ModelSpec(family), build_frame(records())
    fit = gauss_newton(spec, frame)
    assert fit.converged
    grid = np.concatenate([[fit.theta[1]], -np.logspace(-3, 4, 350), np.logspace(-3, 4, 350)])
    linear = [getattr(frame, name) for name in ("w", "t", "pc", "ep", "id")[: spec.q - 2]]
    with np.errstate(over="ignore"):
        expo = np.exp(-grid[:, None] / frame.trg)
    cols = np.broadcast_arrays(expo, *linear, frame.lpm)
    r_mat, fault = numerics.r_factor(np.stack(cols, axis=-1), spec.q - 1)
    factored = np.array([f is None for f in fault])
    profile = r_mat[:, -1, -1] ** 2
    assert factored[0] and profile[0] == pytest.approx(fit.rss, rel=1e-12, abs=0.0)
    assert factored.sum() >= 0.8 * grid.size
    assert profile[factored].min() >= fit.rss * (1.0 - 1e-12)


def test_write_trace_csv(tmp_path, synth_frame):
    fit = gauss_newton(ModelSpec("with-id"), synth_frame)
    out = tmp_path / "trace.csv"
    write_trace_csv(fit, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step," + ",".join(f"theta{i}" for i in range(1, 8)) + ",rss"
    assert len(lines) == fit.steps + 2
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(fit.rss, rel=1e-12)
