import json
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pm25cast import (
    ModelSpec,
    StratificationError,
    bootstrap,
    build_frame,
    diagnostics,
    gauss_newton,
    model,
    run_simulation,
)
from pm25cast.bootstrap import (
    _allocate,
    apply_correction,
    summary_dict,
    write_replications_csv,
)
from pm25cast.data import _write_json
from pm25cast.numerics import r_factor

from conftest import jan2014_records, noise_free_frame, obs_rows, obs_table, synthetic_records

PIN = Path(__file__).resolve().parent / "data" / "bootstrap_jan2014_pin.json"


@pytest.fixture(scope="module")
def month_frame():
    return build_frame(jan2014_records())


@pytest.fixture(scope="module")
def month_fit(month_frame):
    fit = gauss_newton(ModelSpec("with-id"), month_frame)
    assert fit.converged
    return fit


# ---------------------------------------------------------------- allocation


def test_allocation_largest_remainder():
    # worked example: strata 100/300/141 of 541 rows, drawing 450
    assert list(_allocate(np.array([100, 300, 141]), 450)) == [83, 250, 117]


def test_allocation_sums_and_caps():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = rng.integers(2, 5)
        sizes = rng.integers(5, 200, size=k)
        total = int(rng.integers(k, sizes.sum() + 1))
        alloc = _allocate(sizes, total)
        assert sum(alloc) == total
        assert all(0 <= a <= s for a, s in zip(alloc, sizes))
        # never off by more than one row from exact proportionality
        for a, s in zip(alloc, sizes):
            assert abs(a - total * s / sizes.sum()) <= 1.0


# ---------------------------------------------------------------- sampling


def seed_words(children):
    return np.array([child.generate_state(4, np.uint64) for child in children])


def drawn_rows(frame, size, seed, with_replacement=False):
    """The sorted frame rows that `_strata` and `_draw` give one int seed,
    as `run_simulation` draws and sorts a replication's rows."""
    rows = bootstrap._draw(*bootstrap._strata(frame, size),
                           seed_words([np.random.SeedSequence(seed)]), with_replacement)
    return np.sort(rows[0])


def id_strata(frame, size):
    """Rows of each id level, lowest level first, and the largest-remainder
    allocation of `size` over them, written out with np.unique."""
    strata = [np.flatnonzero(frame.id == level) for level in np.unique(frame.id)]
    return strata, _allocate([stratum.size for stratum in strata], size)


def choice_rows(strata, allocs, child, with_replacement=False):
    """A stratified sample as numpy draws it: `default_rng(child).choice`
    on each stratum in turn."""
    rng = np.random.default_rng(child)
    return np.concatenate([stratum[rng.choice(stratum.size, k, replace=with_replacement)]
                           for stratum, k in zip(strata, allocs)])


def test_sample_is_sorted_subset(month_frame):
    rows = drawn_rows(month_frame, 20, seed=4)
    assert rows.size == 20
    assert np.all(np.diff(month_frame.dates[rows]).astype(int) >= 0)


def test_sample_full_size_is_identity(month_frame):
    rows = drawn_rows(month_frame, month_frame.n, seed=4)
    assert np.array_equal(month_frame.lpm[rows], month_frame.lpm)
    assert np.array_equal(month_frame.dates[rows], month_frame.dates)


def test_sample_preserves_stratum_proportions(month_frame):
    # id level 0 holds 10 of 31 rows; a draw of 21 must take 7 (level 0)
    # and 14 (level 1) by largest remainder
    ids = month_frame.id[drawn_rows(month_frame, 21, seed=11)]
    assert int(np.sum(ids == 0.0)) == 7
    assert int(np.sum(ids == 1.0)) == 14


def test_sample_seed_determinism(month_frame):
    a, b, c = (month_frame.lpm[drawn_rows(month_frame, 20, seed)] for seed in (11, 11, 12))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_without_replacement_has_no_duplicates(month_frame):
    rows = drawn_rows(month_frame, 25, seed=2)
    dates = month_frame.dates[rows].astype("datetime64[D]").astype(str)
    assert len(set(dates)) == 25


def test_sample_with_replacement_can_repeat(month_frame):
    hit = False
    for seed in range(10):
        rows = drawn_rows(month_frame, 25, seed=seed, with_replacement=True)
        dates = month_frame.dates[rows].astype(str)
        if len(set(dates)) < 25:
            hit = True
            break
    assert hit


@pytest.mark.parametrize("records", [jan2014_records, lambda: synthetic_records(n=365, seed=3)],
                         ids=["two-levels", "three-levels"])
@pytest.mark.parametrize("with_replacement", [False, True])
def test_draws_of_many_seeds_are_each_seed_drawn_alone(records, with_replacement):
    """Each row of one multi-seed draw is that seed's stratified sample:
    its rows, stratum by stratum, as `Generator.choice` draws them."""
    frame = build_frame(records())
    strata, allocs = bootstrap._strata(frame, 25)
    seeds = np.random.SeedSequence(5).spawn(30)
    rows = bootstrap._draw(strata, allocs, seed_words(seeds), with_replacement)
    assert rows.shape == (30, 25)
    for row, seed in zip(rows, seeds):
        alone_row = bootstrap._draw(strata, allocs, seed_words([seed]), with_replacement)[0]
        assert np.array_equal(row, alone_row)
        alone = choice_rows(*id_strata(frame, 25), seed, with_replacement)
        assert np.array_equal(row, alone)
        for stratum, lo, hi in zip(strata, np.cumsum(allocs) - allocs, np.cumsum(allocs)):
            assert np.isin(row[lo:hi], stratum).all()


# ------------------------------------------ the draw, held to numpy itself


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7, [3, 2**40]])
def test_child_seed_words_are_those_of_spawned_children(seed):
    got = bootstrap._child_seed_words(seed, 300)
    assert got.dtype == np.uint64
    assert np.array_equal(got, seed_words(np.random.SeedSequence(seed).spawn(300)))


def test_word_table_is_each_generators_raw_output_in_halves():
    children = np.random.SeedSequence(9).spawn(20)
    words = bootstrap._words(seed_words(children), 13)
    assert words.shape == (20, 14) and words.dtype == np.uint32
    for row, child in zip(words, children):
        raw = np.random.PCG64(child).random_raw(7)
        assert np.array_equal(row[0::2], raw & np.uint64(2**32 - 1))
        assert np.array_equal(row[1::2], raw >> np.uint64(32))


def choice_cases():
    """(stratum sizes, allocations): one stratum at k = 0, 1, k < n,
    n // 50 + 1 and n (above 10000 rows, k > n // 50 takes numpy's tail
    shuffle); three strata where the small ones get 0 rows, and a tail
    shuffle that later strata draw on from."""
    for n in (1, 2, 31, 365, 10000, 10001):
        for k in sorted({0, 1, n // 3, n // 50 + 1, n}):
            yield (n,), (k,)
    for total in (1, 2, 3, 5, 20, 34):
        yield (1, 2, 31), tuple(_allocate(np.array([1, 2, 31]), total))
    yield (10001, 31, 1), (201, 5, 1)


@pytest.mark.parametrize("cells", [bootstrap._DRAW_CELLS, 1], ids=["one-pass", "row-by-row"])
@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("sizes, allocs", list(choice_cases()))
def test_draw_is_generator_choice_stratum_by_stratum(
    monkeypatch, sizes, allocs, with_replacement, cells
):
    monkeypatch.setattr(bootstrap, "_DRAW_CELLS", cells)
    children = np.random.SeedSequence(2**70 + 1).spawn(5)
    frame_rows = np.random.default_rng(0).permutation(sum(sizes))
    strata = np.split(frame_rows, np.cumsum(sizes)[:-1])
    rows = bootstrap._draw(strata, np.array(allocs), seed_words(children), with_replacement)
    for row, child in zip(rows, children):
        assert np.array_equal(row, choice_rows(strata, allocs, child, with_replacement))


def test_rejected_words_are_skipped_as_generator_integers_skips_them(monkeypatch):
    """On [0, 2**31] Lemire's method rejects a word when the low half of its
    product is under 2**32 mod (2**31 + 1) = 2**31 - 1, about every other
    word: the words are read once, as if none were rejected, and each row
    that rejected one is drawn again on its own stream."""
    counts, streamed = [], []
    words_of, streams_of = bootstrap._words, bootstrap._streams

    def counted(rows, count):
        counts.append(count)
        return words_of(rows, count)

    def streams(rows):
        streamed.append(len(rows))
        return streams_of(rows)

    monkeypatch.setattr(bootstrap, "_words", counted)
    monkeypatch.setattr(bootstrap, "_streams", streams)
    children = np.random.SeedSequence(3).spawn(40)
    bound = np.uint64(2**31)
    values = bootstrap._bounded(seed_words(children), np.full(60, bound))
    for row, child in zip(values, children):
        assert np.array_equal(row, np.random.default_rng(child).integers(0, 2**31 + 1, size=60))
    # one word table of the 60 live draws and one spare, then the redrawn rows
    assert counts == [61]
    assert len(streamed) == 2 and streamed[1] >= 1
    # read without rejection, the first 60 words give other values
    first = words_of(seed_words(children), 60)[:, :60].astype(np.uint64)
    assert not np.array_equal(values, first * (bound + np.uint64(1)) >> np.uint64(32))


def test_sample_size_validation(month_frame):
    with pytest.raises(StratificationError):
        drawn_rows(month_frame, 0, seed=1)
    with pytest.raises(StratificationError):
        drawn_rows(month_frame, month_frame.n + 1, seed=1)


# ---------------------------------------------------------------- simulation


def test_simulation_deterministic_across_workers(month_frame, month_fit):
    spec = ModelSpec("with-id")
    runs = [run_simulation(spec, month_frame, month_fit, reps=60, size=25,
                           seed=11, workers=w) for w in (1, 4)]
    assert np.array_equal(runs[0].theta, runs[1].theta, equal_nan=True)
    assert runs[0].converged_count == runs[1].converged_count
    assert runs[0].ks_pass_count == runs[1].ks_pass_count


def test_simulation_same_seed_bitwise(month_frame, month_fit):
    spec = ModelSpec("with-id")
    a = run_simulation(spec, month_frame, month_fit, reps=40, size=25, seed=5)
    b = run_simulation(spec, month_frame, month_fit, reps=40, size=25, seed=5)
    assert np.array_equal(a.theta, b.theta, equal_nan=True)
    assert np.array_equal(a.bias, b.bias)


def test_simulation_moment_identity(month_frame, month_fit):
    s = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                       reps=80, size=25, seed=7)
    assert np.max(np.abs(s.mse - (s.std ** 2 + s.bias ** 2))) < 1e-10


@pytest.mark.parametrize(
    "spec,records,sizes",
    [
        (ModelSpec("with-id"), jan2014_records, (12, 26)),
        (ModelSpec("iterated", rho=0.3), lambda: synthetic_records(n=365, seed=3), (150, 250)),
    ],
    ids=["with-id", "iterated-0.3"],
)
def test_mse_is_std_squared_plus_bias_squared(spec, records, sizes):
    """mse_j = std_j^2 + bias_j^2 on every summary (population scaling)."""
    frame = build_frame(records())
    base = gauss_newton(spec, frame)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(*sizes),
           with_replacement=st.booleans())
    def identity_holds(seed, size, with_replacement):
        s = run_simulation(spec, frame, base, reps=30, size=size, seed=seed,
                           with_replacement=with_replacement)
        assert s.converged_count >= 2
        np.testing.assert_allclose(s.mse, s.std ** 2 + s.bias ** 2, rtol=1e-12, atol=0.0)

    identity_holds()


def test_simulation_counts_and_correction(month_frame, month_fit):
    s = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                       reps=50, size=25, seed=9)
    assert s.replications == 50
    for column in (s.converged, s.curvature_pass, s.ks_p, s.identical_residuals):
        assert column.shape == (50,)
    assert s.theta.shape == (50, 7)
    assert 0 <= s.converged_count <= 50
    assert s.ks_pass_count >= s.ks_strong_count
    assert np.allclose(s.theta_corrected, month_fit.theta - s.bias, atol=1e-14)


def test_full_size_draws_reproduce_baseline(month_frame, month_fit):
    """Sampling n of n without replacement refits the same rows, so every
    replication lands exactly on the baseline estimate."""
    s = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                       reps=10, size=month_frame.n, seed=3)
    assert s.converged_count == 10
    assert s.identical_residual_count == 10
    assert s.ks_pass_count == 10
    assert np.allclose(s.bias, 0.0, atol=1e-9)
    assert np.allclose(s.std, 0.0, atol=1e-9)
    assert (s.ks_p == 1.0).all()


def test_noise_free_simulation_zero_bias():
    theta = np.array([50.0, 1.8, -0.06, -0.01, -0.013, -0.15])
    frame = noise_free_frame(theta, n=50, seed=21)
    spec = ModelSpec("initial")
    fit = gauss_newton(spec, frame)
    s = run_simulation(spec, frame, fit, reps=20, size=30, seed=2)
    assert s.converged_count == 20
    assert np.max(np.abs(s.bias)) < 1e-6
    assert np.max(s.mse) < 1e-10


def test_gate_respects_min_ks_pass(month_frame, month_fit):
    s = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                       reps=30, size=25, seed=13, min_ks_pass=0.0)
    assert s.gate_ok
    strict = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                            reps=30, size=25, seed=13, min_ks_pass=1.01)
    assert not strict.gate_ok


def test_no_converged_replication_reported_not_raised(tmp_path):
    # 25 of 365 rows leave fewer lag pairs than the 7 parameters need
    frame = build_frame(synthetic_records(n=365, seed=3))
    spec = ModelSpec("iterated", rho=0.3)
    fit = gauss_newton(spec, frame)
    s = run_simulation(spec, frame, fit, reps=20, size=25, seed=0)
    assert s.converged_count == 0
    assert np.all(np.isnan(s.theta_corrected))
    _write_json(summary_dict(s), tmp_path / "summary.json")
    assert json.loads((tmp_path / "summary.json").read_text())["theta_corrected"] == [None] * 7
    write_replications_csv(s, tmp_path / "reps.csv")
    rows = tmp_path.joinpath("reps.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 20 and all(row.split(",")[1] == "0" for row in rows)


def test_overflowing_trial_step_warns_nothing(month_frame, month_fit):
    """Seed 2 draws size-10 samples whose trial steps overflow the model's
    product th1*exp(-th2/trg); such a trial is rejected as a non-finite RSS
    without a numpy warning, and 92 of the 100 replications converge."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                           reps=100, size=10, seed=2, with_replacement=True)
    assert s.converged_count == 92


@pytest.mark.parametrize("theta0", [[40.0, 1.0], [[40.0, 1.0, 0, 0, 0, 0, 1.0]] * 2])
def test_wrong_length_start_raises_before_any_draw(month_frame, month_fit, theta0):
    """A start that is not a 7-vector for the with-id family is refused,
    not fitted as 0 of `reps` converged replications."""
    with mock.patch.object(bootstrap, "_draw", side_effect=AssertionError("drew a sample")):
        with pytest.raises(ValueError, match=r"^theta0 must have length 7, got shape \("):
            run_simulation(ModelSpec("with-id"), month_frame, month_fit,
                           reps=20, size=25, seed=0, theta0=theta0)


def test_zero_reps_and_an_empty_frame_are_refused(month_frame, month_fit):
    spec = ModelSpec("with-id")
    with pytest.raises(ValueError, match="^reps must be positive$"):
        run_simulation(spec, month_frame, month_fit, reps=0, size=25, seed=0)
    with pytest.raises(StratificationError, match="^cannot sample from an empty frame$"):
        run_simulation(spec, month_frame.subset([]), month_fit, reps=5, size=25, seed=0)


# ---------------------------------------------------------------- lockstep engine


def _outcome(summary):
    return [
        (r, summary.converged[r], summary.curvature_pass[r], repr(summary.ks_p[r]),
         summary.ks_pass[r], summary.ks_strong[r], summary.identical_residuals[r],
         summary.theta[r].tobytes())
        for r in range(summary.replications)
    ]


@pytest.mark.parametrize(
    "spec,records,size,with_replacement",
    [
        (ModelSpec("with-id"), jan2014_records, 25, False),
        (ModelSpec("with-id"), jan2014_records, 25, True),
        # 60 of 365 days: lag-pair counts vary, some too small to fit
        (ModelSpec("iterated", rho=0.3), lambda: synthetic_records(n=365, seed=3), 60, False),
        # the eighth parameter and its 9-pair face support
        (ModelSpec("iterated-free-rho"), lambda: synthetic_records(n=365, seed=3), 60, True),
    ],
    ids=["with-id", "with-id-replacement", "iterated-0.3", "iterated-free-rho"],
)
def test_replications_do_not_depend_on_their_block(spec, records, size, with_replacement):
    """run_simulation's output is bit-identical at any FIT_STACK size."""
    frame = build_frame(records())
    base = gauss_newton(spec, frame)

    def run():
        s = run_simulation(spec, frame, base, reps=40, size=size, seed=17,
                           with_replacement=with_replacement)
        return _outcome(s), [a.tobytes() for a in (s.bias, s.std, s.mse, s.theta_corrected)]

    reference = run()
    assert any(rec[1] for rec in reference[0])

    @settings(max_examples=10, deadline=None)
    @given(stack=st.integers(min_value=1, max_value=45))
    @example(stack=1)
    @example(stack=7)
    @example(stack=40)
    def same_at(stack):
        with mock.patch.object(bootstrap, "FIT_STACK", stack):
            assert run() == reference

    same_at()


def test_january_2014_replications_match_the_recorded_run(month_frame, month_fit):
    """Pinned against the replication-at-a-time solver. Reps listed as
    floor reps (their last step sits at the RSS rounding floor, where the
    path to the minimum depends on last bits) are held to their RSS only."""
    pin = json.loads(PIN.read_text())
    spec = ModelSpec("with-id")
    s = run_simulation(spec, month_frame, month_fit, reps=200, size=25, seed=11)
    assert {
        "converged_count": s.converged_count,
        "curvature_pass_count": s.curvature_pass_count,
        "ks_pass_count": s.ks_pass_count,
        "ks_strong_count": s.ks_strong_count,
        "identical_residual_count": s.identical_residual_count,
    } == pin["counts"]
    assert s.converged.tolist() == pin["converged"]

    old = np.array(pin["theta"], dtype=float)
    new = s.theta
    assert np.array_equal(np.isnan(old), np.isnan(new))
    rest = [r for r in range(s.replications) if r not in pin["floor_reps"]]
    scale = np.nanmax(np.abs(old), axis=0)
    assert np.nanmax(np.abs(new[rest] - old[rest]) / scale) <= 1e-12

    children = np.random.SeedSequence(11).spawn(s.replications)
    strata, allocs = id_strata(month_frame, 25)
    for r in np.flatnonzero(s.converged):
        sub = month_frame.subset(np.sort(choice_rows(strata, allocs, children[r])))
        resid = sub.lpm - model.eval_f(spec, s.theta[r], sub)
        assert resid @ resid == pytest.approx(pin["rss"][r], rel=1e-12, abs=0.0)


def test_simulation_memory_stays_small():
    """Fitting one replication at a time peaked at ~1.2 MiB; the lockstep
    engine adds the Jacobians, QR factors and face entries of one stack,
    which FIT_STACK must keep bounded: stacks of 100 peak at ~1.7 MiB, and
    one stack of all 1000 replications at ~14 MiB. Nothing is imported before
    tracing starts, so a module that the run imports on first use counts too:
    numpy.ma, which numpy 2's `np.unique` imports, took a first run to
    ~2.7 MiB. The run imports nothing now, so a first run peaks as a later
    one does, ~1.3 MiB under the bound."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=365, seed=3))
    base = gauss_newton(spec, frame)
    tracemalloc.start()
    try:
        s = run_simulation(spec, frame, base, reps=1000, size=25, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.converged_count > 900
    assert peak < 3 * 2 ** 20


def test_tail_shuffle_draw_memory_stays_small():
    """A stratum above 10000 rows with k > n // 50 takes numpy's tail
    shuffle, which numpy draws one replication at a time. Emulated over all
    replications at once, its n x reps table took this run to ~35 MiB;
    drawn by numpy, the run peaks at ~3.3 MiB, most of it the samples."""
    words = bootstrap._child_seed_words(0, 1000)
    strata = np.split(np.arange(10033), [10001, 10032])
    tracemalloc.start()
    try:
        rows = bootstrap._draw(strata, np.array([201, 5, 1]), words, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (1000, 207)
    assert peak < 8 * 2 ** 20


def test_simulation_runs_without_numpy_2_vecdot(monkeypatch, month_frame, month_fit):
    """numpy >= 1.24 is supported: nothing on the fit, curvature or KS path
    may need `np.vecdot` (new in numpy 2), and its stand-in gives the same bits."""
    spec = ModelSpec("with-id")
    with_it = run_simulation(spec, month_frame, month_fit, reps=30, size=25, seed=4)
    monkeypatch.delattr(np, "vecdot", raising=False)
    fit = gauss_newton(spec, month_frame)
    assert fit.converged and np.array_equal(fit.theta, month_fit.theta)
    without = run_simulation(spec, month_frame, fit, reps=30, size=25, seed=4)
    assert without.converged_count == with_it.converged_count > 0
    assert np.array_equal(with_it.theta, without.theta, equal_nan=True)
    assert np.array_equal(with_it.ks_p, without.ks_p, equal_nan=True)
    corrected = apply_correction(fit, without, spec, month_frame)
    assert np.isfinite([corrected.curvature.rho_k_n, corrected.curvature.rho_k_p]).all()


# ---------------------------------------------------------------- correction


def test_apply_correction_fields(month_frame, month_fit):
    spec = ModelSpec("with-id")
    s = run_simulation(spec, month_frame, month_fit, reps=40, size=25, seed=7)
    out = apply_correction(month_fit, s, spec, month_frame)
    assert np.allclose(out.fit.theta, s.theta_corrected, atol=1e-14)
    assert out.fit.steps == 0
    assert out.curvature is not None
    assert out.rss_observation_before > 0
    assert out.rss_observation_after > 0


def test_linear_family_correction_has_no_structural_rss(month_frame):
    spec = ModelSpec("linear")
    fit = gauss_newton(spec, month_frame)
    s = run_simulation(spec, month_frame, fit, reps=10, size=25, seed=5)
    assert s.converged_count > 0
    out = apply_correction(fit, s, spec, month_frame)
    assert np.array_equal(out.fit.theta, s.theta_corrected)
    assert out.rss_observation_before is None
    assert out.rss_observation_after is None


def test_zero_bias_correction_is_identity(month_frame, month_fit):
    spec = ModelSpec("with-id")
    s = run_simulation(spec, month_frame, month_fit, reps=10,
                       size=month_frame.n, seed=3)
    out = apply_correction(month_fit, s, spec, month_frame)
    assert np.allclose(out.fit.theta, month_fit.theta, atol=1e-9)
    assert out.fit.rss == pytest.approx(month_fit.rss, rel=1e-9)


def test_simulation_factors_once_per_screened_stack_and_once_for_the_correction(
        month_frame, month_fit, monkeypatch):
    """The screen factors [V1 | C] once for each stack of converged
    replications (here two stacks of up to FIT_STACK), and the correction
    once at theta_corrected: curvature and Box bias share every factor."""
    spec = ModelSpec("with-id")
    shapes = []

    def counted(a, q):
        shapes.append(a.shape)
        return r_factor(a, q)

    monkeypatch.setattr(diagnostics, "r_factor", counted)
    s = run_simulation(spec, month_frame, month_fit, reps=200, size=25, seed=11)
    apply_correction(month_fit, s, spec, month_frame)
    assert shapes == [(99, 25, 9), (100, 25, 9), (1, month_frame.n, 9)]
    assert s.converged_count == 199


# ---------------------------------------------------------------- artifacts


def test_replication_csv_and_summary_json(tmp_path, month_frame, month_fit):
    spec = ModelSpec("with-id")
    s = run_simulation(spec, month_frame, month_fit, reps=12, size=25, seed=19)
    csv_path = tmp_path / "reps.csv"
    write_replications_csv(s, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("rep,converged,")

    _write_json(summary_dict(s), tmp_path / "summary.json")
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["converged"] == s.converged_count
    assert len(payload["bias"]) == 7
    assert payload == {key: value.tolist() if isinstance(value, np.ndarray) else value
                       for key, value in summary_dict(s).items()}


# ---------------------------------------------------------------- dropped days

FLAT_DAYS = [4, 11, 12, 30]  # 11 and 12 adjacent: one gap of two days


@pytest.mark.parametrize("spec", [ModelSpec("with-id"), ModelSpec("iterated", rho=0.3)],
                         ids=["with-id", "iterated"])
def test_flat_days_fit_and_resample_as_if_deleted(spec):
    """A day with tmax == tmin is dropped from the frame, and whatever is
    fitted on that frame has the bits of the same records with the day
    deleted: the fit, its trace and residuals, the lag pairs, and seeded
    replications. A day that also has pm <= 0 keeps that reason."""
    rows = obs_rows(synthetic_records(n=60, seed=21))
    for i in FLAT_DAYS:
        rows[i] = rows[i]._replace(tmax=rows[i].tmin)
    rows[40] = rows[40]._replace(pm=0.0, tmax=rows[40].tmin)
    flat = build_frame(obs_table(rows))
    deleted = build_frame(obs_table([r for i, r in enumerate(rows) if i not in FLAT_DAYS]))

    nonpositive = (rows[40].date, "nonpositive concentration")
    assert deleted.drop_log == (nonpositive,)
    assert flat.drop_log == tuple(sorted(
        [(rows[i].date, "zero temperature range") for i in FLAT_DAYS] + [nonpositive]
    ))
    for name in ("dates", "lpm", "trg", "t", "w", "pc", "ep", "id"):
        assert getattr(flat, name).tobytes() == getattr(deleted, name).tobytes()
    for a, b in zip(flat.lag_pairs(), deleted.lag_pairs()):
        assert np.array_equal(a, b)
    prev, curr = flat.lag_pairs()
    assert (rows[10].date, rows[13].date) not in zip(flat.dates[prev].tolist(),
                                                     flat.dates[curr].tolist())

    fits = [gauss_newton(spec, frame) for frame in (flat, deleted)]
    assert fits[0].converged
    a, b = fits
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.rss == b.rss
    assert a.residuals.tobytes() == b.residuals.tobytes()
    assert [(t.tobytes(), r) for t, r in a.trace] == [(t.tobytes(), r) for t, r in b.trace]

    sims = [run_simulation(spec, frame, fit, reps=30, size=25, seed=3)
            for frame, fit in zip((flat, deleted), fits)]
    assert sims[0].converged.any()
    for name in ("theta", "converged", "curvature_pass", "ks_p", "identical_residuals"):
        assert getattr(sims[0], name).tobytes() == getattr(sims[1], name).tobytes()
