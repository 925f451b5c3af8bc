"""Stratified case-resampling study and parameter bias correction.

All sample indices are drawn up front, as one (reps, size) array of
sorted frame rows. The strata are the frame's id levels, and `size` is
split over them by largest remainder, once per run. Replication r gets
what `np.random.default_rng(child).choice` draws, stratum by stratum, for
the r-th child of `SeedSequence(seed).spawn(reps)`, bit for bit. Mostly
no generator is built per replication: the children's seed words come
from SeedSequence's hash mixing run on columns, their PCG64 words from
one generator reseeded per row, and `choice`'s algorithm (Floyd's, then
a Fisher-Yates shuffle, on Lemire's bounded draws) runs as column
operations over all replications at once. numpy itself draws the rare
rest: a replication whose stream has a word that Lemire's method
rejects, and a run with a stratum that takes `choice`'s tail shuffle.

The replications are then fitted in lockstep, a stack of up to
`FIT_STACK` replications at a time: the stack's rows go to
`solver.fit_stack`, and its converged replications go straight on to
the stacked forms of `diagnostics.curvature_at` (one R factor of
[V1 | C] per stack) and `ks_two_sample`, which screen them. Every stacked
operation works replication by replication, so each replication's result
is bit-for-bit the same whatever stack it shares, whatever its size, and
whatever `workers` says; repeated runs with one seed give identical
output.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .data import _write_columns
from .diagnostics import curvature_at
from .errors import StratificationError
from .numerics import ks_two_sample
from .solver import FitResult, fit_stack, gauss_newton

# Replications fitted and screened together. A stack holds its Jacobians,
# QR factors and face entries, stack x size x (q + m) floats each, and
# nothing q x q per observation. For 1000 replications of size 25 (one
# BLAS thread, 2-core x86-64 host), a stack of 100 took 98-103 ms per run,
# peaked at 1.68 MiB of traced memory, and left ru_maxrss at 42.5 MB after
# eight in-process `simulate` jobs; a stack of 200 took 92-99 ms, 3.07 MiB
# and 44.0 MB.
FIT_STACK = 100


@dataclass(frozen=True)
class BootstrapSummary:
    """Aggregate of a resampling run, with one entry per replication in the
    arrays `converged`, `curvature_pass`, `ks_p` (nan where the replication
    did not converge), `identical_residuals` and `theta` (reps x q, nan for
    a replication whose fit failed); `theta_hat` is the baseline estimate.

    bias, std, mse and theta_corrected are derived from `theta`,
    `converged` and `theta_hat`. The moments are taken over converged
    replications only, with population (ddof=0) scaling, so
    mse_j = std_j^2 + bias_j^2 holds as an exact identity up to float
    rounding; they are nan when no replication converged.
    """

    converged: np.ndarray
    curvature_pass: np.ndarray
    ks_p: np.ndarray
    identical_residuals: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    min_ks_pass: float

    def _moment(self, of_kept):
        kept = self.theta[self.converged]
        return of_kept(kept) if kept.size else np.full(self.theta.shape[1], np.nan)

    bias = property(lambda self: self._moment(lambda kept: kept.mean(axis=0) - self.theta_hat))
    std = property(lambda self: self._moment(lambda kept: kept.std(axis=0, ddof=0)))
    mse = property(lambda self: self._moment(lambda k: np.mean((k - self.theta_hat) ** 2, axis=0)))
    theta_corrected = property(lambda self: self.theta_hat - self.bias)

    ks_pass = property(lambda self: self.ks_p > 0.05)
    ks_strong = property(lambda self: self.ks_p > 0.5)
    replications = property(lambda self: self.converged.size)
    converged_count = property(lambda self: int(self.converged.sum()))
    curvature_pass_count = property(lambda self: int(self.curvature_pass.sum()))
    ks_pass_count = property(lambda self: int(self.ks_pass.sum()))
    ks_strong_count = property(lambda self: int(self.ks_strong.sum()))
    identical_residual_count = property(lambda self: int(self.identical_residuals.sum()))
    # whether the KS pass fraction reached min_ks_pass
    gate_ok = property(lambda self: self.ks_pass_count >= self.min_ks_pass * self.replications)


@dataclass(frozen=True)
class CorrectionResult:
    fit: FitResult
    curvature: object
    rss_observation_before: float | None
    rss_observation_after: float | None


def _allocate(sizes, total):
    """Largest-remainder allocation of `total` across strata `sizes`."""
    sizes = np.asarray(sizes, dtype=int)
    quotas = total * sizes / sizes.sum()
    base = np.floor(quotas).astype(int)
    shortfall = total - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:shortfall]] += 1
    return base


def _strata(frame, size):
    """Row indices of each id level and the rows drawn from each."""
    if frame.n == 0:
        raise StratificationError("cannot sample from an empty frame")
    if not 0 < size <= frame.n:
        raise StratificationError(f"sample size {size} outside 1..{frame.n}")
    strata = _groups(frame.id)
    return strata, _allocate([s.size for s in strata], size)


def _groups(values):
    """The indices of each distinct value of `values`, each ascending, the
    lowest value first: one stable argsort, not `np.unique`, which imports
    numpy.ma on its first call in numpy 2."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    return np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)


# SeedSequence's hash constants and PCG64's multiplier, as numpy uses them
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Cells (one draw, or one stratum row, of one replication) that the draw
# handles at a time. Its tables take about 20 bytes a cell, so at most
# ~80 MB whatever the sample size; 1000 replications of up to ~1400 rows
# go in one pass. Each further pass repeats the column loops: on a 2-core
# x86-64 host, 1000 samples of all 10000 rows of one stratum took 1.3 s in
# one pass (620 MiB traced) and 3.1 s in eight (175 MiB, 160 of it the
# sample rows themselves).
_DRAW_CELLS = 2**22


def _entropy_words(entropy):
    """A SeedSequence's entropy (an int or a nested sequence of ints) as its
    little-endian uint32 words, the way SeedSequence assembles them."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]
    return [word for part in entropy for word in _entropy_words(part)]


def _hasher(const, mult):
    """SeedSequence's hash step on uint32 columns, with its running
    constant: xor the constant in, step it on, multiply, fold down."""

    def step(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return step


def _child_seed_words(seed, reps):
    """`generate_state(4, np.uint64)` of each of `SeedSequence(seed).spawn(reps)`,
    as a (reps, 4) uint64 array: SeedSequence's hash mixing run on uint32
    columns, the root's entropy words (padded to the pool's 4 words, as for
    every spawned child) broadcast and the spawn index as the last word."""

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ value >> np.uint32(16)

    root = _entropy_words(np.random.SeedSequence(seed).entropy)
    entropy = [np.array([word], dtype=np.uint32) for word in root + [0] * (4 - len(root))]
    entropy.append(np.arange(reps, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = _hasher(_INIT_B, _MULT_B)
    state = [out(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)], axis=1)


def _streams(seed_words):
    """Each row's PCG64 in turn, as numpy seeds it from the row's seed words
    by PCG64's seeding step (O'Neill 2014): one bit generator, reseeded
    before each yield, so each must be used up before the next."""
    s_hi, s_lo, i_hi, i_lo = seed_words.astype(object).T
    inc = (i_hi << 64 | i_lo) << 1 & _MASK128 | 1
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    bitgen = np.random.PCG64(0)
    for row_state, row_inc in zip(state.tolist(), inc.tolist()):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": row_state, "inc": row_inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield bitgen


def _words(seed_words, count):
    """At least `count` 32-bit outputs of each row's PCG64 stream, as a
    (rows, 2 * ceil(count / 2)) uint32 table in `next_uint32` order: the low
    half of each 64-bit output, then its high half."""
    raw = np.empty((len(seed_words), -(-count // 2)), dtype=np.uint64)
    for out, bitgen in zip(raw, _streams(seed_words)):
        out[:] = bitgen.random_raw(out.size)
    # little-endian 64-bit words read as 32-bit pairs are (low, high)
    return raw.astype("<u8", copy=False).view("<u4").astype(np.uint32, copy=False)


def _bounded(seed_words, bounds):
    """Draws on [0, b] for each b of `bounds` (each below 2**32 - 1), in
    order on each row's stream, as a (rows, len(bounds)) uint64 array: what
    `Generator.integers(0, b + 1)` gives draw by draw. A draw on [0, 0] uses
    no word. Any other is Lemire's (2019) multiply-and-reject: the next
    32-bit word w gives (w * (b + 1)) >> 32, unless the product's low half
    falls under 2**32 mod (b + 1), when w is rejected for the word after it.

    All draws are read as if no word were rejected. A row that rejected one
    (for small bounds, a rare row) is then drawn again by numpy's own
    `Generator.integers` on that row's stream."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    live = bounds > 0
    span = bounds + np.uint64(1)
    # a draw on [0, 0] reads the next word without using it (times 1, the
    # product's high half is 0, and nothing is under 2**32 mod 1 = 0), so a
    # trailing one reads one word past the live draws
    words = _words(seed_words, int(live.sum()) + 1)
    product = np.take(words, np.cumsum(live) - live, axis=1) * span
    rejected = (product & np.uint64(_MASK32)) < (np.uint64(2**32) - span) % span
    product >>= np.uint64(32)
    bad = np.flatnonzero(rejected.any(axis=1))
    for row, bitgen in zip(bad, _streams(seed_words[bad])):
        product[row] = np.random.Generator(bitgen).integers(0, span)
    return product


def _shuffle(table, draws, top):
    """Fisher-Yates on every column of `table` (rows x columns) from row
    `top` down: row i swaps with row draws[c], drawn on [0, i], for the c-th
    i."""
    flat = table.reshape(-1)
    swaps = draws * table.shape[1] + np.arange(table.shape[1])
    for i, swap in zip(range(top, top - len(draws), -1), swaps):
        held = table[i].copy()
        table[i] = flat[swap]
        flat[swap] = held


def _picks(n, k, drawn, with_replacement):
    """`choice(n, k)` in every column, from that column's draws (rows of
    `drawn`, in `_draw`'s order), as a (k, columns) array."""
    if with_replacement:
        return drawn
    # Floyd: the draw on [0, j] is picked unless taken, and then j is
    picks = np.empty((k, drawn.shape[1]), dtype=np.intp)
    taken = np.zeros(drawn.shape[1] * n, dtype=bool)
    base = np.arange(drawn.shape[1]) * n
    for t, j in enumerate(range(n - k, n)):
        pick = np.where(taken[base + drawn[t]], j, drawn[t])
        taken[base + pick] = True
        picks[t] = pick
    _shuffle(picks, drawn[k:], k - 1)
    return picks


def _draw(strata, allocs, seed_words, with_replacement):
    """Rows of one stratified sample per replication, stratum by stratum,
    unsorted, as a (reps, size) array. `seed_words` is (reps, 4) uint64:
    each row holds the words `SeedSequence.generate_state(4, np.uint64)`
    gives one replication, and its sample is, bit for bit, what
    `np.random.default_rng` of that SeedSequence draws with `choice`, one
    call per stratum.

    `choice` is Floyd's algorithm and then a Fisher-Yates shuffle of the k
    picks (Bentley & Floyd 1987); with replacement it is k draws on
    [0, n - 1]. Whatever the random values, the bound of every draw is
    known up front, so all of them are made in one pass (`_bounded`), and
    then the algorithms run as column loops, one column per replication,
    over as many replications at a time as `_DRAW_CELLS` allows. For a
    stratum above 10000 rows with k > n // 50, `choice` shuffles the last k
    places of arange(n) instead; such a run is drawn by numpy itself, one
    generator per replication."""
    sizes, allocs = [stratum.size for stratum in strata], allocs.tolist()
    if not with_replacement and any(n > 10000 and k > n // 50 for n, k in zip(sizes, allocs)):
        return np.array([
            np.concatenate([s[rng.choice(s.size, k, replace=False)] for s, k in zip(strata, allocs)])
            for rng in map(np.random.Generator, _streams(seed_words))
        ])
    bounds = [
        np.full(k, n - 1) if with_replacement
        else np.concatenate([np.arange(n - k, n), np.arange(k - 1, 0, -1)])
        for n, k in zip(sizes, allocs)
    ]
    splits = np.cumsum([b.size for b in bounds])[:-1]
    bounds = np.concatenate(bounds)

    ends = np.cumsum(allocs).tolist()
    local = np.empty((len(seed_words), ends[-1]), dtype=np.intp)
    width = max(1, _DRAW_CELLS // (bounds.size + sum(sizes)))
    for lo in range(0, len(seed_words), width):
        # one row per draw; the uint64 table is let go before the loops
        values = _bounded(seed_words[lo : lo + width], bounds).T
        values = np.ascontiguousarray(values, dtype=np.intp)
        for n, k, end, drawn in zip(sizes, allocs, ends, np.split(values, splits)):
            local[lo : lo + width, end - k : end] = _picks(n, k, drawn, with_replacement).T
    # stratum s of the concatenated strata starts at sum(sizes[:s])
    local += np.repeat(np.cumsum(sizes) - sizes, allocs)
    return np.concatenate(strata)[local]


def run_simulation(
    spec,
    frame,
    baseline,
    reps,
    size,
    seed,
    workers=1,
    with_replacement=False,
    alpha=0.05,
    theta0=None,
    min_ks_pass=0.95,
):
    """Resample, refit and screen `reps` times; summarize parameter error.

    Per replication: draw a stratified sample, refit by Gauss-Newton from
    `theta0` (the family's standard start by default), then screen for (a)
    convergence, (b) both curvature measures under the critical value, (c)
    a KS two-sample test of the replication residuals against the baseline
    fit's residuals, and (d) the replication residual vector not being an
    exact copy of the baseline's on shared rows. Failed fits, and samples
    with no more observations than parameters, which are not fitted, are
    counted as unconverged, never fatal. A `theta0` that is not a finite
    q-vector raises ValueError (`model.check_theta`) before any draw.

    bias_j = mean(theta*_j) - theta_hat_j over converged replications;
    theta_corrected = theta_hat - bias. `gate_ok` reports whether the KS
    pass fraction reached `min_ks_pass`.

    Samples are stratified by id: `size` is split over the id levels in
    proportion to their rows by largest remainder, and drawn without
    replacement within each stratum unless `with_replacement`. Replication
    r's sample is, in date order, the rows that
    `np.random.default_rng(child_r).choice` draws from each stratum in
    turn, in ascending order of id level, `child_r` the r-th of
    `np.random.SeedSequence(seed).spawn(reps)`. All samples are drawn
    together, vectorized over replications, before any fit. Replications
    with the same observation count are fitted in lockstep stacks of up to
    `FIT_STACK`, and the converged ones of each stack are screened together
    right after their fit: one `curvature_at` call, so one factorization of
    [V1 | C], per stack. `workers` is accepted for compatibility and
    changes neither speed nor output: everything runs on one thread.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    start = model.check_theta(spec, model.default_start(spec) if theta0 is None else theta0)

    rows = _draw(*_strata(frame, size), _child_seed_words(seed, reps), with_replacement)
    rows.sort(axis=1)

    theta = np.full((reps, spec.q), np.nan)
    converged = np.zeros(reps, dtype=bool)
    curvature_pass = np.zeros(reps, dtype=bool)
    identical = np.zeros(reps, dtype=bool)
    ks_p = np.full(reps, np.nan)
    baseline_at = np.full(frame.n, -1)
    baseline_at[model.rows_used(spec, frame)] = np.arange(baseline.residuals.size)

    # stacks must be rectangular: group the replications by observation count;
    # a sample with no more observations than parameters cannot be fitted
    counts = model.observation_counts(spec, frame, rows)
    for members in _groups(counts):
        if counts[members[0]] <= spec.q:
            continue
        for stack in np.split(members, range(FIT_STACK, members.size, FIT_STACK)):
            run = fit_stack(spec, frame, rows[stack], start)
            ok = np.array([f is None for f in run.fault], dtype=bool)
            theta[stack[ok]] = run.theta[ok]
            done = np.flatnonzero(ok & run.converged)
            if done.size == 0:
                continue
            screened, resid = stack[done], run.residuals[done]
            sample = rows[screened]
            converged[screened] = True
            curv = curvature_at(spec, run.theta[done], frame, run.sigma_hat[done], sample, alpha)
            curvature_pass[screened] = curv.planar_ok & curv.uniform_ok
            ks_p[screened] = ks_two_sample(resid, baseline.residuals).pvalue

            at = baseline_at[model.rows_used(spec, frame, sample)]
            shared = at >= 0
            same = resid == baseline.residuals[at]
            identical[screened] = shared.any(axis=1) & (same | ~shared).all(axis=1)

    return BootstrapSummary(
        converged=converged,
        curvature_pass=curvature_pass,
        ks_p=ks_p,
        identical_residuals=identical,
        theta=theta,
        theta_hat=baseline.theta,
        min_ks_pass=min_ks_pass,
    )


def apply_correction(fit, summary, spec, frame, alpha=0.05):
    """Re-evaluate the model at theta_corrected and compare the fits.

    Returns the corrected evaluation as a FitResult (single-entry trace,
    no iteration), its curvature report, and the before/after residual sum
    of squares of the structural equation on the observation scale (None
    for the linear test family, which has no structural form).
    """
    corrected = gauss_newton(spec, frame, theta0=summary.theta_corrected, max_steps=0)
    theta_c = corrected.theta
    curvature = curvature_at(spec, theta_c, frame, corrected.sigma_hat, alpha=alpha)
    if spec.family == "linear":
        before = after = None
    else:
        before = model.structural_rss(fit.theta, frame)
        after = model.structural_rss(theta_c, frame)
    return CorrectionResult(corrected, curvature, before, after)


def write_replications_csv(summary, path):
    """Per-replication record: `rep,converged,ks_p,theta1..thetaq`."""
    reps, q = summary.theta.shape
    _write_columns(
        path,
        ["rep", "converged", "ks_p"] + [f"theta{j + 1}" for j in range(q)],
        [np.arange(reps), summary.converged.astype(int), summary.ks_p, *summary.theta.T],
    )


def summary_dict(summary):
    """Report view of a BootstrapSummary (omits the per-replication arrays)."""
    return {
        "replications": summary.replications,
        "converged": summary.converged_count,
        "curvature_pass": summary.curvature_pass_count,
        "ks_pass": summary.ks_pass_count,
        "ks_strong": summary.ks_strong_count,
        "identical_residuals": summary.identical_residual_count,
        "min_ks_pass": summary.min_ks_pass,
        "gate_ok": summary.gate_ok,
        "bias": summary.bias,
        "std": summary.std,
        "mse": summary.mse,
        "theta_corrected": summary.theta_corrected,
    }
