"""Write tests/data/exact_special_values.json: the exact values that the
tests of the F quantile, the t tail (also through spearman_test) and the
incomplete beta compare to.

Each value is computed with mpmath at 40 significant digits, again at 60,
and rounded to the nearest double; the two must agree to 1e-30. scipy's
routines for these functions changed between the releases the test extra
admits (Cephes's fdtri is about 3e-11 off at p = 1e-6), so they cannot hold
the code to 2e-14. scipy's fdtri gives Newton's method its start, and the
installed scipy's worst relative difference from the exact values is
printed as a check on the file.

Needs mpmath, which the tests themselves do not:

    PYTHONPATH=src python tests/make_exact_values.py
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

OUT = Path(__file__).resolve().parent / "data" / "exact_special_values.json"

# the grids of the tests in tests/test_numerics.py
F_GRID_P = (1.0 - 0.05, 1.0 - 0.01, 1e-6, 0.01, 0.25, 0.5, 0.9, 0.999999)
F_GRID_DFD = (1, 2, 5, 17, 23, 24, 293, 524, 2993, 9990, 0.5, 31.5)
# (1 - alpha, q, n - q) of the curvature screens in the fit and simulate
# goldens, the benchmark's fit-large and bootstrap-small runs (seeds 0 and
# 1) and acceptance item 07
CRITICAL_CASES = ((0.95, 7, 18), (0.95, 7, 24), (0.95, 7, 358), (0.95, 7, 534), (0.95, 7, 2993))
# the degrees of freedom of the demo month, the bootstrap-small baseline
# and fit-large
T_DF = (1, 2, 22, 29, 356, 2991, 2998, 9998)
T_GRID = np.concatenate([np.linspace(0.0, 5.0, 101), np.geomspace(5.0, 300.0, 120)])
BETA_BIG = (0.5, 1.0, 3.5, 14.5, 199.0, 1496.5, 4995.0)
BETA_SMALL = (0.25, 0.5, 1.0, 2.5, 4.0)


def _ibeta(a, b, x):
    """I_x(a, b) for mp numbers, regularized."""
    return mp.betainc(a, b, 0, x, regularized=True)


def _f_quantile(p, dfn, dfd):
    """Newton's method on log I, started from a close value; below the
    median on I_w(dfn/2, dfd/2) = p with w = dfn f / (dfn f + dfd), above
    it on the upper tail I_v(dfd/2, dfn/2) = 1 - p with v = 1 - w."""
    import scipy.special

    a, b = mp.mpf(dfn) / 2, mp.mpf(dfd) / 2
    f0 = mp.mpf(float(scipy.special.fdtri(dfn, dfd, p)))
    p = mp.mpf(p)
    if p <= 0.5:
        tail, target, u = (a, b), p, dfn * f0 / (dfn * f0 + dfd)
    else:
        tail, target, u = (b, a), 1 - p, dfd / (dfn * f0 + dfd)
    for _ in range(100):
        value = _ibeta(tail[0], tail[1], u)
        density = u ** (tail[0] - 1) * (1 - u) ** (tail[1] - 1) / mp.beta(*tail)
        step = (mp.log(value) - mp.log(target)) * value / density
        u -= step
        if abs(step) < u * mp.mpf(10) ** (-mp.mp.dps + 5):
            break
    else:
        raise RuntimeError(f"no convergence at {(float(p), dfn, dfd)}")
    if p <= 0.5:
        return dfd * u / (dfn * (1 - u))
    return dfd * (1 - u) / (dfn * u)


def _t_two_sided(t, df):
    t = mp.mpf(t)
    return _ibeta(mp.mpf(df) / 2, mp.mpf(0.5), df / (df + t * t))


def _spearman_rows():
    """[n, rho, p] for the draws of test_spearman_p_equals_scipy_stats_bit_for_bit,
    with p exact at the t that pearson_test forms from rho."""
    from pm25cast.numerics import spearman_test

    rows = []
    rng = np.random.default_rng(21)
    for n in (3, 4, 10, 57, 400):
        for _ in range(10):
            x = rng.standard_normal(n)
            y = 0.4 * x + rng.standard_normal(n)
            pairs = [(x, y)] if n < 10 else [(x, y), (np.round(x), np.round(y, 1))]
            for a, b in pairs:
                rho = spearman_test(a, b).statistic
                p = 0.0
                if abs(rho) < 1.0:
                    t = float(abs(rho * np.sqrt((n - 2) / (1.0 - rho * rho))))
                    p = _exact(lambda: _t_two_sided(t, n - 2))
                rows.append([n, rho, p])
    return rows


def _beta_cases():
    for big in BETA_BIG:
        for small in BETA_SMALL:
            for a, b in ((big, small), (small, big)):
                mean = a / (a + b)
                edges = np.geomspace(1e-6, 0.02, 6)
                for x in sorted({*np.linspace(0.02, 0.98, 13), *edges, *(1.0 - edges),
                                 mean * 0.9, mean, 1.0 - (1.0 - mean) * 0.9}):
                    yield a, b, float(x)


def _exact(compute):
    """compute() at 40 and at 60 digits, which must agree; as a float."""
    with mp.workdps(40):
        low = compute()
    with mp.workdps(60):
        high = compute()
    if abs(low - high) > abs(high) * mp.mpf(10) ** -30:
        raise RuntimeError(f"{low} and {high} disagree")
    return float(high)


def main():
    import scipy.special
    import scipy.stats

    f_rows = []
    for dfn in range(2, 9):
        for p in F_GRID_P:
            for dfd in F_GRID_DFD:
                f_rows.append([p, dfn, dfd])
    f_rows += [list(case) for case in CRITICAL_CASES]
    f_rows = [[p, dfn, dfd, _exact(lambda: _f_quantile(p, dfn, dfd))] for p, dfn, dfd in f_rows]

    t_rows = []
    for df in T_DF:
        for t in T_GRID:
            value = _exact(lambda: _t_two_sided(float(t), df))
            if value > 1e-20:
                t_rows.append([float(t), df, value])

    # the complement 1 - I_x(a, b) = I_{1-x}(b, a) at the exact 1 - x: for
    # x >= 0.5 it is the y = 1.0 - x that the tests pass, and below 0.5
    # _betainc takes x as the exact one of the two
    beta_rows = [[a, b, x, _exact(lambda: _ibeta(a, b, x)), _exact(lambda: _ibeta(b, a, 1 - mp.mpf(x)))]
                 for a, b, x in _beta_cases()]

    spearman_rows = _spearman_rows()

    tables = {"f_quantile": f_rows, "t_two_sided": t_rows, "betainc": beta_rows, "spearman": spearman_rows}
    with OUT.open("w") as out:
        out.write('{"about": "exact values rounded to double, written by tests/make_exact_values.py"')
        for name, rows in tables.items():
            out.write(f',\n"{name}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "]")
        out.write("}\n")

    def worst(pairs):
        return max(abs(got - want) / want for got, want in pairs if want > 0.0)

    print("rows:", len(f_rows), len(t_rows), len(beta_rows), len(spearman_rows))
    print("scipy vs exact, worst relative difference:")
    print("  f.ppf ", worst((scipy.stats.f.ppf(p, dfn, dfd), v) for p, dfn, dfd, v in f_rows))
    print("  t.sf  ", worst((2.0 * scipy.stats.t.sf(t, df), v) for t, df, v in t_rows))
    print("  betainc", worst((scipy.special.betainc(a, b, x), lo) for a, b, x, lo, _ in beta_rows if lo > 1e-20))


if __name__ == "__main__":
    main()
