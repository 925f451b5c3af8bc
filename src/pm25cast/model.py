"""Expectation-function families: f, analytic Jacobian and Hessian faces.

Families
--------
initial            f = th1*exp(-th2/trg) + th3*w + th4*t + th5*pc + th6*ep
with-id            initial + th7*id
iterated           response lpm_t - rho*lpm_{t-1}; every regressor (incl.
                   the exponential term) differenced by a fixed rho
iterated-free-rho  rho promoted to parameter th8; the rho*lpm_{t-1} term
                   moves into f so the response stays lpm_t
linear             f = th1 + th2*t, a two-parameter test family whose
                   second-derivative array is identically zero

One kernel, `_structural`, evaluates the undifferenced equation g (linear,
initial or with-id) on a set of frame rows and returns its value, its
Jacobian or its second-derivative face entries on their support (`Faces`).
The non-iterated families are g on every row. The iterated families are a
differencing step over lag pairs (consecutive frame rows whose dates are
exactly one day apart): g(curr) - rho*g(prev) at the same derivative order.
For the free-rho family f also gains rho*lpm_prev, so the rho column of
the Jacobian is lpm_prev - g(prev) and the rho row and column of each face
is -dg(prev).

The functions below take `rows`, the frame rows of one sample (m,) or of a
stack of samples (samples, m), each sample sorted; None is the whole
frame. A stack is evaluated at a (samples, q) theta, each sample at its
own, and every result gains a leading samples axis.

One guard on `_evaluate` covers every order and the differencing: overflow
and 0 * inf pass silently, and the inf or nan they leave make a non-finite fit.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

# family -> conventional starting vector; q is its length. th1=40, th2=1,
# linear terms 0, id 1, free rho 0.5.
FAMILIES = {
    "initial": (40.0, 1.0, 0.0, 0.0, 0.0, 0.0),
    "with-id": (40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    "iterated": (40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    "iterated-free-rho": (40.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5),
    "linear": (0.0, 0.0),
}

_ITERATED = ("iterated", "iterated-free-rho")

# regressor columns paired with th3..th7; id only for 7+-parameter families
_REGRESSORS = ("w", "t", "pc", "ep", "id")

# the (i, j) parameter pairs, i <= j, of each family's face entries that
# are not identically 0, in `_evaluate`'s order: (th1, th2) and (th2, th2)
# of the exponential term, then free rho's (th_j, rho)
_EXP_PAIRS = ((0, 1), (1, 1))
_SUPPORT = {"linear": (), "iterated-free-rho": _EXP_PAIRS + tuple((j, 7) for j in range(7))}


class Faces(NamedTuple):
    """Second-derivative faces by their entries on the family's support:
    `entries[..., s, k]` is d2f_s / dth_i dth_j at `pairs[k] = (i, j)`, and
    every entry off the pairs and their mirrors is 0."""

    entries: np.ndarray
    pairs: tuple


@dataclass(frozen=True)
class ModelSpec:
    """Family selector; `rho` is required by (and only by) `iterated`."""

    family: str
    rho: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "iterated":
            if self.rho is None or not np.isfinite(self.rho):
                raise ValueError("iterated family needs a finite rho")
        elif self.rho is not None:
            raise ValueError(f"family {self.family!r} takes no rho")

    @property
    def q(self):
        return len(FAMILIES[self.family])


def default_start(spec):
    """Conventional starting vector: th1=40, th2=1, linear terms 0, id 1."""
    return np.array(FAMILIES[spec.family])


def check_theta(spec, theta, stacked=False):
    """`theta` as a float array, refused unless it is a finite q-vector.

    With `stacked`, a (samples, q) stack passes too. The fit entries
    (`solver.gauss_newton`, `bootstrap.run_simulation`) check their start
    with it before any draw or evaluation, and every evaluation its theta.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (spec.q,) or theta.ndim > (2 if stacked else 1):
        raise ValueError(f"theta0 must have length {spec.q}, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return theta


def _pairs(frame, rows):
    prev, curr = frame.lag_pairs(rows)
    if prev.shape[-1] == 0:
        raise DataError("no valid lag pairs (need consecutive-day rows)")
    return prev, curr


def observation_counts(spec, frame, rows):
    """Observations in each sample of a stack (lag pairs when iterated)."""
    if spec.family in _ITERATED:
        return frame.day_steps(rows).sum(axis=-1)
    return np.full(rows.shape[:-1], rows.shape[-1])


def rows_used(spec, frame, rows=None):
    """Frame rows the model's observations correspond to, shaped like `rows`
    with the last axis cut to the observations."""
    if spec.family in _ITERATED:
        return _pairs(frame, rows)[1]
    return np.arange(frame.n) if rows is None else rows


def response(spec, frame, rows=None):
    """Observation vector the residuals are taken against."""
    if spec.family == "iterated":
        prev, curr = _pairs(frame, rows)
        return frame.lpm[curr] - spec.rho * frame.lpm[prev]
    return frame.lpm[rows_used(spec, frame, rows)]


def regressor_columns(spec, frame):
    """Raw (undifferenced) regressor columns on the used rows, for screens."""
    idx = rows_used(spec, frame)
    if spec.family == "linear":
        return {"t": frame.t[idx]}
    cols = {name: getattr(frame, name)[idx] for name in ("trg", "t", "w", "pc", "ep")}
    if spec.family != "initial":
        cols["id"] = frame.id[idx]
    return cols


def _lift(value, order):
    """A per-sample scalar shaped to broadcast over an order-`order` result:
    (m,) values, an (m, q) Jacobian or (m, pairs) face entries."""
    return np.asarray(value)[(...,) + (None,) * min(order + 1, 2)]


def _structural(beta, frame, idx, order):
    """Undifferenced equation on frame rows `idx` at parameters `beta`.

    A 2-vector `beta` is the linear test family; a 6- or 7-vector is the
    exponential-plus-linear equation without or with the id term. Returns
    f for order 0, the (m, q) Jacobian for order 1 and the (m, q, q)
    second-derivative face entries on `_EXP_PAIRS` for order 2 (none for
    the linear family), q = beta.shape[-1], m = len(idx);
    `idx` None means every row. For a stack `beta` is (samples, q), `idx`
    (samples, m), and every result gains a leading samples axis.
    """

    def col(name):
        values = getattr(frame, name)
        return values if idx is None else values[idx]

    q = beta.shape[-1]
    if q == 2:
        t = col("t")
        if order == 0:
            return beta[..., 0, None] + beta[..., 1, None] * t
        if order == 1:
            return np.stack([np.ones_like(t), t], axis=-1)
        return np.zeros(t.shape + (0,))

    trg = col("trg")  # never 0: a ModelFrame refuses such a row
    expo = np.exp(-beta[..., 1, None] / trg)
    if order == 2:
        return np.stack([-expo / trg, beta[..., 0, None] * expo / trg**2], axis=-1)
    lin = [col(name) for name in _REGRESSORS[: q - 2]]
    if order == 0:
        return beta[..., 0, None] * expo + (np.stack(lin, axis=-1) @ beta[..., 2:, None])[..., 0]
    return np.stack([expo, -beta[..., 0, None] * expo / trg, *lin], axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _evaluate(spec, theta, frame, rows, order):
    theta = check_theta(spec, theta, stacked=True)
    if spec.family not in _ITERATED:
        return _structural(theta, frame, rows, order)

    prev, curr = _pairs(frame, rows)
    free = spec.family == "iterated-free-rho"
    beta, rho = (theta[..., :7], theta[..., 7]) if free else (theta, spec.rho)
    g_prev = _structural(beta, frame, prev, order)
    out = _structural(beta, frame, curr, order) - _lift(rho, order) * g_prev
    if not free:
        return out
    lpm_prev = frame.lpm[prev]
    if order == 0:
        return out + _lift(rho, 0) * lpm_prev
    lower = _structural(beta, frame, prev, order - 1)
    if order == 1:
        return np.concatenate([out, (lpm_prev - lower)[..., None]], axis=-1)
    return np.concatenate([out, -lower], axis=-1)


def eval_f(spec, theta, frame, rows=None):
    """Expectation function at theta, one value per used observation."""
    return _evaluate(spec, theta, frame, rows, 0)


def jacobian(spec, theta, frame, rows=None):
    """Analytic first-derivative matrix, one row per used observation."""
    return _evaluate(spec, theta, frame, rows, 1)


def faces(spec, theta, frame, rows=None):
    """Second-derivative faces as `Faces`, (n, m) entries: m = 2, 9 for the
    free-rho family and 0 for linear. Their pairs depend on the family only."""
    return Faces(_evaluate(spec, theta, frame, rows, 2), _SUPPORT.get(spec.family, _EXP_PAIRS))


def hessian_cube(spec, theta, frame, rows=None):
    """Per-observation symmetric second-derivative faces, shape (n, q, q):
    the entries of `faces` and their mirrors, zeros elsewhere."""
    entries, pairs = faces(spec, theta, frame, rows)
    cube = np.zeros(entries.shape[:-1] + (spec.q, spec.q))
    if pairs:
        i, j = np.array(pairs).T
        cube[..., i, j] = entries
        cube[..., j, i] = entries
    return cube


def structural_rss(theta, frame):
    """Residual sum of squares of the undifferenced equation over all rows.

    Iterated-family estimates keep the structural meaning of the with-id
    equation, so plugging them (first 7 entries for the free-rho family)
    into that equation on the observation scale gives a comparable RSS
    across families.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 8:
        theta = theta[:7]
    if theta.size == 7:
        spec = ModelSpec("with-id")
    elif theta.size == 6:
        spec = ModelSpec("initial")
    else:
        raise ValueError(f"no structural form for a {theta.size}-parameter vector")
    resid = frame.lpm - eval_f(spec, theta, frame)
    return float(resid @ resid)
