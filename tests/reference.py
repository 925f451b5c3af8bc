"""Reference routes that only the tests use, kept out of the package."""

import numpy as np

from pm25cast.data import _write_columns
from pm25cast.numerics import r_factor


def qr_stack(a):
    """Reduced QR of every matrix in a (k, n, q) stack, in one numpy call.

    Each matrix gets the sign convention, rank check and non-finite check
    of `qr_full`, but only the first q columns of its orthogonal factor.
    The package factors R alone (`numerics.r_factor`); this route forms Q1
    for tests that need it. A failure is reported per matrix instead of
    raised, so one bad matrix does not stop the others.

    Returns
    -------
    q1 : ndarray, shape (k, n, q)
        Orthonormal basis of the column space of each matrix.
    r1 : ndarray, shape (k, q, q)
        Upper-triangular factors with a strictly positive diagonal.
    fault : list of length k
        None for a matrix that factored; otherwise the exception `qr_full`
        would raise on it (its factors are then meaningless).
    """
    a = np.asarray(a, dtype=float)
    r1, fault = r_factor(a, a.shape[-1])
    finite = np.isfinite(a).all(axis=(-2, -1))
    q1, raw = np.linalg.qr(np.where(finite[:, None, None], a, 0.0), mode="reduced")
    q1 *= np.where(np.diagonal(raw, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[:, None, :]
    return q1, r1, fault


def write_frame_csv(frame, path):
    """A ModelFrame as `date,lpm,trg,t,w,pc,ep,id`, one row per day."""
    _write_columns(
        path,
        ["date", "lpm", "trg", "t", "w", "pc", "ep", "id"],
        [frame.dates, frame.lpm, frame.trg, frame.t, frame.w, frame.pc, frame.ep,
         frame.id.astype(int)],
    )
