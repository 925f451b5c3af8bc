"""The `fit` command's memory bound, apart from the other diagnostics tests.

This module imports nothing at top level beyond the package itself and its
command-line module, so when it runs alone (as CI runs it), a module that
the traced region loads on first use, scipy say, counts toward the peak.
"""

import argparse
import tracemalloc

from pm25cast import ModelSpec, build_frame, cli

from conftest import synthetic_records


def test_fit_with_diagnostics_builds_no_face_cube():
    """One n x q x q float array alone is 3.74 MiB at n = 10000 and q = 7;
    the fit, curvature, bias and residual screen of the `fit` command
    together stay below that."""
    spec = ModelSpec("with-id")
    frame = build_frame(synthetic_records(n=10000, seed=24))
    args = argparse.Namespace(start=None, max_steps=50, rel_tol=1e-8, alpha=0.05)
    tracemalloc.start()
    try:
        fit, curv, bias, _ = cli._fit_with_diagnostics(spec, frame, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.converged and curv is not None and bias is not None
    assert peak < 3.5 * 2 ** 20
