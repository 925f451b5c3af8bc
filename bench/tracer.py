"""Span tracing of the package's public functions, from outside the package.

`Tracer.install` wraps each function in TRACED and rebinds the wrapper in
every `pm25cast.*` module namespace that holds the original object, so
calls made through a name imported into another module (`solver` and
`diagnostics` import `qr_full`, `bootstrap` imports `gauss_newton` and
`bates_curvature`) are traced as well. `uninstall` restores the originals.

Spans live in memory as (id, name, start, end, parent, job, failed, extra)
tuples and are written out once, at the end of a run. A span opened on a
worker thread with nothing open on that thread takes the innermost span
of the main thread as its parent: the bootstrap pool runs inside
`run_simulation`.
"""

import csv
import itertools
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "cli": ("cmd_fit", "cmd_simulate", "cmd_forecast", "cmd_validate", "cmd_aggregate_ncep"),
    "data": ("parse_observations", "build_frame", "parse_ncep", "aggregate_ncep"),
    "model": ("eval_f", "jacobian", "hessian_cube"),
    "numerics": ("qr_full", "f_quantile", "ks_two_sample", "ks_normal", "spearman_test"),
    "solver": ("gauss_newton", "write_trace_csv"),
    "diagnostics": ("bates_curvature", "box_bias", "residual_screen"),
    "bootstrap": ("run_simulation", "apply_correction", "write_replications_csv"),
    "forecast": ("forecast_series", "write_forecast_csv", "read_forecast_csv", "inclusion_report"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Values derived from a call's result, stored in the span's `extra` field.
_EXTRA = {
    "numerics.qr_full": lambda result: result[0].nbytes,
    "solver.gauss_newton": lambda result: result.steps,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._ids = itertools.count()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        extra_of = _EXTRA.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            job = self.job
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, job, True, None))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = extra_of(result) if extra_of else None
            spans.append((sid, name, start, end, parent, job, False, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "pm25cast" or key.startswith("pm25cast.")
        ]
        for short, names in TRACED.items():
            owner = sys.modules[f"pm25cast.{short}"]
            for fn_name in names:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "job", "failed", "extra"])
            writer.writerows(self.spans)


def self_times(spans):
    """Map span id -> self time.

    Self time is the time a span is open with no child span open. On one
    thread this is the duration minus the time its children cover. While
    several threads each have such a span open, every instant is shared
    equally among them, so the self times of a job sum to the time it spent
    inside traced spans even when the bootstrap pool runs spans in parallel.
    """
    events = []
    for sid, _, start, end, parent, *_ in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, -sid, parent))
    # at equal times closes go first, children (higher ids) before parents
    events.sort()
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    out = dict.fromkeys((s[0] for s in spans), 0.0)
    last = None
    for when, kind, key, parent in events:
        if leaves and last is not None and when > last:
            share = (when - last) / len(leaves)
            for sid in leaves:
                out[sid] += share
        last = when
        if kind == 1:
            sid = key
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            sid = -key
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def layer_metrics(spans, jobs):
    """Per-layer metrics as means per traced job.

    Returns (metrics, self_sum_by_job) where metrics maps
    `<module>.<function>.<stat>` and the derived counters to values.
    """
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    extra = defaultdict(float)
    self_sum_by_job = defaultdict(float)
    evals_under_gn = 0
    for span in spans:
        sid, name, _, _, parent, job, bad, value = span
        calls[name] += 1
        self_s[name] += selfs[sid]
        failed[name] += bad
        if value is not None:
            extra[name] += value
        self_sum_by_job[job] += selfs[sid]
        if name == "model.eval_f" and parent is not None and by_id[parent][1] == "solver.gauss_newton":
            evals_under_gn += 1
    per_job = max(jobs, 1)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / per_job
        metrics[f"{name}.self_s"] = self_s[name] / per_job
        metrics[f"{name}.failed"] = failed[name] / per_job
    steps = extra["solver.gauss_newton"]
    metrics["numerics.qr_full.q_bytes"] = extra["numerics.qr_full"] / per_job
    metrics["solver.gauss_newton.steps"] = steps / per_job
    metrics["solver.evals_per_step"] = evals_under_gn / steps if steps else 0.0
    return metrics, dict(self_sum_by_job)
