"""Span recorder and layer wrappers for the traced pass.

`Recorder` keeps spans in memory: name, start, end, parent span and a dict of
counters. The parent is the top of a thread-local stack; the `thread_map`
wrapper hands its own span id to the worker threads, so spans opened inside a
worker attribute to the map that caused them. `installed(recorder)` patches
each layer's public entry points at every place the package looks them up
(for example `torfrech.frechet.gap_weights` as well as
`torfrech.kernels.gap_weights`) and restores the originals on exit, so
nothing is installed outside the traced pass.

Self time is a span's duration minus the part of its interval that its
children cover. Spans of `thread_map` workers run concurrently, so a layer's
self time is in thread-seconds and can exceed the wall time of a parallel run.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a thread-local parent stack."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        sp = Span(span_id, name, stack[-1] if stack else None, time.perf_counter())
        stack.append(span_id)
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            stack.pop()
            sp.end = time.perf_counter()
            with self._lock:
                self.spans.append(sp)

    def call_under(self, parent_id, fn, item):
        """Run fn(item) with parent_id as the current span of this thread."""
        stack = self._stack()
        stack.append(parent_id)
        try:
            return fn(item)
        finally:
            stack.pop()


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sp.id, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.id] = sp.duration - covered
    return out


# --------------------------------------------------------------------------
# counters read from each entry point's arguments and results


def _geometry(sp, result):
    theta, _ = result
    # computed, not measured: the delta, theta and gaps arrays, each (q, n, d) float64
    sp.attrs["bytes"] = 3 * theta.size * theta.itemsize


def _kernel(sp, result):
    sp.attrs["evals"] = int(np.size(result))


def _weight_rows(sp, result):
    ok = result[1]
    sp.attrs["rows"] = int(ok.size)
    sp.attrs["failed"] = int((~ok).sum())


def _solve_batch(sp, result):
    _, ok, iterations, converged = result
    sp.attrs["iters"] = iterations[ok]
    sp.attrs["nonconverged"] = int((ok & ~converged).sum())


def _solve_one(sp, result):
    sp.attrs["iters"] = np.array([result.iterations])
    sp.attrs["nonconverged"] = 0 if result.converged else 1


def _stack(sp, result):
    sp.attrs["payloads"] = int(result.shape[0])


def _patch_table(tf):
    """(owner, attribute, span name, counter hook) for every lookup site."""
    cli, bandwidth, frechet, io, kernels, metric, parallel, torus = (
        tf.cli, tf.bandwidth, tf.frechet, tf.io, tf.kernels, tf.metric, tf.parallel,
        tf.torus)
    table = [
        (torus, "canonicalize", "torus.canonicalize", None),
        (frechet, "canonicalize", "torus.canonicalize", None),
        (frechet, "_theta_gaps", "torus.theta_gaps", _geometry),
        (kernels, "gap_weights", "kernels.gap_weights", _kernel),
        (frechet, "gap_weights", "kernels.gap_weights", _kernel),
        (frechet.QueryBatch, "moments", "frechet.moments", None),
        (frechet.QueryBatch, "weight_rows", "frechet.weight_rows", _weight_rows),
        (frechet.QueryBatch, "estimates", "frechet.estimates", None),
        (frechet, "local_moments", "frechet.local_moments", None),
        (frechet, "local_linear_weights", "frechet.local_linear_weights", None),
        (metric.ResponseSpace, "frechet_mean_batch", "metric.solve_batch", _solve_batch),
        (metric, "weighted_frechet_mean", "metric.solve_one", _solve_one),
        (frechet, "weighted_frechet_mean", "metric.solve_one", _solve_one),
        (metric.ResponseSpace, "stack", "metric.validate", _stack),
        (bandwidth, "two_stage_search", "bandwidth.search", None),
        (cli, "two_stage_search", "bandwidth.search", None),
        (bandwidth, "_score_candidate", "bandwidth.candidate", None),
        (io, "load_dataset", "io.load", None),
        (cli, "load_dataset", "io.load", None),
        (io, "save_dataset", "io.save", None),
        (cli, "save_dataset", "io.save", None),
        (io, "read_trips", "io.ingest", None),
        (cli, "read_trips", "io.ingest", None),
        (io, "trips_to_dataset", "io.ingest", None),
        (cli, "trips_to_dataset", "io.ingest", None),
    ]
    for space in (metric.ScalarSpace, metric.SphereSpace, metric.WassersteinSpace,
                  metric.GraphLaplacianSpace):
        table.append((space, "pairwise_dist2", "metric.score", None))
    return table


def _wrap(recorder, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as sp:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(sp, result)
            return result
    return wrapper


def _wrap_thread_map(recorder, fn, resolve_threads):
    @functools.wraps(fn)
    def wrapper(work, items, threads=None):
        items = list(items)
        with recorder.span("parallel.map") as sp:
            workers = resolve_threads(threads)
            sp.attrs["items"] = len(items)
            sp.attrs["workers"] = min(workers, len(items)) if workers > 1 else 1
            parent = sp.id
            return fn(lambda item: recorder.call_under(parent, work, item), items, threads)
    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Patch every layer entry point for the duration of the block."""
    import torfrech as tf
    import torfrech.cli  # noqa: F401  (loads every layer module)

    saved = []
    try:
        for owner, attr, name, hook in _patch_table(tf):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, hook))
        for owner in (tf.bandwidth, tf.parallel):
            original = owner.__dict__["thread_map"]
            saved.append((owner, "thread_map", original))
            setattr(owner, "thread_map",
                    _wrap_thread_map(recorder, original, tf.parallel.resolve_threads))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# per-layer metrics


# metric name -> the span names whose self times it sums
_SELF_TIMES = {
    "metric.solve_s": ("metric.solve_batch", "metric.solve_one"),
    "metric.validate_s": ("metric.validate",),
    "metric.score_s": ("metric.score",),
    "torus.geometry_s": ("torus.canonicalize", "torus.theta_gaps"),
    "kernels.eval_s": ("kernels.gap_weights",),
    "frechet.moments_s": ("frechet.moments", "frechet.local_moments"),
    "frechet.weights_s": ("frechet.weight_rows", "frechet.local_linear_weights"),
    "frechet.estimates_s": ("frechet.estimates",),
    "bandwidth.self_s": ("bandwidth.search", "bandwidth.candidate"),
    "io.load_s": ("io.load",),
    "io.save_s": ("io.save",),
    "io.ingest_s": ("io.ingest",),
}


def layer_metrics(spans, wall: float) -> tuple:
    """(metrics, accounting) from one traced pass of `wall` seconds.

    The accounting gives the durations of the top-level spans by name, whose
    sum plus cli.self_s is the traced wall time, and the self time of every
    layer, whose sum plus cli.self_s is the wall time of a serial run and
    exceeds it by the overlap of worker threads in a parallel one.
    """
    selfs = self_times(spans)
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total_self(*names):
        return sum(selfs[sp.id] for n in names for sp in by_name.get(n, ()))

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name.get(name, ()))

    out = {name: total_self(*names) for name, names in _SELF_TIMES.items()}

    solves = by_name.get("metric.solve_batch", []) + by_name.get("metric.solve_one", [])
    iters = np.concatenate([sp.attrs["iters"] for sp in solves if "iters" in sp.attrs] +
                           [np.zeros(0, dtype=int)])
    out["metric.solve_rows"] = int(iters.size)
    out["metric.iters_sum"] = int(iters.sum())
    out["metric.iters_max"] = int(iters.max(initial=0))
    # a weighted_frechet_mean that raised ConvergenceError carries no result
    out["metric.nonconverged_rows"] = sum(
        sp.attrs.get("nonconverged", 0) + (sp.attrs.get("error") == "ConvergenceError")
        for sp in solves)
    out["metric.validated_payloads"] = attr_sum("metric.validate", "payloads")

    out["torus.geometry_calls"] = len(by_name.get("torus.theta_gaps", ()))
    out["torus.geometry_bytes"] = attr_sum("torus.theta_gaps", "bytes")
    out["kernels.evals"] = attr_sum("kernels.gap_weights", "evals")

    single = by_name.get("frechet.local_linear_weights", [])
    out["frechet.rows"] = attr_sum("frechet.weight_rows", "rows") + len(single)
    out["frechet.failed_rows"] = attr_sum("frechet.weight_rows", "failed") + \
        sum(1 for sp in single if "error" in sp.attrs)

    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    latencies = [sum(c.duration for c in children.get(sp.id, ())
                     if c.name == "frechet.estimates") * 1e3
                 for sp in by_name.get("bandwidth.candidate", ())]
    out["bandwidth.candidates"] = len(latencies)
    out["bandwidth.candidate_p50_ms"] = float(np.percentile(latencies, 50)) if latencies else 0.0
    out["bandwidth.candidate_p90_ms"] = float(np.percentile(latencies, 90)) if latencies else 0.0

    maps = by_name.get("parallel.map", [])
    out["parallel.workers"] = max((sp.attrs["workers"] for sp in maps), default=0)
    out["parallel.items"] = sum(sp.attrs["items"] for sp in maps)
    out["parallel.map_s"] = sum(sp.duration for sp in maps)

    roots = {}
    for sp in children.get(None, ()):
        roots[sp.name] = roots.get(sp.name, 0.0) + sp.duration
    out["cli.self_s"] = wall - sum(roots.values())
    by_layer = {}
    for sp in spans:
        layer = sp.name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[sp.id]
    accounting = {"top_level_spans_s": roots, "self_s_by_layer": by_layer,
                  "solver_iters_per_row": {
                      "median": float(np.median(iters)) if iters.size else 0.0,
                      "p90": float(np.percentile(iters, 90)) if iters.size else 0.0,
                      "max": out["metric.iters_max"]}}
    return out, accounting
