"""Parallel-map helpers honoring the TORFRECH_THREADS environment variable.

Work units are always independent and results are assembled in submission
order, so outputs are identical for any worker count (0 means auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

_ENV_VAR = "TORFRECH_THREADS"


def resolve_threads(threads=None) -> int:
    if threads is None:
        raw = os.environ.get(_ENV_VAR, "0")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    threads = int(threads)
    if threads < 0:
        raise ValueError("thread count must be >= 0")
    if threads == 0:
        threads = os.cpu_count() or 1
    return threads


def _pool_map(executor, fn, items, threads):
    items = list(items)
    workers = resolve_threads(threads)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with executor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def thread_map(fn, items, threads=None):
    """Order-preserving map over a thread pool. On 2 vCPUs two workers ran the cv
    folds 1.14x as fast as one on perfbench's cv_sphere, 1.12x on cv_quantile and
    1.11x on cv_network (ROADMAP, Baseline)."""
    return _pool_map(ThreadPoolExecutor, fn, items, threads)


def process_map(fn, items, threads=None):
    """Order-preserving map over a process pool (fn must be picklable)."""
    return _pool_map(ProcessPoolExecutor, fn, items, threads)
