"""Contiguous splits of per-point work across WLAB_THREADS threads.

`split(job, n)` runs job(lo, hi) over contiguous parts of range(n): part 0
on the calling thread, the others on a process-wide pool of helper
threads that is created on first use.  Every part does the arithmetic the
whole would do on its slice, so results are bit-identical for any thread
count.  Only the main thread splits; a call from any other thread (the
convergence sweep's pool) runs as one part, so the two levels never nest.
Jobs write only into arrays their caller allocated.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_size
    _pool, _pool_size = None, 0


os.register_at_fork(after_in_child=_forget_pool)


def thread_cap() -> int:
    """Threads one `analyze` or one sweep may use: WLAB_THREADS, else all cores.

    Raises ValueError unless a set, non-empty WLAB_THREADS is a positive
    integer.
    """
    env = os.environ.get("WLAB_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"WLAB_THREADS must be a positive integer, not {env!r}")
    return cap


def _helpers(count: int) -> ThreadPoolExecutor:
    # only the main thread splits, so only it creates or replaces the pool
    global _pool, _pool_size
    if _pool_size < count:
        if _pool is not None:
            _pool.shutdown(wait=False)
        _pool = ThreadPoolExecutor(max_workers=count, thread_name_prefix="wlab-part")
        _pool_size = count
    return _pool


def split(job, n: int, grain: int = 1) -> None:
    """Run job(lo, hi) over contiguous parts covering range(n).

    Part boundaries fall on multiples of `grain`.  Returns once every part
    has finished; raises the exception of the first part, in range order,
    that failed.
    """
    cap = thread_cap()
    units = -(-n // grain)
    parts = min(cap, units) if threading.current_thread() is threading.main_thread() else 1
    if parts <= 1:
        job(0, n)
        return
    bounds = [min(n, grain * (units * k // parts)) for k in range(parts + 1)]
    pool = _helpers(parts - 1)
    futures = [pool.submit(job, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        job(bounds[0], bounds[1])
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
