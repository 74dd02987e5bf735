"""The one place that cuts per-point work into threads and blocks.

`split(job, n, block)` runs job(lo, hi) over contiguous parts of range(n):
part 0 on the calling thread, the others on a process-wide pool of helper
threads created on first use.  Each part walks its range in blocks of at
most `block` units, so a kernel's memory per thread is set by its block,
not by the grid.  Every block does the arithmetic the whole would do on its
slice, so results are bit-identical for any thread count.  Only the main
thread splits; a call from any other thread runs as one part.  Jobs
write only into arrays their caller allocated, and run no large BLAS
product: OpenBLAS gives each calling thread its own buffer, so splitting
the pole search's `cand @ pts.T` raised the `spectral_s3` benchmark's peak
RSS from about 64.5 to 71.6 MiB.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BLOCK_POINTS = 2048  # grid points per block of the row-blocked kernels

_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_size
    _pool, _pool_size = None, 0


os.register_at_fork(after_in_child=_forget_pool)


def thread_cap() -> int:
    """Threads one `split` may use: WLAB_THREADS, else all cores.

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


def split(job, n: int, block: int = 0) -> None:
    """Run job(lo, hi) over non-empty blocks that tile range(n) once each.

    Each part walks its range in blocks of `block` units, or as one piece
    when `block` is 0.  Returns once every part has finished; raises the
    exception of the first part, in range order, that failed.
    """
    cap = thread_cap()
    parts = max(1, min(cap, n) if threading.current_thread() is threading.main_thread() else 1)
    bounds = [n * k // parts for k in range(parts + 1)]
    step = block or max(n, 1)

    def walk(lo, hi):
        for start in range(lo, hi, step):
            job(start, min(start + step, hi))

    futures = [_helpers(parts - 1).submit(walk, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        walk(bounds[0], bounds[1])
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
