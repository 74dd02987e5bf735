"""The one place that cuts per-point work into threads and blocks.

`split(job, n, block)` runs job(lo, hi) over contiguous parts of range(n):
part 0 on the calling thread, the others on one cached pool of helper
threads per thread cap and process; a call from any thread but the main
one runs as one part.  Each part walks its range in blocks, so a kernel's
memory per thread is set by its block, not by the grid.  One rule, read
when a walk starts, sizes the blocks of every walk over grid points, split
or serial: `lines(nv)` whole lines of nv points, about BLOCK_POINTS.  Each
block does the arithmetic the whole would do on its slice, so no field
depends on the thread count or BLOCK_POINTS (the rank witnesses' leaves
move `lorentz.span_rank`'s singular values at roundoff).  Jobs write only
into arrays their caller allocated, and run no large BLAS product:
OpenBLAS gives each calling thread its own buffer, so splitting the pole
search's `cand @ pts.T` raised the `spectral_s3` benchmark's peak RSS from
about 64.5 to 71.6 MiB.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BLOCK_POINTS = 1024  # fits the widest per-point buffers: P's blocks, the pole search

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


@functools.lru_cache(maxsize=1)
def _helpers(count: int, pid: int) -> ThreadPoolExecutor:
    # keyed by pid, as a forked child inherits the pool but none of its
    # threads; a new cap evicts the old pool, whose idle workers exit once
    # it is freed.  Only the main thread splits: a part that split from a
    # helper would wait on its own pool, and threads calling `analyze`
    # concurrently would multiply the cap.
    return ThreadPoolExecutor(max_workers=count, thread_name_prefix="wlab-part")


def lines(points_per_line: int) -> int:
    """Lines of `points_per_line` points in a block of BLOCK_POINTS: at least one."""
    return max(1, BLOCK_POINTS // points_per_line)


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

    futures = [_helpers(cap - 1, os.getpid()).submit(walk, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        walk(bounds[0], bounds[1])
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
