"""Worker-thread helper shared by the bootstrap and the Monte Carlo study loops.

Work items are pure functions of their index with per-index random streams,
so results are identical whether executed serially or on a pool. The
FAR_THREADS environment variable sets the pool size; unset or 1 means serial.
A pool pays off on spare cores: at n=512 and T=212 on 2 vCPUs and one BLAS
thread, FAR_THREADS=2 cut `analyze vardecomp --bootstrap 100`, whose refits solve
only their K leading eigenpairs in reused buffers, from 1.00 s to 0.81 s wall
(medians of 8 alternating runs each), for 0.09 s more CPU time. The Monte
Carlo study does not pay: on the benchmark's seed-5 study config (grid 128,
30 iterations per cell) FAR_THREADS=2 took `simulate` from 3.21 s
(2.97-3.25 s) to 4.69 s (4.62-4.76 s) wall, from 3.16 to 5.77 s CPU and
from 41.3 to 44.7 MB peak RSS (medians of 4 alternating runs). Its iterations
run numpy calls on small arrays, so two threads mostly wait on each other.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    env = os.environ.get("FAR_THREADS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError as exc:
        raise ValueError(f"FAR_THREADS must be an integer, got {env!r}") from exc
    return max(1, n)


def parallel_map(fn, items) -> list:
    """Map fn over items preserving order; threads when FAR_THREADS > 1."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
