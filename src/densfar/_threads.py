"""Worker-process pool shared by the bootstrap and the Monte Carlo study loops.

Work items are pure functions of their index with per-index random streams,
so results are identical at any pool size; each loop maps its whole work
list in one call. With w workers, `parallel_map` forks w - 1 children once:
child k runs items[k::w] and pickles its results, or the exception that
stopped it, into its own pipe; the parent runs items[0::w], then reads every
pipe and reaps every child before it returns or raises. Forking, unlike
spawning, lets an item be a closure over the caller's state (a bootstrap's
model, a study's generator); only results are pickled.

The pool size is the available CPUs divided by the BLAS thread count that
OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or OMP_NUM_THREADS sets (none set:
BLAS takes every core, so serial), capped at the items; `taskset` or the
BLAS variable caps it. The map runs serially inside a worker, off Linux,
and while another Python thread is alive, since a fork copies no thread but
every lock one holds. With one BLAS thread on 2 vCPUs, two workers cut
`analyze tails --bootstrap 300` from 2.86-2.94 to 1.61-1.88 s and the
benchmark's study by about a third, for up to 20% more CPU time.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

# set while a pooled map runs, in the parent and (by the fork) in its children
_pooled = False


def worker_count() -> int:
    """Pool size: the available CPUs left over by the BLAS threads."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    for name in _BLAS_VARIABLES:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:  # unset, or not an integer
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


def parallel_map(fn, items) -> list:
    """Map fn over items preserving order, on forked workers (see module)."""
    global _pooled
    items = list(items)
    workers = min(worker_count(), len(items))
    if (workers <= 1 or _pooled or not sys.platform.startswith("linux")
            or threading.active_count() > 1):
        return [fn(x) for x in items]
    _pooled = True
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork(fn, items[k::workers]))
        out = [None] * len(items)
        out[::workers] = [fn(x) for x in items[::workers]]
    finally:
        _pooled = False
        # every child is read and reaped, also when the parent's share raised
        parts = [_collect(pid, fd) for pid, fd in children]
    for k, (ok, payload) in enumerate(parts, 1):
        if not ok:
            raise payload
        out[k::workers] = payload
    return out


def _fork(fn, items) -> tuple:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, [fn(x) for x in items])
        except BaseException as exc:  # an interrupt too: the parent raises it
            payload = (False, exc)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(
                f"a worker's result could not be pickled: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # no atexit handlers, no flush of buffers inherited from the parent
        os._exit(code)


def _collect(pid: int, fd: int) -> tuple:
    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        return False, RuntimeError(f"worker process {pid} ended with exit code {code}")
    try:
        return pickle.loads(data)
    except Exception as exc:
        return False, RuntimeError(f"worker process {pid} sent an unreadable result: {exc!r}")
