"""The worker-process pool behind the bootstrap and the study loops."""

import os
import threading

import pytest

from densfar import _threads
from densfar._threads import parallel_map, worker_count
from densfar.errors import ZeroVariance


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_items_come_back_in_order(forks):
    calls = forks(3, OPENBLAS_NUM_THREADS="1")
    out = parallel_map(lambda x: (x * x, os.getpid()), range(11))
    assert [v for v, _ in out] == [x * x for x in range(11)]
    # worker k runs items k, k + 3, ...; the parent is worker 0
    pids = [pid for _, pid in out]
    assert len(calls) == 2 and pids[0] == os.getpid()
    assert len(set(pids)) == 3 and all(pids[i] == pids[i % 3] for i in range(11))
    _no_child_left()


def test_a_child_exception_reaches_the_caller(forks):
    forks(3, OPENBLAS_NUM_THREADS="1")

    def item(x):
        if x == 4:  # runs in the first child
            raise ZeroVariance(f"item {x} has no variance")
        return x

    with pytest.raises(ZeroVariance, match="^item 4 has no variance$"):
        parallel_map(item, range(9))
    _no_child_left()


def test_a_parent_exception_still_reaps_the_children(forks):
    forks(2, OPENBLAS_NUM_THREADS="1")

    def item(x):
        if x == 0:  # runs in the parent
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        parallel_map(item, range(6))
    _no_child_left()


def test_a_dead_child_raises_instead_of_hanging(forks):
    forks(2, OPENBLAS_NUM_THREADS="1")

    def item(x):
        if x == 3:  # runs in the child
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exit code 3"):
        parallel_map(item, range(6))
    _no_child_left()


def test_an_unpicklable_result_is_an_error(forks):
    forks(2, OPENBLAS_NUM_THREADS="1")
    with pytest.raises(RuntimeError, match="could not be pickled"):
        parallel_map(lambda x: (lambda: x), range(4))
    _no_child_left()


def test_a_nested_map_runs_serially_in_its_worker(forks):
    calls = forks(2, OPENBLAS_NUM_THREADS="1")

    def item(x):
        return os.getpid(), parallel_map(lambda y: os.getpid(), range(4))

    out = parallel_map(item, range(4))
    assert len(calls) == 1
    for outer, inner in out:
        assert inner == [outer] * 4
    assert out[0][0] == os.getpid() != out[1][0]
    _no_child_left()


def test_serial_while_another_thread_is_alive(forks):
    calls = forks(2, OPENBLAS_NUM_THREADS="1")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel_map(lambda x: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and calls == []


@pytest.mark.parametrize("blas, expected", [
    ({}, 1),  # BLAS takes every core
    ({"OMP_NUM_THREADS": "1"}, 4),
    ({"MKL_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
])
def test_default_size_is_the_cpus_left_by_blas(forks, blas, expected):
    calls = forks(4, **blas)
    assert worker_count() == expected
    assert parallel_map(lambda x: x, range(10)) == list(range(10))
    assert len(calls) == expected - 1
    _no_child_left()


def test_the_pool_is_capped_at_the_cpus_and_the_items(forks):
    calls = forks(3, OPENBLAS_NUM_THREADS="1")
    assert worker_count() == 3
    assert parallel_map(lambda x: -x, range(100)) == [-x for x in range(100)]
    assert len(calls) == 2
    calls.clear()
    assert parallel_map(lambda x: -x, range(2)) == [0, -1]
    assert len(calls) == 1
    _no_child_left()


def test_a_blas_setting_that_is_no_positive_integer_is_skipped(forks):
    # the size cannot fail: such a value passes the choice to the next variable
    for value in ["abc", "", "1.5", "-2", "0", "\u00b2", "9" * 5000]:
        forks(4, OPENBLAS_NUM_THREADS=value, OMP_NUM_THREADS="2")
        assert worker_count() == 2
        forks(4, OPENBLAS_NUM_THREADS=value)
        assert worker_count() == 1
