"""The server's worker pool on its own (:mod:`repro.serve.workers`).

``tests/test_serve_server.py`` and ``test_serve_threads.py`` drive the
pool through :class:`~repro.serve.server.Server`; here it is driven
directly, so each clause of its contract — FIFO backlog, warm worker
first, one future per failure, a dead worker breaks the pool, shutdown
waits for what was dispatched — fails on its own.  Every test ends
with no worker process, no reactor thread and no pipe fd left
(:func:`nothing_left_behind`).

Task functions are module-level: spawn-context workers import this
module and look them up by name.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.serve.workers import WorkerPool

SPAWN = multiprocessing.get_context("spawn")
TIMEOUT = 60


def _socket_fds() -> int:
    """Open socket fds (a duplex ``Pipe`` is a socket pair)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:  # the listing's own fd, closed by now
            pass
    return count


@pytest.fixture(autouse=True)
def nothing_left_behind():
    before = _socket_fds()
    yield
    # The root conftest's end-of-run check, after every test here.
    assert not [
        each.name
        for each in (*multiprocessing.active_children(), *threading.enumerate())
        if each.name.startswith("repro-serve-")
    ]
    assert _socket_fds() == before


@pytest.fixture
def pool_of():
    """``pool_of(n)`` → a pool this fixture shuts down afterwards."""
    pools = []

    def make(workers: int) -> WorkerPool:
        pools.append(WorkerPool(workers, SPAWN))
        return pools[-1]

    yield make
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _echo(value):
    return value


def _pid_once_exists(path):
    """Block until ``path`` exists; says which worker ran it."""
    deadline = time.monotonic() + TIMEOUT
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(path)
        time.sleep(0.002)
    return os.getpid()


def _raise(error):
    raise error


def _unpicklable_result():
    return threading.Lock()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def _raise_unpicklable():
    raise _Unpicklable()


class _LoadsBadly(Exception):
    """Pickles, but cannot be rebuilt from ``args`` in the parent."""

    def __init__(self, first, second):
        super().__init__(first)


def _raise_loads_badly():
    raise _LoadsBadly("a", "b")


def _held(pool, tmp_path, name):
    """A task that occupies a worker until ``release()`` is called."""
    path = tmp_path / name
    return pool.submit(_pid_once_exists, str(path)), path.touch


# ----------------------------------------------------------------------
# Dispatch order
# ----------------------------------------------------------------------


def test_more_tasks_than_workers_all_answer_and_the_backlog_is_fifo(
    pool_of, tmp_path
):
    pool = pool_of(1)
    first, release = _held(pool, tmp_path, "first")
    finished = []
    queued = [pool.submit(_echo, index) for index in range(6)]
    for future in queued:
        future.add_done_callback(lambda f: finished.append(f.result()))
    # A backlogged future its owner cancels is skipped, not run.
    assert queued[2].cancel() and not first.done()
    release()
    assert first.result(TIMEOUT) == next(iter(pool._processes))
    for index, future in enumerate(queued):
        if index != 2:
            assert future.result(TIMEOUT) == index
    assert finished == [0, 1, 3, 4, 5]
    two = pool_of(2)
    futures = [two.submit(_echo, index) for index in range(20)]
    assert [future.result(TIMEOUT) for future in futures] == list(range(20))


def test_the_most_recently_freed_worker_gets_the_next_task(pool_of, tmp_path):
    pool = pool_of(2)
    for round_, order in enumerate(((0, 1), (1, 0))):
        held = [
            _held(pool, tmp_path, f"{round_}-{slot}") for slot in range(2)
        ]
        pids = []
        for slot in order:  # free them one by one, in this order
            future, release = held[slot]
            release()
            pids.append(future.result(TIMEOUT))
        assert set(pids) == set(pool._processes)
        # The reactor has parked the second before its future resolved.
        assert pool.submit(os.getpid).result(TIMEOUT) == pids[-1]
        assert pool.submit(os.getpid).result(TIMEOUT) == pids[-1]


# ----------------------------------------------------------------------
# One future per failure
# ----------------------------------------------------------------------


def test_a_task_that_raises_fails_its_future_and_the_worker_lives_on(pool_of):
    pool = pool_of(1)
    pid = pool.submit(os.getpid).result(TIMEOUT)
    error = pool.submit(_raise, ValueError("no such thing")).exception(TIMEOUT)
    assert isinstance(error, ValueError) and error.args == ("no such thing",)
    # The worker-side frames travel with it.
    assert "_raise" in "".join(error.__notes__)
    assert pool.submit(os.getpid).result(TIMEOUT) == pid


def test_what_cannot_cross_the_pipe_fails_that_future_only(pool_of):
    pool = pool_of(1)
    pid = pool.submit(os.getpid).result(TIMEOUT)
    # The task itself: decided in submit, nothing was sent.
    assert pool.submit(lambda: 1).exception(TIMEOUT) is not None
    # A result, and an exception, the worker cannot pickle.
    error = pool.submit(_unpicklable_result).exception(TIMEOUT)
    assert isinstance(error, TypeError) and "pickle" in str(error)
    error = pool.submit(_raise_unpicklable).exception(TIMEOUT)
    assert isinstance(error, RuntimeError) and "holds a lock" in str(error)
    # An exception the parent cannot rebuild.
    error = pool.submit(_raise_loads_badly).exception(TIMEOUT)
    assert isinstance(error, TypeError)
    assert pool.submit(os.getpid).result(TIMEOUT) == pid
    assert not pool._broken


# ----------------------------------------------------------------------
# A dead worker breaks the pool
# ----------------------------------------------------------------------


@pytest.mark.parametrize("victim", ["busy", "idle"])
def test_a_killed_worker_breaks_the_pool(pool_of, tmp_path, victim):
    pool = pool_of(2)
    running, __ = _held(pool, tmp_path, "never-released")
    (busy_pid,) = (
        process.pid
        for conn, process in pool._conns.items() if conn in pool._busy
    )
    outstanding = [running]
    if victim == "busy":  # … with a second task running and a backlog
        outstanding.append(_held(pool, tmp_path, "nor-this")[0])
        outstanding += [pool.submit(_echo, index) for index in range(3)]
    processes = list(pool._processes.values())
    for process in processes:
        if (process.pid == busy_pid) == (victim == "busy"):
            process.kill()
    for future in outstanding:
        assert isinstance(future.exception(TIMEOUT), BrokenProcessPool)
    with pytest.raises(BrokenProcessPool):
        pool.submit(_echo, 1)
    pool.shutdown(wait=True)
    assert not any(process.is_alive() for process in processes)


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------


def test_shutdown_waits_for_every_dispatched_task(pool_of, tmp_path):
    pool = pool_of(1)
    running, release = _held(pool, tmp_path, "running")
    backlog = [pool.submit(_echo, index) for index in range(3)]
    threading.Timer(0.2, release).start()
    pool.shutdown(wait=True)
    # Server.close() relies on this: nothing is resolved after it returns.
    assert running.done() and all(future.done() for future in backlog)
    assert [future.result(0) for future in backlog] == [0, 1, 2]
    pool.shutdown(wait=True, cancel_futures=True)  # a no-op
    with pytest.raises(RuntimeError):
        pool.submit(_echo, 1)
    assert not any(p.is_alive() for p in pool._processes.values())


def test_shutdown_cancelling_futures_fails_the_backlog(pool_of, tmp_path):
    pool = pool_of(1)
    running, release = _held(pool, tmp_path, "running")
    backlog = [pool.submit(_echo, index) for index in range(3)]
    pool.shutdown(wait=False, cancel_futures=True)
    for future in backlog:
        with pytest.raises(CancelledError):
            future.result(TIMEOUT)
    assert not running.done()
    release()
    pool.shutdown(wait=True)
    assert running.done() and running.result(0) in pool._processes


# ----------------------------------------------------------------------
# Many submitters
# ----------------------------------------------------------------------


def test_eight_submitting_threads_lose_and_duplicate_nothing(pool_of):
    pool = pool_of(2)
    per_thread, answered, failures = 60, [], []

    def submitter(thread: int) -> None:
        try:
            futures = [
                pool.submit(_echo, (thread, index))
                for index in range(per_thread)
            ]
            for future in futures:
                future.add_done_callback(lambda f: answered.append(f.result()))
            got = [future.result(TIMEOUT) for future in futures]
            assert got == [(thread, index) for index in range(per_thread)]
        except BaseException as error:  # noqa: BLE001 - re-raised below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=submitter, args=(thread,))
            for thread in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if failures:
        raise failures[0]
    pool.shutdown(wait=True)
    expected = [(t, i) for t in range(8) for i in range(per_thread)]
    assert sorted(answered) == expected
    assert not pool._busy and not pool._backlog
