"""The server's worker pool: N processes, one duplex pipe each.

What :class:`~repro.serve.server.Server` needs of the standard
library's process-pool executor — ``submit → Future``,
``shutdown(wait, cancel_futures)``, ``_processes``,
:class:`BrokenProcessPool` — without its plumbing (manager thread, call
queue, feeder thread: two GIL hand-offs before a byte leaves).  Here
``submit`` pickles the task and, when a worker is idle, writes it to
that worker's pipe itself; one reactor thread blocks on *all* pipes,
and on a result hands the freed worker the next backlog task before it
resolves the finished future (callbacks run on the reactor).  Idle
workers are reused most-recently-freed first: that process's snapshot
session, plan memo and CPU cache are the warm ones.

A worker that dies — busy or idle — shows as EOF on its pipe; the pool
is then broken for good: every outstanding future and every later
``submit`` gets :class:`BrokenProcessPool`, the other workers are
killed.  ``tests/test_serve_workers.py`` pins all of it.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler

__all__ = ["WorkerPool"]

#: The message that retires a worker (no pickle is zero bytes long).
_RETIRE = b""


def _worker_main(conn) -> None:
    """Serve ``(fn, args)`` tasks until retired or the parent is gone."""
    try:
        while (message := conn.recv_bytes()) != _RETIRE:
            try:
                fn, args = pickle.loads(message)
                reply = ForkingPickler.dumps((True, fn(*args)))
            except BaseException as error:  # noqa: BLE001 - forwarded to the future
                error.add_note(traceback.format_exc())  # the worker-side frames
                try:
                    reply = ForkingPickler.dumps((False, error))
                except Exception:  # noqa: BLE001 - an unpicklable error
                    reply = ForkingPickler.dumps((False, RuntimeError(repr(error))))
            conn.send_bytes(reply)
    except (EOFError, OSError):
        pass  # the parent is gone


class WorkerPool:
    def __init__(self, max_workers: int, mp_context) -> None:
        #: Guards every field below but ``_conns``, and every write to a
        #: pipe — so the reactor never closes one under a writer.
        self._lock = threading.Lock()
        self._idle: list = []  # a stack: the warm worker goes first
        self._busy: dict = {}  # pipe → the future it is computing
        self._backlog: deque = deque()  # (future, pickled task), FIFO
        self._shutdown = self._broken = False
        #: pipe → process; the reactor's alone once it runs.
        self._conns: dict = {}
        self._processes: dict = {}
        for index in range(max_workers):
            ours, theirs = mp_context.Pipe(duplex=True)
            process = mp_context.Process(
                target=_worker_main, args=(theirs,), daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            process.start()
            theirs.close()  # ours alone must see EOF when the worker dies
            self._conns[ours] = self._processes[process.pid] = process
            self._idle.append(ours)
        self._reactor = threading.Thread(
            target=self._react, name="repro-serve-reactor", daemon=True
        )
        self._reactor.start()

    def submit(self, fn, /, *args) -> Future:
        future = Future()
        try:
            task = ForkingPickler.dumps((fn, args))
        except Exception as error:  # noqa: BLE001 - this future's alone
            future.set_exception(error)
            return future
        with self._lock:
            if self._broken:
                raise BrokenProcessPool("a worker process died")
            if self._shutdown:
                raise RuntimeError("cannot submit after shutdown")
            if self._idle:
                future.set_running_or_notify_cancel()
                self._send(self._idle.pop(), future, task)
            else:
                self._backlog.append((future, task))
        return future

    def _send(self, conn, future, task) -> None:
        """Start ``future`` on ``conn`` (lock held)."""
        self._busy[conn] = future
        self._write(conn, task)

    def _write(self, conn, message) -> None:
        try:
            conn.send_bytes(message)
        except OSError:
            pass  # a dead worker: the reactor reads its EOF all the same

    def _react(self) -> None:
        while self._conns:
            for conn in connection.wait(list(self._conns)):
                try:
                    reply = conn.recv_bytes()
                except (EOFError, OSError):
                    with self._lock:
                        retired = self._shutdown and conn not in self._busy
                    if not retired:
                        return self._break()
                    conn.close()
                    self._conns.pop(conn).join()
                    continue
                with self._lock:
                    future = self._busy.pop(conn)
                    self._release(conn)
                try:
                    ok, value = pickle.loads(reply)
                except Exception as error:  # noqa: BLE001 - this future's alone
                    ok, value = False, error
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)

    def _release(self, conn) -> None:
        """Give a free worker its next task, or park / retire it (lock held)."""
        while self._backlog:
            future, task = self._backlog.popleft()
            if future.set_running_or_notify_cancel():
                return self._send(conn, future, task)
        if self._shutdown:
            self._write(conn, _RETIRE)
        else:
            self._idle.append(conn)

    def _break(self) -> None:
        """A worker died: fail everything outstanding, stop the rest (reactor)."""
        with self._lock:
            self._broken = True
            failed = [*self._busy.values()] + [
                future for future, __ in self._backlog
                if future.set_running_or_notify_cancel()
            ]
            self._busy.clear()
            self._backlog.clear()
            self._idle.clear()
            for conn, process in self._conns.items():
                process.kill()
                conn.close()
        for process in self._conns.values():
            process.join()
        self._conns.clear()
        for future in failed:
            future.set_exception(BrokenProcessPool("a worker process died"))

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Retire the workers once dispatched (and, unless cancelled,
        backlogged) tasks are done; ``wait`` for that.  Idempotent."""
        with self._lock:
            cancelled = []
            if cancel_futures:
                cancelled = [future for future, __ in self._backlog]
                self._backlog.clear()
            if not self._shutdown:
                self._shutdown = True
                while self._idle:
                    self._write(self._idle.pop(), _RETIRE)
        for future in cancelled:
            future.cancel()
        if wait:
            self._reactor.join()
