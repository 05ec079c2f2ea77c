"""Run a command and leave no process behind it.

A measured process starts others it does not itself wait for: the
standard library's ``multiprocessing`` resource tracker (started with
the first pool or shared-memory segment) ends only *after* the process
that started it, and a run that dies part-way may leave pool workers.
Orphans go to PID 1, which in a container need not reap them, so they
outlive the benchmark as zombies or worse.

:func:`supervise` therefore makes this process the *child subreaper*
(``prctl(PR_SET_CHILD_SUBREAPER)``, Linux): every descendant whose
parent dies is re-parented here, and this process returns only when
``waitpid`` reports that it has no children left.  Whatever is still
alive ``GRACE_SECONDS`` after the command ended is killed, then waited
for like the rest.  Told to stop itself (``SIGTERM``, ``SIGINT``), this
process passes ``SIGTERM`` on first; the resource tracker ignores it and
so still unlinks the run's shared-memory segments once the others are
gone.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from pathlib import Path

__all__ = ["PR_SET_CHILD_SUBREAPER", "children", "supervise"]

PR_SET_CHILD_SUBREAPER = 36
#: How long descendants may outlive the command before they are killed.
GRACE_SECONDS = 10.0


def children() -> list[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended between the listing and the read
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry.name))
    return found


def _signal_children(signum: int, skip: set[int]) -> None:
    for child in children():
        if child not in skip:
            skip.add(child)
            try:
                os.kill(child, signum)
            except ProcessLookupError:
                pass


def _reap_all(grace: float, terminate: bool) -> None:
    """Wait until this process has no children.

    With ``terminate`` they are asked to stop at once; whatever is still
    alive after ``grace`` seconds is killed.  Children of a process that
    dies are re-parented here and are met on the next turn.
    """
    deadline = time.monotonic() + grace
    asked: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            _signal_children(signal.SIGKILL, set())
        elif terminate:
            _signal_children(signal.SIGTERM, asked)
        time.sleep(0.005)


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def supervise(command: list[str], cwd: Path) -> int:
    """Run ``command`` with this process's stdio; returns its exit code
    once it and every process it left behind have ended."""
    if ctypes.CDLL(None, use_errno=True).prctl(
        PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
    ):
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    signal.signal(signal.SIGTERM, _stop)
    early = True  # until the command has ended by itself
    try:
        code = subprocess.Popen(command, cwd=cwd).wait()
        early = False
        return code
    finally:
        # Nothing may interrupt the wait itself.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _reap_all(GRACE_SECONDS, terminate=early)
