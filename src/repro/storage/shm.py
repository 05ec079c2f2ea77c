"""Shared-memory segments: creation registry and safe attach.

Segment lifecycle is the part of the storage tentpole that can actually
hurt: a leaked POSIX shared-memory object survives the process, and
:mod:`multiprocessing.resource_tracker` on this Python registers a
segment on *attach* as well as create, so naive worker attaches either
double-unlink or spam leak warnings at exit.  The rules implemented
here:

* **Create through :func:`create_segment` only.**  Names are
  pid-scoped (``repro-<pid>-<n>``) so concurrent test runs cannot
  collide, and every created segment is tracked in a module registry
  that an ``atexit`` hook drains — crash-during-query still unlinks.
* **The creator unlinks.**  :func:`release_segment` closes and unlinks
  exactly once (idempotent; a missing segment is not an error) and is
  called from backend/shipment ``close()`` — refcounted by the single
  owner rather than by attach count, which POSIX semantics make safe:
  an unlinked-while-mapped segment stays readable until the last
  attacher closes.
* **Workers attach untracked.**  :func:`attach_segment` suppresses the
  resource tracker's attach-side registration (``track=False`` where
  the interpreter has it, 3.13+; before that by temporarily no-op-ing
  ``resource_tracker.register`` — it is consulted by attribute).  A
  spawn-started worker would otherwise hand the name to its *own*
  tracker, which unlinks it when the worker exits — yanking the
  segment out from under the parent mid-run.
* **Create and attach never overlap.**  The no-op swap is process-wide,
  so a :func:`create_segment` on another thread inside that window
  would go unregistered — its ``unlink()`` then makes the tracker
  print a ``KeyError`` traceback, and a hard crash would orphan the
  segment in ``/dev/shm``.  One module lock serialises the two (the
  server's inline reads attach while its writes create).

Only :mod:`repro.storage.image` calls these functions; everything else
holds an :class:`~repro.storage.image.Image`.

:data:`live_segment_names` exists for the leak-check test: after every
session and shipment is closed it must be empty, and ``/dev/shm`` must
hold nothing with this process's prefix.
"""

from __future__ import annotations

import atexit
import itertools
import os
import sys
import threading
from multiprocessing import resource_tracker, shared_memory

#: Every segment this process creates starts with this (pid-scoped, so
#: the leak test can scan ``/dev/shm`` for strays without seeing other
#: runs; short, because POSIX shm names are capped near 31 chars on
#: some platforms).
SEGMENT_PREFIX = f"repro-{os.getpid()}-"

_counter = itertools.count()
_live: dict[str, shared_memory.SharedMemory] = {}
#: Held across every create and every register-swapping attach.
_tracker_lock = threading.Lock()


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a tracked, pid-scoped segment of at least ``nbytes``."""
    name = f"{SEGMENT_PREFIX}{next(_counter)}"
    with _tracker_lock:
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(nbytes, 1)
        )
    _live[segment.name] = segment
    return segment


def release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink ``segment`` (idempotent, crash-tolerant)."""
    _live.pop(segment.name, None)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - an exported view is alive
        pass  # unlink still removes the name; memory frees on last close
    try:
        segment.unlink()
    except FileNotFoundError:
        pass  # already unlinked (e.g. atexit after an explicit close)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    Worker-side only; the caller must ``close()`` (never ``unlink()``)
    the returned handle.  See the module docstring for why attach-side
    registration must be suppressed.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    with _tracker_lock:
        registered = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = registered


def live_segment_names() -> tuple[str, ...]:
    """Names of segments created here and not yet released (leak test)."""
    return tuple(sorted(_live))


def _release_all() -> None:
    for segment in list(_live.values()):
        release_segment(segment)


atexit.register(_release_all)
