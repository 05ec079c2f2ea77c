"""Memory-mapped spill files: storage for the out-of-core backend.

Same columnar layout as :mod:`repro.storage.shm`, but the bytes live
in an unlinked-on-close temp file mapped read-only.  Two behavioural
differences of :class:`~repro.storage.backend.MmapBackend` are the
point:

* **Decoded relations are not memoized.**  ``rows()`` decodes from the
  mapping on every read, so a relation's Python-object form is
  resident only while a query actually holds it — the file is the
  store, the page cache decides what stays warm, and a database whose
  columnar footprint exceeds the partition budget still executes in
  budget-bounded batches (``benchmarks/test_out_of_core.py`` pins
  this).
* **Shipments spill too.**  When the parallel path runs over an mmap
  backend, batch fragments are written to a spill file and workers
  attach by *path* (:func:`create_spill_file` / :func:`attach_path`),
  so a parallel run's transport never grows anonymous memory either.

Files are pid-scoped in a registry drained at exit, mirroring the shm
segment rules; the source :class:`~repro.data.database.Database`
handle itself stays in heap (it is the mutation/version authority),
so "larger than RAM" here means the engine's working set — encoded
storage, shipped fragments, per-batch decodes — not the handle.

Only :mod:`repro.storage.image` calls these functions; everything else
holds an :class:`~repro.storage.image.Image`.
"""

from __future__ import annotations

import atexit
import errno
import itertools
import mmap
import os
import tempfile

#: Spill files are named ``repro-spill-<pid>-<n>`` under the system
#: temp dir; the leak test scans for strays by this prefix.
SPILL_PREFIX = f"repro-spill-{os.getpid()}-"

_counter = itertools.count()
_live: dict[str, int] = {}  # path → open fd (kept for the mmap)


def create_spill_file(parts: list[bytes]) -> tuple[str, int]:
    """Write ``parts`` to a fresh tracked spill file; ``(path, fd)``.

    The returned fd stays open (mappings need it on some platforms);
    :func:`release_spill_file` closes and unlinks.  An empty payload
    still writes one byte so ``mmap`` never sees a zero-length file.
    ``os.write`` may accept fewer bytes than offered (a nearly full
    ``TMPDIR``, a part over 2 GiB): each part is written until none
    of it is left, and a write that accepts nothing raises ``OSError``
    — a truncated file would be mapped and decoded as garbage.
    """
    path = os.path.join(
        tempfile.gettempdir(), f"{SPILL_PREFIX}{next(_counter)}"
    )
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
    try:
        if not any(parts):
            parts = [b"\0"]
        for part in parts:
            left = memoryview(part)
            while left:
                written = os.write(fd, left)
                if written <= 0:
                    raise OSError(
                        errno.ENOSPC,
                        f"short write to spill file {path}: "
                        f"{len(left)} byte(s) not accepted",
                    )
                left = left[written:]
    except BaseException:
        os.close(fd)
        os.unlink(path)
        raise
    _live[path] = fd
    return path, fd


def release_spill_file(path: str) -> None:
    """Close and unlink ``path`` (idempotent, crash-tolerant)."""
    fd = _live.pop(path, None)
    if fd is not None:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def attach_path(path: str) -> tuple[mmap.mmap, memoryview]:
    """Map an existing spill file read-only (worker side).

    The caller releases the memoryview then closes the mmap; the
    creator owns unlinking, and POSIX keeps an unlinked-but-mapped
    file readable until the last mapping goes away — the same
    late-reader guarantee the shm transport has.
    """
    with open(path, "rb") as handle:
        mapping = mmap.mmap(
            handle.fileno(), 0, access=mmap.ACCESS_READ
        )
    return mapping, memoryview(mapping)


def live_spill_paths() -> tuple[str, ...]:
    """Spill files created here and not yet released (leak test)."""
    return tuple(sorted(_live))


def _release_all() -> None:
    for path in list(_live):
        release_spill_file(path)


atexit.register(_release_all)
