"""Images: the one place that knows where encoded bytes live.

Everything columnar this package stores or ships — a backend's encoded
database, a parallel run's shipment, a serving snapshot — is one
immutable :class:`Image`: the concatenated column parts written once
at a *placement*, never modified, and given back exactly once by the
process that created it.  Three placements exist:

* ``"inline"`` — one ``bytes`` object; the locator *is* the image, so
  it travels inside whatever pickles it and can never go missing;
* ``"shm"`` — a POSIX shared-memory segment; the locator is its name;
* ``"file"`` — a spill file in the temp dir; the locator is its path.

The creator keeps the :class:`Image` (``buffer`` to read it back,
:meth:`Image.release` to free it) and hands out the picklable
``locator``; any process reads the bytes through :func:`attached`.
This module is the only importer of the segment and spill-file
primitives (:mod:`repro.storage.shm`, :mod:`repro.storage.mmapio`) —
their rules hold for every image because nothing reaches around it:

* **the creator unlinks**, attachers only map, and attach is untracked
  (a worker's resource tracker must never own a segment);
* **late readers are safe**: POSIX keeps unlinked-while-mapped storage
  readable until the last mapping closes, so a release never races a
  reader that is already attached;
* **a vanished image is loud**: attaching a released by-reference
  locator raises :class:`~repro.errors.StaleDataError` — with images
  kept for as long as anything pins them, that now means an outside
  fault (someone else unlinked it), not a write.

Because an image is immutable and separately owned, a holder may keep
several alive at once: a columnar backend keeps one per content
version while readers pin it (:mod:`repro.storage.backend`).
"""

from __future__ import annotations

import mmap
from collections.abc import Iterator
from contextlib import contextmanager

from repro.errors import SchemaError, StaleDataError
from repro.storage.mmapio import (
    attach_path,
    create_spill_file,
    release_spill_file,
)
from repro.storage.shm import attach_segment, create_segment, release_segment

__all__ = ["Image", "PLACEMENT_OF_KIND", "attached"]

#: The placement behind each storage kind.  Backend kinds (``"shm"``,
#: ``"mmap"``) and snapshot-descriptor kinds (``"rows"``, ``"shm"``,
#: ``"mmap"``) are this table's keys, so no other module has to know
#: which spelling lives where.
PLACEMENT_OF_KIND = {"rows": "inline", "shm": "shm", "mmap": "file"}


class Image:
    """One immutable run of encoded bytes at a placement (module doc).

    ``buffer`` is the creator's own view of the bytes (``None`` once
    released); ``nbytes`` the payload length ``storage_bytes`` reports.
    """

    __slots__ = ("placement", "locator", "nbytes", "buffer", "_segment")

    def __init__(self, placement: str, parts: list[bytes], nbytes: int) -> None:
        """Write ``parts`` (``nbytes`` in total) once, at ``placement``."""
        self.placement = placement
        self.nbytes = nbytes
        self._segment = None
        if placement == "inline":
            self.locator = b"".join(parts)
            self.buffer = memoryview(self.locator)
        elif placement == "shm":
            self._segment = segment = create_segment(nbytes)
            offset = 0
            for part in parts:
                segment.buf[offset : offset + len(part)] = part
                offset += len(part)
            self.locator, self.buffer = segment.name, segment.buf
        elif placement == "file":
            # The registry keeps the fd open until release_spill_file.
            self.locator, fd = create_spill_file(parts)
            self.buffer = memoryview(
                mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
            )
        else:
            raise SchemaError(
                f"unknown image placement {placement!r}; expected "
                "'inline', 'shm', or 'file'"
            )

    def release(self) -> None:
        """Give the storage back (idempotent; only the creator calls).

        Readers already attached keep reading (late-reader guarantee);
        a later :func:`attached` on the locator raises.
        """
        buffer, self.buffer = self.buffer, None
        if buffer is None:
            return
        if self.placement == "shm":
            release_segment(self._segment)
        elif self.placement == "file":
            mapping = buffer.obj
            buffer.release()
            mapping.close()
            release_spill_file(self.locator)


@contextmanager
def attached(placement: str, locator) -> Iterator[memoryview]:
    """Read-only view of the image at ``locator``, for a ``with`` body.

    Works in any process.  By-reference placements are attached
    untracked and closed — never unlinked — on exit; a locator whose
    storage no longer exists raises
    :class:`~repro.errors.StaleDataError` (see the module docstring).
    """
    if placement == "inline":
        yield memoryview(locator)
        return
    try:
        if placement == "shm":
            segment = attach_segment(locator)
            view, close = segment.buf, segment.close
        else:
            mapping, view = attach_path(locator)
            close = mapping.close
    except OSError as error:
        raise StaleDataError(
            f"{placement} image {locator!r} is gone: its creator "
            "released it (the owning backend or shipment closed) or "
            "something outside the program removed it"
        ) from error
    try:
        yield view
    finally:
        view.release()
        close()
