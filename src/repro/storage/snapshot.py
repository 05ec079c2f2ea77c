"""Snapshot attach: rebuild a relation map from an exported descriptor.

The serving layer (:mod:`repro.serve`) pins every read to the backend
contents current at submit time.  The pin travels as the descriptor
returned by :meth:`repro.storage.backend.Backend.export_snapshot`; a
worker process hands it to :func:`attach_snapshot` and gets back the
full ``name → frozenset(rows)`` map the read must execute against.

Every descriptor is ``(kind, locator, layout)`` over one columnar image
of the whole database (:func:`repro.storage.backend.encode_relations`),
read through :func:`repro.storage.image.attached` and decoded by one
routine; the kinds differ only in where the image lives:

* ``'rows'`` — the memory backend's by-value form: the locator *is* the
  image, one immutable ``bytes`` encoded once per content version and
  shared by every read pinned to it.  It rides inside the descriptor,
  so the snapshot stays servable forever, and pickling it for a worker
  is one buffer copy.
* ``'shm'`` — the shm backend's by-reference form: the locator is a
  segment name.  The worker attaches the one encoded image (untracked
  segment attach) and decodes every relation in place, so N workers
  share one copy — the zero-copy batch transport, reused for
  whole-database snapshots.

Decoding is the expensive half (a tuple per row), so callers keep the
result: the serving workers decode once per (process, version token)
and never on a read that finds its snapshot session already built.

A by-reference snapshot lives as long as the backend keeps that
version's image: while it is current, and after a write for as long as
a reader has its token pinned (:meth:`~repro.storage.backend.Backend.
pin`) — so a pinned read always finds it.  Attaching a descriptor whose
image really is gone (the backend closed, or something outside the
program unlinked it) raises :class:`~repro.errors.StaleDataError`.
"""

from __future__ import annotations

import pickle

from repro.data.database import Row
from repro.errors import SchemaError
from repro.storage.backend import Layout
from repro.storage.columnar import decode_rows
from repro.storage.image import PLACEMENT_OF_KIND, attached

__all__ = ["attach_snapshot"]


def _decode_all(buffer, layout: Layout) -> dict[str, frozenset[Row]]:
    relations = {}
    for name, (base, meta) in layout.items():
        relation = frozenset(decode_rows(buffer, base, meta))
        # A short buffer decodes to short columns, which ``zip`` would
        # silently truncate to: the layout's row count is the check.
        if len(relation) != meta[0]:
            raise SchemaError(
                f"snapshot image holds {len(relation)} row(s) of "
                f"{name!r} where its layout records {meta[0]}"
            )
        relations[name] = relation
    return relations


#: What decoding a damaged image or layout can raise (``pickle.loads``
#: on arbitrary bytes accounts for most of the list).
_DECODE_ERRORS = (
    TypeError,
    ValueError,
    LookupError,
    AttributeError,
    EOFError,
    ImportError,
    pickle.UnpicklingError,
)


def attach_snapshot(descriptor: tuple) -> dict[str, frozenset[Row]]:
    """The relation map a descriptor pins (see module docstring).

    Raises :class:`~repro.errors.StaleDataError` when a by-reference
    descriptor's storage no longer exists, and
    :class:`~repro.errors.SchemaError` on a malformed descriptor or a
    damaged image.
    """
    if not isinstance(descriptor, tuple) or len(descriptor) != 3:
        raise SchemaError(
            f"malformed snapshot descriptor: {descriptor!r}"
        )
    kind, locator, layout = descriptor
    if kind not in tuple(PLACEMENT_OF_KIND):  # tuple: kind may not hash
        raise SchemaError(
            f"unknown snapshot descriptor kind {kind!r}; expected "
            "'rows' or 'shm'"
        )
    try:
        with attached(PLACEMENT_OF_KIND[kind], locator) as buffer:
            return _decode_all(buffer, layout)
    except _DECODE_ERRORS as error:
        raise SchemaError(
            f"malformed {kind} snapshot image: {error!r}"
        ) from error
