"""The storage-backend protocol behind the engine.

A :class:`Backend` is where an :class:`~repro.engine.executor.Executor`
reads relation contents from.  The protocol is deliberately small —
the engine's correctness story already hangs off two hooks and both are
kept:

* :meth:`Backend.version_token` is the change signal.  Every backend
  delegates to the bound :meth:`~repro.data.database.Database.
  version_token`, so the executor's cache-invalidation discipline and
  the partition/parallel layers' between-batch staleness checks behave
  identically no matter where the bytes live.
* :class:`~repro.errors.StaleDataError` is the mid-query failure mode.
  The shm backend snapshots relation contents at encode time; if the
  source database mutates under the same handle, serving the snapshot
  would silently time-travel — :meth:`Backend.rows` raises instead,
  and :meth:`Backend.refresh` (called by the executor whenever it
  detects a token movement) re-encodes so the next query sees fresh
  contents.

Where encoded bytes live and who frees them is
:mod:`repro.storage.image`'s business: a backend holds one ``Image``
per content version (:class:`ColumnarBackend` says for how long).

Two implementations ship, both in this module:

* :class:`MemoryBackend` (here) — the original in-memory dict path,
  extracted from the executor's direct ``db[name]`` reads.  Zero copy,
  zero setup; parallel workers receive pickled row fragments, and
  serving snapshots travel as one columnar image encoded once per
  content version.
* :class:`ColumnarBackend` (kind ``"shm"``) — relations encoded
  columnar into a :mod:`multiprocessing.shared_memory` segment.  Its
  ``attached`` flag tells the parallel layer workers can attach batch
  fragments by segment name instead of receiving pickled rows.

``attached`` is also what :mod:`repro.engine.cost` prices: shipping a
row to a worker on an attached backend costs a descriptor share, not a
pickle (:data:`~repro.engine.cost.PARALLEL_ATTACHED_ROW_COST` vs
:data:`~repro.engine.cost.PARALLEL_IPC_ROW_COST`).
"""

from __future__ import annotations

import abc
import threading

from repro.algebra.evaluator import Relation
from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import SchemaError, StaleDataError
from repro.storage.columnar import decode_rows, encode_rows
from repro.storage.image import PLACEMENT_OF_KIND, Image

#: The selectable backend kinds, in option spelling.
BACKEND_KINDS = ("memory", "shm")

#: relation name → ``(base offset, BlockMeta)`` into one columnar image.
Layout = dict[str, tuple[int, tuple]]


def encode_relations(db: Database) -> tuple[Layout, list[bytes], int]:
    """Encode every relation of ``db`` column-wise, in schema order.

    Returns ``(layout, parts, nbytes)``: the parts concatenate to one
    ``nbytes``-long image that ``layout`` indexes.  The one encoding
    behind every backend's image — only where the bytes are placed (a
    segment, or inline in a snapshot descriptor) differs.
    """
    layout: Layout = {}
    parts: list[bytes] = []
    offset = 0
    for name in db.schema.names():
        meta, relation_parts = encode_rows(list(db[name]))
        layout[name] = (offset, meta)
        parts.extend(relation_parts)
        offset += sum(len(p) for p in relation_parts)
    return layout, parts, offset


class Backend(abc.ABC):
    """Where an executor reads relation contents from (see module doc)."""

    #: The :data:`BACKEND_KINDS` spelling of this implementation.
    kind: str = "abstract"
    #: True when parallel workers can attach this backend's storage by
    #: name instead of receiving pickled row fragments.
    attached: bool = False

    def __init__(self, db: Database) -> None:
        self._db = db
        self._closed = False
        # close() must be idempotent *and* race-free: a Session used in
        # a ``with`` block and closed explicitly too, or shared by the
        # serving layer's threads, may close concurrently — without the
        # atomic test-and-set two closers could both release a columnar
        # backend's images and unlink its segment twice.
        self._close_lock = threading.Lock()

    @property
    def db(self) -> Database:
        """The source database handle this backend serves."""
        return self._db

    @property
    def schema(self) -> Schema:
        return self._db.schema

    @property
    def closed(self) -> bool:
        return self._closed

    def version_token(self) -> int:
        """The source database's content version (the change signal).

        Raises :class:`~repro.errors.SchemaError` once the backend is
        closed — the executor checks the token before every plan and
        run, so a closed backend fails fast there instead of deep in a
        scan (or, worse, serving a cached result whose storage is
        gone).
        """
        self._ensure_open()
        return self._db.version_token()

    @abc.abstractmethod
    def rows(self, name: str) -> Relation:
        """The current contents of relation ``name`` as a frozenset.

        Raises :class:`~repro.errors.StaleDataError` if the backend
        holds a snapshot and the source contents have moved since it
        was taken (call :meth:`refresh`), and :class:`~repro.errors.
        SchemaError` if the backend is closed.
        """

    def refresh(self) -> None:
        """Re-sync any snapshot with the source contents (no-op here)."""
        self._ensure_open()

    def storage_bytes(self) -> int:
        """Bytes of backing storage owned by this backend (0 = none)."""
        return 0

    def close(self) -> None:
        """Release backing storage; the backend is unusable afterwards.

        Idempotent and thread-safe.  :meth:`~repro.session.Session.
        close` (and the session context manager) call this so
        shared-memory segments never outlive the session that created
        them; only the first closer runs :meth:`_close_once`, every
        later (or racing) call is a no-op.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._close_once()

    def _close_once(self) -> None:
        """Release hook run by exactly one closer (nothing here)."""

    def export_snapshot(self) -> tuple:
        """A picklable descriptor of the current contents.

        The serving layer (:mod:`repro.serve`) ships this to worker
        processes, which rebuild the relation map with
        :func:`repro.storage.snapshot.attach_snapshot`.  Every
        descriptor is ``(kind, locator, layout)`` over one columnar
        image (:func:`encode_relations`); the kinds differ only in
        where the image lives.  This default is the by-value form: the
        locator *is* the image, one immutable ``bytes``, so the
        snapshot stays attachable forever.  The shm backend exports
        by reference instead — a segment name that many workers decode
        in place — and keeps the image for as long as a reader has it
        pinned (:meth:`pin`).
        """
        self._ensure_open()
        layout, parts, nbytes = encode_relations(self._db)
        return ("rows", Image("inline", parts, nbytes).locator, layout)

    def pin(self, token: int) -> None:
        """Keep the snapshot exported at ``token`` attachable until the
        matching :meth:`unpin`, whatever is written meanwhile.  (A
        no-op here: a by-value descriptor carries its own image.)
        """

    def unpin(self, token: int) -> None:
        """The reader pinned at ``token`` has finished (see :meth:`pin`)."""

    def _ensure_open(self) -> None:
        if self._closed:
            raise SchemaError(
                f"{self.kind} backend is closed; open a new Session "
                "(or Backend) to keep querying"
            )

    def _ensure_fresh(self, token: int) -> None:
        if self._db.version_token() != token:
            raise StaleDataError(
                f"{self.kind} backend snapshot is stale: relation "
                "contents changed since it was encoded — refresh() "
                "re-encodes (the executor does this on version-token "
                "movement)"
            )

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} kind={self.kind!r} {state}>"


class MemoryBackend(Backend):
    """In-memory storage: reads straight off the db.

    No snapshot exists, so nothing can go stale between the token check
    and the read — ``rows`` is ``db[name]`` and mutation detection
    stays entirely with the executor's version-token discipline.
    """

    kind = "memory"

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        #: ``(version token, descriptor)`` of the last export.
        self._exported: tuple[int, tuple] | None = None

    def rows(self, name: str) -> Relation:
        self._ensure_open()
        return self._db[name]

    def export_snapshot(self) -> tuple:
        """The by-value descriptor, encoded once per content version.

        Repeated exports at one version token return the *same*
        descriptor object, so every serving read of a generation ships
        the same image and pickling a task costs one ``bytes`` copy,
        not a row-by-row encode.
        """
        token = self.version_token()
        if self._exported is None or self._exported[0] != token:
            self._exported = (token, super().export_snapshot())
        return self._exported[1]


class ColumnarBackend(Backend):
    """Relations encoded columnar into one shared-memory segment.

    A content version is one immutable :class:`~repro.storage.image.
    Image` plus the layout table that indexes it, written once per
    version and re-encoded by :meth:`refresh` when the version token
    moves.  Decoded relations are memoised per content version, so
    serial reads pay the decode once; the segment's purpose is the
    parallel path, where batch shipments ride the same shared-memory
    transport and workers attach by name instead of unpickling row
    fragments.

    **How long an old version lives.**  :meth:`refresh` makes a new
    version current; the old one is released on the spot unless readers
    have its token pinned (:meth:`pin`), in which case it stays
    attachable through the descriptor they hold until the last of them
    unpins — and at the latest until :meth:`close`.  Retention is not
    configurable.  ``pin`` / ``unpin`` / ``refresh`` are not
    synchronised here; the server calls all three under its scheduler
    lock.
    """

    kind = "shm"
    attached = True

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._decoded: dict[str, Relation] = {}
        #: version token → ``(image, layout)``: the current version and
        #: every replaced one a reader still pins.
        self._versions: dict[int, tuple[Image, Layout]] = {}
        #: version token → readers currently pinned to it.
        self._pins: dict[int, int] = {}
        self._reload()

    def _reload(self) -> None:
        token = self._db.version_token()
        # Tokens are content hashes: a write that restores earlier
        # contents finds that version again if a reader kept it alive.
        if token not in self._versions:
            layout, parts, nbytes = encode_relations(self._db)
            image = Image(PLACEMENT_OF_KIND[self.kind], parts, nbytes)
            self._versions[token] = (image, layout)
        self._token = token

    @property
    def _image(self) -> Image:
        return self._versions[self._token][0]

    def rows(self, name: str) -> Relation:
        self._ensure_open()
        self._ensure_fresh(self._token)
        cached = self._decoded.get(name)
        if cached is not None:
            return cached
        image, layout = self._versions[self._token]
        try:
            base, meta = layout[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r} in {self.kind} backend"
            ) from None
        relation = frozenset(decode_rows(image.buffer, base, meta))
        self._decoded[name] = relation
        return relation

    def refresh(self) -> None:
        self._ensure_open()
        if self._db.version_token() != self._token:
            if not self._pins.get(self._token):
                self._versions.pop(self._token)[0].release()
            self._decoded.clear()
            self._reload()

    def pin(self, token: int) -> None:
        self._ensure_open()
        if token != self._token:
            raise StaleDataError(
                f"cannot pin version {token}: the {self.kind} backend "
                f"holds version {self._token}"
            )
        self._pins[token] = self._pins.get(token, 0) + 1

    def unpin(self, token: int) -> None:
        count = self._pins.pop(token, 0) - 1
        if count > 0:
            self._pins[token] = count
        elif token != self._token and token in self._versions:
            self._versions.pop(token)[0].release()

    def storage_bytes(self) -> int:
        return 0 if self._closed else self._image.nbytes

    def _close_once(self) -> None:
        while self._versions:  # popitem: an unpin may race a close
            image, __ = self._versions.popitem()[1]
            image.release()
        self._pins.clear()
        self._decoded.clear()

    def export_snapshot(self) -> tuple:
        """Descriptor naming the encoded image (see base docstring).

        ``(kind, locator, layout)`` — the attach side attaches
        ``locator`` (a segment name) and decodes each
        relation from ``layout`` in place, so N workers share one
        encoded copy.  Attachable while this version is current or
        pinned, and until :meth:`close`; attaching after that raises
        :class:`~repro.errors.StaleDataError`.
        """
        self._ensure_open()
        self._ensure_fresh(self._token)
        image, layout = self._versions[self._token]
        return (self.kind, image.locator, dict(layout))


def open_backend(db: Database, kind: str = "memory") -> Backend:
    """Construct the backend implementation named ``kind`` over ``db``."""
    for backend in (MemoryBackend, ColumnarBackend):
        if backend.kind == kind:
            return backend(db)
    raise SchemaError(
        f"unknown storage backend {kind!r}; expected one of "
        f"{', '.join(BACKEND_KINDS)}"
    )
