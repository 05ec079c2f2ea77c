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
  Columnar backends snapshot relation contents at encode time; if the
  source database mutates under the same handle, serving the snapshot
  would silently time-travel — :meth:`Backend.rows` raises instead,
  and :meth:`Backend.refresh` (called by the executor whenever it
  detects a token movement) re-encodes so the next query sees fresh
  contents.

Three implementations ship:

* :class:`MemoryBackend` (here) — the original in-memory dict path,
  extracted from the executor's direct ``db[name]`` reads.  Zero copy,
  zero setup; parallel workers receive pickled row fragments, and
  serving snapshots travel as one columnar image encoded once per
  content version.
* :class:`~repro.storage.shm.SharedMemoryBackend` — relations encoded
  columnar into a :mod:`multiprocessing.shared_memory` segment.  Its
  ``attached`` flag tells the parallel layer workers can attach batch
  fragments by segment name instead of receiving pickled rows.
* :class:`~repro.storage.mmapio.MmapBackend` — the same columnar
  layout spilled to a memory-mapped temp file, for databases whose
  working set should not live in anonymous memory; workers attach by
  file path.

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

#: The selectable backend kinds, in CLI/option spelling.
BACKEND_KINDS = ("memory", "shm", "mmap")

#: The kinds whose storage parallel workers attach by name/path —
#: what :mod:`repro.engine.cost` prices at the descriptor (not pickle)
#: transport rate.
ATTACHED_KINDS = frozenset({"shm", "mmap"})

#: relation name → ``(base offset, BlockMeta)`` into one columnar image.
Layout = dict[str, tuple[int, tuple]]


def encode_relations(db: Database) -> tuple[Layout, list[bytes], int]:
    """Encode every relation of ``db`` column-wise, in schema order.

    Returns ``(layout, parts, nbytes)``: the parts concatenate to one
    ``nbytes``-long image that ``layout`` indexes.  The one encoding
    behind every backend's image — only where the bytes are placed (a
    segment, a spill file, inline in a snapshot descriptor) differs.
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
    #: name/path instead of receiving pickled row fragments.
    attached: bool = False

    def __init__(self, db: Database) -> None:
        self._db = db
        self._closed = False
        # close() must be idempotent *and* race-free: a Session used in
        # a ``with`` block and closed explicitly too, or shared by the
        # serving layer's threads, may close concurrently — without the
        # atomic test-and-set two closers could both run a columnar
        # backend's _release() and unlink its segment twice.
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
        shared-memory segments and spill files never outlive the
        session that created them; only the first closer runs
        :meth:`_close_once`, every later (or racing) call is a no-op.
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
        snapshot stays attachable forever.  The columnar backends
        export by reference instead — a segment name / spill path that
        many workers decode in place, and whose attach raises
        :class:`~repro.errors.StaleDataError` once the storage was
        re-encoded or released.
        """
        self._ensure_open()
        layout, parts, _ = encode_relations(self._db)
        return ("rows", b"".join(parts), layout)

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
    """The original in-memory dict storage: reads straight off the db.

    No snapshot exists, so nothing can go stale between the token check
    and the read — ``rows`` is exactly the pre-backend ``db[name]``
    path and mutation detection stays entirely with the executor's
    version-token discipline.
    """

    kind = "memory"
    attached = False

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
    """Shared machinery for the encoded (shm / mmap) backends.

    Subclasses own the byte placement: :meth:`_store` materializes the
    concatenated column parts somewhere attachable and :meth:`_buffer`
    returns a :class:`memoryview` over them; :meth:`_release` gives the
    storage back.  Everything else — the per-relation layout table, the
    snapshot token, staleness checks, re-encode on refresh — lives
    here so the two implementations cannot drift.
    """

    def __init__(self, db: Database) -> None:
        super().__init__(db)
        self._token: int | None = None
        self._layout: Layout = {}
        self._decoded: dict[str, Relation] = {}
        self._reload()

    def _reload(self) -> None:
        layout, parts, nbytes = encode_relations(self._db)
        self._store(parts, nbytes)
        self._layout = layout
        self._decoded.clear()
        self._token = self._db.version_token()

    def rows(self, name: str) -> Relation:
        self._ensure_open()
        self._ensure_fresh(self._token)
        cached = self._decoded.get(name)
        if cached is not None:
            return cached
        try:
            base, meta = self._layout[name]
        except KeyError:
            raise SchemaError(
                f"unknown relation {name!r} in {self.kind} backend"
            ) from None
        relation = frozenset(decode_rows(self._buffer(), base, meta))
        if self._cache_decoded:
            self._decoded[name] = relation
        return relation

    def refresh(self) -> None:
        self._ensure_open()
        if self._db.version_token() != self._token:
            self._release()
            self._reload()

    def _close_once(self) -> None:
        self._release()
        self._decoded.clear()

    def export_snapshot(self) -> tuple:
        """Descriptor naming the encoded image (see base docstring).

        ``(kind, locator, layout)`` — the attach side maps/attaches
        ``locator`` (segment name or spill path) and decodes each
        relation from ``layout`` in place, so N workers share one
        encoded copy.  Valid until the next :meth:`refresh` or
        :meth:`close` releases the storage; attaching later raises
        :class:`~repro.errors.StaleDataError`.
        """
        self._ensure_open()
        self._ensure_fresh(self._token)
        return (self.kind, self._locator(), dict(self._layout))

    def _locator(self) -> str:
        raise NotImplementedError

    #: Whether decoded relations are memoized (the shm backend keeps
    #: them — decode once per content version; the mmap backend decodes
    #: per read so large relations stay resident only while in use).
    _cache_decoded = True

    def _store(self, parts: list[bytes], nbytes: int) -> None:
        raise NotImplementedError

    def _buffer(self) -> memoryview:
        raise NotImplementedError

    def _release(self) -> None:
        raise NotImplementedError


def open_backend(db: Database, kind: str = "memory") -> Backend:
    """Construct the backend implementation named ``kind`` over ``db``."""
    if kind == "memory":
        return MemoryBackend(db)
    if kind == "shm":
        from repro.storage.shm import SharedMemoryBackend

        return SharedMemoryBackend(db)
    if kind == "mmap":
        from repro.storage.mmapio import MmapBackend

        return MmapBackend(db)
    raise SchemaError(
        f"unknown storage backend {kind!r}; expected one of "
        f"{', '.join(BACKEND_KINDS)}"
    )
