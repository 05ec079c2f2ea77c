"""The serving core: many clients, one engine, snapshot-pinned reads.

A :class:`Server` multiplexes concurrent client sessions over **one**
shared database and executor.  The parts, and where the heavy lifting
already lives:

* **Snapshot isolation** (this module).  Every read is pinned at
  submit time to the backend contents current at that moment: the pin
  is the descriptor from :meth:`~repro.storage.backend.Backend.
  export_snapshot`, resolved back to relations by
  :func:`~repro.storage.attach_snapshot` wherever the read actually
  runs.  Memory-backend pins carry the database by value — one
  columnar image, **encoded once per generation, decoded once per
  worker process, shared by every ticket of that generation**;
  shm pins are by-reference to that generation's immutable image,
  which the backend keeps until the last ticket pinned to it has
  finished (:meth:`~repro.storage.backend.Backend.pin`).  Either way a
  read executes on the generation it was priced and pinned on,
  whatever is written meanwhile; an image that is gone anyway (an
  outside fault) fails the ticket with
  :class:`~repro.errors.StaleDataError`.
* **One execution per (expression, contents)** (this module).  A
  read's rows are a function of its expression and the contents it is
  pinned to and of nothing else — not the plan, not the options, not
  the worker — so every submit is decided at the door, under the
  scheduler lock and *before planning*, into one of three outcomes:
  a **hit** is finished inside ``submit`` with the cached rows
  themselves; a read whose twin is already queued or executing
  **rides** on it and is finished with the same rows (or the same
  error) when that leader ends; everything else **executes**.  Hits
  and riders are not planned, priced, debited, pinned or dispatched.
  The cache (:class:`~repro.engine.executor.ResultCache`, keyed by
  :func:`_result_key`) stores a result only from the second time its
  key is asked for, and keeps the current contents and the contents
  the last write replaced — what each worker keeps a session for.
* **Admission and fairness** (:mod:`repro.serve.admission`).  Reads
  that execute are priced by the cost model's certified upper bounds
  before they run; the sum debits the server's in-flight row budget,
  over-budget reads wait in per-tenant weighted-fair order, and
  provably unservable reads are refused with
  :class:`~repro.errors.AdmissionError` up front.
* **Execution** (:mod:`repro.session`, unchanged).  Reads run in a
  spawn-context :class:`~repro.serve.workers.WorkerPool` (one pipe per
  worker, written by the submitting thread, warmest worker first) —
  *spawn*, because the server process has client and callback threads
  alive, and forking a threaded process can clone held locks into the
  child.  Each worker process keeps a small LRU of per-snapshot
  :class:`~repro.session.Session` objects (memory backend, serial
  plans, result caching off — results are cached once, at the door),
  so consecutive reads against the same snapshot reuse indexes and
  statistics — and never look inside the pin again: its image is
  decoded only by the first read of a generation that reaches the
  process.  The pool is sized by :func:`~repro.engine.parallel.
  available_cpus`; ``workers=0`` — or a pool that breaks mid-run —
  degrades to running the identical task function inline, serialized.
* **Writes** (this module) are serialized under the scheduler lock:
  apply the delta, bump the content generation, append to the write
  log, refresh the backend.  The write log plus the base contents make
  :meth:`Server.database_at` exact — the serial oracle the stress
  tests and the serving scenarios replay admitted reads against.

Locking discipline: one scheduler lock guards the door cache and the
in-flight map, pricing, admission, generation/snapshot state, and
metrics; **no query executes under it**.  Dispatch — handing a ticket
to the pool or running it inline — always happens after the lock is
released, and completion callbacks re-acquire it only for bookkeeping.
``tests/test_serve_server.py`` drives the whole surface;
``docs/serving.md`` is the narrative tour.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import OrderedDict
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.algebra.ast import Expr
from repro.data.database import Database
from repro.engine.executor import ResultCache
from repro.engine.parallel import available_cpus
from repro.engine.planner import PlannerOptions
from repro.errors import AdmissionError, SchemaError
from repro.serve.admission import AdmissionController, price_plan
from repro.serve.metrics import MetricsRegistry, ServerMetrics
from repro.serve.workers import WorkerPool
from repro.session import Session

__all__ = ["ClientHandle", "Server", "Ticket"]


# ----------------------------------------------------------------------
# Worker side (module-level: spawn-context workers import this module
# and look these up by qualified name)
# ----------------------------------------------------------------------

#: Per-process LRU of snapshot sessions, keyed by the pinned version
#: token.  Two entries: the common steady state is "current generation
#: plus the one a just-landed write obsoleted".
_SNAPSHOT_SESSIONS: "OrderedDict[int, Session]" = OrderedDict()
_SNAPSHOT_SESSION_BOUND = 2


def _session_for_snapshot(token, descriptor, schema) -> Session:
    # The LRU is consulted before the descriptor is touched: attaching
    # (a decode of every row) happens once per (process, token).
    session = _SNAPSHOT_SESSIONS.get(token)
    if session is not None:
        _SNAPSHOT_SESSIONS.move_to_end(token)
        return session
    from repro.storage.snapshot import attach_snapshot

    relations = attach_snapshot(descriptor)
    # No result cache here: the server answers repeats at its door, so
    # a worker only ever sees reads that must execute.
    session = Session(
        Database(schema, relations), backend="memory", cache_results=False
    )
    _SNAPSHOT_SESSIONS[token] = session
    while len(_SNAPSHOT_SESSIONS) > _SNAPSHOT_SESSION_BOUND:
        __, stale = _SNAPSHOT_SESSIONS.popitem(last=False)
        stale.close()
    return session


def _run_pinned(token, descriptor, schema, expr, options):
    """Execute one pinned read; the task a pool worker runs.

    Returns ``(rows, actual_rows, max_in_flight)``.  Raises
    :class:`~repro.errors.StaleDataError` when the pin's storage is
    gone (an outside fault: the ticket fails).  Also the inline
    fallback path: the server calls this very function in-process when
    it has no pool, so both modes execute identical code.
    """
    session = _session_for_snapshot(token, descriptor, schema)
    rows = session.run(expr, options)
    report = session.last_report
    return rows, report.stats.total_rows(), report.stats.max_in_flight()


def _serial(options: PlannerOptions) -> PlannerOptions:
    """The options a read is priced, explained and run with.

    A worker runs serial plans — one process per read is the
    parallelism here, and nesting pools inside workers would just
    oversubscribe — so the server prices and explains that same plan.
    """
    if options.max_workers == 1:
        return options
    return replace(options, max_workers=1)


# ----------------------------------------------------------------------
# The door cache's key
# ----------------------------------------------------------------------

#: How many asked-for-but-not-stored keys the door remembers (LRU).  A
#: key that falls out simply needs one more request before it is stored.
_ASKED_BOUND = 1024


def _result_key(expr: Expr, token: int) -> tuple:
    """What fixes a read's rows: the expression and the contents.

    The one place the door cache's key is built.  ``token`` is the
    whole-database content hash today; per-relation tokens (ROADMAP
    item 6) narrow it to the relations ``expr`` reads — here and in
    :func:`_pinned_to`, nowhere else.
    """
    return (token, expr)


def _pinned_to(tokens):
    """Predicate over :func:`_result_key` keys: pinned to one of ``tokens``?"""
    return lambda key: key[0] in tokens


# ----------------------------------------------------------------------
# Tickets
# ----------------------------------------------------------------------


class Ticket:
    """One submitted read: a waitable handle plus its audit trail.

    Clients call :meth:`result`; everything else is written exactly
    once by the server and read by tests, metrics, and the oracle
    replay (``pinned_generation`` names the write-log state the rows
    must match).  A read that executed nothing — ``cached``: a
    door hit, or a rider on an identical read in flight — was never
    priced, debited, pinned or dispatched: its ``bound`` stays 0.0,
    ``actual_rows`` / ``max_in_flight`` / ``run_seconds`` 0 and
    ``_task`` None, and ``rows`` is the very frozenset the executing
    read produced.
    """

    def __init__(
        self,
        tenant: str,
        expr: Expr,
        text: str | None,
        options: PlannerOptions,
    ) -> None:
        self.tenant = tenant
        self.expr = expr
        self.text = text
        self.options = options
        #: Admission price (of a read that executes).
        self.bound = 0.0
        self.expected_rows = 0.0
        #: The contents this read is pinned to — executes on, or was
        #: answered for.
        self.pinned_generation = -1
        self.pinned_token: int | None = None
        #: The ``_run_pinned`` arguments, built with the pin and dropped
        #: at completion so a kept ticket does not keep its
        #: generation's snapshot image alive.
        self._task: tuple | None = None
        #: Outcome.
        self.rows = None
        self.error: BaseException | None = None
        self.actual_rows = 0
        self.max_in_flight = 0
        #: Answered without executing: a door hit or a rider.
        self.cached = False
        #: Timing (``time.perf_counter`` seconds).
        self.submitted_at = time.perf_counter()
        self.dispatched_at: float | None = None
        self.finished_at: float | None = None
        #: Submit → dispatch; for a read that executed nothing, submit
        #: → finish (a rider's wait for its leader).
        self.queue_seconds = 0.0
        self.run_seconds = 0.0
        self._done = threading.Event()

    def done(self) -> bool:
        return self._done.is_set()

    def _finish(self) -> None:
        """Mark done (server side): nothing can re-dispatch it now."""
        self._task = None
        self._done.set()

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Wait for completion; the error, or None on success."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"read for tenant {self.tenant!r} still pending"
            )
        return self.error

    def result(self, timeout: float | None = None):
        """Wait for completion; the rows, or raise what the read raised."""
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self.rows


# ----------------------------------------------------------------------
# Client handles
# ----------------------------------------------------------------------


class ClientHandle:
    """One tenant's connection-style view of a :class:`Server`.

    Thin by design: a handle owns no engine state, just an identity
    (tenant name, fair-share weight, default options) that every
    submit carries to the scheduler, so handles are cheap enough to
    make one per client thread.
    """

    def __init__(
        self,
        server: "Server",
        tenant: str,
        weight: float,
        options: PlannerOptions | None,
    ) -> None:
        self.server = server
        self.tenant = tenant
        self.weight = weight
        self.options = options
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise SchemaError(
                f"client handle for tenant {self.tenant!r} is closed"
            )

    def submit(
        self, query, options: PlannerOptions | None = None
    ) -> Ticket:
        """Answer at the door, or price, pin and (maybe) dispatch."""
        self._check_open()
        return self.server._submit(self, query, options)

    def run(
        self,
        query,
        options: PlannerOptions | None = None,
        timeout: float | None = None,
    ):
        """Submit and wait; returns the rows (the synchronous form)."""
        return self.submit(query, options).result(timeout)

    def explain(self, query, costs: bool = False) -> str:
        """Render the plan the server prices and runs this query with."""
        self._check_open()
        return self.server._explain(query, options=self.options, costs=costs)

    def write(self, additions=None, removals=None) -> int:
        """Apply a serialized write; returns the new generation."""
        self._check_open()
        return self.server._write(
            self.tenant, additions=additions, removals=removals
        )

    def close(self) -> None:
        self.closed = True

    def __enter__(self) -> "ClientHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------


class Server:
    """Concurrent multi-tenant serving over one shared database.

    Parameters
    ----------
    db:
        The shared :class:`~repro.data.database.Database`.  Writes go
        through :meth:`ClientHandle.write` and mutate this handle's
        contents in place (the engine's established swap idiom), so
        outside mutation while a server is open breaks the write log's
        oracle guarantee — don't.
    workers:
        Pool size for read execution; ``None`` means
        :func:`~repro.engine.parallel.available_cpus`, ``0`` means no
        pool (reads run inline, serialized — the deterministic mode
        the oracle tests use).
    budget:
        The in-flight certified-row budget
        (:class:`~repro.serve.admission.AdmissionController`);
        ``None`` disables admission gating.
    options:
        Server-wide :class:`~repro.engine.planner.PlannerOptions`
        (handles and submits can override per query).
    backend:
        Storage kind for the shared backend — ``"memory"`` pins travel
        by value (one columnar image per generation);
        ``"shm"`` pins travel by reference to that generation's
        immutable image.

    There is one result cache, the server's own, and no switch for it:
    a repeated read is answered inside ``submit`` (see the module
    docstring for the three outcomes), so worker processes keep indexes,
    statistics and the decoded image per snapshot, never results.
    """

    def __init__(
        self,
        db: Database,
        workers: int | None = None,
        budget: float | None = None,
        options: PlannerOptions | None = None,
        backend=None,
    ) -> None:
        self.db = db
        # Pricing/snapshot authority.  Result caching stays off: this
        # session never executes reads, it only plans them.
        self._session = Session(
            db, options=options, cache_results=False, backend=backend
        )
        self.options = self._session.options
        self.workers = (
            available_cpus() if workers is None else max(0, int(workers))
        )
        self._admission = AdmissionController(budget)
        self._metrics = MetricsRegistry()
        self._lock = threading.Lock()
        #: Serializes inline (pool-less) execution: worker sessions are
        #: engine objects and the engine is single-threaded per session.
        self._inline_lock = threading.Lock()
        self._pool: WorkerPool | None = None
        self._pool_broken = False
        self._closed = False
        #: Content history: base contents + ordered write deltas give
        #: the exact database at any served generation.
        self._generation = 0
        self._base_relations = dict(db.relations())
        self._write_log: list[tuple[int, dict, dict]] = []
        #: The front door (all three under the scheduler lock, keyed by
        #: ``_result_key``): finished results; the riders of every read
        #: queued or executing; and how often each key the cache could
        #: not answer has been asked for — a result is stored from the
        #: second request on, so the 1 read in 5 nobody repeats is
        #: never kept.
        self._results = ResultCache()
        self._in_flight: dict[tuple, list[Ticket]] = {}
        self._asked: "OrderedDict[tuple, int]" = OrderedDict()
        #: Tokens whose results are kept: the current contents and the
        #: contents the last write replaced (``_SNAPSHOT_SESSION_BOUND``
        #: sessions per worker cover the same pair).
        self._kept: tuple = (self._session.executor.version,)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def connect(
        self,
        tenant: str = "default",
        weight: float = 1.0,
        options: PlannerOptions | None = None,
    ) -> ClientHandle:
        """A handle submitting as ``tenant`` with fair-share ``weight``."""
        with self._lock:
            self._check_open()
            self._admission.queue.set_weight(tenant, weight)
            self._metrics.tenant(tenant, weight)
        return ClientHandle(self, tenant, weight, options)

    def close(self) -> None:
        """Fail queued reads, stop the pool, release storage (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            now = time.perf_counter()
            error = SchemaError("server closed while this read was queued")
            orphaned = []
            while True:
                popped = self._admission.queue.pop(float("inf"))
                if popped is None:
                    break
                ticket = popped[2]
                self._settle(ticket, now, None, error)
                orphaned.append(ticket)
                # Its riders end with it; a read already executing
                # finishes its own through _complete.
                for rider in self._in_flight.pop(
                    _result_key(ticket.expr, ticket.pinned_token)
                ):
                    self._settle_unexecuted(rider, now, None, error)
                    orphaned.append(rider)
            pool, self._pool = self._pool, None
        for ticket in orphaned:
            ticket._finish()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=False)
        self._session.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SchemaError("server is closed")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics(self) -> ServerMetrics:
        """A consistent snapshot of every counter (see serve.metrics)."""
        with self._lock:
            return self._metrics.snapshot(
                in_flight_rows=self._admission.in_flight,
                in_flight_peak=self._admission.peak,
                budget=self._admission.budget,
                queue_depth=len(self._admission.queue),
                generation=self._generation,
                workers=self.workers,
                backend=self._session.executor.backend.kind,
                cache=self._results,
            )

    @property
    def generation(self) -> int:
        """Writes applied since the server opened."""
        return self._generation

    def database_at(self, generation: int) -> Database:
        """The exact contents a read pinned at ``generation`` saw.

        Replays the write log over the base contents — the serial
        oracle the stress tests and the serving scenarios compare
        admitted reads against.
        """
        with self._lock:
            if not 0 <= generation <= self._generation:
                raise SchemaError(
                    f"no generation {generation}; server has applied "
                    f"{self._generation} write(s)"
                )
            log = [
                entry for entry in self._write_log
                if entry[0] <= generation
            ]
        relations = {
            name: set(rows) for name, rows in self._base_relations.items()
        }
        for __, additions, removals in log:
            for name, rows in removals.items():
                relations[name].difference_update(rows)
            for name, rows in additions.items():
                relations[name].update(rows)
        return Database(self.db.schema, relations)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _submit(
        self,
        handle: ClientHandle,
        query,
        options: PlannerOptions | None,
    ) -> Ticket:
        expr = (
            self._session.parse(query) if isinstance(query, str) else query
        )
        if not isinstance(expr, Expr):
            raise SchemaError(
                "submit needs expression text or an Expr, got "
                f"{type(query).__name__}"
            )
        text = query if isinstance(query, str) else None
        options = _serial(options or handle.options or self.options)
        ticket = Ticket(handle.tenant, expr, text, options)
        executor = self._session.executor
        with self._lock:
            self._check_open()
            tenant = self._metrics.tenant(handle.tenant)
            tenant.submitted += 1
            executor.check_version()
            token = executor.version
            ticket.pinned_generation = self._generation
            ticket.pinned_token = token
            key = _result_key(expr, token)
            # The door: these rows are a function of the key alone, so a
            # finished or in-flight twin answers this read as it stands.
            rows = self._results.get(key)
            if rows is not None:
                tenant.cache_hits += 1
                self._settle_unexecuted(
                    ticket, time.perf_counter(), rows, None
                )
                ticket._finish()
                return ticket
            riders = self._in_flight.get(key)
            if riders is not None:
                tenant.coalesced += 1
                self._note_asked(key)
                riders.append(ticket)
                return ticket
            try:
                price = price_plan(executor, executor.plan(expr, options))
            except Exception:
                tenant.failed += 1
                raise
            ticket.bound = price.bound
            ticket.expected_rows = price.expected_rows
            try:
                ready = self._admission.submit(
                    handle.tenant, price.bound, ticket
                )
            except AdmissionError:
                tenant.rejected += 1
                raise
            # Pinned only once admitted — a refused read holds no pin —
            # and for good: the read runs on this snapshot or fails.
            executor.backend.pin(token)
            # Exported per executed read, never cached here: a token
            # names contents, not an image — after A→B→A the by-reference
            # image for A is a new one (the memory backend memoises its
            # by-value image per token itself).
            ticket._task = (
                token,
                executor.backend.export_snapshot(),
                self.db.schema,
                expr,
                options,
            )
            self._in_flight[key] = []
            self._note_asked(key)
            dispatched_now = any(t is ticket for __, __, t in ready)
            if not dispatched_now:
                tenant.queued += 1
            batch = self._note_dispatched(ready)
        self._dispatch_batch(batch)
        return ticket

    def _note_asked(self, key: tuple) -> None:
        """One more request the cache could not answer (lock held)."""
        self._asked[key] = self._asked.pop(key, 0) + 1
        if len(self._asked) > _ASKED_BOUND:
            self._asked.popitem(last=False)

    def _settle(self, ticket: Ticket, now: float, rows, error) -> None:
        """Record how a read ended — rows or error, once (lock held)."""
        ticket.finished_at = now
        tenant = self._metrics.tenant(ticket.tenant)
        if error is not None:
            ticket.error = error
            tenant.failed += 1
        else:
            ticket.rows = rows
            tenant.completed += 1
            tenant.rows_returned += len(rows)

    def _settle_unexecuted(
        self, ticket: Ticket, now: float, rows, error
    ) -> None:
        """End a door hit or a rider with another's outcome (lock held)."""
        ticket.cached = True
        ticket.queue_seconds = now - ticket.submitted_at
        self._settle(ticket, now, rows, error)

    def _note_dispatched(self, ready) -> list[Ticket]:
        """Dispatch-time bookkeeping for drained reads (lock held)."""
        batch = []
        now = time.perf_counter()
        for __, bound, ticket in ready:
            ticket.dispatched_at = now
            ticket.queue_seconds = now - ticket.submitted_at
            tenant = self._metrics.tenant(ticket.tenant)
            tenant.admitted += 1
            tenant.queue_seconds += ticket.queue_seconds
            tenant.queue_seconds_max = max(
                tenant.queue_seconds_max, ticket.queue_seconds
            )
            batch.append(ticket)
        return batch

    def _dispatch_batch(self, batch: list[Ticket]) -> None:
        for ticket in batch:
            self._dispatch(ticket)

    def _ensure_pool(self) -> WorkerPool | None:
        # Under the lock: two first reads must not both start workers.
        with self._lock:
            if self.workers <= 0 or self._pool_broken or self._closed:
                return None
            if self._pool is None:
                # Spawn, not fork: this process has client/callback threads.
                context = multiprocessing.get_context("spawn")
                self._pool = WorkerPool(self.workers, context)
            return self._pool

    def _dispatch(self, ticket: Ticket) -> None:
        """Hand an admitted, debited read to execution (lock NOT held)."""
        task = ticket._task
        while (pool := self._ensure_pool()) is not None:
            try:
                future = pool.submit(_run_pinned, *task)
            except (BrokenProcessPool, RuntimeError):
                self._degrade_pool()
                continue
            future.add_done_callback(
                lambda f, t=ticket: self._on_future(t, f)
            )
            return
        try:
            with self._inline_lock:
                payload = _run_pinned(*task)
        except BaseException as error:  # noqa: BLE001 - forwarded to ticket
            self._complete(ticket, error=error)
        else:
            self._complete(ticket, payload=payload)

    def _degrade_pool(self) -> None:
        """A broken pool never comes back: finish the run inline."""
        pool, self._pool, self._pool_broken = self._pool, None, True
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _on_future(self, ticket: Ticket, future) -> None:
        try:
            payload = future.result()
        except BrokenProcessPool:
            # The pool died under this read (a worker was killed, not a
            # query error): degrade and re-run the same pin inline.
            self._degrade_pool()
            self._dispatch(ticket)
        except BaseException as error:  # noqa: BLE001 - forwarded to ticket
            self._complete(ticket, error=error)
        else:
            self._complete(ticket, payload=payload)

    def _complete(
        self, ticket: Ticket, payload=None, error=None
    ) -> None:
        """Completion bookkeeping + queue pump (lock NOT held on entry)."""
        now = time.perf_counter()
        with self._lock:
            batch = self._note_dispatched(
                self._admission.release(ticket.bound)
            )
            # The last ticket off a replaced generation frees its image.
            self._session.executor.backend.unpin(ticket.pinned_token)
            key = _result_key(ticket.expr, ticket.pinned_token)
            riders = self._in_flight.pop(key)
            tenant = self._metrics.tenant(ticket.tenant)
            if ticket.dispatched_at is not None:
                ticket.run_seconds = now - ticket.dispatched_at
                tenant.run_seconds += ticket.run_seconds
            rows = None
            if error is None:
                rows, ticket.actual_rows, ticket.max_in_flight = payload
                tenant.bound_rows += ticket.bound
                tenant.actual_rows += ticket.actual_rows
                # Stored from the second request on, and only for
                # contents a later read can still be pinned to.
                if (
                    self._asked.get(key, 0) > 1
                    and ticket.pinned_token in self._kept
                ):
                    del self._asked[key]
                    self._results.put(key, rows)
            self._settle(ticket, now, rows, error)
            for rider in riders:
                self._settle_unexecuted(rider, now, rows, error)
        for finished in (ticket, *riders):
            finished._finish()
        self._dispatch_batch(batch)

    def _explain(
        self,
        query,
        options: PlannerOptions | None = None,
        costs: bool = False,
    ) -> str:
        options = _serial(options or self.options)
        with self._lock:
            self._check_open()
            return self._session.explain(query, costs=costs, options=options)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _write(self, tenant: str, additions=None, removals=None) -> int:
        additions = {
            name: frozenset(tuple(row) for row in rows)
            for name, rows in (additions or {}).items()
        }
        removals = {
            name: frozenset(tuple(row) for row in rows)
            for name, rows in (removals or {}).items()
        }
        with self._lock:
            self._check_open()
            # Build the successor contents first: Database's constructor
            # validates names and arities, so a bad write changes nothing.
            successor = self.db
            if removals:
                successor = successor.without_tuples(removals)
            if additions:
                successor = successor.with_tuples(additions)
            # The engine's mutation idiom: swap contents behind the
            # same handle; the version token moves, every executor
            # cache invalidates on its next check.
            self.db._relations = successor._relations
            self._generation += 1
            self._write_log.append(
                (self._generation, additions, removals)
            )
            # Re-encode the shared backend now, while writes are still
            # serialized: new pins see the new image; the backend keeps
            # the old one for exactly as long as a ticket pins it.
            executor = self._session.executor
            executor.check_version()
            if executor.version != self._kept[0]:
                # Results stay for these contents and the ones they
                # replaced; a write that restores earlier contents
                # finds its entries again, anything older goes.
                self._kept = (executor.version, self._kept[0])
                keep = _pinned_to(self._kept)
                self._results.retain(keep)
                self._asked = OrderedDict(
                    item for item in self._asked.items() if keep(item[0])
                )
            self._metrics.tenant(tenant).writes += 1
            return self._generation
