"""Integration tests for the serving core (:mod:`repro.serve.server`).

Concurrency here is made deterministic, not sampled: tests that need a
read to be *in flight* while a write lands patch the module-level task
function (``_run_pinned``) with a gate the test controls — or, where a
real pool worker must run the read, hold the server's first dispatch —
so snapshot isolation (a pinned read runs on its own generation's
image, whatever is written meanwhile) is exercised on every run
instead of when the scheduler happens to cooperate.  The transport
tests count row-level work instead of timing it: one encode per
generation, one decode per (process, generation), none on a hit — in
the server process by patching the storage functions, in a real pool
worker by sending it the same patch as a task.  The front door's
three outcomes — hit, rider, execution — are pinned the same way: by
counting ``_run_pinned`` / ``plan`` / ``price_plan`` / ``pin`` calls and
comparing ``rows`` by identity, never by timing.  The closing
Hypothesis property is the serving layer's contract in one line: every
finished read returns exactly the serial oracle's rows at its pinned
generation, whatever the thread interleaving — and whichever of the
three outcomes answered it.  Every server any test here opens is
checked, once the test is over, by :func:`_assert_drained`.
"""

from __future__ import annotations

import gc
import math
import pickle
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as serve_server
import repro.storage.backend as storage_backend
import repro.storage.snapshot as storage_snapshot
from repro.algebra.ast import Rel
from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine.parallel import available_cpus
from repro.errors import (
    AdmissionError,
    SchemaError,
    StaleDataError,
    UnknownRelationError,
)
from repro.serve import Server
from repro.storage.shm import live_segment_names


def _division_db() -> Database:
    return Database(
        {"R": 2, "S": 1},
        {
            "R": [(a, b) for a in range(12) for b in range(4)],
            "S": [(b,) for b in range(4)],
        },
    )


QUERIES = (
    "project[1](R join[2=1] S)",
    "R semijoin[2=1] S",
    "project[1](R) minus project[1](((project[1](R) x S) minus R))",
)


@pytest.fixture
def db():
    return _division_db()


@pytest.fixture(autouse=True)
def fresh_snapshot_cache():
    """Isolate the module-level snapshot-session LRU between tests.

    The cache is keyed by version token, and identical test databases
    share tokens — a session left over from one test would let the
    next serve without attaching (masking, e.g., the stale-pin path).
    """
    yield
    _drop_snapshot_sessions()


def _assert_drained(server):
    """What every server must look like once nothing is in flight.

    Each submitted read ended in exactly one of rejected / failed /
    completed, whichever way it was answered; nothing is debited, and
    no read is waiting for a leader that will never come.
    """
    metrics = server.metrics()
    for name, tenant in metrics.tenants.items():
        assert tenant.submitted == (
            tenant.rejected + tenant.failed + tenant.completed
        ), f"tenant {name!r}: {tenant.render()}"
    assert metrics.in_flight_rows == 0.0
    assert metrics.queue_depth == 0
    assert server._in_flight == {}


@pytest.fixture(autouse=True)
def every_server_drains(monkeypatch):
    """Run :func:`_assert_drained` on every server a test opened."""
    opened = []
    real = Server.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Server, "__init__", recording)
    yield
    for server in opened:
        assert server.closed, "a test left its server open"
        _assert_drained(server)


def _drop_snapshot_sessions():
    for session in serve_server._SNAPSHOT_SESSIONS.values():
        session.close()
    serve_server._SNAPSHOT_SESSIONS.clear()


class _Gate:
    """Replace ``_run_pinned`` so the test controls when reads proceed.

    ``block_first=True`` holds only the first call at the gate;
    without it the gate only records: ``tasks`` holds every dispatched
    argument tuple.
    """

    def __init__(self, block_first=False):
        self.real = serve_server._run_pinned
        self.event = threading.Event()
        self.block_first = block_first
        self.calls = 0
        self.tasks = []
        self._lock = threading.Lock()

    def __enter__(self):
        serve_server._run_pinned = self
        return self

    def __exit__(self, *exc):
        serve_server._run_pinned = self.real

    def __call__(self, *args):
        with self._lock:
            self.calls += 1
            call_no = self.calls
            self.tasks.append(args)
        if self.block_first and call_no == 1:
            assert self.event.wait(30)
        return self.real(*args)


class _HeldDispatch:
    """Hold a server's first dispatch: after the pin, before the run.

    Unlike :class:`_Gate` this works with a real pool — the read is
    held in the submitting thread, then handed to whatever runner the
    server has, unpatched.
    """

    def __init__(self, server):
        self.real = server._dispatch
        self.held = threading.Event()
        self.event = threading.Event()
        server._dispatch = self

    def __call__(self, ticket):
        if not self.held.is_set():
            self.held.set()
            assert self.event.wait(30)
        self.real(ticket)


def _submit_held(server, handle, text):
    """Submit ``text`` on a thread and hold it at dispatch.

    Returns ``finish``: call it to open the gate and get the ticket.
    """
    hold = _HeldDispatch(server)
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(ticket=handle.submit(text))
    )
    thread.start()
    assert hold.held.wait(30)

    def finish():
        hold.event.set()
        thread.join(30)
        assert not thread.is_alive()
        return outcome["ticket"]

    return finish


def _bound_of(db, text) -> float:
    """What admission debits for ``text`` on ``db`` (a throwaway server)."""
    with Server(db, workers=0) as probe:
        return probe.connect("t").submit(text).bound


#: Images this process has alive, per by-reference backend kind.
LIVE_IMAGES = {"shm": live_segment_names}


def _count_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` with a pass-through that logs each call."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


# Tasks for a *pool worker*: spawn children unpickle them by qualified
# name, so they must live at module level.


def _worker_start_counting_attaches():
    real = storage_snapshot.attach_snapshot
    calls = storage_snapshot._test_attach_calls = []

    def counting(descriptor):
        calls.append(descriptor[0])
        return real(descriptor)

    storage_snapshot.attach_snapshot = counting


def _worker_attach_count():
    return len(storage_snapshot._test_attach_calls)


# ----------------------------------------------------------------------
# Basic serving
# ----------------------------------------------------------------------


def test_inline_server_basic_read_write_cycle(db):
    with Server(db, workers=0) as server:
        handle = server.connect("alice")
        rows = handle.run(QUERIES[0])
        assert rows == evaluate(server._session.parse(QUERIES[0]), db)
        generation = handle.write(additions={"R": [(99, 0)]})
        assert generation == 1
        assert (99,) in handle.run(QUERIES[0])
        metrics = server.metrics()
        alice = metrics.tenants["alice"]
        assert alice.completed == 2
        assert alice.writes == 1
        assert metrics.generation == 1


def test_default_worker_count_uses_available_cpus(db):
    with Server(db) as server:
        assert server.workers == available_cpus()


def test_ticket_audit_trail(db):
    with Server(db, workers=0, budget=10_000) as server:
        handle = server.connect("t")
        ticket = handle.submit(QUERIES[1])
        rows = ticket.result(30)
        assert ticket.done()
        assert ticket.exception() is None
        assert ticket.rows == rows
        assert math.isfinite(ticket.bound) and ticket.bound > 0
        assert ticket.actual_rows <= ticket.bound
        assert ticket.pinned_generation == 0
        assert ticket.queue_seconds >= 0
        assert ticket.run_seconds >= 0
        assert ticket._task is None  # dropped once it cannot re-run


def test_rejection_is_typed_and_counted(db):
    with Server(db, workers=0, budget=2.0) as server:
        handle = server.connect("greedy")
        with pytest.raises(AdmissionError) as caught:
            handle.run(QUERIES[0])
        assert caught.value.budget == 2.0
        assert caught.value.bound > 2.0
        metrics = server.metrics()
        assert metrics.tenants["greedy"].rejected == 1
        assert metrics.tenants["greedy"].completed == 0
        # Nothing leaked into the budget ledger.
        assert metrics.in_flight_rows == 0.0


def test_write_validation_failure_changes_nothing(db):
    with Server(db, workers=0) as server:
        handle = server.connect("w")
        with pytest.raises(SchemaError):
            handle.write(additions={"NOPE": [(1,)]})
        assert server.generation == 0
        assert handle.run(QUERIES[1])  # still serving


def test_database_at_replays_the_write_log(db):
    with Server(db, workers=0) as server:
        handle = server.connect("w")
        baseline = db.relations()
        handle.write(additions={"R": [(50, 0)]})
        handle.write(removals={"R": [(50, 0)]}, additions={"S": [(9,)]})
        assert server.database_at(0).relations() == baseline
        assert (50, 0) in server.database_at(1)["R"]
        gen2 = server.database_at(2)
        assert (50, 0) not in gen2["R"]
        assert (9,) in gen2["S"]
        with pytest.raises(SchemaError):
            server.database_at(3)


def test_close_is_idempotent_and_fails_later_submits(db):
    server = Server(db, workers=0)
    handle = server.connect("t")
    handle.run(QUERIES[1])
    server.close()
    server.close()
    assert server.closed
    with pytest.raises(SchemaError):
        handle.submit(QUERIES[1])
    with pytest.raises(SchemaError):
        server.connect("u")


def test_closed_handle_refuses_submits(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        handle.close()
        with pytest.raises(SchemaError):
            handle.submit(QUERIES[1])


def test_explain_routes_through_the_server(db):
    with Server(db, workers=0) as server:
        text = server.connect("t").explain(QUERIES[0], costs=True)
        assert "join" in text.lower()


# ----------------------------------------------------------------------
# Snapshot isolation (gated, deterministic)
# ----------------------------------------------------------------------


def test_pinned_read_ignores_concurrent_write(db):
    # The read is submitted (and pinned) before the write, held at the
    # gate while the write lands, then released: memory-backend pins
    # carry rows by value, so it must see generation 0 exactly.
    from repro.algebra.parser import parse

    oracle_before = evaluate(parse(QUERIES[0], db.schema), _division_db())
    with Server(db, workers=0) as server:
        handle = server.connect("reader")
        with _Gate(block_first=True) as gate:
            outcome = {}

            def submit():
                outcome["ticket"] = handle.submit(QUERIES[0])
                outcome["rows"] = outcome["ticket"].result(30)

            reader = threading.Thread(target=submit)
            reader.start()
            writer = server.connect("writer")
            writer.write(additions={"R": [(77, 0)], "S": [(77,)]})
            gate.event.set()
            reader.join(30)
            assert not reader.is_alive()
        assert outcome["rows"] == oracle_before
        assert (77,) not in outcome["rows"]
        assert outcome["ticket"].pinned_generation == 0
        # A read submitted after the write sees the new contents.
        assert (77,) in handle.run(QUERIES[0])


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("backend", ["shm"])
def test_pinned_read_runs_on_its_own_image_after_writes(backend, workers):
    # By-reference pins no longer evaporate: the generation-0 image is
    # kept while the held read pins it — through three writes — and is
    # released the moment that read finishes.
    live = LIVE_IMAGES[backend]
    db = _division_db()
    with Server(db, workers=workers, backend=backend) as server:
        reader, writer = server.connect("reader"), server.connect("writer")
        finish = _submit_held(server, reader, QUERIES[1])
        for n in range(3):
            writer.write(additions={"R": [(90 + n, 0)]})
            assert len(live()) == 2  # generation 0's and the current
        ticket = finish()
        assert ticket.result(120) == evaluate(
            ticket.expr, server.database_at(0)
        )
        assert ticket.pinned_generation == 0
        assert len(live()) == 1
        assert (92, 0) in reader.run(QUERIES[1], timeout=120)
    assert live() == ()


def test_refused_read_leaves_no_pin():
    db = _division_db()
    with Server(db, workers=0, backend="shm", budget=2.0) as server:
        handle = server.connect("greedy")
        with pytest.raises(AdmissionError):
            handle.submit(QUERIES[0])
        handle.write(additions={"R": [(99, 0)]})
        assert len(live_segment_names()) == 1
    assert live_segment_names() == ()


@pytest.mark.parametrize("backend", ["shm"])
def test_vanished_pinned_image_fails_the_ticket(backend):
    # An image that is gone although a ticket pins it is an outside
    # fault: the read fails, typed, and nothing else is disturbed.
    live = LIVE_IMAGES[backend]
    db = _division_db()
    with Server(db, workers=0, backend=backend, budget=50_000) as server:
        handle = server.connect("t")
        finish = _submit_held(server, handle, QUERIES[1])
        server._session.executor.backend._image.release()
        ticket = finish()
        with pytest.raises(StaleDataError):
            ticket.result(30)
        assert ticket.pinned_generation == 0
        metrics = server.metrics()
        assert metrics.tenants["t"].failed == 1
        assert metrics.in_flight_rows == 0.0
        handle.write(additions={"R": [(88, 0)]})
        assert (88, 0) in handle.run(QUERIES[1], timeout=30)
        assert len(live()) == 1
    assert live() == ()


@pytest.mark.parametrize("backend", ["shm"])
def test_close_fails_reads_queued_on_retired_generations(backend):
    live = LIVE_IMAGES[backend]
    db = _division_db()
    bound = _bound_of(db, QUERIES[1])
    _drop_snapshot_sessions()  # the held read must attach its image
    server = Server(db, workers=0, backend=backend, budget=1.5 * bound)
    handle = server.connect("t")
    finish = _submit_held(server, handle, QUERIES[1])
    queued = []
    for generation in range(2):  # one queued read on each of 0 and 1
        # Not the held read's text: an identical read would ride on it
        # at the door instead of queueing for budget with its own pin.
        queued.append(handle.submit(QUERIES[0]))
        handle.write(additions={"R": [(70 + generation, 0)]})
    assert [t.pinned_generation for t in queued] == [0, 1]
    assert not any(t.done() for t in queued)
    assert len(live()) == 3
    server.close()
    for ticket in queued:
        with pytest.raises(SchemaError, match="closed"):
            ticket.result(30)
    assert live() == ()
    # The held read lost its image to close(): typed, not a crash.
    with pytest.raises(StaleDataError):
        finish().result(30)
    assert server.metrics().in_flight_rows == 0.0


# ----------------------------------------------------------------------
# Snapshot transport: encode per generation, decode per process
# ----------------------------------------------------------------------


def test_one_generation_is_encoded_once_and_shared_by_its_tickets(
    db, monkeypatch
):
    encodes = _count_calls(monkeypatch, storage_backend, "encode_relations")
    with Server(db, workers=0) as server, _Gate() as seen:
        handle = server.connect("t")
        for index in range(6):
            handle.run(QUERIES[index % len(QUERIES)])
        assert len(encodes) == 1
        descriptors = [task[1] for task in seen.tasks]
        assert len(descriptors) == 6
        assert all(d is descriptors[0] for d in descriptors)
        kind, image, __ = descriptors[0]
        assert kind == "rows" and type(image) is bytes
        # What a pool would pickle per task: the image once, not rows.
        assert len(pickle.dumps(seen.tasks[0])) < len(image) + 2048
        handle.write(additions={"R": [(99, 0)]})
        handle.run(QUERIES[0])
        handle.run(QUERIES[1])
        assert len(encodes) == 2
        assert seen.tasks[-1][1] is seen.tasks[-2][1]
        assert seen.tasks[-1][1] is not descriptors[0]


def test_inline_server_decodes_once_per_generation(db, monkeypatch):
    attaches = _count_calls(
        monkeypatch, storage_snapshot, "attach_snapshot"
    )
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        first = handle.submit(QUERIES[0])
        first.result(30)
        assert len(attaches) == 1 and not first.cached
        for index in range(5):
            handle.run(QUERIES[index % len(QUERIES)])
        hit = handle.submit(QUERIES[0])
        hit.result(30)
        assert hit.cached  # a result-cache hit decodes nothing ...
        assert len(attaches) == 1  # ... and neither does a miss
        handle.write(additions={"R": [(99, 0)]})
        handle.run(QUERIES[0])
        handle.run(QUERIES[1])
        assert len(attaches) == 2


def test_pool_worker_decodes_once_per_generation(db):
    with Server(db, workers=1) as server:
        handle = server.connect("t")
        handle.run(QUERIES[0], timeout=120)  # spawns the one worker
        pool = server._pool
        pool.submit(_worker_start_counting_attaches).result(120)
        handle.write(additions={"R": [(98, 0)]})
        tickets = [
            handle.submit(QUERIES[index % len(QUERIES)])
            for index in range(7)
        ]
        for ticket in tickets:
            ticket.result(120)
        assert any(ticket.cached for ticket in tickets)
        assert pool.submit(_worker_attach_count).result(120) == 1
        handle.write(additions={"R": [(99, 0)]})
        assert (99,) in handle.run(QUERIES[0], timeout=120)
        handle.run(QUERIES[0], timeout=120)
        assert pool.submit(_worker_attach_count).result(120) == 2


def test_finished_tickets_do_not_pin_their_generation(db, monkeypatch):
    # The lab keeps every ticket for its oracle audit; that must not
    # keep every generation's image alive.  Plain tuples, bytes and
    # dicts take no weak references, so each export's layout table is
    # swapped for a dict subclass that does.
    class Layout(dict):
        pass

    real = storage_backend.Backend.export_snapshot
    exported = []

    def export(self):
        kind, image, layout = real(self)
        exported.append(weakref.ref(layout := Layout(layout)))
        return (kind, image, layout)

    monkeypatch.setattr(storage_backend.Backend, "export_snapshot", export)
    kept = []
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        for generation in range(4):
            if generation:
                handle.write(additions={"R": [(100 + generation, 0)]})
            kept.extend(handle.submit(text) for text in QUERIES)
        assert all(ticket.result(30) is not None for ticket in kept)
        assert all(ticket._task is None for ticket in kept)
        gc.collect()
        assert len(exported) == 4
        # Generations 0-2 are gone; the current one is still cached.
        assert [ref() is None for ref in exported] == [True] * 3 + [False]


def test_close_fails_queued_reads_and_drops_their_pins(db):
    server = Server(db, workers=0, budget=1.5 * _bound_of(db, QUERIES[1]))
    handle = server.connect("t")
    with _Gate(block_first=True) as gate:
        running = {}

        def submit():
            running["ticket"] = handle.submit(QUERIES[1])

        reader = threading.Thread(target=submit)
        reader.start()
        while not gate.calls:  # the first read holds the budget
            threading.Event().wait(0.01)
        # A different text: the same one would ride on the running read
        # (no debit, no pin, no task) and there would be no queue.
        queued = handle.submit(QUERIES[0])
        assert not queued.done() and queued._task is not None
        server.close()
        with pytest.raises(SchemaError, match="closed"):
            queued.result(30)
        assert queued._task is None
        gate.event.set()
        reader.join(30)
        assert not reader.is_alive()
    assert running["ticket"].result(30)
    assert running["ticket"]._task is None


# ----------------------------------------------------------------------
# The front door: hit, rider, execution — counted, not timed
# ----------------------------------------------------------------------


def test_identical_reads_in_flight_execute_once(db):
    with Server(db, workers=0, budget=10_000) as server, _Gate() as gate:
        handle = server.connect("t")
        finish = _submit_held(server, handle, QUERIES[0])
        riders = [handle.submit(QUERIES[0]) for __ in range(4)]
        assert not any(ticket.done() for ticket in riders)
        debited = server.metrics().in_flight_rows
        leader = finish()
        tickets = [leader, *riders]
        rows = leader.result(30)
        assert rows == evaluate(leader.expr, db)
        assert all(ticket.result(30) is rows for ticket in tickets)
        assert gate.calls == 1
        assert [t.cached for t in tickets] == [False] + [True] * 4
        # One debit — the leader's — while all five were in flight.
        assert debited == leader.bound > 0
        metrics = server.metrics()
        assert metrics.in_flight_peak == leader.bound
        tenant = metrics.tenants["t"]
        assert (tenant.admitted, tenant.coalesced) == (1, 4)
        assert tenant.completed == 5
        assert tenant.bound_rows == leader.bound
        assert tenant.actual_rows == leader.actual_rows
        for rider in riders:
            assert rider.bound == 0.0 and rider.actual_rows == 0
            assert rider._task is None and rider.run_seconds == 0.0
            assert rider.pinned_token == leader.pinned_token
            assert rider.queue_seconds > 0.0


def test_hit_is_answered_at_the_door_while_the_budget_is_held(
    db, monkeypatch
):
    # The budget fits exactly one QUERIES[0]; while that read is held,
    # QUERIES[1]'s own bound could only queue.  Its cached rows need
    # no budget.
    budget = _bound_of(db, QUERIES[0])
    assert 0 < _bound_of(db, QUERIES[1]) <= budget
    with Server(db, workers=0, budget=budget) as server:
        handle = server.connect("t")
        first = handle.submit(QUERIES[1])
        stored = handle.submit(QUERIES[1])
        assert not first.cached and not stored.cached
        assert stored.result(30) == evaluate(stored.expr, db)
        finish = _submit_held(server, handle, QUERIES[0])
        assert server.metrics().in_flight_rows == budget
        executor = server._session.executor
        calls = [
            _count_calls(monkeypatch, executor, "plan"),
            _count_calls(monkeypatch, serve_server, "price_plan"),
            _count_calls(monkeypatch, executor.backend, "pin"),
            _count_calls(monkeypatch, server, "_dispatch"),
        ]
        hit = handle.submit(QUERIES[1])
        assert hit.done() and hit.cached
        assert hit.rows is stored.rows
        assert calls == [[], [], [], []]
        assert hit.bound == 0.0
        assert hit.actual_rows == 0 and hit.run_seconds == 0.0
        assert hit._task is None and hit.dispatched_at is None
        assert hit.pinned_generation == 0
        assert hit.pinned_token == stored.pinned_token
        assert hit.finished_at is not None
        metrics = server.metrics()
        assert metrics.in_flight_rows == budget
        assert metrics.queue_depth == 0
        assert metrics.tenants["t"].cache_hits == 1
        assert (metrics.cache_hits, metrics.cache_entries) == (1, 1)
        assert finish().result(30)


def test_result_is_stored_from_its_second_request_on(db):
    with Server(db, workers=0) as server, _Gate() as gate:
        handle = server.connect("t")
        once = handle.submit(QUERIES[2])
        assert once.result(30) and not once.cached
        assert len(server._results) == 0  # asked once: not kept
        for expected_calls, text in enumerate(QUERIES[:2], start=2):
            handle.run(text)
            assert gate.calls == expected_calls
        assert len(server._results) == 0
        again = handle.submit(QUERIES[2])
        assert not again.cached and gate.calls == 4  # executed, stored
        assert len(server._results) == 1
        assert server._results.total_bytes > 0
        hit = handle.submit(QUERIES[2])
        assert hit.cached and hit.rows is again.rows and gate.calls == 4
        metrics = server.metrics()
        assert (metrics.cache_hits, metrics.cache_misses) == (1, 4)
        assert metrics.cache_entries == 1
        assert "1 hit(s), 4 miss(es)" in metrics.render()


def test_leader_failure_fails_its_riders_and_stores_nothing():
    db = _division_db()
    with Server(db, workers=0, backend="shm", budget=50_000) as server:
        handle = server.connect("t")
        finish = _submit_held(server, handle, QUERIES[1])
        riders = [handle.submit(QUERIES[1]) for __ in range(3)]
        server._session.executor.backend._image.release()
        leader = finish()
        error = leader.exception(30)
        assert isinstance(error, StaleDataError)
        for rider in riders:
            assert rider.exception(30) is error
            assert rider.cached and rider.rows is None
            with pytest.raises(StaleDataError):
                rider.result(30)
        metrics = server.metrics()
        tenant = metrics.tenants["t"]
        assert (tenant.failed, tenant.completed) == (4, 0)
        assert (tenant.admitted, tenant.coalesced) == (1, 3)
        assert metrics.in_flight_rows == 0.0
        assert len(server._results) == 0 and server._in_flight == {}
        # Nothing of the failure is remembered as a result: the same
        # text on fresh contents executes.
        handle.write(additions={"R": [(88, 0)]})
        with _Gate() as gate:
            fresh = handle.submit(QUERIES[1])
            assert (88, 0) in fresh.result(30)
            assert gate.calls == 1 and not fresh.cached
    assert live_segment_names() == ()


@pytest.mark.parametrize("backend", ["memory", "shm"])
def test_close_fails_a_queued_leader_and_its_riders(backend):
    db = _division_db()
    budget = 1.5 * _bound_of(db, QUERIES[1])
    _drop_snapshot_sessions()  # the held read must attach its image
    server = Server(db, workers=0, backend=backend, budget=budget)
    handle = server.connect("t")
    finish = _submit_held(server, handle, QUERIES[1])
    on_running = handle.submit(QUERIES[1])  # rides on the held read
    queued = [handle.submit(QUERIES[0]) for __ in range(3)]
    assert server.metrics().queue_depth == 1  # a leader; two ride on it
    assert not any(t.done() for t in (on_running, *queued))
    server.close()
    errors = [ticket.exception(30) for ticket in queued]
    assert isinstance(errors[0], SchemaError) and "closed" in str(errors[0])
    assert all(error is errors[0] for error in errors)
    assert [t.cached for t in queued] == [False, True, True]
    # The read that was already executing ends on its own, after
    # close(), and takes its rider with it either way.
    held = finish()
    if backend == "memory":  # by-value pin: close() took nothing away
        assert on_running.result(30) is held.result(30)
    else:
        assert isinstance(held.exception(30), StaleDataError)
        assert on_running.exception(30) is held.exception(30)
    tenant = server.metrics().tenants["t"]
    assert tenant.submitted == 5 == tenant.failed + tenant.completed
    assert live_segment_names() == ()
    _assert_drained(server)


def test_killed_worker_leader_reruns_inline_and_serves_its_riders(db):
    with Server(db, workers=1) as server:
        handle = server.connect("t")
        assert handle.run(QUERIES[1], timeout=120)
        for process in list(server._pool._processes.values()):
            process.kill()
        finish = _submit_held(server, handle, QUERIES[0])
        riders = [handle.submit(QUERIES[0]) for __ in range(3)]
        leader = finish()
        rows = leader.result(120)
        assert rows == evaluate(leader.expr, db)
        assert all(rider.result(120) is rows for rider in riders)
        assert server._pool_broken and server._pool is None
        tenant = server.metrics().tenants["t"]
        assert (tenant.completed, tenant.failed) == (5, 0)
        assert (tenant.admitted, tenant.coalesced) == (2, 3)


def test_door_keeps_the_current_and_the_replaced_contents_only(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        cache = server._results
        tokens, stored_bytes = [], []
        for generation in range(4):
            if generation:  # fresh contents every time
                handle.write(additions={"R": [(100 + generation, 0)]})
            before = cache.total_bytes
            for text in QUERIES[:2]:
                handle.run(text)
                handle.run(text)  # second request: stored
            handle.run(QUERIES[2])  # asked once: remembered, not stored
            tokens.append(server._session.executor.version)
            stored_bytes.append(cache.total_bytes - before)
        assert len(set(tokens)) == 4
        # The last write dropped everything but generations 2 and 3.
        assert len(cache) == 4
        assert cache.total_bytes == sum(stored_bytes[-2:])
        assert {key[0] for key in server._asked} == set(tokens[-2:])
        assert server._kept == (tokens[3], tokens[2])
        assert cache.evictions == 0  # dropped by retention, not pressure


def test_late_completion_for_dropped_contents_stores_nothing(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        finish = _submit_held(server, handle, QUERIES[0])
        rider = handle.submit(QUERIES[0])  # asked twice: would be stored
        for n in range(2):
            handle.write(additions={"R": [(100 + n, 0)]})
        leader = finish()
        assert rider.result(30) is leader.result(30)
        assert leader.result(30) == evaluate(
            leader.expr, server.database_at(0)
        )
        assert leader.pinned_generation == rider.pinned_generation == 0
        assert len(server._results) == 0 and not server._asked


def test_same_text_across_a_write_and_back(db):
    # text, text, text, write, text, text, write back, text: executed /
    # executed and stored / hit / executed / executed and stored / hit
    # — the last one on the restored contents, two writes later.
    delta = {"R": [(200, 0), (201, 1)]}
    with Server(db, workers=0) as server, _Gate() as gate:
        handle = server.connect("t")
        tickets = [handle.submit(QUERIES[0]) for __ in range(3)]
        handle.write(additions=delta)
        tickets += [handle.submit(QUERIES[0]) for __ in range(2)]
        handle.write(removals=delta)
        tickets.append(handle.submit(QUERIES[0]))
        assert [t.cached for t in tickets] == [
            False, False, True, False, False, True,
        ]
        assert gate.calls == 4
        assert [t.pinned_generation for t in tickets] == [0, 0, 0, 1, 1, 2]
        for ticket in tickets:
            assert ticket.result(30) == evaluate(
                ticket.expr, server.database_at(ticket.pinned_generation)
            )
        assert tickets[2].rows is tickets[1].rows
        assert tickets[5].rows is tickets[1].rows  # found again by token
        assert tickets[5].pinned_token == tickets[0].pinned_token
        assert tickets[3].pinned_token != tickets[0].pinned_token
        assert (200,) in tickets[3].rows and (200,) not in tickets[5].rows
        assert len(server._results) == 2
        tenant = server.metrics().tenants["t"]
        assert (tenant.admitted, tenant.cache_hits) == (4, 2)


@pytest.mark.parametrize("backend", ["shm"])
def test_restored_contents_execute_on_their_new_image(backend):
    # A token names contents, not an image: after B → A → B the
    # by-reference image for B is a new one (nothing pinned the first).
    # With the door answering every repeat, "no executed read between
    # two writes" is the common case, so a descriptor remembered per
    # token would name a released image — seen as one StaleDataError
    # in 3 200 ops of the serve_rw_shm benchmark before the server
    # stopped remembering descriptors (reachable at the parent too, by
    # two writes with no read at all between them).
    live = LIVE_IMAGES[backend]
    db = _division_db()
    delta = {"R": [(200, 0), (201, 1)]}
    with Server(db, workers=0, backend=backend) as server:
        handle = server.connect("t")
        for generation in range(2):  # store QUERIES[0] under A and B
            if generation:
                handle.write(additions=delta)
            handle.run(QUERIES[0])
            handle.run(QUERIES[0])
        first_b = live()
        handle.write(removals=delta)  # A again: only the door is asked
        assert handle.submit(QUERIES[0]).cached
        handle.write(additions=delta)  # B again, on a new image
        assert len(live()) == 1 and live() != first_b
        _drop_snapshot_sessions()  # the next read must attach
        fresh = handle.submit(QUERIES[1])  # never asked: executes on B
        assert not fresh.cached
        assert fresh.result(30) == evaluate(
            fresh.expr, server.database_at(3)
        )
        assert (200, 0) in fresh.rows
    assert live() == ()


def test_worker_sessions_cache_no_results(db):
    with Server(db, workers=0) as server, _Gate() as seen:
        handle = server.connect("t")
        for __ in range(3):
            handle.run(QUERIES[0])
        token, descriptor, schema, *__ = seen.tasks[0]
        session = serve_server._session_for_snapshot(
            token, descriptor, schema
        )
        assert session.result_cache.enabled is False
        assert len(session.result_cache) == 0
        assert session.result_cache.hits == 0


def test_every_submitted_read_ends_in_exactly_one_counter(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        with pytest.raises(UnknownRelationError):
            handle.submit(Rel("Nope", 2))  # fails in planning
        tenant = server.metrics().tenants["t"]
        assert (tenant.submitted, tenant.failed) == (1, 1)
        assert tenant.admitted == tenant.rejected == tenant.completed == 0
        assert server._in_flight == {} and not server._asked
        assert handle.run(QUERIES[1])  # still serving


# ----------------------------------------------------------------------
# Process-pool execution
# ----------------------------------------------------------------------


def test_pool_serves_reads_and_reuses_snapshot_sessions(db):
    with Server(db, workers=2, budget=100_000) as server:
        handle = server.connect("t")
        # Was "at least some were worker result-cache hits"; the door
        # makes it exact: 6 identical reads, the first held so that the
        # other five provably arrive while it is in flight → one
        # execution in one worker, five riders, one unpickled result.
        finish = _submit_held(server, handle, QUERIES[0])
        tickets = [handle.submit(QUERIES[0]) for __ in range(5)]
        tickets.insert(0, finish())
        results = [t.result(120) for t in tickets]
        oracle = evaluate(server._session.parse(QUERIES[0]), db)
        assert all(rows == oracle for rows in results)
        assert all(rows is results[0] for rows in results)
        assert [t.cached for t in tickets] == [False] + [True] * 5
        metrics = server.metrics()
        tenant = metrics.tenants["t"]
        assert tenant.completed == 6
        assert (tenant.admitted, tenant.coalesced) == (1, 5)
        assert tenant.bound_rows == tickets[0].bound
        assert metrics.in_flight_peak == tickets[0].bound
        assert metrics.in_flight_rows == 0.0
        # Stored (it was asked for more than once): the next is a hit.
        hit = handle.submit(QUERIES[0])
        assert hit.done() and hit.cached and hit.rows is results[0]
        assert server.metrics().tenants["t"].cache_hits == 1


def test_pool_write_then_read_crosses_generations(db):
    with Server(db, workers=2) as server:
        handle = server.connect("t")
        before = handle.run(QUERIES[0], timeout=120)
        handle.write(additions={"R": [(55, 0)]})
        after = handle.run(QUERIES[0], timeout=120)
        assert (55,) in after and (55,) not in before


def test_broken_pool_degrades_to_inline(db):
    with Server(db, workers=2) as server:
        handle = server.connect("t")
        assert handle.run(QUERIES[1], timeout=120)
        # Kill the pool out from under the server.
        server._pool.shutdown(wait=True, cancel_futures=True)
        rows = handle.run(QUERIES[1], timeout=120)
        assert rows == evaluate(server._session.parse(QUERIES[1]), db)
        assert server._pool_broken or server._pool is not None


def test_killed_worker_reruns_the_same_pin_inline(db):
    with Server(db, workers=1) as server:
        handle = server.connect("t")
        assert handle.run(QUERIES[1], timeout=120)
        for process in list(server._pool._processes.values()):
            process.kill()
        # Whether the pool notices at submit or under the future, the
        # read keeps its pin and finishes inline.
        tickets = [handle.submit(text) for text in QUERIES]
        for ticket in tickets:
            assert ticket.result(120) == evaluate(ticket.expr, db)
            assert ticket._task is None
        assert server._pool_broken and server._pool is None
        assert server.metrics().in_flight_rows == 0.0


# ----------------------------------------------------------------------
# The serving contract, property-tested (concurrent oracle replay)
# ----------------------------------------------------------------------


def _replay_against_oracle(backend, workers, reader_ops, writer_ops):
    """Race a reader and a flip-flop writer; audit every ticket.

    The body of the serving contract, shared by the Hypothesis property
    (inline) and its real-pool variant.  Returns the server's final
    metrics.
    """
    db = _division_db()
    tickets = []

    def sink(ticket):
        tickets.append((ticket, ticket.pinned_generation))

    with Server(
        db, workers=workers, budget=1_000_000, backend=backend
    ) as server:
        reader = server.connect("reader")
        writer = server.connect("writer", weight=2.0)

        def read_loop():
            for index in reader_ops:
                sink(reader.submit(QUERIES[index]))

        def write_loop():
            flip = True
            for is_write, index in writer_ops:
                if is_write:
                    delta = {"R": [(200, 0), (201, 1)]}
                    if flip:
                        writer.write(additions=delta)
                    else:
                        writer.write(removals=delta)
                    flip = not flip
                else:
                    sink(writer.submit(QUERIES[index]))

        threads = [
            threading.Thread(target=read_loop),
            threading.Thread(target=write_loop),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        oracle_cache = {}
        for ticket, generation in tickets:
            rows = ticket.result(60)
            assert ticket.pinned_generation == generation
            if generation not in oracle_cache:
                oracle_cache[generation] = server.database_at(generation)
            expected = evaluate(ticket.expr, oracle_cache[generation])
            assert rows == expected
            assert ticket.actual_rows <= ticket.bound
            # A hit or a rider never held a debit, a pin or a task.
            if ticket.cached:
                assert ticket.bound == 0.0
                assert ticket.actual_rows == 0
            assert ticket._task is None
        # Budget ledger drained: nothing in flight once all are done.
        assert server.metrics().in_flight_rows == 0.0
        _assert_drained(server)
        metrics = server.metrics()
        assert sum(
            tenant.cache_hits + tenant.coalesced
            for tenant in metrics.tenants.values()
        ) == sum(1 for ticket, __ in tickets if ticket.cached)
    assert live_segment_names() == ()
    return metrics


@settings(max_examples=12, deadline=None)
@given(
    backend=st.sampled_from(["memory", "shm"]),
    reader_ops=st.lists(
        st.sampled_from(range(len(QUERIES))), min_size=1, max_size=5
    ),
    writer_ops=st.lists(
        st.tuples(st.booleans(), st.sampled_from(range(len(QUERIES)))),
        min_size=1,
        max_size=5,
    ),
)
def test_admitted_reads_equal_serial_oracle_replay(
    backend, reader_ops, writer_ops
):
    """Satellite: concurrent mixed traffic vs. the serial oracle.

    Two tenants — one read-only, one interleaving writes — race over
    one inline server.  Whatever interleaving the scheduler produces,
    every admitted read's rows must equal the structural evaluator's
    answer on the write-log reconstruction at that read's pinned
    generation — the one it had when ``submit`` returned, on by-value
    and by-reference pins alike.  (Inline keeps this deterministic
    enough for Hypothesis: no timing dependence in the *assertion*.)
    Three texts and a writer that flip-flops between two contents: most
    examples cross the door cache, so hits are audited like executions.
    """
    _replay_against_oracle(backend, 0, reader_ops, writer_ops)


@pytest.mark.parametrize("backend", ["memory", "shm"])
def test_oracle_replay_through_a_real_pool_with_riders(backend):
    # The same traffic shape, fixed, through two pool workers: a pool
    # read stays in flight across many submits (the first one across
    # the workers' whole spawn), so identical reads ride — the outcome
    # an inline server, which executes inside submit, never produces
    # without a gate.
    reader_ops = [0, 0, 1, 1, 2, 2] * 3
    writer_ops = [(False, 0), (False, 1)] + [
        (n % 4 == 3, n % len(QUERIES)) for n in range(16)
    ]
    metrics = _replay_against_oracle(backend, 2, reader_ops, writer_ops)
    totals = metrics.totals()
    assert totals.coalesced >= 1
    assert totals.completed == totals.submitted == 32
    assert totals.admitted + totals.coalesced + totals.cache_hits == 32
