"""Integration tests for the serving core (:mod:`repro.serve.server`).

Concurrency here is made deterministic, not sampled: tests that need a
read to be *in flight* while a write lands patch the module-level task
function (``_run_pinned``) with a gate the test controls, so snapshot
isolation and the stale-pin retry path are exercised on every run
instead of when the scheduler happens to cooperate.  The transport
tests count row-level work instead of timing it: one encode per
generation, one decode per (process, generation), none on a hit — in
the server process by patching the storage functions, in a real pool
worker by sending it the same patch as a task.  The closing
Hypothesis property is the serving layer's contract in one line: every
admitted read returns exactly the serial oracle's rows at its pinned
generation, whatever the thread interleaving.
"""

from __future__ import annotations

import gc
import pickle
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.server as serve_server
import repro.storage.backend as storage_backend
import repro.storage.snapshot as storage_snapshot
from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine.parallel import available_cpus
from repro.errors import AdmissionError, SchemaError, StaleDataError
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
    for session in serve_server._SNAPSHOT_SESSIONS.values():
        session.close()
    serve_server._SNAPSHOT_SESSIONS.clear()


class _Gate:
    """Replace ``_run_pinned`` so the test controls when reads proceed.

    ``block_first=True`` holds only the first call at the gate;
    ``fail_first`` makes the first call raise StaleDataError instead
    of running (the simulated evaporated snapshot).  With neither it
    only records: ``tasks`` holds every dispatched argument tuple.
    """

    def __init__(self, block_first=False, fail_first=0):
        self.real = serve_server._run_pinned
        self.event = threading.Event()
        self.block_first = block_first
        self.fail_first = fail_first
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
        if call_no <= self.fail_first:
            raise StaleDataError("snapshot gone (simulated)")
        return self.real(*args)


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
        assert rows == evaluate(
            server._session.parse(QUERIES[0]), db, use_engine=False
        )
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
        assert ticket.sound and ticket.bound > 0
        assert ticket.actual_rows <= ticket.bound
        assert ticket.pinned_generation == 0
        assert ticket.queue_seconds >= 0
        assert ticket.run_seconds >= 0
        assert not ticket.retried
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

    oracle_before = evaluate(
        parse(QUERIES[0], db.schema), _division_db(), use_engine=False
    )
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
        # Served from the pin itself: no stale error, no re-pin.
        assert not outcome["ticket"].retried
        assert outcome["ticket"].pinned_generation == 0
        # A read submitted after the write sees the new contents.
        assert (77,) in handle.run(QUERIES[0])


def test_stale_shm_pin_retries_against_fresh_snapshot():
    # By-reference pins really evaporate: the read is pinned to the
    # generation-0 shm segment, the write re-encodes (unlinking it),
    # and the gated read then attaches — StaleDataError — and must be
    # re-pinned, re-priced, and served at generation 1.
    db = _division_db()
    with Server(db, workers=0, backend="shm", budget=50_000) as server:
        handle = server.connect("reader")
        with _Gate(block_first=True) as gate:
            outcome = {}

            def submit():
                outcome["ticket"] = handle.submit(QUERIES[1])
                outcome["rows"] = outcome["ticket"].result(30)

            reader = threading.Thread(target=submit)
            reader.start()
            writer = server.connect("writer")
            writer.write(additions={"R": [(88, 0)]})
            gate.event.set()
            reader.join(30)
            assert not reader.is_alive()
        ticket = outcome["ticket"]
        assert ticket.retried
        assert ticket.pinned_generation == 1
        assert outcome["rows"] == evaluate(
            ticket.expr, server.database_at(1), use_engine=False
        )
        assert server.metrics().tenants["reader"].retried == 1
    assert live_segment_names() == ()


def test_retry_happens_once_then_fails(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        with _Gate(fail_first=2):
            ticket = handle.submit(QUERIES[1])
            with pytest.raises(StaleDataError):
                ticket.result(30)
        assert ticket.retried
        metrics = server.metrics()
        assert metrics.tenants["t"].retried == 1
        assert metrics.tenants["t"].failed == 1
        # The debit was credited back despite the failure.
        assert metrics.in_flight_rows == 0.0


def test_retry_recovers_when_fresh_snapshot_works(db):
    with Server(db, workers=0) as server:
        handle = server.connect("t")
        with _Gate(fail_first=1) as gate:
            rows = handle.run(QUERIES[1], timeout=30)
            assert gate.calls == 2
        assert rows == evaluate(
            server._session.parse(QUERIES[1]), db, use_engine=False
        )
        assert server.metrics().tenants["t"].retried == 1
        assert server.metrics().tenants["t"].completed == 1


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
    with Server(db, workers=0) as probe:
        bound = probe.connect("t").submit(QUERIES[1]).bound
    server = Server(db, workers=0, budget=1.5 * bound)
    handle = server.connect("t")
    with _Gate(block_first=True) as gate:
        running = {}

        def submit():
            running["ticket"] = handle.submit(QUERIES[1])

        reader = threading.Thread(target=submit)
        reader.start()
        while not gate.calls:  # the first read holds the budget
            threading.Event().wait(0.01)
        queued = handle.submit(QUERIES[1])
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
# Process-pool execution
# ----------------------------------------------------------------------


def test_pool_serves_reads_and_reuses_snapshot_sessions(db):
    with Server(db, workers=2, budget=100_000) as server:
        handle = server.connect("t")
        tickets = [handle.submit(QUERIES[0]) for __ in range(6)]
        results = [t.result(120) for t in tickets]
        oracle = evaluate(
            server._session.parse(QUERIES[0]), db, use_engine=False
        )
        assert all(rows == oracle for rows in results)
        metrics = server.metrics()
        assert metrics.tenants["t"].completed == 6
        # Workers keep per-snapshot sessions: with 6 identical reads
        # over 2 workers, at least some were result-cache hits.
        assert metrics.tenants["t"].cache_hits >= 1
        assert metrics.in_flight_rows == 0.0


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
        assert rows == evaluate(
            server._session.parse(QUERIES[1]), db, use_engine=False
        )
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
            assert ticket.result(120) == evaluate(
                ticket.expr, db, use_engine=False
            )
            assert not ticket.retried and ticket._task is None
        assert server._pool_broken and server._pool is None
        assert server.metrics().in_flight_rows == 0.0


# ----------------------------------------------------------------------
# The serving contract, property-tested (concurrent oracle replay)
# ----------------------------------------------------------------------


@settings(max_examples=12)
@given(
    reader_ops=st.lists(
        st.sampled_from(range(len(QUERIES))), min_size=1, max_size=5
    ),
    writer_ops=st.lists(
        st.tuples(st.booleans(), st.sampled_from(range(len(QUERIES)))),
        min_size=1,
        max_size=5,
    ),
)
def test_admitted_reads_equal_serial_oracle_replay(reader_ops, writer_ops):
    """Satellite: concurrent mixed traffic vs. the serial oracle.

    Two tenants — one read-only, one interleaving writes — race over
    one inline server.  Whatever interleaving the scheduler produces,
    every admitted read's rows must equal the structural evaluator's
    answer on the write-log reconstruction at that read's pinned
    generation.  (Inline + memory backend keeps this deterministic
    enough for Hypothesis: no timing dependence in the *assertion*.)
    """
    db = _division_db()
    tickets = []
    sink = tickets.append
    with Server(db, workers=0, budget=1_000_000) as server:
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
        for ticket in tickets:
            rows = ticket.result(60)
            generation = ticket.pinned_generation
            if generation not in oracle_cache:
                oracle_cache[generation] = server.database_at(generation)
            expected = evaluate(
                ticket.expr, oracle_cache[generation], use_engine=False
            )
            assert rows == expected
            assert ticket.actual_rows <= ticket.bound
        # Budget ledger drained: nothing in flight once all are done.
        assert server.metrics().in_flight_rows == 0.0
