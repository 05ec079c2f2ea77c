"""Thread-safety regressions for the state the serving layer shares.

The serving layer (:mod:`repro.serve`) runs client and completion
threads over engine objects that predate it, so the shared mutable
state those objects carry must survive concurrent use:

* :class:`~repro.engine.executor.IndexCache` and
  :class:`~repro.engine.executor.ResultCache` — OrderedDict LRU state
  (``move_to_end`` + eviction) corrupts under interleaving without the
  locks these tests hammer;
* the :class:`~repro.serve.server.Server`'s front door — result cache,
  in-flight map and asked-once record, all under the scheduler lock —
  with more client threads than cores, a flip-flopping writer and a
  shortened switch interval: a lost update there shows up as a read
  that never finishes, a wrong answer, or a counter that does not add
  up;
* :meth:`~repro.session.Session.close` — double-close from racing
  threads must release shm segments / spill files exactly once (a
  second unlink of a recreated name would yank live storage).
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine.executor import IndexCache, ResultCache, _result_bytes
from repro.errors import SchemaError
from repro.serve import Server
from repro.session import Session
from repro.storage.shm import live_segment_names

THREADS = 4
ROUNDS = 300


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` in N threads; re-raise any thread's error."""
    errors = []

    def wrapped(i):
        try:
            worker(i)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    pool = [
        threading.Thread(target=wrapped, args=(i,))
        for i in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise errors[0]


def test_index_cache_concurrent_build_and_evict():
    # A tiny row budget forces constant eviction while other threads
    # are inserting — the LRU rebalance races unguarded.
    cache = IndexCache(row_budget=40)
    relations = [
        frozenset((i, j) for j in range(10)) for i in range(12)
    ]

    def worker(seed):
        for round_no in range(ROUNDS):
            which = (seed + round_no) % len(relations)
            rows = relations[which]
            index = cache.index_for(("rel", which), rows, (1,))
            assert sum(len(v) for v in index.values()) == len(rows)
            trie = cache.trie_for(("rel", which), rows, ((0,), (1,)))
            assert trie
            seen = cache.second_sight(("rel", which), rows, (2,))
            if seen is not None:
                assert sum(map(len, seen.values())) == len(rows)

    _hammer(worker)
    # The budget invariant must hold after the storm too.
    assert cache.rows_indexed <= cache.row_budget or len(cache._indexes) <= 1
    # Every grouping is noted however the threads interleave.
    assert cache._sighted == {
        (("rel", which), (2,)) for which in range(len(relations))
    }


def test_result_cache_concurrent_get_put_invalidate():
    cache = ResultCache(byte_budget=4096)
    payloads = {
        key: frozenset((key, i) for i in range(8)) for key in range(16)
    }

    def worker(seed):
        for round_no in range(ROUNDS):
            key = ("fp", (seed + round_no) % len(payloads))
            cache.put(key, payloads[key[1]])
            hit = cache.get(key)
            # A concurrent eviction/invalidation may have removed it,
            # but a hit must be the exact stored value.
            if hit is not None:
                assert hit == payloads[key[1]]
            if round_no % 50 == 49:
                cache.invalidate()
            elif round_no % 50 == 24:
                cache.retain(lambda key: key[1] % 2 == seed % 2)

    _hammer(worker)
    stats_total = cache.hits + cache.misses
    assert stats_total == THREADS * ROUNDS
    # Byte accounting survived eviction, retention and invalidation.
    assert cache.total_bytes == sum(
        _result_bytes(rows) for rows, __ in cache._entries.values()
    )
    cache.retain(lambda key: False)
    assert len(cache) == 0 and cache.total_bytes == 0


def test_server_door_under_concurrent_identical_reads_and_writes():
    texts = (
        "R semijoin[2=1] S",
        "project[1](R join[2=1] S)",
        "project[1](R)",
    )
    db = Database(
        {"R": 2, "S": 1},
        {
            "R": [(a, b) for a in range(12) for b in range(4)],
            "S": [(b,) for b in range(4)],
        },
    )
    clients, reads = 8, 40
    tickets = [[] for __ in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(db, workers=0, budget=1_000_000) as server:

            start = threading.Barrier(clients)
            delta = {"R": [(200, 0), (201, 1)]}

            def worker(index):
                handle = server.connect(f"c{index}")
                start.wait(30)
                for round_no in range(reads):
                    # Client 0 also writes: two contents, back and forth.
                    if index == 0 and round_no % 4 == 0:
                        if round_no % 8:
                            handle.write(removals=delta)
                        else:
                            handle.write(additions=delta)
                    ticket = handle.submit(texts[(index + round_no) % 3])
                    tickets[index].append(
                        (ticket, ticket.pinned_generation)
                    )

            _hammer(worker, threads=clients)
            oracles = {}
            for ticket, generation in (t for per in tickets for t in per):
                rows = ticket.result(60)
                assert ticket.pinned_generation == generation
                # Two contents only: even generations are the base.
                parity = generation % 2
                if parity not in oracles:
                    oracles[parity] = server.database_at(generation)
                assert rows == evaluate(ticket.expr, oracles[parity])
            metrics = server.metrics()
            totals = metrics.totals()
            assert totals.submitted == clients * reads
            assert totals.completed == totals.submitted
            assert totals.submitted == (
                totals.admitted + totals.coalesced + totals.cache_hits
            )
            assert metrics.cache_hits == totals.cache_hits > 0
            assert metrics.cache_misses == totals.admitted + totals.coalesced
            assert metrics.in_flight_rows == 0.0
            assert server._in_flight == {}
            # Three texts on the two kept contents, at most.
            assert metrics.cache_entries <= 6
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("backend", ["memory", "shm", "mmap"])
def test_session_double_close_is_idempotent(backend):
    db = Database({"R": 2}, {"R": [(1, 2), (3, 4)]})
    session = Session(db, backend=backend)
    assert len(session.run("R")) == 2
    session.close()
    session.close()  # second close: no error, no second unlink
    assert session.closed
    with pytest.raises(SchemaError):
        session.run("R")


@pytest.mark.parametrize("backend", ["memory", "shm", "mmap"])
def test_session_concurrent_close_races(backend):
    # Many threads racing close() on one session: the backend's
    # release hook must run exactly once (shm: no stray segments, no
    # double unlink of a name another test may have recreated).
    for __ in range(10):
        db = Database({"R": 2}, {"R": [(1, 2)]})
        session = Session(db, backend=backend)
        session.run("R")
        _hammer(lambda i: session.close())
        assert session.closed
    if backend == "shm":
        assert live_segment_names() == ()


def test_close_after_backend_close_is_safe():
    # The executor's close and a direct backend close can race in a
    # serving teardown; whichever runs second must be a no-op.
    db = Database({"R": 2}, {"R": [(1, 2)]})
    session = Session(db, backend="shm")
    session.run("R")
    session.executor.backend.close()
    session.close()
    assert session.closed
    assert live_segment_names() == ()
