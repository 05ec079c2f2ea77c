"""The six workloads: seeded inputs, set-up, warm-up, timed ops, oracle.

Every workload is closed loop: callers are in-process threads that wait
for a reply before sending the next request.  Inputs take the seed; the
program under test receives only the generated inputs.  Op counts are
fixed per workload (``BASE_OPS`` in :mod:`perfbench.catalog`, scaled by
``--seconds``), so counters and CPU compare exactly across commits.

A workload object lives for one set-up: ``setup()`` builds the inputs,
opens the ``Session``/``Server`` and runs the warm-up pass;
``run(count, harness)`` executes ``count`` timed operations;
``close()`` releases sessions, servers and pools; ``expected(...)``
answers from the structural oracle afterwards.  Why each workload
exists is recorded next to its name in ``perfbench/README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace

# Modules the engine imports lazily are loaded here, so their one-time
# import cost lands in ``import_s`` and not in the first of the repeated
# set-ups (whose median is reported).
import repro.engine.wcoj  # noqa: F401
import repro.extended.division_plan  # noqa: F401
import repro.extended.evaluator  # noqa: F401
import repro.storage.mmapio  # noqa: F401
import repro.storage.shm  # noqa: F401
import repro.storage.snapshot  # noqa: F401
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine.parallel import available_cpus, shutdown_worker_pools
from repro.engine.planner import PlannerOptions
from repro.serve.server import Server
from repro.session import Session
from repro.setjoins.division import divide_reference_eq
from repro.workloads.generators import division_database, zipf_triangle_db
from repro.workloads.serving import (
    DIVISION_QUERY,
    MIXED_QUERIES,
    MUTATION_WRITES,
    SEMIJOIN_QUERIES,
    TRIANGLE_QUERY,
    build_database,
)

__all__ = ["WORKLOAD_CLASSES", "Sample", "adhoc_query", "workers"]

#: Seconds a client waits for one reply before the op counts as failed.
OP_TIMEOUT = 60.0


def workers() -> int:
    """Pool size and client-thread cap: ``min(2, available_cpus())``."""
    return min(2, available_cpus())


@dataclass
class Sample:
    """One timed operation as the harness saw it."""

    key: str  #: the distinct query (or write) this op is an instance of
    start: float  #: ``perf_counter`` at the call
    latency: float  #: seconds, call → last row
    rows: int = -1  #: result cardinality (-1: no result)
    #: ``hash(frozenset(rows))`` of the ops the audit compares in full —
    #: not the rows, which would be most of the process's peak memory.
    digest: int | None = None
    error: str | None = None
    write: bool = False
    generation: int = 0  #: contents the result must match (server reads)
    once: bool = False  #: a never-repeated query shape
    #: Server reads: the ticket's ``(queue_seconds, run_seconds, cached,
    #: actual_rows, max_in_flight)`` — not the ticket, which pins rows.
    served: tuple | None = None
    stats: object = None  #: ExecutionStats of the op (traced pass only)


# ----------------------------------------------------------------------
# Seeded query texts
# ----------------------------------------------------------------------

_COMPARISONS = ("=", "!=", "<", ">")


def adhoc_query(
    rng: random.Random,
    leaves: tuple[str, ...],
    max_inputs: int = 3,
    select_inner: bool = True,
    solo: str | None = None,
) -> str:
    """A random 2–``max_inputs``-way select/join/semijoin/project text.

    Leaves are binary relations, optionally under a position selection;
    every connector has one equality atom (so plans stay hash-based)
    and sometimes a second comparison atom; the result is projected on
    one to three columns.  The space has tens of thousands of distinct
    texts at two inputs and millions at three, so drawing until unseen
    terminates at once.

    ``select_inner=False`` keeps selections off every input but the
    first.  A join of two selected inputs has no sketch-based bound —
    the cost model certifies only the product — and a budgeted server
    must refuse it; the serving workloads issue no such query.

    ``solo`` names a leaf that a text holds at most once.  Joining a
    large relation with itself on a low-cardinality column gives results
    thousands of times the size of any other query's; a handful of them
    then decide a run's throughput, CPU and peak memory, and how many a
    seed draws decides its place among the seeds.
    """
    unused = list(leaves)

    def leaf(select: bool = True) -> str:
        name = rng.choice(unused)
        if name == solo:
            unused.remove(name)
        if select and rng.random() < 0.5:
            op = rng.choice(_COMPARISONS)
            i, j = rng.choice(((1, 2), (2, 1)))
            return f"select[{i}{op}{j}]({name})"
        return name

    expr, arity = leaf(), 2
    for _ in range(rng.randint(2, max_inputs) - 1):
        cond = f"{rng.randint(1, arity)}={rng.randint(1, 2)}"
        if rng.random() < 0.3:
            op = rng.choice(_COMPARISONS[1:])
            cond += f",{rng.randint(1, arity)}{op}{rng.randint(1, 2)}"
        if rng.random() < 0.35:
            expr = f"({expr} semijoin[{cond}] {leaf(select_inner)})"
        else:
            expr = f"({expr} join[{cond}] {leaf(select_inner)})"
            arity += 2
    width = rng.randint(1, min(arity, 3))
    positions = rng.sample(range(1, arity + 1), width)
    return f"project[{','.join(map(str, positions))}]{expr}"


class _FreshQueries:
    """Draws query texts that were never issued before in this run.

    Client threads each draw from their own ``rng`` (so what a thread
    issues does not depend on how the threads interleave) and share
    ``seen``; a draw another thread made first is simply drawn again.
    """

    def __init__(self, rng: random.Random, seen: set[str], *shape) -> None:
        self._rng = rng
        self._seen = seen
        self._shape = shape  #: adhoc_query's arguments after ``rng``

    def next(self) -> str:
        while True:
            text = adhoc_query(self._rng, *self._shape)
            if text not in self._seen:
                self._seen.add(text)
                return text


# ----------------------------------------------------------------------
# Base classes
# ----------------------------------------------------------------------


class Workload:
    """Shared protocol; see the module docstring."""

    name = ""
    #: Client threads issuing timed ops.
    clients = 1
    #: Storage backend kind the Session/Server is opened on.
    backend = "memory"
    #: Ops per full cycle of the query mix; op counts are rounded to it.
    cycle = 1
    #: Whether all measured work runs on one thread of this process, so
    #: its times follow the host's speed state and are reported at
    #: nominal speed (see :mod:`perfbench.yardstick`).
    single_thread = False
    #: The server's admission budget in rows (serve workloads).
    budget: float | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.db: Database | None = None
        #: Counters of the timed phase, zero where the workload has no
        #: such layer: IndexCache builds/reuses, result-cache ``(hits,
        #: misses, evictions)``, and ``Server.metrics()`` at close.
        self.index_builds = 0
        self.index_reuses = 0
        self.cache_delta = (0, 0, 0)
        self.metrics = None
        #: ``(start, end)`` of the generator calls.
        self.build_window = (0.0, 0.0)
        self.input_rows: dict[str, int] = {}
        #: ``Server(...)`` → first warm-up reply (serve workloads).
        self.spawn_window = (0.0, 0.0)
        self._oracle_memo: dict[Database, dict] = {}
        self._expected: dict[tuple[Database, str], object] = {}

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        start = time.perf_counter()
        self.db = self.build()
        self.build_window = (start, time.perf_counter())
        self.input_rows = {
            name: len(self.db[name]) for name in self.db.schema.names()
        }
        self.open()
        self.warm_up()

    def build(self) -> Database:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    # -- timed phase ----------------------------------------------------

    def run(self, count: int, harness) -> tuple[float, float]:
        """Execute ``count`` ops; returns the phase's ``(start, end)``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- oracle ---------------------------------------------------------

    def contents(self, sample: Sample) -> Database:
        """The database ``sample``'s result must be checked against."""
        return self.db

    def oracle_text(self, key: str) -> str:
        """The expression text behind a sample key (keys may carry a
        ``  -- how it was run`` suffix)."""
        return key.split("  -- ", 1)[0]

    def expected(self, sample: Sample):
        """The structural oracle's answer for ``sample`` (memoised).

        One evaluator memo per distinct contents, shared by every query
        on those contents, so common sub-expressions (the un-projected
        triangle) are evaluated once.
        """
        contents = self.contents(sample)
        text = self.oracle_text(sample.key)
        answer = self._expected.get((contents, text))
        if answer is None:
            answer = self.evaluate(text, contents)
            self._expected[(contents, text)] = answer
        return answer

    def evaluate(self, text: str, contents: Database):
        memo = self._oracle_memo.setdefault(contents, {})
        return evaluate(parse(text, contents.schema), contents, memo=memo)

    def share_oracle(self, other: "Workload") -> None:
        """Answer from ``other``'s oracle memos (same seed, same inputs;
        memos are keyed by contents, so equal databases share entries)."""
        self._oracle_memo = other._oracle_memo
        self._expected = other._expected


class SessionWorkload(Workload):
    """One thread driving ``Session`` calls through a fixed op cycle."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.session: Session | None = None

    def op(self, index: int):
        """``(key, once, call)`` for the ``index``-th timed op."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for index in range(self.cycle):
            self.op(index)[2]()

    def run(self, count: int, harness) -> tuple[float, float]:
        ops = [self.op(index) for index in range(count)]
        before = self._counters()
        start = time.perf_counter()
        for index, (key, once, call) in enumerate(ops):
            harness.single(index, key, once, call, self._last_stats)
        end = time.perf_counter()
        delta = [b - a for a, b in zip(before, self._counters())]
        self.index_builds += delta[0]
        self.index_reuses += delta[1]
        self.cache_delta = tuple(delta[2:])
        return start, end

    def _counters(self) -> tuple[int, ...]:
        indexes = self.session.executor.indexes
        cache = self.session.result_cache
        return (
            indexes.builds, indexes.reuses,
            cache.hits, cache.misses, cache.evictions,
        )

    def _last_stats(self):
        report = self.session.last_report
        return None if report is None or report.cached else report.stats

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        shutdown_worker_pools()


# ----------------------------------------------------------------------
# 1. division_warm
# ----------------------------------------------------------------------


class DivisionWarm(SessionWorkload):
    name = "division_warm"
    cycle = 6
    single_thread = True
    EQ_KEY = "divide(R, S, algorithm='engine', eq=True)"

    def build(self) -> Database:
        return division_database(
            600, 12, extra_per_key=3, hit_fraction=0.4, seed=self.seed
        )

    def open(self) -> None:
        self.session = Session(self.db, cache_results=False)
        self._as_written = replace(
            self.session.options, rewrite_divisions=False
        )

    def op(self, index: int):
        session = self.session
        slot = index % self.cycle
        if slot == 0:
            return DIVISION_QUERY, False, lambda: session.run(DIVISION_QUERY)
        if slot == 1:
            return self.EQ_KEY, False, lambda: session.divide(
                algorithm="engine", eq=True
            )
        if slot == 2:
            # The quadratic as-written RA plan of Proposition 26.
            key = DIVISION_QUERY + "  -- rewrite_divisions=False"
            options = self._as_written
            return key, False, lambda: session.run(DIVISION_QUERY, options)
        text = SEMIJOIN_QUERIES[slot - 3]
        return text, False, lambda: session.run(text)

    def evaluate(self, text: str, contents: Database):
        if text == self.EQ_KEY:
            return divide_reference_eq(contents["R"], contents["S"])
        return super().evaluate(text, contents)


# ----------------------------------------------------------------------
# 2. hot_semijoin_shm
# ----------------------------------------------------------------------

HOT_QUERY = "Person semijoin[2=2,1>1] Disease"


def hot_symptom_db(
    seed: int, groups: int = 8, persons: int = 1200, diseases: int = 400
) -> Database:
    """The Fig. 1 shoot-out in its quadratic regime.

    ``groups`` hot symptoms are shared by every patient and disease, in
    equal shares; disease keys lie above every person key, so the
    ``1>1`` rest atom never holds and the semijoin scans all
    ``persons·diseases/groups`` candidate pairs.  The seed picks which
    ids exist and which symptom each gets — never how many.
    """
    rng = random.Random(seed)
    person_ids = rng.sample(range(100_000), persons)
    disease_ids = rng.sample(range(10**6, 10**6 + 100_000), diseases)
    return Database(
        Schema({"Person": 2, "Disease": 2}),
        {
            "Person": {(p, i % groups) for i, p in enumerate(person_ids)},
            "Disease": {(d, j % groups) for j, d in enumerate(disease_ids)},
        },
    )


class HotSemijoinShm(SessionWorkload):
    name = "hot_semijoin_shm"
    cycle = 4
    backend = "shm"

    def build(self) -> Database:
        return hot_symptom_db(self.seed)

    def open(self) -> None:
        self.session = Session(
            self.db,
            options=PlannerOptions(
                partition_budget=800, max_workers=workers()
            ),
            cache_results=False,
            backend=self.backend,
        )
        self._serial = replace(self.session.options, max_workers=1)

    def op(self, index: int):
        session = self.session
        if index % self.cycle == 3:
            # Per-query override: the same batches, run in-process.
            key = HOT_QUERY + "  -- max_workers=1"
            options = self._serial
            return key, False, lambda: session.run(HOT_QUERY, options)
        return HOT_QUERY, False, lambda: session.run(HOT_QUERY)


# ----------------------------------------------------------------------
# 3. triangle_wcoj
# ----------------------------------------------------------------------

_TRIANGLE_BODY = "((E join[2=1] F) join[4=1,1=2] G)"
TRIANGLE_QUERIES = (
    TRIANGLE_QUERY,
    f"project[1]{_TRIANGLE_BODY}",
    f"project[2,4]{_TRIANGLE_BODY}",
)


class TriangleWcoj(SessionWorkload):
    name = "triangle_wcoj"
    #: 7 warm ops + 1 cold op; the three texts rotate underneath and
    #: cost the same (one join, three projections of it).
    cycle = 8
    single_thread = True
    COLD = "  -- fresh Session"

    def build(self) -> Database:
        return zipf_triangle_db(640, tail=1280, skew=1.1, seed=self.seed)

    def open(self) -> None:
        self.session = Session(self.db, cache_results=False)
        self._cold_stats = None

    def op(self, index: int):
        text = TRIANGLE_QUERIES[index % len(TRIANGLE_QUERIES)]
        if index % self.cycle == self.cycle - 1:
            return text + self.COLD, False, lambda: self._cold(text)
        session = self.session
        return text, False, lambda: session.run(text)

    def _cold(self, text: str):
        """What every ``repro eval`` CLI user pays: nothing is warm."""
        self._cold_stats = None
        with Session(self.db, cache_results=False) as session:
            rows = session.run(text)
            self._cold_stats = session.last_report.stats
            self.index_builds += session.executor.indexes.builds
            self.index_reuses += session.executor.indexes.reuses
        return rows

    def warm_up(self) -> None:
        for text in TRIANGLE_QUERIES:
            self.session.run(text)

    def _last_stats(self):
        stats, self._cold_stats = self._cold_stats, None
        return stats if stats is not None else super()._last_stats()


# ----------------------------------------------------------------------
# 4. adhoc_tiny
# ----------------------------------------------------------------------


class AdhocTiny(SessionWorkload):
    name = "adhoc_tiny"
    single_thread = True
    #: Ops issued before timing so the plan memo and the result cache
    #: are in their steady (evicting) state.
    WARM_OPS = 256
    RECENT = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._rng = random.Random(seed)
        self._fresh = _FreshQueries(
            self._rng, set(), ("R", "T", "U"), 3, True, "R"
        )
        self._issued = 0
        self._recent: list[str] = []

    def build(self) -> Database:
        return build_database(
            "mixed", num_keys=24, extra_rows=48, seed=self.seed
        )

    def open(self) -> None:
        self.session = Session(self.db, cache_bytes=128 * 1024)

    def _next_text(self) -> tuple[str, bool]:
        """Every 4th a re-issue from the last 64, the rest never seen."""
        self._issued += 1
        if self._issued % 4 == 0:
            return self._rng.choice(self._recent), False
        text = self._fresh.next()
        return text, True

    def op(self, index: int):
        text, fresh = self._next_text()
        self._recent.append(text)
        del self._recent[: -self.RECENT]
        session = self.session
        # ``once`` marks a first issue: audited 1 in 8.  A re-issue is a
        # repeating query and is always checked against the oracle.
        return text, fresh, lambda: session.run(text)

    def warm_up(self) -> None:
        for index in range(self.WARM_OPS):
            self.op(index)[2]()


# ----------------------------------------------------------------------
# 5 and 6. serving
# ----------------------------------------------------------------------


class ServeWorkload(Workload):
    """Client threads against one ``Server`` on the mixed database."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: Server | None = None
        self._databases: dict[int, Database] = {}

    def build(self) -> Database:
        return build_database(
            "mixed", num_keys=300, extra_rows=1200, seed=self.seed
        )

    def open(self) -> None:
        start = time.perf_counter()
        self.server = Server(
            self.db,
            workers=workers(),
            budget=self.budget,
            backend=self.backend,
        )
        with self.server.connect("warmup") as handle:
            handle.run(MIXED_QUERIES[0], timeout=OP_TIMEOUT)
        self.spawn_window = (start, time.perf_counter())

    def warm_up(self) -> None:
        # Twice the cycle per worker, so each worker process has very
        # likely imported the engine and planned the repeating mix.
        with self.server.connect("warmup") as handle:
            tickets = [
                handle.submit(text)
                for _ in range(2 * workers())
                for text in MIXED_QUERIES
            ]
            for ticket in tickets:
                ticket.result(OP_TIMEOUT)

    def read_stream(self, client: int, seen: set[str]):
        """Endless ``(text, once)``: every 5th a never-repeated two-input
        shape over ``T``/``U``, the rest the cycle."""
        rng = random.Random(self.seed * 1000 + client)
        fresh = _FreshQueries(rng, seen, ("T", "U"), 2, False)
        position = 0
        while True:
            for _ in range(4):
                yield MIXED_QUERIES[position % len(MIXED_QUERIES)], False
                position += 1
            yield fresh.next(), True

    def _threads(self, bodies) -> tuple[float, float]:
        barrier = threading.Barrier(len(bodies) + 1)
        errors: list[BaseException] = []

        def guarded(body):
            barrier.wait()
            try:
                body()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=guarded, args=(body,), name=f"client-{i}")
            for i, body in enumerate(bodies)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if errors:
            raise errors[0]
        return start, end

    def close(self) -> None:
        if self.server is not None and not self.server.closed:
            self.metrics = self.server.metrics()
            self.server.close()

    def contents(self, sample: Sample) -> Database:
        generation = sample.generation
        database = self._databases.get(generation)
        if database is None:
            database = self.server.database_at(generation)
            # Equal contents share one oracle memo (Database hashes by
            # value), so the flip-flop costs two evaluations per query.
            self._databases[generation] = database
        return database


class ServeReadMemory(ServeWorkload):
    name = "serve_read_memory"
    clients = 2
    cycle = len(MIXED_QUERIES)

    def run(self, count: int, harness) -> tuple[float, float]:
        clients = min(self.clients, workers())
        seen: set[str] = set()

        def client(index: int, share: int):
            stream = self.read_stream(index, seen)
            handle = self.server.connect(f"reader{index}")

            def body():
                for op in range(share):
                    text, once = next(stream)
                    harness.read(
                        (index, op), handle, text, once, window=None
                    )

            return body

        shares = [
            count // clients + (1 if i < count % clients else 0)
            for i in range(clients)
        ]
        return self._threads(
            [client(i, share) for i, share in enumerate(shares)]
        )


class ServeRwShm(ServeWorkload):
    name = "serve_rw_shm"
    clients = 2
    backend = "shm"
    #: An absolute row budget, fixed here so that tighter admission
    #: bounds in a later change mean less queueing, not a moved target.
    budget = 70_000
    WINDOW = 4
    #: One write, then three reads, on the writer thread.
    cycle = 8

    def run(self, count: int, harness) -> tuple[float, float]:
        # Of every 8 ops, 4 are windowed reads on the reader thread and
        # 4 (1 write + 3 reads) belong to the writer thread.
        reader_ops = count // 2
        writer_ops = count - reader_ops
        seen: set[str] = set()
        reader_stream = self.read_stream(0, seen)
        writer_stream = self.read_stream(1, seen)
        reader = self.server.connect("reader")
        writer = self.server.connect("writer")

        def read_body():
            window: list = []
            for op in range(reader_ops):
                text, once = next(reader_stream)
                harness.read(("r", op), reader, text, once, window=window)
                if len(window) >= self.WINDOW:
                    harness.finish(window.pop(0))
            while window:
                harness.finish(window.pop(0))

        def write_body():
            writes = 0
            for op in range(writer_ops):
                if op % 4 == 0:
                    additions, removals = MUTATION_WRITES[
                        writes % len(MUTATION_WRITES)
                    ]
                    harness.write(("w", op), writer, additions, removals)
                    writes += 1
                else:
                    text, once = next(writer_stream)
                    harness.read(("w", op), writer, text, once, window=None)

        return self._threads([read_body, write_body])


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        DivisionWarm,
        HotSemijoinShm,
        TriangleWcoj,
        AdhocTiny,
        ServeReadMemory,
        ServeRwShm,
    )
}
