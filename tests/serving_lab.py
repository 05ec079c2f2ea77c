"""Closed-loop serving scenarios, and the oracle audit every run ends in.

A :class:`ScenarioSpec` names a database recipe (resolved through
:data:`repro.workloads.serving.DATABASE_BUILDERS`) and a set of client
:class:`StreamSpec` streams, each a tenant issuing a cycle of queries
closed-loop (submit, wait, repeat), optionally interleaving serialized
writes.  :func:`run_scenario` runs one thread per stream against a
live :class:`~repro.serve.server.Server` and returns a
:class:`LabResult`; :func:`audit_oracle` then replays every completed
read against :meth:`~repro.serve.server.Server.database_at` for its
pinned generation with the structural evaluator, so snapshot isolation
is checked end to end, not assumed.

The named mixes in :data:`SCENARIOS`, each stressing one serving
property:

* ``mixed_read_heavy`` — division, semijoin and join/project reads,
  no writes;
* ``division_heavy`` — classic-division texts the planner collapses to
  the linear operator, priced by their quotient bounds;
* ``semijoin_only`` — guarded-fragment traffic, whose small certified
  bounds make admission invisible;
* ``cyclic`` — triangles on the Zipf-hub database, where the multiway
  path runs far under the binary bound admission prices;
* ``cache_hostile`` — every read structurally distinct, so the door
  cache never answers one;
* ``mutation_heavy`` — a writer tenant flip-flopping rows of ``R``
  under readers of ``R``: write serialization, snapshot pinning, and
  the door cache's two kept contents.

The throughput and latency a run reports are sanity figures:
perfbench's ``serve_*`` workloads are the timing instrument.  Used by
``tests/test_serve_lab.py`` and ``benchmarks/test_serving.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.algebra.evaluator import evaluate
from repro.errors import AdmissionError, SchemaError
from repro.serve.metrics import ServerMetrics
from repro.serve.server import Server, Ticket
from repro.workloads.serving import (
    DIVISION_QUERY,
    MIXED_QUERIES,
    MUTATION_WRITES,
    SEMIJOIN_QUERIES,
    TRIANGLE_QUERY,
    _cache_hostile_queries,
    build_database,
)


@dataclass(frozen=True)
class StreamSpec:
    """One closed-loop client stream: a tenant and its op cycle."""

    tenant: str
    #: Query texts, issued round-robin.
    queries: tuple[str, ...]
    #: Total operations this stream performs.
    count: int = 10
    #: Every Nth operation (1-based) is a write instead of a read;
    #: 0 disables writes.
    write_every: int = 0
    #: ``(additions, removals)`` deltas, cycled by successive writes;
    #: each is ``{relation: [row, ...]}``.
    writes: tuple[tuple[dict, dict], ...] = ()

    def __post_init__(self) -> None:
        if not self.queries:
            raise SchemaError(f"stream {self.tenant!r} has no queries")
        if self.write_every > 0 and not self.writes:
            raise SchemaError(
                f"stream {self.tenant!r} sets write_every but no writes"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A database recipe and the streams that run against it."""

    #: Key into :data:`repro.workloads.serving.DATABASE_BUILDERS`.
    database: str
    streams: tuple[StreamSpec, ...]

    def __post_init__(self) -> None:
        if not self.streams:
            raise SchemaError(f"a {self.database!r} scenario has no streams")


@dataclass
class LabResult:
    """What one scenario run did."""

    #: The (closed) server: :meth:`Server.database_at` still answers.
    server: Server
    #: The server's counters when the last stream finished.
    metrics: ServerMetrics
    #: Every completed read, for :func:`audit_oracle`.
    tickets: list[Ticket]
    rejected: int
    failed: int
    writes: int
    throughput: float
    latency_p50: float
    latency_p99: float

    @property
    def completed(self) -> int:
        return len(self.tickets)

    @property
    def rejection_rate(self) -> float:
        submitted = self.completed + self.rejected + self.failed
        return self.rejected / submitted if submitted else 0.0


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[index]


def _rows(delta: dict) -> dict:
    return {
        name: [tuple(row) for row in rows] for name, rows in delta.items()
    }


class _Stream:
    """One running client thread and what it observed."""

    def __init__(self, server: Server, spec: StreamSpec) -> None:
        self.spec = spec
        self.handle = server.connect(spec.tenant)
        self.tickets: list[Ticket] = []
        self.latencies: list[float] = []
        self.rejected = 0
        self.failed = 0
        self.writes = 0
        self.thread = threading.Thread(
            target=self._run, name=f"lab-{spec.tenant}", daemon=True
        )

    def _run(self) -> None:
        spec = self.spec
        for op in range(1, spec.count + 1):
            if spec.write_every and op % spec.write_every == 0:
                additions, removals = spec.writes[
                    self.writes % len(spec.writes)
                ]
                self.handle.write(
                    additions=_rows(additions), removals=_rows(removals)
                )
                self.writes += 1
                continue
            query = spec.queries[op % len(spec.queries)]
            started = time.perf_counter()
            try:
                ticket = self.handle.submit(query)
                ticket.result()
            except AdmissionError:
                self.rejected += 1
                continue
            except Exception:
                self.failed += 1
                continue
            self.latencies.append(time.perf_counter() - started)
            self.tickets.append(ticket)


def run_scenario(
    spec: ScenarioSpec,
    *,
    workers: int = 0,
    backend: str = "memory",
    budget: float | None = None,
    db=None,
) -> LabResult:
    """Run ``spec`` on a fresh server and fold what happened together.

    ``db`` replaces the spec's database recipe; ``budget=None`` means
    no admission gating, ``workers=0`` runs every read inline.
    """
    if db is None:
        db = build_database(spec.database)
    with Server(
        db, workers=workers, budget=budget, backend=backend
    ) as server:
        streams = [_Stream(server, s) for s in spec.streams]
        started = time.perf_counter()
        for stream in streams:
            stream.thread.start()
        for stream in streams:
            stream.thread.join()
        elapsed = time.perf_counter() - started
        metrics = server.metrics()
    tickets = [t for s in streams for t in s.tickets]
    latencies = sorted(latency for s in streams for latency in s.latencies)
    return LabResult(
        server=server,
        metrics=metrics,
        tickets=tickets,
        rejected=sum(s.rejected for s in streams),
        failed=sum(s.failed for s in streams),
        writes=sum(s.writes for s in streams),
        throughput=len(tickets) / elapsed if elapsed > 0 else 0.0,
        latency_p50=_percentile(latencies, 0.50),
        latency_p99=_percentile(latencies, 0.99),
    )


def audit_oracle(result: LabResult) -> int:
    """Assert every completed read equals its pinned generation's replay.

    The replay is the structural evaluator (no engine rewrites, no
    caches) over the write-log reconstruction, the strongest oracle
    the repo has.  Returns the number of reads checked.
    """
    databases: dict[int, object] = {}
    for ticket in result.tickets:
        generation = ticket.pinned_generation
        if generation not in databases:
            databases[generation] = result.server.database_at(generation)
        assert ticket.rows == evaluate(ticket.expr, databases[generation]), (
            f"read {ticket.text!r} diverged from generation {generation}"
        )
    return len(result.tickets)


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------


def _streams(queries, tenants: int, reads: int) -> tuple[StreamSpec, ...]:
    return tuple(
        StreamSpec(tenant=f"t{i}", queries=tuple(queries), count=reads)
        for i in range(tenants)
    )


def mixed_read_heavy(reads: int = 24, tenants: int = 4) -> ScenarioSpec:
    return ScenarioSpec("mixed", _streams(MIXED_QUERIES, tenants, reads))


def division_heavy(reads: int = 16, tenants: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        "division", _streams((DIVISION_QUERY,), tenants, reads)
    )


def semijoin_only(reads: int = 24, tenants: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        "division", _streams(SEMIJOIN_QUERIES, tenants, reads)
    )


def cyclic(reads: int = 12, tenants: int = 2) -> ScenarioSpec:
    return ScenarioSpec(
        "triangle", _streams((TRIANGLE_QUERY,), tenants, reads)
    )


def cache_hostile(reads: int = 24, tenants: int = 3) -> ScenarioSpec:
    # Disjoint query slices per tenant: the door cache is shared by all
    # tenants, so overlapping slices would hit (or ride) across them.
    pool = _cache_hostile_queries(reads * tenants)
    streams = tuple(
        StreamSpec(
            tenant=f"t{i}",
            queries=pool[i * reads : (i + 1) * reads],
            count=reads,
        )
        for i in range(tenants)
    )
    return ScenarioSpec("mixed", streams)


def mutation_heavy(reads: int = 20, tenants: int = 3) -> ScenarioSpec:
    writer = StreamSpec(
        tenant="writer",
        queries=SEMIJOIN_QUERIES,
        count=reads,
        write_every=2,
        writes=MUTATION_WRITES,
    )
    return ScenarioSpec(
        "mixed", (*_streams(MIXED_QUERIES, tenants - 1, reads), writer)
    )


SCENARIOS = {
    "mixed_read_heavy": mixed_read_heavy,
    "division_heavy": division_heavy,
    "semijoin_only": semijoin_only,
    "cyclic": cyclic,
    "cache_hostile": cache_hostile,
    "mutation_heavy": mutation_heavy,
}
