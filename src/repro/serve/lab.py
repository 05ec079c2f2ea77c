"""The workload lab: declarative mixed traffic against a live server.

A scenario is data, not code: a :class:`ScenarioSpec` names a database
recipe (resolved through :data:`repro.workloads.serving.
DATABASE_BUILDERS`), a server shape (workers, budget, backend), and a
set of client :class:`StreamSpec` streams — each a tenant issuing a
cycle of queries closed-loop (submit, wait, think, repeat), optionally
interleaving serialized writes.  :func:`run_scenario` spins up the
server, runs one thread per stream, and folds what happened into a
:class:`LabResult`: throughput, p50/p99 latency, rejection rate,
and (when asked) a full **oracle audit** — every admitted
read's rows replayed against :meth:`~repro.serve.server.Server.
database_at` for its pinned generation with the structural evaluator,
so snapshot isolation is checked end-to-end, not assumed.

Specs are JSON-loadable (:func:`load_spec`), so ``repro serve
--spec workload.json`` runs a hand-written scenario, and the named
scenarios behind ``repro serve --scenario`` live as plain data in
:mod:`repro.workloads.serving`.  ``benchmarks/test_serving.py`` runs
the same machinery and emits ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.errors import AdmissionError, SchemaError
from repro.serve.server import Server, Ticket

__all__ = [
    "LabResult",
    "ScenarioSpec",
    "StreamSpec",
    "load_spec",
    "run_scenario",
]


@dataclass(frozen=True)
class StreamSpec:
    """One closed-loop client stream: a tenant and its op cycle."""

    tenant: str
    #: Query texts, issued round-robin.
    queries: tuple[str, ...]
    #: Total operations this stream performs.
    count: int = 10
    #: Fair-share weight for this tenant's queue position.
    weight: float = 1.0
    #: Every Nth operation (1-based) is a write instead of a read;
    #: 0 disables writes.
    write_every: int = 0
    #: ``(additions, removals)`` deltas, cycled by successive writes;
    #: each is ``{relation: [row, ...]}``.
    writes: tuple[tuple[dict, dict], ...] = ()
    #: Sleep between operations (closed-loop think time).
    think_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.queries:
            raise SchemaError(
                f"stream {self.tenant!r} has no queries"
            )
        if self.write_every > 0 and not self.writes:
            raise SchemaError(
                f"stream {self.tenant!r} sets write_every but no writes"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One full lab scenario: a database, a server shape, streams."""

    name: str
    #: Key into :data:`repro.workloads.serving.DATABASE_BUILDERS`.
    database: str
    streams: tuple[StreamSpec, ...]
    db_args: dict = field(default_factory=dict)
    #: Server shape (None workers = available_cpus; None budget = no
    #: admission gating).
    workers: int | None = None
    budget: float | None = None
    backend: str = "memory"
    #: Replay every admitted read against the serial oracle at its
    #: pinned generation (exact but slow — tests and smoke runs).
    oracle: bool = False

    def __post_init__(self) -> None:
        if not self.streams:
            raise SchemaError(f"scenario {self.name!r} has no streams")


@dataclass
class LabResult:
    """What one scenario run did, JSON-ready via :meth:`as_dict`."""

    scenario: str
    workers: int
    backend: str
    budget: float | None
    elapsed_seconds: float
    ops: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    writes: int = 0
    rows_returned: int = 0
    throughput: float = 0.0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    rejection_rate: float = 0.0
    queue_seconds_total: float = 0.0
    in_flight_peak: float = 0.0
    #: ``actual/bound`` across completed reads (None without bounds).
    utilization: float | None = None
    oracle_checked: int = 0
    oracle_mismatches: int = 0
    #: The server's rendered metrics table at scenario end (the
    #: ``repro serve --stats`` payload — the server itself is closed
    #: by the time a caller sees this result).
    metrics_text: str = ""

    def as_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        lines = [
            f"scenario {self.scenario}: {self.ops} op(s) in "
            f"{self.elapsed_seconds:.3f}s over {self.workers} worker(s) "
            f"({self.backend}, budget="
            f"{'none' if self.budget is None else format(self.budget, 'g')})",
            f"  throughput : {self.throughput:.1f} reads/s "
            f"({self.completed} completed, {self.writes} write(s))",
            f"  latency    : p50 {self.latency_p50 * 1000:.1f}ms, "
            f"p99 {self.latency_p99 * 1000:.1f}ms",
            f"  admission  : {self.rejected} rejected "
            f"({self.rejection_rate:.1%}), peak "
            f"{self.in_flight_peak:g} bound row(s) in flight",
        ]
        if self.utilization is not None:
            lines.append(f"  utilization: {self.utilization:.3f}")
        if self.oracle_checked:
            lines.append(
                f"  oracle     : {self.oracle_checked} read(s) replayed, "
                f"{self.oracle_mismatches} mismatch(es)"
            )
        if self.failed:
            lines.append(f"  failed     : {self.failed} read(s)")
        return "\n".join(lines)


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
        self.handle = server.connect(spec.tenant, weight=spec.weight)
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
        write_index = 0
        for op in range(1, spec.count + 1):
            if spec.write_every and op % spec.write_every == 0:
                additions, removals = spec.writes[
                    write_index % len(spec.writes)
                ]
                write_index += 1
                self.handle.write(
                    additions=_rows(additions), removals=_rows(removals)
                )
                self.writes += 1
            else:
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
            if spec.think_seconds:
                time.sleep(spec.think_seconds)


def _audit_oracle(server: Server, tickets: list[Ticket]) -> tuple[int, int]:
    """Replay every completed read at its pinned generation; serially.

    Uses the structural evaluator (no engine rewrites, no caches) on
    the write-log reconstruction — the strongest oracle the repo has.
    """
    from repro.algebra.evaluator import evaluate

    databases: dict[int, object] = {}
    checked = mismatched = 0
    for ticket in tickets:
        generation = ticket.pinned_generation
        oracle_db = databases.get(generation)
        if oracle_db is None:
            oracle_db = server.database_at(generation)
            databases[generation] = oracle_db
        expected = evaluate(ticket.expr, oracle_db)
        checked += 1
        if ticket.rows != expected:
            mismatched += 1
    return checked, mismatched


def run_scenario(
    spec: ScenarioSpec,
    db=None,
    workers: int | None = None,
    backend: str | None = None,
    budget: float | None = None,
) -> LabResult:
    """Run one scenario and fold the outcome into a :class:`LabResult`.

    ``db``/``workers``/``backend``/``budget`` override the spec (the
    CLI's knobs); the spec's database recipe is only consulted when no
    ``db`` is passed.
    """
    if db is None:
        from repro.workloads.serving import build_database

        db = build_database(spec.database, **spec.db_args)
    workers = spec.workers if workers is None else workers
    backend = spec.backend if backend is None else backend
    budget = spec.budget if budget is None else budget
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
        totals = metrics.totals()
        result = LabResult(
            scenario=spec.name,
            workers=server.workers,
            backend=metrics.backend,
            budget=budget,
            elapsed_seconds=elapsed,
        )
        latencies = sorted(
            latency for s in streams for latency in s.latencies
        )
        tickets = [t for s in streams for t in s.tickets]
        result.ops = sum(s.spec.count for s in streams)
        result.completed = len(tickets)
        result.rejected = sum(s.rejected for s in streams)
        result.failed = sum(s.failed for s in streams)
        result.writes = sum(s.writes for s in streams)
        result.rows_returned = totals.rows_returned
        result.throughput = (
            result.completed / elapsed if elapsed > 0 else 0.0
        )
        result.latency_p50 = _percentile(latencies, 0.50)
        result.latency_p99 = _percentile(latencies, 0.99)
        submitted = result.completed + result.rejected + result.failed
        result.rejection_rate = (
            result.rejected / submitted if submitted else 0.0
        )
        result.queue_seconds_total = totals.queue_seconds
        result.in_flight_peak = metrics.in_flight_peak
        result.utilization = totals.utilization()
        result.metrics_text = metrics.render()
        if spec.oracle:
            result.oracle_checked, result.oracle_mismatches = (
                _audit_oracle(server, tickets)
            )
        return result


def _stream_from_dict(raw: dict) -> StreamSpec:
    writes = tuple(
        (dict(additions), dict(removals))
        for additions, removals in raw.get("writes", ())
    )
    return StreamSpec(
        tenant=raw["tenant"],
        queries=tuple(raw["queries"]),
        count=int(raw.get("count", 10)),
        weight=float(raw.get("weight", 1.0)),
        write_every=int(raw.get("write_every", 0)),
        writes=writes,
        think_seconds=float(raw.get("think_seconds", 0.0)),
    )


def load_spec(source) -> ScenarioSpec:
    """A :class:`ScenarioSpec` from a JSON file path or a parsed dict."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    else:
        raw = dict(source)
    try:
        streams = tuple(
            _stream_from_dict(s) for s in raw["streams"]
        )
        return ScenarioSpec(
            name=raw["name"],
            database=raw["database"],
            streams=streams,
            db_args=dict(raw.get("db_args", {})),
            workers=raw.get("workers"),
            budget=raw.get("budget"),
            backend=raw.get("backend", "memory"),
            oracle=bool(raw.get("oracle", False)),
        )
    except KeyError as missing:
        raise SchemaError(
            f"workload spec is missing required key {missing}"
        ) from None
