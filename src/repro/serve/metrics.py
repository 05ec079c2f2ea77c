"""Observability for the serving layer: per-tenant counters.

Every submitted read **ends** in exactly one of ``rejected``,
``failed`` or ``completed`` — ``submitted == rejected + failed +
completed`` once the server is idle, whatever happened on the way
(planning raised, admission refused, the pinned image vanished, the
server closed under a queued read).  How it got there is counted
beside that: ``cache_hits`` (answered at the door from the server's
result cache), ``coalesced`` (rode on an identical read already in
flight), or ``admitted`` (priced, debited, executed — ``queued`` of
those waited for budget first).  So rejection rates, queue latency,
cache behaviour and bound-vs-actual utilization are readable *after
the fact* without instrumenting clients.  The registry itself does no
locking: the :class:`~repro.serve.server.Server` mutates it only under
its scheduler lock, and :meth:`MetricsRegistry.snapshot` (what
``Server.metrics()`` returns) deep-copies under the same lock, so a
snapshot is internally consistent — counters taken together describe
one moment, not a smear.

``bound_rows`` accumulates each *executed* read's certified upper bound
and ``actual_rows`` the rows its operators really produced, so
``actual/bound`` (:meth:`TenantMetrics.utilization`) measures how
pessimistic admission pricing was for this tenant's workload — the
figure ``BENCH_serving.json`` tracks across PRs.  Door hits and riders
reserve nothing and execute nothing, so they add to neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["MetricsRegistry", "ServerMetrics", "TenantMetrics"]


@dataclass
class TenantMetrics:
    """One tenant's lifetime counters (see module docstring)."""

    tenant: str
    weight: float = 1.0
    #: Reads the server accepted a submit for (refused and failed ones
    #: included; a text that does not parse never gets this far).
    submitted: int = 0
    #: Reads admitted (immediately or after queueing) — the ones that
    #: were priced, debited and executed.
    admitted: int = 0
    #: Reads that waited in the fair queue before dispatch.
    queued: int = 0
    #: Reads refused with :class:`~repro.errors.AdmissionError`.
    rejected: int = 0
    #: Always 0 and written by nothing: a read executes on the snapshot
    #: it was pinned to or fails.  Kept only because its sole reader,
    #: ``perfbench/measure.py::_per_layer``, is frozen benchmark code;
    #: ROADMAP item 4 drops both in the next ``benchmark`` PR.
    retried: int = 0
    #: Reads that finished with rows.
    completed: int = 0
    #: Reads that finished with an error (admission refusals excluded;
    #: a plan that could not be built and a read orphaned by
    #: ``close()`` included).
    failed: int = 0
    #: Serialized writes applied for this tenant.
    writes: int = 0
    #: Total/worst seconds spent waiting in the admission queue.
    queue_seconds: float = 0.0
    queue_seconds_max: float = 0.0
    #: Total seconds between dispatch and completion.
    run_seconds: float = 0.0
    #: Rows returned to the tenant across completed reads.
    rows_returned: int = 0
    #: Σ certified upper bounds of executed reads (debited rows).
    bound_rows: float = 0.0
    #: Σ rows actually produced by executed operators of those reads.
    actual_rows: int = 0
    #: Reads answered inside ``submit`` from the server's front-door
    #: result cache: no plan, no price, no debit, no dispatch.
    cache_hits: int = 0
    #: Reads that rode on an identical read already queued or
    #: executing and were finished with its rows (or its error).
    coalesced: int = 0

    def utilization(self) -> float | None:
        """``actual/bound`` over executed reads (None before any)."""
        if self.bound_rows <= 0.0:
            return None
        return self.actual_rows / self.bound_rows

    def render(self) -> str:
        util = self.utilization()
        util_text = "-" if util is None else f"{util:.3f}"
        return (
            f"{self.tenant:<12} w={self.weight:<4g} "
            f"sub={self.submitted:<5} adm={self.admitted:<5} "
            f"q={self.queued:<4} rej={self.rejected:<4} "
            f"done={self.completed:<5} fail={self.failed:<3} "
            f"wr={self.writes:<4} qwait={self.queue_seconds:.3f}s "
            f"(max {self.queue_seconds_max:.3f}s) "
            f"util={util_text} hits={self.cache_hits} "
            f"coal={self.coalesced}"
        )


@dataclass(frozen=True)
class ServerMetrics:
    """A consistent point-in-time snapshot of one server's counters."""

    tenants: dict[str, TenantMetrics]
    #: Certified rows currently debited against the budget.
    in_flight_rows: float
    #: High-water mark of the debited total (must stay ≤ budget).
    in_flight_peak: float
    #: The admission budget (None = unlimited).
    budget: float | None
    #: Reads currently waiting in the fair queue.
    queue_depth: int
    #: Content generation (writes applied since the server opened).
    generation: int
    workers: int
    backend: str
    #: The front-door result cache at that moment (lookups by every
    #: tenant together; riders count as misses — the rows were not
    #: there yet).  ``cache_line`` is its ``ResultCache.stats_line()``.
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_entries: int
    cache_bytes: int
    cache_line: str

    def totals(self) -> TenantMetrics:
        """All tenants folded into one row (weight is meaningless)."""
        total = TenantMetrics(tenant="TOTAL", weight=0.0)
        for m in self.tenants.values():
            total.submitted += m.submitted
            total.admitted += m.admitted
            total.queued += m.queued
            total.rejected += m.rejected
            total.completed += m.completed
            total.failed += m.failed
            total.writes += m.writes
            total.queue_seconds += m.queue_seconds
            total.queue_seconds_max = max(
                total.queue_seconds_max, m.queue_seconds_max
            )
            total.run_seconds += m.run_seconds
            total.rows_returned += m.rows_returned
            total.bound_rows += m.bound_rows
            total.actual_rows += m.actual_rows
            total.cache_hits += m.cache_hits
            total.coalesced += m.coalesced
        return total

    def render(self) -> str:
        budget = "unlimited" if self.budget is None else f"{self.budget:g}"
        lines = [
            f"serving: {self.workers} worker(s), backend={self.backend}, "
            f"budget={budget} rows, generation={self.generation}",
            f"in flight        : {self.in_flight_rows:g} row(s) bound "
            f"(peak {self.in_flight_peak:g}), queue depth "
            f"{self.queue_depth}",
            f"door {self.cache_line}",
        ]
        for name in sorted(self.tenants):
            lines.append(self.tenants[name].render())
        if len(self.tenants) > 1:
            lines.append(self.totals().render())
        return "\n".join(lines)


class MetricsRegistry:
    """The live, mutable counters behind :meth:`Server.metrics`.

    Mutated only under the server's scheduler lock (see module
    docstring); unknown tenants materialize on first touch so ad-hoc
    handles need no registration step.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, TenantMetrics] = {}

    def tenant(self, name: str, weight: float | None = None) -> TenantMetrics:
        metrics = self._tenants.get(name)
        if metrics is None:
            metrics = TenantMetrics(tenant=name)
            self._tenants[name] = metrics
        if weight is not None:
            metrics.weight = weight
        return metrics

    def snapshot(
        self,
        in_flight_rows: float,
        in_flight_peak: float,
        budget: float | None,
        queue_depth: int,
        generation: int,
        workers: int,
        backend: str,
        cache,
    ) -> ServerMetrics:
        return ServerMetrics(
            tenants={
                name: replace(m) for name, m in self._tenants.items()
            },
            in_flight_rows=in_flight_rows,
            in_flight_peak=in_flight_peak,
            budget=budget,
            queue_depth=queue_depth,
            generation=generation,
            workers=workers,
            backend=backend,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_entries=len(cache),
            cache_bytes=cache.total_bytes,
            cache_line=cache.stats_line(),
        )
