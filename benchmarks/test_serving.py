"""SERVING — concurrent multi-tenant throughput, audited end to end.

The serving tentpole's claim is that multiplexing clients over one
shared engine *pays*: a process-pool server clears a mixed read-heavy
workload at a multiple of serialized single-session throughput, while
admission control keeps every in-flight read inside a certified row
budget and snapshot pinning keeps every answer exact.  This suite
checks all three:

* **mixed read-heavy scaling** — four tenants issuing structurally
  distinct reads (no result-cache escape hatch) against a pool server
  vs. the identical sequence on one serial session.  The acceptance
  bar, asserted when the host has ≥ 4 usable CPUs and the pool at
  least 4 workers: **≥ 2× throughput**.  Unconditionally asserted, on
  every host: every admitted read's rows equal the serial oracle
  replay at its pinned snapshot, every read's actual operator rows
  stay at or under its certified admission bound, and the budget
  ledger's peak never exceeds the configured budget.
* **admission pressure** — the same traffic against budgets sized
  from a real priced bound: a workable budget queues without
  rejecting; a budget below the cheapest bound rejects everything,
  typed, with the server still standing.
* **scenario sweep** — every named scenario of ``tests/serving_lab.py``
  (division-heavy, guarded-fragment, cyclic/WCOJ, cache-hostile,
  mutation-heavy) run small through a real pool and oracle-audited.

Environment: ``REPRO_BENCH_WORKERS`` caps the pool (CI sets 2),
``REPRO_BENCH_BACKEND`` picks the shared storage backend the snapshot
descriptors export from (memory/shm).
"""

import math
import os
import time

import pytest

from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine.parallel import available_cpus
from repro.serve import Server, price_plan
from repro.session import Session
from repro.workloads.serving import (
    DIVISION_QUERY,
    _cache_hostile_queries,
    build_database,
)
from tests.serving_lab import (
    SCENARIOS,
    ScenarioSpec,
    StreamSpec,
    audit_oracle,
    run_scenario,
)


WORKERS = max(2, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))
BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "memory")

#: Tenants × reads for the scaling section; kept at or under the
#: distinct-shape pool so no read is ever a repeat.
TENANTS = 4
READS_PER_TENANT = 20

def _scaling_queries() -> list[tuple[str, str]]:
    """``(tenant, query)`` pairs: disjoint distinct shapes per tenant."""
    pool = _cache_hostile_queries(TENANTS * READS_PER_TENANT)
    return [
        (f"t{i}", query)
        for i in range(TENANTS)
        for query in pool[i * READS_PER_TENANT : (i + 1) * READS_PER_TENANT]
    ]


def test_mixed_read_heavy_scaling():
    # Large enough that per-read compute dominates snapshot-dispatch
    # IPC; the budget is generous so admission never throttles here
    # (pressure has its own section below).
    db = build_database("mixed", num_keys=150, extra_rows=4000)
    workload = _scaling_queries()
    budget = 500_000_000.0

    # Serialized single-session baseline: the same reads, one at a
    # time, on one engine with its caches warm across the sequence.
    baseline_db = Database(db.schema, db.relations())
    with Session(baseline_db, backend=BACKEND) as session:
        started = time.perf_counter()
        baseline_rows = [
            session.run(query) for __, query in workload
        ]
        baseline_elapsed = time.perf_counter() - started

    # The concurrent server: one thread per tenant, pool execution.
    import threading

    with Server(
        db, workers=WORKERS, budget=budget, backend=BACKEND
    ) as server:
        handles = {
            f"t{i}": server.connect(f"t{i}") for i in range(TENANTS)
        }
        # Warm the pool outside the timed window: spawn-context worker
        # startup and the first snapshot attach are one-time costs, not
        # steady-state serving throughput.
        warmup = [
            handles[f"t{i}"].submit("project[1](T)")
            for i in range(TENANTS)
        ]
        for ticket in warmup:
            ticket.result(600)
        by_tenant: dict[str, list[str]] = {}
        for tenant, query in workload:
            by_tenant.setdefault(tenant, []).append(query)
        tickets = []
        sink = tickets.append

        def client(tenant):
            for query in by_tenant[tenant]:
                sink(handles[tenant].submit(query))

        threads = [
            threading.Thread(target=client, args=(t,)) for t in by_tenant
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rows_by_ticket = [ticket.result(600) for ticket in tickets]
        server_elapsed = time.perf_counter() - started
        metrics = server.metrics()

        # --- exactness + soundness, asserted on every host -----------
        oracle_cache: dict[int, object] = {}
        for ticket, rows in zip(tickets, rows_by_ticket):
            generation = ticket.pinned_generation
            if generation not in oracle_cache:
                oracle_cache[generation] = server.database_at(generation)
            assert rows == evaluate(
                ticket.expr, oracle_cache[generation]
            ), f"read {ticket.text!r} diverged from its pinned snapshot"
            assert math.isfinite(ticket.bound)
            assert ticket.actual_rows <= ticket.bound, (
                f"read {ticket.text!r} produced {ticket.actual_rows} "
                f"rows against a certified bound of {ticket.bound}"
            )
        assert metrics.in_flight_peak <= budget
        assert metrics.in_flight_rows == 0.0

    # Baseline computed the same multiset of results.
    assert sorted(map(len, baseline_rows)) == sorted(
        map(len, rows_by_ticket)
    )

    reads = len(workload)
    baseline_throughput = reads / baseline_elapsed
    server_throughput = reads / server_elapsed
    speedup = server_throughput / baseline_throughput
    if available_cpus() >= 4 and WORKERS >= 4:
        assert speedup >= 2.0, (
            f"server at {server_throughput:.1f} reads/s vs serialized "
            f"{baseline_throughput:.1f} reads/s — only {speedup:.2f}x"
        )


def test_admission_pressure_queues_then_rejects():
    db = build_database("division", num_keys=150)
    # Price the division read against this exact database so the
    # budgets below are meaningful multiples of a real certified bound.
    with Session(db) as session:
        prepared = session.query(DIVISION_QUERY)
        bound = price_plan(session.executor, prepared.plan()).bound

    spec = ScenarioSpec(
        database="division",
        streams=tuple(
            StreamSpec(
                tenant=f"t{i}", queries=(DIVISION_QUERY,), count=6
            )
            for i in range(3)
        ),
    )
    # 1.5× one bound: one read runs, concurrent ones queue, nothing
    # is rejected — and the peak stays under the budget.
    queueing = run_scenario(
        spec, db=Database(db.schema, db.relations()), budget=bound * 1.5
    )
    assert queueing.rejected == 0
    assert audit_oracle(queueing) == queueing.completed == 18
    assert queueing.metrics.in_flight_peak <= bound * 1.5
    # Below one bound: every read is provably unservable, typed reject.
    rejecting = run_scenario(
        spec,
        db=Database(db.schema, db.relations()),
        budget=max(1.0, bound * 0.5),
    )
    assert rejecting.completed == 0
    assert rejecting.rejection_rate == 1.0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_sweep_oracle_audited(name):
    result = run_scenario(
        SCENARIOS[name](reads=6),
        workers=min(WORKERS, 2),
        backend=BACKEND,
    )
    assert result.failed == 0
    assert audit_oracle(result) == result.completed > 0
