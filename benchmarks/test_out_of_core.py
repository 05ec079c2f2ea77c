"""OUT-OF-CORE — the mmap backend under a partition budget.

The scenario the spill backend exists for: the columnar footprint of
the database is far larger than the partition budget allows in flight
at once, so no full-relation materialization strategy could respect
the budget — execution must stream budget-sized batches off the
memory-mapped spill file.  This suite pins that configuration and
writes ``BENCH_out_of_core.json`` at the repo root:

* the semijoin shoot-out runs on the mmap backend with a row budget a
  tiny fraction of the stored rows; the result must equal the
  in-memory dict backend's (the oracle), every batch must respect the
  budget, and the recorded section carries the spilled byte count next
  to the budget so the out-of-core ratio is auditable;
* the same workload forced across a worker pool checks the spill
  transport end to end: fragments cross as block descriptors into a
  spill file workers attach by path (``transport: "file"``);
* decode is per-read on this backend (no decoded-relation memo), so
  the measured wall-clock honestly includes the decode price — the
  section records mmap vs memory seconds, and no assertion pretends
  spilling is free.

``REPRO_BENCH_WORKERS`` sets the pool width (default 4), as in
``test_parallel_joins.py``.
"""

import os

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import Executor, ParallelRun, PlannerOptions, available_cpus

from benchmarks.conftest import results_writer, timed
from benchmarks.test_parallel_joins import force_parallel, parallel_nodes

WORKERS = max(2, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))

#: Rows allowed in flight at once — a small fraction of the stored
#: rows, so nothing resembling a full materialization fits.
BUDGET = 1500

RESULTS: dict = {
    "benchmark": "out-of-core-mmap",
    "workers": WORKERS,
    "cpu_count": available_cpus(),
    "budget_rows": BUDGET,
    "sections": {},
}

QUERY = "Person semijoin[2=2,1>1] Disease"


emit_results = results_writer("BENCH_out_of_core.json", RESULTS)


@pytest.fixture(scope="module")
def big_db():
    """The fig1 shape scaled until the columnar footprint dwarfs BUDGET."""
    groups = 16
    return Database(
        Schema({"Person": 2, "Disease": 2}),
        {
            "Person": {(i, i % groups) for i in range(12_000)},
            "Disease": {
                (10**6 + j, j % groups) for j in range(2_000)
            },
        },
    )


@pytest.fixture(scope="module")
def big_oracle(big_db):
    expr = parse(QUERY, big_db.schema)
    return evaluate(expr, big_db)


def test_out_of_core_semijoin_matches_memory_oracle(big_db, big_oracle):
    expr = parse(QUERY, big_db.schema)
    options = PlannerOptions(partition_budget=BUDGET)

    memory = Executor(big_db)
    memory_s, memory_result = timed(
        lambda: memory.execute(memory.plan(expr, options))
    )
    assert memory_result == big_oracle

    executor = Executor(big_db, backend="mmap")
    try:
        spilled = executor.backend.storage_bytes()
        stored_rows = sum(
            len(big_db[name]) for name in big_db.schema.names()
        )
        # The out-of-core premise itself: stored rows dwarf the budget.
        assert stored_rows > 5 * BUDGET
        mmap_s, mmap_result = timed(
            lambda: executor.execute(executor.plan(expr, options))
        )
        assert mmap_result == big_oracle
        runs = list(executor.stats.partition_runs.values())
        assert runs and all(r.within_budget() for r in runs)
        batches = sum(r.actual() for r in runs)
    finally:
        executor.close()

    RESULTS["sections"]["semijoin_within_budget"] = {
        "query": QUERY,
        "rows": {"Person": 12_000, "Disease": 2_000},
        "stored_rows": stored_rows,
        "spilled_bytes": spilled,
        "budget_rows": BUDGET,
        "batches": batches,
        "within_budget": True,
        "memory_seconds": round(memory_s, 6),
        "mmap_seconds": round(mmap_s, 6),
        "decode_overhead_ratio": round(
            mmap_s / memory_s if memory_s > 0 else float("inf"), 3
        ),
    }


def test_out_of_core_parallel_spill_transport(big_db, big_oracle):
    """Forced pool dispatch on the mmap backend: descriptors over a file."""
    expr = parse(QUERY, big_db.schema)
    executor = Executor(big_db, backend="mmap")
    try:
        serial_plan = executor.plan(
            expr, PlannerOptions(partition_budget=BUDGET)
        )
        forced = force_parallel(serial_plan, WORKERS)
        assert parallel_nodes(forced)
        seconds, result = timed(lambda: executor.execute(forced))
        assert result == big_oracle
        (run,) = [
            r
            for r in executor.stats.partition_runs.values()
            if isinstance(r, ParallelRun)
        ]
        assert run.transport == "file"
        assert run.pool_fallback is None
    finally:
        executor.close()

    RESULTS["sections"]["parallel_spill_transport"] = {
        "query": QUERY,
        "workers": WORKERS,
        "transport": run.transport,
        "batches": run.actual(),
        "distinct_worker_pids": len(run.worker_slices()),
        "seconds": round(seconds, 6),
    }


def test_no_spill_files_leak_after_close(big_db):
    import repro.storage.mmapio as mmapio_module
    import repro.storage.shm as shm_module

    executor = Executor(big_db, backend="mmap")
    assert mmapio_module.live_spill_paths()
    executor.close()
    assert not mmapio_module.live_spill_paths()
    assert not shm_module.live_segment_names()
