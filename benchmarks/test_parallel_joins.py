"""PARALLEL — the pool runner of batched execution, measured where the
gate fires.

The partition layer makes batches key-disjoint under a rows-in-flight
budget; this suite measures what running those batches across a
process pool (a ``PartitionedOp`` with ``workers > 1``) buys:

* the fig1-style shoot-out in its quadratic regime — eight hot
  symptoms shared by thousands of patients, order atoms on two
  ``Disease`` columns that never hold, so the semijoin scans every
  candidate pair — is exactly where the cost model's pair bound
  certifies the dispatch; wall-clock at 1 vs N workers over the same
  batches is compared, and on a machine with ≥ 4 cores the 4-way run
  must beat serial by ≥ 2×.
  Order atoms on *one* right column would not do: the semijoin kernel
  decides those against one summary per group, in linear time
  (``repro.engine.kernels.witness``);
* the Proposition 26 division family is the opposite regime: the
  engine's direct division is *linear*, so shipping rows to workers
  costs more IPC than the divided work saves — the gate must refuse,
  and the forced-parallel trajectory quantifies how right it is;
* every measured configuration is checked against the brute-force
  oracle (structural ``evaluate`` or ``divide_reference``).

Worker count comes from ``REPRO_BENCH_WORKERS`` (default 4) and the
storage backend for the headline speedup from ``REPRO_BENCH_BACKEND``
(default ``shm`` — the zero-copy attach transport is the configuration
the ≥ 2× claim is made for; the memory backend's pickled transport
runs alongside).  The speedup assertion is guarded by
``available_cpus() >= 4`` — the CPUs this *process* may use, not the
machine total — so the suite stays honest on small or
affinity-restricted CI boxes while still failing a real regression on
multi-core runners.
"""

import os
from dataclasses import replace

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import (
    Executor,
    ParallelRun,
    PartitionedOp,
    PlannerOptions,
    available_cpus,
)
from repro.engine.plan import rewrite_plan
from repro.setjoins.division import classic_division_expr, divide_reference
from repro.workloads.generators import crossproduct_division_family

from benchmarks.conftest import best_of

WORKERS = max(2, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))
BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "shm")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

HOT_QUERY = "Person semijoin[2=2,1>1,1>3] Disease"

#: Rows in flight per batch: two of the eight symptom groups (each
#: priced 300 + 100 + 300), so four batches.
FIG1_BUDGET = 1400


def hot_symptom_db(
    groups: int = 8, persons: int = 2400, diseases: int = 800
) -> Database:
    """The fig1 shoot-out in its quadratic regime.

    Eight hot symptoms (within the MCV sketch size, so the pair bound
    is exact) shared by every patient and disease.  Disease keys and
    onsets (columns 1 and 3) are offset above every person key, so the
    ``1>1,1>3`` rest never holds.  It reads two right columns, so no
    per-group summary decides it, and the semijoin scans all
    ``persons·diseases/groups`` candidate pairs for a small output.
    """
    return Database(
        Schema({"Person": 2, "Disease": 3}),
        {
            "Person": {(i, i % groups) for i in range(persons)},
            "Disease": {
                (10**6 + j, j % groups, 2 * 10**6 + j)
                for j in range(diseases)
            },
        },
    )


@pytest.fixture(scope="module")
def shootout_db():
    return hot_symptom_db()


@pytest.fixture(scope="module")
def shootout_oracle(shootout_db):
    expr = parse(HOT_QUERY, shootout_db.schema)
    return evaluate(expr, shootout_db)


def force_parallel(plan, workers):
    """Run every batched operator on ``workers``, bypassing the gate."""

    def step(node, descend):
        node = descend(node)
        if isinstance(node, PartitionedOp):
            return replace(node, workers=workers)
        return node

    return rewrite_plan(plan, step)


def parallel_nodes(plan):
    return [
        n
        for n in plan.nodes()
        if isinstance(n, PartitionedOp) and n.workers > 1
    ]


# ----------------------------------------------------------------------
# fig1 shoot-out: the regime the gate certifies
# ----------------------------------------------------------------------


def test_fig1_gate_certifies_the_quadratic_regime(shootout_db):
    """The dispatch is cost-based: certified here, byte-identical serial."""
    expr = parse(HOT_QUERY, shootout_db.schema)
    executor = Executor(shootout_db)
    options = PlannerOptions(
        partition_budget=FIG1_BUDGET, max_workers=WORKERS
    )
    plan = executor.plan(expr, options)
    (node,) = parallel_nodes(plan)
    assert node.workers == WORKERS
    assert "beats serial" in node.note
    serial = executor.plan(expr, replace(options, max_workers=1))
    # The option alone changes nothing but the node's workers.
    assert serial == executor.plan(
        expr, PlannerOptions(partition_budget=FIG1_BUDGET)
    )
    assert replace(node, workers=1, note=serial.note) == serial


def _fig1_speedup(shootout_db, shootout_oracle, backend):
    """1 vs N workers over the same batches, on one backend."""
    expr = parse(HOT_QUERY, shootout_db.schema)

    def run_with(workers):
        executor = Executor(shootout_db, backend=backend)
        try:
            plan = executor.plan(
                expr,
                PlannerOptions(
                    partition_budget=FIG1_BUDGET, max_workers=workers
                ),
            )
            result = executor.execute(plan)
            runs = [
                r
                for r in executor.stats.partition_runs.values()
                if isinstance(r, ParallelRun)
            ]
        finally:
            executor.close()
        return result, runs

    # Warm the statistics catalog and worker pool outside the timings.
    warm_result, __ = run_with(WORKERS)
    assert warm_result == shootout_oracle

    serial_s, (serial_result, _) = best_of(lambda: run_with(1))
    parallel_s, (parallel_result, runs) = best_of(
        lambda: run_with(WORKERS)
    )
    assert serial_result == parallel_result == shootout_oracle

    (__,) = runs  # one pooled operator
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = available_cpus()
    if backend == BACKEND and cpus >= 4 and WORKERS >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x at {WORKERS} workers on {cpus} cpus "
            f"({backend} backend), got {speedup:.2f}x "
            f"({serial_s:.3f}s -> {parallel_s:.3f}s)"
        )


def test_fig1_parallel_vs_serial_wall_clock(shootout_db, shootout_oracle):
    """The headline number, on the ``REPRO_BENCH_BACKEND`` backend.

    With the default shm backend, batch fragments cross the process
    boundary as block descriptors into one shared segment — on a
    ≥ 4-core machine the 4-way run must beat serial by ≥ 2×.
    """
    _fig1_speedup(shootout_db, shootout_oracle, BACKEND)


def test_fig1_memory_backend_trajectory(shootout_db, shootout_oracle):
    """The pickled transport, run alongside the headline.

    Never asserted against the 2× bar: the whole point of the attached
    backend is that pickling row fragments costs more.
    """
    if BACKEND == "memory":
        pytest.skip("headline section already measures memory")
    _fig1_speedup(shootout_db, shootout_oracle, "memory")


def test_ipc_calibration_measures_a_transport_cost():
    """Measure transport costs here (``tools/calibrate_ipc.py``)."""
    from tools.calibrate_ipc import measure

    fitted = measure(rows_n=10_000, repeats=3)
    # Loose sanity bound, not a timing assertion: pickled transport
    # must genuinely cost more than a plain row touch, else the whole
    # surcharge model is measuring noise.
    assert fitted["fitted_ipc_row_cost"] > 0


# ----------------------------------------------------------------------
# Prop. 26 family: the regime the gate must refuse
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [128, 256])
def test_prop26_gate_refuses_ipc_dominated_division(n):
    """Direct division is linear — scatter + IPC can never be paid back.

    A gate that shipped these rows anyway would *slow the query down*;
    refusing is the correct outcome and is pinned here at growing n.
    """
    db = crossproduct_division_family(n)
    executor = Executor(db)
    plan = executor.plan(
        classic_division_expr(),
        PlannerOptions(partition_budget=n // 2 + 40, max_workers=WORKERS),
    )
    assert any(isinstance(node, PartitionedOp) for node in plan.nodes())
    assert not parallel_nodes(plan)


@pytest.mark.parametrize("n", [128, 256])
def test_prop26_forced_parallel_trajectory(n):
    """Force the dispatch the gate refuses: the forced run must still be
    *correct* (the kernels are shared with the serial path), just not
    profitable.
    """
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    oracle = divide_reference(db["R"], db["S"])

    executor = Executor(db)
    budget = n // 2 + 40
    serial_plan = executor.plan(
        expr, PlannerOptions(partition_budget=budget)
    )
    forced = force_parallel(serial_plan, WORKERS)
    assert parallel_nodes(forced)

    # Fresh executors on both sides: no result memo, no index reuse
    # shared between the configurations.
    serial_result = Executor(db).execute(serial_plan)
    parallel_result = Executor(db).execute(forced)
    assert {a for (a,) in serial_result} == oracle
    assert parallel_result == serial_result
