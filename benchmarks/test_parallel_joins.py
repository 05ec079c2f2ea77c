"""PARALLEL — the pool runner of batched execution, measured where the
gate fires.

The partition layer makes batches key-disjoint under a rows-in-flight
budget; this suite measures what running those batches across a
process pool (a ``PartitionedOp`` with ``workers > 1``) buys and
writes the first machine-readable trajectory (``BENCH_parallel.json``
at the repo root) for cross-version tracking:

* the fig1-style shoot-out in its quadratic regime — eight hot
  symptoms shared by thousands of patients, order atoms on two
  ``Disease`` columns that never hold, so the semijoin scans every
  candidate pair — is exactly where the cost model's pair bound
  certifies the dispatch; wall-clock at 1 vs N workers over the same
  batches is recorded, and on a machine with ≥ 4 cores the 4-way run
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
the ≥ 2× claim is made for; a ``fig1_speedup_memory`` section tracks
the pickled-transport trajectory alongside).  The speedup assertion is
guarded by ``available_cpus() >= 4`` — the CPUs this *process* may
use, not the machine total — so the suite stays honest on small or
affinity-restricted CI boxes while still failing a real regression on
multi-core runners.  Every emitted ``BENCH_parallel.json`` also
carries the measured IPC calibration (``tools/calibrate_ipc.py``)
next to the cost-model constants in use, so a trajectory point can be
audited against the machine it was taken on.
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

from benchmarks.conftest import best_of, results_writer

WORKERS = max(2, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))
BACKEND = os.environ.get("REPRO_BENCH_BACKEND", "shm")

RESULTS: dict = {
    "benchmark": "parallel-set-joins",
    "workers": WORKERS,
    "backend": BACKEND,
    #: CPUs this process may actually use (affinity-aware); the
    #: speedup assertion keys off this, not the machine total.
    "cpu_count": available_cpus(),
    "os_cpu_count": os.cpu_count(),
    "sections": {},
}


emit_results = results_writer("BENCH_parallel.json", RESULTS)


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
    RESULTS["sections"]["fig1_gate"] = {
        "query": HOT_QUERY,
        "budget": FIG1_BUDGET,
        "partitions": node.partitions,
        "note": node.note,
    }


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

    (run,) = runs
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = available_cpus()
    section = {
        "query": HOT_QUERY,
        "backend": backend,
        "transport": run.transport,
        "rows": {"Person": 2400, "Disease": 800},
        "budget": FIG1_BUDGET,
        "serial_seconds": round(serial_s, 6),
        "parallel_seconds": round(parallel_s, 6),
        "speedup": round(speedup, 3),
        "batches": run.actual(),
        "distinct_worker_pids": len(run.worker_slices()),
        "asserted": backend == BACKEND and cpus >= 4 and WORKERS >= 4,
    }
    if section["asserted"]:
        assert speedup >= 2.0, (
            f"expected >= 2x at {WORKERS} workers on {cpus} cpus "
            f"({backend} backend), got {speedup:.2f}x "
            f"({serial_s:.3f}s -> {parallel_s:.3f}s)"
        )
    return section


def test_fig1_parallel_vs_serial_wall_clock(shootout_db, shootout_oracle):
    """The headline number, on the ``REPRO_BENCH_BACKEND`` backend.

    With the default shm backend, batch fragments cross the process
    boundary as block descriptors into one shared segment — on a
    ≥ 4-core machine the 4-way run must beat serial by ≥ 2×.
    """
    RESULTS["sections"]["fig1_speedup"] = _fig1_speedup(
        shootout_db, shootout_oracle, BACKEND
    )


def test_fig1_memory_backend_trajectory(shootout_db, shootout_oracle):
    """The pickled-transport trajectory, tracked alongside the headline.

    Never asserted against the 2× bar: the whole point of the attached
    backends is that pickling row fragments costs more — this section
    is the evidence of how much.
    """
    if BACKEND == "memory":
        pytest.skip("headline section already measures memory")
    RESULTS["sections"]["fig1_speedup_memory"] = _fig1_speedup(
        shootout_db, shootout_oracle, "memory"
    )


def test_ipc_calibration_is_recorded():
    """Measure transport costs here and record them next to the constants.

    The committed constants must stay *at or above* the measured
    ratios (rounded up generously): overpricing transport only delays
    parallelism, underpricing would certify dispatches that lose.
    """
    from repro.engine.cost import (
        PARALLEL_ATTACHED_ROW_COST,
        PARALLEL_IPC_ROW_COST,
    )
    from tools.calibrate_ipc import measure

    fitted = measure(rows_n=10_000, repeats=3)
    RESULTS["ipc_calibration"] = {
        **fitted,
        "constants_in_use": {
            "PARALLEL_IPC_ROW_COST": PARALLEL_IPC_ROW_COST,
            "PARALLEL_ATTACHED_ROW_COST": PARALLEL_ATTACHED_ROW_COST,
        },
    }
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
    RESULTS["sections"].setdefault("prop26_gate", {})[str(n)] = {
        "parallelized": False,
        "reason": "linear division work, IPC-dominated",
    }


@pytest.mark.parametrize("n", [128, 256])
def test_prop26_forced_parallel_trajectory(n):
    """Force the dispatch the gate refuses and record what it costs.

    The forced run must still be *correct* (the kernels are shared with
    the serial path), just not profitable — the recorded ratio is the
    evidence the refusal is right, alongside the fig1 speedup showing
    the certification is right.
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

    executor.execute(forced)  # warm the worker pool
    # Fresh executors per run on both sides: no result memo, no stale
    # index reuse biasing either configuration.
    serial_s, serial_result = best_of(
        lambda: Executor(db).execute(serial_plan)
    )
    parallel_s, parallel_result = best_of(
        lambda: Executor(db).execute(forced)
    )
    assert {a for (a,) in serial_result} == oracle
    assert parallel_result == serial_result

    RESULTS["sections"].setdefault("prop26_forced", {})[str(n)] = {
        "serial_seconds": round(serial_s, 6),
        "forced_parallel_seconds": round(parallel_s, 6),
        "overhead_ratio": round(
            parallel_s / serial_s if serial_s > 0 else float("inf"), 3
        ),
    }
