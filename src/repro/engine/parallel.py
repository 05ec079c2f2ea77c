"""Shard-per-worker parallel execution of key-disjoint batches.

The batched-execution pipeline of :mod:`repro.engine.partition`
(scatter → pack → run → record) cuts the big operators into
key-disjoint batches whose union is exactly the one-shot result.  This
module is the raw-speed lever that design was built for: the same
scatter, packing, kernels and records, with the batches dispatched
across a :class:`concurrent.futures.ProcessPoolExecutor` instead of
run by the serial loop.

Three properties the implementation is organized around:

* **Parallel ≡ serial by construction.**  Under a budget the batches
  are exactly the serial ones; without one they are sized to balance
  *work* (not memory) across ``workers × OVERSUBSCRIPTION`` batches so
  one hot key cannot serialize the run.  How fragments *reach* the
  kernels depends on the executor's storage backend
  (:func:`_run_on_pool`): pickled through the pool on the memory
  backend; on an attached backend (shm/mmap) written once into a
  shared columnar shipment, the tasks carrying only block descriptors
  (:mod:`repro.storage.ship`) — which is what makes the dispatch pay
  off on multi-core machines.
* **Certified dispatch only.**  The planner post-pass
  (:func:`apply_parallelism`) shards an operator only when
  :func:`~repro.engine.cost.parallel_cost_split` certifies, from sound
  bounds, that scatter + IPC + divided work beats the serial cost —
  zero-stats plans never parallelize, mirroring the partition gate.
* **Staleness over wrong answers.**  The database version token is
  checked before anything is submitted and again as each worker's
  result is gathered (:func:`_gather_pool`): a mutation mid-query
  raises :class:`~repro.errors.StaleDataError` instead of mixing two
  content versions into one result — the contract serial batches
  honour, now covering the window while work is out at the pool.

Worker pools are cached per worker count and shut down at interpreter
exit.  Every way the pool can be bypassed (:func:`run_parallel`) ends
in the serial loop over the same batches, with the reason on the
:class:`ParallelRun`.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from repro.data.database import Row
from repro.engine.partition import (
    PartitionRun,
    Task,
    _check_version,
    in_flight_upper,
    pack_groups,
    packed_or_fallback,
    planned_partitions,
    run_batches,
    run_task,
    scatter_for,
)
from repro.engine.plan import (
    PARTITIONABLE_OPS,
    ParallelOp,
    PartitionedOp,
    PlanNode,
    rewrite_plan,
)
from repro.storage.ship import ShipmentWriter, run_shipped_task

#: Batches per worker when no memory budget shapes them: enough slack
#: that a skewed batch does not serialize the tail, few enough that the
#: fixed per-batch dispatch cost stays negligible.
OVERSUBSCRIPTION = 4


def available_cpus() -> int:
    """CPUs actually usable by this process, not the machine's total.

    ``os.cpu_count()`` reports installed cores even when an affinity
    mask or cgroup quota pins the process to fewer — which is how the
    seed benchmark recorded ``cpu_count: 4`` worth of workers on one
    usable core and a 0.95× "speedup".  Prefers
    ``os.process_cpu_count`` (3.13+), then the scheduler affinity
    mask, then ``os.cpu_count`` as the last resort; the benchmarks and
    their speedup assertions gate on this figure.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        counted = getter()
        if counted:
            return counted
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSlice:
    """One worker process's share of a run, aggregated over its batches."""

    pid: int
    batches: int
    seconds: float  #: summed in-worker wall clock across its batches


@dataclass
class ParallelRun(PartitionRun):
    """Everything one :class:`ParallelOp` execution observed.

    Extends :class:`~repro.engine.partition.PartitionRun` (and is
    stored in the same ``stats.partition_runs`` slot, so reports and
    ``max_in_flight()`` need no second bookkeeping path) with the
    worker count, per-batch ``(pid, seconds)`` timings aligned with
    ``batches``, and — when the pool was bypassed — the reason.
    ``budget`` may be ``None``: speed-motivated sharding of an operator
    that needed no memory partitioning has no per-batch row bound.
    """

    budget: int | None = None
    workers: int = 1
    #: per-batch ``(worker pid, in-worker seconds)``; index-aligned
    #: with ``batches``
    timings: list[tuple[int, float]] = field(default_factory=list)
    #: why batches ran inline instead of on the pool, if they did
    pool_fallback: str | None = None
    #: how fragments crossed the process boundary: ``"shm"``/``"file"``
    #: when a sealed shipment carried them (attached backends),
    #: ``None`` for pickled transport or inline execution
    transport: str | None = None

    def record(
        self, task: Task, output_rows: int, seconds: float, pid: int
    ) -> None:
        super().record(task, output_rows, seconds, pid)
        self.timings.append((pid, seconds))

    def within_budget(self) -> bool:
        if self.budget is None:
            return True
        return super().within_budget()

    def worker_slices(self) -> tuple[WorkerSlice, ...]:
        """Per-worker batch counts and wall-clock, sorted by pid."""
        counts: dict[int, int] = {}
        seconds: dict[int, float] = {}
        for pid, elapsed in self.timings:
            counts[pid] = counts.get(pid, 0) + 1
            seconds[pid] = seconds.get(pid, 0.0) + elapsed
        return tuple(
            WorkerSlice(pid, counts[pid], seconds[pid])
            for pid in sorted(counts)
        )

    def render(self) -> str:
        line = (
            f"batches={self.actual()} (planned {self.planned}) "
            f"peak-in-flight={self.peak_in_flight()} "
            f"budget={'none' if self.budget is None else self.budget} "
            f"workers={self.workers}"
        )
        if self.transport:
            line += f" transport={self.transport}"
        if self.fallback:
            line += f" [one-shot fallback: {self.fallback}]"
        if self.pool_fallback:
            line += f" [ran inline: {self.pool_fallback}]"
        for worker in self.worker_slices():
            line += (
                f"\n    worker {worker.pid}: {worker.batches} batch(es) "
                f"{worker.seconds:.3f}s"
            )
        return line


# ----------------------------------------------------------------------
# Worker pools
# ----------------------------------------------------------------------

_pools: dict[int, ProcessPoolExecutor] = {}


def _pool_for(workers: int) -> ProcessPoolExecutor:
    """The cached pool with ``workers`` workers, created on first use.

    Pools are expensive to spin up, so one per worker count lives for
    the interpreter's lifetime (they idle at zero cost).  The ``fork``
    start method is preferred where available: workers inherit the
    loaded modules instead of re-importing them, and the kernels only
    ever touch the pickled arguments, never ambient state.
    """
    pool = _pools.get(workers)
    if pool is None:
        context = None
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _pools[workers] = pool
    return pool


def shutdown_worker_pools() -> None:
    """Shut down every cached pool (registered atexit; tests may call)."""
    while _pools:
        __, pool = _pools.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_worker_pools)


def _work_capacity(weights: dict[object, int], workers: int) -> int:
    """Per-batch work target for budget-free (speed-only) sharding."""
    batches = workers * OVERSUBSCRIPTION  # ParallelOp: workers >= 1
    return max(math.ceil(sum(weights.values()) / batches), 1)


# ----------------------------------------------------------------------
# Dispatch: the pool, or the serial loop when it is bypassed
# ----------------------------------------------------------------------


def run_parallel(executor, node: ParallelOp) -> list[Row]:
    """Execute ``node.inner``'s batches across the worker pool.

    Called by :meth:`repro.engine.executor.Executor._batched`; returns
    the full result (key-disjoint batches union exactly) and records a
    :class:`ParallelRun` in the executor's stats.  Scatter and packing
    are the serial ones; only a budget-free node packs differently, by
    work, into ``workers × OVERSUBSCRIPTION`` batches.  The degradation
    ladder — single batch, ``workers=1``, then whatever
    :func:`_run_on_pool` reports — ends in
    :func:`~repro.engine.partition.run_batches` over the same batches:
    serial speed, not failure.
    """
    scatter = scatter_for(executor, node.inner, node.budget)
    run = ParallelRun(
        planned=node.partitions,
        budget=node.budget,
        replicated_rows=scatter.replicated,
        workers=node.workers,
    )
    if node.budget is None:
        batches = pack_groups(
            scatter.weights, _work_capacity(scatter.weights, node.workers)
        )
    else:
        batches, run.fallback = packed_or_fallback(
            scatter.weights, node.budget, scatter.replicated
        )
    out: list[Row] = []
    if len(batches) <= 1:
        reason = "single batch"
    elif node.workers <= 1:
        reason = "workers=1"
    else:
        reason = _run_on_pool(executor, node, run, scatter, batches, out)
    if reason is not None:
        if node.workers > 1:
            run.pool_fallback = reason
        out = run_batches(executor, node, run, scatter, batches)
    executor.stats.partition_runs[node] = run
    return out


def _run_on_pool(
    executor, node: ParallelOp, run: ParallelRun, scatter, batches, out
) -> str | None:
    """Run ``batches`` on the pool; the reason if they must run inline.

    On an *attached* backend (shm/mmap) the tasks register their
    fragments with a :class:`~repro.storage.ship.ShipmentWriter`,
    sealed into the one shipment workers attach to; on the memory
    backend the fragments are pickled through the pool.  A pool that
    cannot be created, shipment storage that cannot be allocated, or a
    pool that breaks mid-run (a killed worker) returns the reason with
    ``run`` left empty — partial results may be missing batches, so
    the caller discards ``out`` and redoes the whole run inline.
    """
    try:
        pool = _pool_for(node.workers)
    except OSError as error:
        return f"pool unavailable ({error})"
    ship: ShipmentWriter | None = None
    if executor.backend.attached:
        ship = ShipmentWriter(executor.backend.kind)
    tasks = [scatter.task(keys, ship) for keys in batches]
    shipment = None
    if ship is not None:
        try:
            shipment = ship.seal()
        except OSError as error:
            return f"shipment storage unavailable ({error})"
        run.transport = ship.transport
    try:
        _gather_pool(executor, node, run, pool, tasks, out, shipment)
    except BrokenProcessPool as error:
        _pools.pop(node.workers, None)
        pool.shutdown(wait=False, cancel_futures=True)
        run.batches.clear()
        run.timings.clear()
        run.transport = None
        return f"worker pool broke ({error})"
    finally:
        if shipment is not None:
            shipment.close()
    return None


def _gather_pool(
    executor, node, run: ParallelRun, pool, tasks, out, shipment
) -> None:
    """Dispatch batches to the pool; re-check the version per gather.

    Futures are gathered in submission order so the result row order —
    and every recorded batch — is deterministic for given inputs.  The
    version token is checked before anything is submitted and again as
    each result is folded in: a mutation while work is out at the pool
    raises :class:`~repro.errors.StaleDataError` before any later
    result could mix content versions.  On staleness the remaining
    futures are cancelled (best-effort; running ones finish and are
    dropped with the pool's blessing — workers never see the database,
    only shipped fragments).

    With a sealed ``shipment``, tasks are dispatched through
    :func:`~repro.storage.ship.run_shipped_task`: the pickled payload
    per task is the locator + block table + argument skeleton, and the
    fragment bytes travel through the shared segment/spill file
    instead.
    """
    _check_version(executor, node)
    body = (run_task,)
    if shipment is not None:
        body = (run_shipped_task, shipment.locator, shipment.blocks)
    futures = [
        pool.submit(*body, task.kernel, task.args) for task in tasks
    ]
    try:
        for task, future in zip(tasks, futures):
            rows, seconds, pid = future.result()
            _check_version(executor, node)
            out.extend(rows)
            run.record(task, len(rows), seconds, pid)
    except BaseException:
        for future in futures:
            future.cancel()
        raise


# ----------------------------------------------------------------------
# Planning: the certified-dispatch post-pass
# ----------------------------------------------------------------------


def apply_parallelism(
    plan: PlanNode, cost_model, workers: int
) -> PlanNode:
    """Post-pass: shard operators whose bounds certify a parallel win.

    Runs after :func:`~repro.engine.partition.apply_partitioning` (and,
    like it, after every operator-choice cost comparison, so the
    parallel repricing can never flip one).  Two shapes are sharded:

    * a :class:`~repro.engine.plan.PartitionedOp` becomes a
      :class:`~repro.engine.plan.ParallelOp` carrying the same budget —
      the batches the budget forces anyway are simply dispatched to
      workers;
    * a bare partitionable operator gets a budget-free ``ParallelOp``
      with work-balanced batches.

    Either way the conversion happens only when
    :func:`~repro.engine.cost.parallel_cost_split` certifies that the
    parallel cost (scatter + IPC + divided work + fixed overheads)
    beats the serial cost from the same sound bounds.  Unsound or
    infinite bounds — zero-stats planning — certify nothing and leave
    the plan untouched.
    """
    from repro.engine.cost import parallel_cost_split

    if workers <= 1:
        return plan

    def gate(candidate: ParallelOp, original: PlanNode) -> PlanNode:
        split = parallel_cost_split(cost_model, candidate)
        if split is None:
            return original
        serial, parallel = split
        if parallel >= serial:
            return original
        note = (
            f"parallel bound {parallel:.0f} beats serial "
            f"{serial:.0f} on {candidate.workers} worker(s)"
        )
        if candidate.note:
            note = f"{candidate.note}; {note}"
        return replace(candidate, note=note)

    def step(node: PlanNode, descend) -> PlanNode:
        if isinstance(node, ParallelOp):
            return node  # already sharded (re-applying to a planned plan)
        if isinstance(node, PartitionedOp):
            inner = descend(node.inner)
            candidate = ParallelOp(
                inner, node.partitions, node.budget, workers,
                note=node.note,
            )
            if inner is not node.inner:
                node = replace(node, inner=inner)
            return gate(candidate, node)
        rebuilt = descend(node)
        if isinstance(rebuilt, PARTITIONABLE_OPS):
            upper = in_flight_upper(cost_model, rebuilt)
            partitions = min(
                planned_partitions(upper, 1), workers * OVERSUBSCRIPTION
            )
            candidate = ParallelOp(rebuilt, partitions, None, workers)
            rebuilt = gate(candidate, rebuilt)
        return rebuilt

    return rewrite_plan(plan, step)
