"""The pool runner of batched execution: a budget's batches on workers.

The batched-execution pipeline of :mod:`repro.engine.partition`
(scatter → pack → run → record) cuts the big operators into
key-disjoint batches whose union is exactly the one-shot result.  A
:class:`~repro.engine.plan.PartitionedOp` with ``workers > 1`` runs
those same batches — the same scatter, packing, kernels and records —
across a :class:`concurrent.futures.ProcessPoolExecutor` instead of
the in-process loop.

Three properties the implementation is organized around:

* **Pooled ≡ in-process by construction.**  The batches are the ones
  the budget cuts, whatever runs them.  How fragments *reach* the
  kernels depends on the executor's storage backend
  (:func:`_run_on_pool`): pickled through the pool on the memory
  backend; on the attached shm backend written once into a
  shared columnar shipment, the tasks carrying only block descriptors
  (:mod:`repro.storage.ship`) — which is what makes the dispatch pay
  off on multi-core machines.
* **Certified dispatch only.**  The planner post-pass
  (:func:`apply_parallelism`) gives a batched operator workers only
  when :func:`~repro.engine.cost.parallel_cost_split` certifies, from
  sound bounds, that scatter + IPC + divided work beats the serial
  cost — zero-stats plans never parallelize, mirroring the partition
  gate.
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
    packed_or_fallback,
    run_batches,
    run_task,
    scatter_for,
)
from repro.engine.plan import PartitionedOp, PlanNode, rewrite_plan
from repro.storage.ship import ShipmentWriter, run_shipped_task


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
    """Everything one pooled :class:`~repro.engine.plan.PartitionedOp`
    execution observed.

    Extends :class:`~repro.engine.partition.PartitionRun` (and is
    stored in the same ``stats.partition_runs`` slot, so reports and
    ``max_in_flight()`` need no second bookkeeping path) with the
    worker count, per-batch ``(pid, seconds)`` timings aligned with
    ``batches``, and — when the pool was bypassed — the reason.
    """

    workers: int = 1
    #: per-batch ``(worker pid, in-worker seconds)``; index-aligned
    #: with ``batches``
    timings: list[tuple[int, float]] = field(default_factory=list)
    #: why batches ran inline instead of on the pool, if they did
    pool_fallback: str | None = None
    #: how fragments crossed the process boundary: ``"shm"`` when a
    #: sealed shipment carried them (the attached shm backend),
    #: ``None`` for pickled transport or inline execution
    transport: str | None = None

    def record(
        self, task: Task, output_rows: int, seconds: float, pid: int
    ) -> None:
        super().record(task, output_rows, seconds, pid)
        self.timings.append((pid, seconds))

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
            f"budget={self.budget} workers={self.workers}"
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


# ----------------------------------------------------------------------
# Dispatch: the pool, or the serial loop when it is bypassed
# ----------------------------------------------------------------------


def run_parallel(executor, node: PartitionedOp) -> list[Row]:
    """Execute ``node.inner``'s batches across the worker pool.

    Called by :meth:`repro.engine.executor.Executor._batched` for a
    node with ``workers > 1``; returns the full result (key-disjoint
    batches union exactly) and records a :class:`ParallelRun` in the
    executor's stats.  Scatter and packing are the in-process ones.
    The degradation ladder — single batch, then whatever
    :func:`_run_on_pool` reports — ends in
    :func:`~repro.engine.partition.run_batches` over the same batches:
    serial speed, not failure.
    """
    scatter = scatter_for(executor, node.inner)
    run = ParallelRun(
        node.partitions,
        node.budget,
        scatter.replicated,
        workers=node.workers,
    )
    batches, run.fallback = packed_or_fallback(
        scatter.weights, node.budget, scatter.replicated
    )
    out: list[Row] = []
    if len(batches) <= 1:
        reason = "single batch"
    else:
        reason = _run_on_pool(executor, node, run, scatter, batches, out)
    if reason is not None:
        run.pool_fallback = reason
        out = run_batches(executor, node, run, scatter, batches)
    executor.stats.partition_runs[node] = run
    return out


def _run_on_pool(
    executor, node: PartitionedOp, run: ParallelRun, scatter, batches, out
) -> str | None:
    """Run ``batches`` on the pool; the reason if they must run inline.

    On an *attached* backend (shm) the tasks register their
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
    fragment bytes travel through the shared segment instead.
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
    """Post-pass: give ``workers`` to batched operators that certify.

    Runs after :func:`~repro.engine.partition.apply_partitioning` (and,
    like it, after every operator-choice cost comparison, so the
    parallel repricing can never flip one).  A one-worker
    :class:`~repro.engine.plan.PartitionedOp` gets ``workers`` — the
    batches its budget cuts anyway are simply run on the pool — only
    when :func:`~repro.engine.cost.parallel_cost_split` certifies that
    the parallel cost (scatter + IPC + divided work + fixed overheads)
    beats the serial cost from the same sound bounds.  Unsound or
    infinite bounds — zero-stats planning — certify nothing and leave
    the plan untouched.
    """
    from repro.engine.cost import parallel_cost_split

    if workers <= 1:
        return plan

    def step(node: PlanNode, descend) -> PlanNode:
        node = descend(node)
        if not isinstance(node, PartitionedOp) or node.workers > 1:
            return node  # not batched, or already on a pool
        candidate = replace(node, workers=workers)
        split = parallel_cost_split(cost_model, candidate)
        if split is None or split[1] >= split[0]:
            return node
        note = (
            f"parallel bound {split[1]:.0f} beats serial "
            f"{split[0]:.0f} on {workers} worker(s)"
        )
        if node.note:
            note = f"{node.note}; {note}"
        return replace(candidate, note=note)

    return rewrite_plan(plan, step)
