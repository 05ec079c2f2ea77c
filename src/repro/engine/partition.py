"""Partitioned execution: batched operators under a rows-in-flight budget.

The paper's dichotomy (Theorem 17) and the division lower bound
(Proposition 26) are statements about *how much intermediate data a
plan materializes*.  The engine's rewrites already route the recognized
patterns to linear operators; this module takes the next scaling step —
the size-bound reasoning of Atserias–Grohe–Marx and the partition-wise
processing behind worst-case-optimal joins — and makes the remaining
big operators run in **hash-partitioned batches** so that no batch ever
holds more than a configured number of rows in flight.

Two layers cooperate:

* **Planning** (static, estimate-driven).  In a post-pass over the
  fully chosen plan (:func:`apply_partitioning`), each partitionable
  operator whose :func:`in_flight_upper` — the cost model's *sound*
  upper bound on its rows in flight (inputs + output materialized at
  once) — exceeds ``PlannerOptions.partition_budget`` is wrapped in a
  :class:`~repro.engine.plan.PartitionedOp` whose ``partitions`` field
  carries :func:`planned_partitions`, the predicted batch count
  ``ceil(upper / budget)``.
* **Execution** (exact, weight-driven) — one pipeline, shared with
  :mod:`repro.engine.parallel`.  At run time the inputs are already
  materialized (duplicate-free), so per-key weights are *exact*: a
  per-operator **scatter** (:func:`scatter_for`) groups each input by
  its partitioning key and bounds every key group's contribution
  (inputs **plus the worst-case output** that group can emit); the
  groups are packed into batches by best-fit-decreasing
  (:func:`pack_groups`) with capacity ``budget − replicated rows``;
  :func:`run_batches` runs the batches one after another and
  :meth:`PartitionRun.record` writes each :class:`BatchRecord`.  A
  :class:`~repro.engine.plan.ParallelOp` differs only in *where*
  batches run — a worker pool, or this same loop when the pool is
  bypassed — so parallel and serial batches agree by construction.
  Packing is final: no planner option changes a batch once packed.
  The resulting invariant, asserted by the property tests in
  ``tests/test_engine_partition.py``:

      every batch's measured rows in flight is ≤ the budget, unless
      the batch is a single atomic key group whose own weight already
      exceeds it (a key group cannot be subdivided without changing
      the operator's semantics — the ``budget=1`` degenerate case).

Partitioning strategies per wrapped operator:

==========================  ===========================================
operator                    strategy
==========================  ===========================================
``HashJoinOp``              both sides hash-grouped on the equality
                            keys (via the executor's index cache, so
                            one-shot runs share the build); a key's
                            weight is ``nL + nR + nL·nR`` (fragments +
                            worst-case join output); keys present on
                            only one side emit nothing and are pruned
                            at scatter time
``HashSemijoinOp``          same grouping; weight ``nL + nR + nL``
                            (output ≤ the left fragment)
``NestedLoopSemijoinOp``    left rows batched individually (weight 2:
                            the row + at most one output row); the
                            right side is replicated to every batch
``DivisionOp``              dividend grouped by candidate (column 1);
                            weight ``n_a + 1`` (group + at most one
                            quotient row); the divisor is replicated
==========================  ===========================================

Replicated sides count toward every batch's rows in flight, which is
why they are subtracted from the packing capacity.  When the replicated
side alone meets the budget that capacity vanishes (≤ 0), and
:func:`packed_or_fallback` runs one deliberate one-shot batch instead
of rescanning the replicated side once per group, recording the reason
on the :class:`PartitionRun` and marking the batch so the ``within()``
invariant knows it was deliberate.  Nested-loop *joins* are not
partitionable: without equality keys a batch's output is not bounded
by its own fragment, so no per-batch budget could be certified.

The per-batch bodies are module-level **kernels**
(:func:`keyed_batch_kernel`, :func:`semijoin_batch_kernel`,
:func:`division_batch_kernel`) over plain picklable data, which is
what lets a pool worker run them.

Between batches the executor's database version token is re-checked;
a mutation mid-run raises :class:`~repro.errors.StaleDataError` rather
than silently mixing two content versions into one result (see
``docs/engine.md`` § Partitioned execution).
"""

from __future__ import annotations

import bisect
import math
import os
import time
from dataclasses import dataclass, field, replace

from repro.data.database import Row
from repro.engine import kernels
from repro.engine.plan import (
    PARTITIONABLE_OPS,
    DivisionOp,
    HashJoinOp,
    HashSemijoinOp,
    MultiwayJoinOp,
    NestedLoopSemijoinOp,
    PartitionedOp,
    PlanNode,
    rewrite_plan,
)
from repro.errors import SchemaError, StaleDataError
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    DIVISION_EQ_ALGORITHMS,
    TypedPairs,
)

#: Hard cap on the planner's predicted batch count (a backstop against
#: absurd upper-bound/budget ratios; the executor packs exactly anyway).
MAX_PARTITIONS = 4096


# ----------------------------------------------------------------------
# Planning: estimate-driven sizing
# ----------------------------------------------------------------------


def in_flight_upper(cost_model, node: PlanNode) -> float:
    """Sound upper bound on ``node``'s unpartitioned rows in flight.

    One-shot execution materializes the operator's inputs and its
    output simultaneously, so the bound is the sum of the children's
    ``upper`` estimates plus the operator's own.  Infinite whenever any
    estimate is unsound (zero-stats planning certifies nothing).
    """
    estimate = cost_model.estimate(node)
    if not estimate.sound:
        return math.inf
    total = estimate.upper
    for child in node.children():
        total += cost_model.estimate(child).upper
    return total


def planned_partitions(upper: float, budget: int) -> int:
    """The predicted batch count: ``ceil(upper / budget)``, capped."""
    if not math.isfinite(upper) or budget < 1:
        return MAX_PARTITIONS
    return max(1, min(MAX_PARTITIONS, math.ceil(upper / budget)))


def apply_partitioning(plan: PlanNode, cost_model, budget: int) -> PlanNode:
    """Post-pass: wrap every oversized partitionable operator in ``plan``.

    Runs *after* all of the planner's cost comparisons, so the scatter
    surcharge a :class:`~repro.engine.plan.PartitionedOp` adds can
    never flip an operator-choice decision — the budget, not the cost
    model, is what forces batching.  The tree is rebuilt bottom-up
    (children first, so an operator's in-flight bound is computed over
    its possibly-wrapped children); shared sub-plans stay shared, and
    untouched subtrees are returned as the same objects so executor
    memoization is unaffected (:func:`~repro.engine.plan.rewrite_plan`).
    """

    def step(node: PlanNode, descend) -> PlanNode:
        if isinstance(node, PartitionedOp):
            # Already partitioned (re-applying to a planned plan):
            # keep the existing wrapper — and its budget — untouched
            # rather than wrapping its inner operator a second time.
            return node
        rebuilt = descend(node)
        if isinstance(rebuilt, PARTITIONABLE_OPS):
            upper = in_flight_upper(cost_model, rebuilt)
            if math.isfinite(upper) and upper > budget:
                partitions = planned_partitions(upper, budget)
                note = (
                    f"in-flight ub {upper:.0f} > budget {budget}: "
                    f"{partitions} batch(es) planned (exact packing at "
                    "run time)"
                )
                replicated = None
                if isinstance(rebuilt, NestedLoopSemijoinOp):
                    replicated = rebuilt.right
                elif isinstance(rebuilt, DivisionOp):
                    replicated = rebuilt.divisor
                if replicated is not None:
                    rep = cost_model.estimate(replicated)
                    if rep.sound and rep.upper >= budget:
                        note += (
                            "; replicated side may meet the budget "
                            "alone — one-shot fallback possible"
                        )
                rebuilt = PartitionedOp(
                    rebuilt, partitions, budget, note=note
                )
        elif isinstance(rebuilt, MultiwayJoinOp):
            # Generic joins batch nothing (working set = inputs +
            # certified output), so an over-budget one is annotated,
            # never wrapped — the planner normally refuses the
            # collapse first, but a plan built by hand (or statistics
            # moving after planning) can still land here.
            upper = in_flight_upper(cost_model, rebuilt)
            if math.isfinite(upper) and upper > budget:
                extra = (
                    f"in-flight ub {upper:.0f} > budget {budget}: "
                    "refusing PartitionedOp fusion — multiway join "
                    "runs one-shot (inputs + AGM-bounded output)"
                )
                merged = (
                    f"{rebuilt.note}; {extra}" if rebuilt.note else extra
                )
                rebuilt = replace(rebuilt, note=merged)
        return rebuilt

    return rewrite_plan(plan, step)


# ----------------------------------------------------------------------
# Execution records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch: what it held in flight, and why."""

    groups: int  #: atomic key groups packed into this batch
    input_rows: int  #: fragment rows scattered into the batch
    output_rows: int  #: rows the batch emitted
    in_flight: int  #: input_rows + replicated rows + output_rows
    fallback: bool = False  #: deliberate one-shot batch (capacity ≤ 0)

    def within(self, budget: int) -> bool:
        """The packing invariant: under budget, or a lone atomic group.

        Every batch was packed with sound worst-case weights, so its
        whole ``in_flight`` — output included — is bounded.  A
        ``fallback`` batch is the deliberate one-shot degradation of
        :func:`packed_or_fallback` — the replicated side alone met the
        budget, so no packing could have helped — and counts as within.
        """
        return self.fallback or self.in_flight <= budget or self.groups <= 1


@dataclass
class PartitionRun:
    """Everything one :class:`PartitionedOp` execution observed.

    ``planned`` is the planner's predicted batch count (from sound
    upper bounds); ``actual()`` is what exact-weight packing produced —
    the estimated-vs-actual pair the partition benchmarks assert on.
    """

    planned: int
    budget: int
    replicated_rows: int = 0
    batches: list[BatchRecord] = field(default_factory=list)
    #: why packing was abandoned for one-shot execution, if it was
    fallback: str | None = None

    def record(
        self, task: "Task", output_rows: int, seconds: float, pid: int
    ) -> None:
        """Append the :class:`BatchRecord` of one executed batch.

        The one place records are written, whichever runner executed
        the batch.  A serial run keeps no ``(pid, seconds)`` timings —
        :class:`~repro.engine.parallel.ParallelRun` adds them.
        """
        self.batches.append(
            BatchRecord(
                groups=task.groups,
                input_rows=task.input_rows,
                output_rows=output_rows,
                in_flight=task.input_rows
                + self.replicated_rows
                + output_rows,
                fallback=self.fallback is not None,
            )
        )

    def actual(self) -> int:
        return len(self.batches)

    def peak_in_flight(self) -> int:
        return max((b.in_flight for b in self.batches), default=0)

    def total_output(self) -> int:
        return sum(b.output_rows for b in self.batches)

    def within_budget(self) -> bool:
        return all(b.within(self.budget) for b in self.batches)

    def render(self) -> str:
        line = (
            f"batches={self.actual()} (planned {self.planned}) "
            f"peak-in-flight={self.peak_in_flight()} "
            f"budget={self.budget}"
        )
        if self.fallback:
            line += f" [one-shot fallback: {self.fallback}]"
        return line


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


def pack_groups(
    weights: dict[object, int], capacity: float
) -> list[tuple[object, ...]]:
    """Best-fit-decreasing packing of key groups into batches.

    Groups are placed heaviest-first (ties broken by ``repr`` of the
    key, so packing is deterministic for given inputs) into the open
    batch with the *least* remaining room that still fits, found by
    binary search over a sorted list of batch residuals — no linear
    scan over open batches, so packing does comparisons in
    ``O(G log G)`` rather than degrading quadratic when few groups fit
    together.  A group heavier than ``capacity`` becomes a singleton
    batch directly, without any search (capacity ≤ 0 makes *every*
    group one).  Every batch satisfies ``total ≤ capacity`` or is a
    singleton, which is exactly the invariant
    :meth:`BatchRecord.within` states against the budget.
    """
    order = sorted(weights.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    singletons: list[tuple[object, ...]] = []
    batches: list[list[object]] = []
    residuals: list[tuple[float, int]] = []  # sorted (room left, batch id)
    for key, weight in order:
        if weight > capacity:
            singletons.append((key,))
            continue
        pos = bisect.bisect_left(residuals, (weight, -1))
        if pos < len(residuals):  # tightest open batch the group fits
            room, batch_id = residuals.pop(pos)
            batches[batch_id].append(key)
            bisect.insort(residuals, (room - weight, batch_id))
        else:
            batches.append([key])
            bisect.insort(residuals, (capacity - weight, len(batches) - 1))
    # Heaviest-first ordering puts every oversized singleton before
    # every packed batch, keeping the returned order deterministic.
    return singletons + [tuple(batch) for batch in batches]


def packed_or_fallback(
    weights: dict[object, int], budget: int, replicated: int
) -> tuple[list[tuple[object, ...]], str | None]:
    """Pack under ``budget − replicated``, or one-shot when it vanishes.

    Operators with a replicated side pack against the capacity left
    after that side is charged to every batch.  When the replicated
    side alone meets the budget, that capacity is ≤ 0 and
    :func:`pack_groups` would make every group a singleton batch — the
    replicated side rescanned once per group for *zero* memory gain
    (each batch already exceeds the budget by the replicated rows
    alone).  In that case the only sane shape is a single batch.

    Returns ``(batches, reason)``: ``reason`` is ``None`` when normal
    packing applied, else a human-readable explanation recorded on the
    :class:`PartitionRun` (and rendered by ``--stats`` reports).
    """
    if not weights:
        return [], None
    capacity = budget - replicated
    if capacity <= 0:
        reason = (
            f"replicated side ({replicated} rows) meets the "
            f"{budget}-row budget alone; ran one-shot instead of "
            f"{len(weights)} singleton batches"
        )
        return [tuple(sorted(weights, key=repr))], reason
    return pack_groups(weights, capacity), None


# ----------------------------------------------------------------------
# Batch kernels (pure, picklable — shared by serial and parallel paths)
# ----------------------------------------------------------------------


def keyed_batch_kernel(
    pairs: list[tuple[list[Row], list[Row]]],
    rest: tuple,
    join: bool,
) -> list[Row]:
    """One hash-join / hash-semijoin batch over key-matched fragments.

    ``pairs`` holds the (left fragment, right fragment) for each key
    group packed into the batch; ``rest`` the non-equality atoms still
    to check.  Joins emit concatenated rows, semijoins the left rows
    with a witness.  Module-level and argument-pure so a process-pool
    worker can run it on pickled fragments; the atoms travel, and
    :mod:`repro.engine.kernels` compiles them here, in the worker.
    """
    loop = kernels.nested_loop_join if join else kernels.nested_loop_semijoin
    match = kernels.matcher(rest) if join else kernels.witness(rest)
    out: list[Row] = []
    for lefts, rights in pairs:
        out.extend(loop(lefts, rights, match))
    return out


def semijoin_batch_kernel(
    left_rows, right_rows, cond
) -> list[Row]:
    """One θ-semijoin batch: left fragment against the replicated right."""
    return list(
        kernels.nested_loop_semijoin(
            left_rows, right_rows, kernels.witness(cond)
        )
    )


def division_batch_kernel(
    fragment: list[Row], divisor: list, method: str, eq: bool
) -> list[Row]:
    """One division batch: the direct algorithm on a candidate fragment.

    The algorithm is looked up in the registries at call time (not
    bound at scatter time), so tests that monkeypatch an algorithm see
    the patched version in every batch.  The fragment is rows of a
    dividend the plan typed: nothing is validated per batch.
    """
    registry = DIVISION_EQ_ALGORITHMS if eq else DIVISION_ALGORITHMS
    return list(zip(registry[method](TypedPairs(fragment), divisor)))


# ----------------------------------------------------------------------
# Scatter: atomic groups, their weights, and how to run a batch of them
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """One batch, ready to run locally or ship to a worker."""

    groups: int
    input_rows: int
    kernel: object  # a module-level kernel function
    args: tuple  # picklable kernel arguments


def run_task(kernel, args) -> tuple[list[Row], float, int]:
    """The batch body: run the kernel, report time and pid.

    Module-level so a pool can pickle it by reference; the in-worker
    wall clock (not the submit-to-result latency, which includes queue
    wait) is what the per-worker report aggregates.
    """
    start = time.perf_counter()
    rows = kernel(*args)
    return rows, time.perf_counter() - start, os.getpid()


@dataclass(frozen=True)
class Scatter:
    """One operator's inputs cut into atomic groups — what packing sees.

    ``weights`` prices each group: under a budget, its worst-case rows
    in flight (fragments **plus the worst-case output**); without one
    (speed-only sharding) its *work*, so batches even out worker load.
    ``replicated`` is the side every batch holds in full.
    ``task(keys, ship)`` builds the :class:`Task` running the groups
    ``keys``: with ``ship=None`` the arguments are the fragments
    themselves (inline execution, pickled transport); with a
    :class:`~repro.storage.ship.ShipmentWriter` each distinct fragment
    is registered once and the arguments carry block references.
    """

    weights: dict[object, int]
    replicated: int
    task: object


def scatter_for(executor, inner: PlanNode, budget: int | None) -> Scatter:
    """The scatter of partitionable operator ``inner``."""
    if isinstance(inner, (HashJoinOp, HashSemijoinOp)):
        return _scatter_keyed(executor, inner, budget)
    if isinstance(inner, NestedLoopSemijoinOp):
        return _scatter_semijoin(executor, inner)
    if isinstance(inner, DivisionOp):
        return _scatter_division(executor, inner, budget)
    # The wrappers' __post_init__ rejects everything else.
    raise SchemaError(  # pragma: no cover
        f"cannot partition {type(inner).__name__}"
    )


def _scatter_keyed(executor, inner, budget: int | None) -> Scatter:
    """Hash join / hash semijoin: both sides grouped on equality keys.

    Both groupings go through the executor's
    :class:`~repro.engine.executor.IndexCache` under the same
    ``(logical expression, positions)`` keys the one-shot hash
    operators use, so batched and one-shot executions of the same
    input share a single build and re-executing against unchanged
    contents regroups nothing.  Keys present on only one side are
    pruned at scatter time: with no partner rows they cannot produce
    output (``rest`` atoms only filter further), so they never consume
    batch capacity or rows in flight.  A group's worst-case output is
    ``nL·nR`` (join) or ``nL`` (semijoin); its work adds the pair count
    where the kernel visits pairs (not a summarised semijoin rest).
    """
    eq = inner.cond.by_op("=")
    rest = tuple(a for a in inner.cond if a.op != "=")
    join = isinstance(inner, HashJoinOp)
    paired = join or kernels.scans(rest)
    left_groups = executor.indexes.index_for(
        inner.left.logical,
        executor._rows(inner.left),
        tuple(a.i for a in eq),
    )
    right_groups = executor.indexes.index_for(
        inner.right.logical,
        executor._rows(inner.right),
        tuple(a.j for a in eq),
    )
    weights: dict[object, int] = {}
    for key in left_groups.keys() & right_groups.keys():
        n_left = len(left_groups[key])
        n_right = len(right_groups[key])
        pairs = n_left * n_right
        if budget is not None:
            weights[key] = n_left + n_right + (pairs if join else n_left)
        else:
            weights[key] = n_left + n_right + (pairs if paired else 0)

    def task(keys, ship) -> Task:
        pairs = [(left_groups[key], right_groups[key]) for key in keys]
        input_rows = sum(len(ls) + len(rs) for ls, rs in pairs)
        if ship is not None:
            pairs = [(ship.rows(ls), ship.rows(rs)) for ls, rs in pairs]
        return Task(
            len(keys), input_rows, keyed_batch_kernel, (pairs, rest, join)
        )

    return Scatter(weights, 0, task)


def _scatter_semijoin(executor, inner: NestedLoopSemijoinOp) -> Scatter:
    """θ-semijoin: batch left rows; the right side goes to every batch.

    Each left row is its own atomic group (no key to group by) of
    weight 2 — the row plus the at-most-one output row it can emit —
    in rows in flight and in work alike.  The right side is one list
    object, so a shipment's identity dedup encodes it once however
    many tasks reference it.
    """
    right_rows = list(executor._rows(inner.right))

    def task(batch, ship) -> Task:
        left_rows = list(batch)
        if ship is None:
            args = (left_rows, right_rows, inner.cond)
        else:
            args = (ship.rows(left_rows), ship.rows(right_rows), inner.cond)
        return Task(len(batch), len(batch), semijoin_batch_kernel, args)

    weights = {row: 2 for row in executor._rows(inner.left)}
    return Scatter(weights, len(right_rows), task)


def _scatter_division(
    executor, inner: DivisionOp, budget: int | None
) -> Scatter:
    """Division: partition the dividend by candidate; replicate the divisor.

    A candidate's *entire* B-set must sit in one batch for the
    containment/equality test to be answerable there, so the atomic
    group is the candidate's dividend rows (weight ``n_a + 1``: the
    group plus at most one quotient row; as work, its rows plus one
    divisor probe pass).  Each batch runs the same direct algorithm
    the unpartitioned operator would (the ``method``/``eq`` registry
    of :mod:`repro.setjoins.division`) on its fragment; quotients from
    disjoint candidate sets union exactly.  Like the keyed joins, the
    per-candidate grouping goes through the executor's
    :class:`~repro.engine.executor.IndexCache`, so re-executions
    against unchanged contents regroup nothing.  The divisor ships
    once, as a scalar value block.
    """
    divisor_rows = executor._rows(inner.divisor)
    if not divisor_rows and inner.empty_divisor == "none":
        # γ-plan semantics: empty divisor ⇒ empty result, no batches.
        return Scatter({}, 0, None)
    divisor = [row[0] for row in divisor_rows]
    groups = executor.indexes.index_for(
        inner.dividend.logical, executor._rows(inner.dividend), (1,)
    )
    extra = 1 if budget is not None else max(len(divisor), 1)
    weights = {key: len(rows) + extra for key, rows in groups.items()}

    def task(keys, ship) -> Task:
        fragment = [row for key in keys for row in groups[key]]
        if ship is None:
            args = (fragment, divisor, inner.method, inner.eq)
        else:
            args = (
                ship.rows(fragment),
                ship.values(divisor),
                inner.method,
                inner.eq,
            )
        return Task(len(keys), len(fragment), division_batch_kernel, args)

    return Scatter(weights, len(divisor_rows), task)


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------


def run_partitioned(executor, node: PartitionedOp) -> list[Row]:
    """Execute ``node.inner`` in budget-bounded batches.

    Called by :meth:`repro.engine.executor.Executor._batched`; returns
    the full result (the union over batches — key-disjoint fragments
    make it exact) and records a :class:`PartitionRun` in the
    executor's :class:`~repro.engine.executor.ExecutionStats`.
    """
    scatter = scatter_for(executor, node.inner, node.budget)
    run = PartitionRun(node.partitions, node.budget, scatter.replicated)
    batches, run.fallback = packed_or_fallback(
        scatter.weights, node.budget, scatter.replicated
    )
    out = run_batches(executor, node, run, scatter, batches)
    executor.stats.partition_runs[node] = run
    return out


def _check_version(executor, node: PlanNode) -> None:
    """Fail fast if the database mutated between batches."""
    if executor.backend.version_token() != executor._version:
        raise StaleDataError(
            "relation contents changed between batches of "
            f"{node.label()}; earlier batches saw the old contents — "
            "re-run the query (caches are invalidated on next use)"
        )


def run_batches(
    executor, node, run: PartitionRun, scatter: Scatter, batches
) -> list[Row]:
    """Run ``batches`` in-process, one after another; their rows.

    The serial runner of a :class:`~repro.engine.plan.PartitionedOp`
    and the inline path of a :class:`~repro.engine.plan.ParallelOp`
    whose pool is bypassed.  The version token is checked before every
    batch.  The batches run exactly as packed, so this loop and the
    pool run the same ones.
    """
    out: list[Row] = []
    for keys in batches:
        _check_version(executor, node)
        task = scatter.task(keys, None)
        rows, seconds, pid = run_task(task.kernel, task.args)
        out.extend(rows)
        run.record(task, len(rows), seconds, pid)
    return out
