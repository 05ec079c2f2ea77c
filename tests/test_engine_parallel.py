"""The pool runner of batched execution: gate, equivalence, staleness.

The contract under test (see ``docs/engine.md`` § Batched execution):

* the planner gives a :class:`~repro.engine.plan.PartitionedOp`
  ``workers > 1`` iff ``max_workers > 1``, statistics are present, and
  the cost model's *sound* bounds certify that the parallel cost
  (scatter + IPC + divided work + fixed overheads) beats serial —
  zero-stats plans never parallelize, ``max_workers > 1`` without a
  ``partition_budget`` is refused, and serial (``max_workers=1``)
  planning is byte-identical to planning without the option;
* the pool runs the batches the budget cuts: its batch records equal
  the in-process run's, and its rows equal the serial partitioned,
  serial unpartitioned and brute-force-oracle relation, across worker
  counts (differential property on random plans and databases);
* a mutation while batches are out at the pool raises
  :class:`~repro.errors.StaleDataError` when results are gathered,
  never a mixed-version result;
* a missing or broken pool degrades to inline execution of the same
  batches, recorded on the :class:`~repro.engine.parallel.ParallelRun`.
"""

import math
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.parallel as parallel_module
from repro.algebra.parser import parse
from repro.algebra.reference import evaluate_reference
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import (
    CostModel,
    Executor,
    ParallelRun,
    PartitionedOp,
    PartitionRun,
    PlannerOptions,
    apply_partitioning,
    plan_expression,
)
from repro.engine.cost import parallel_cost_split, parallel_work_bound
from repro.engine.plan import PlanNode, ScanOp, rewrite_plan
from repro.errors import SchemaError, StaleDataError
from repro.session import Session
from repro.setjoins.division import classic_division_expr
from repro.workloads.generators import division_database
from tests.strategies import databases, expressions

SCHEMA = Schema({"R": 2, "S": 1})

#: Derandomized profile; fewer examples than the serial partition
#: properties because every example may round-trip the worker pool.
PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def hot_symptom_db(groups=8, persons=2400, diseases=800):
    """The fig1-style shoot-out shape: few hot symptoms shared by many.

    Every person and disease carries one of ``groups`` hot symptoms, so
    the eq-key candidate-pair count is ``persons·diseases/groups`` —
    quadratic work over linear rows, the regime where shipping rows to
    workers pays off.  Disease keys are offset so an order atom over
    the keys never holds and the semijoin scans every candidate.
    """
    return Database(
        Schema({"Person": 2, "Disease": 2}),
        {
            "Person": {(i, i % groups) for i in range(persons)},
            "Disease": {(10**6 + j, j % groups) for j in range(diseases)},
        },
    )


HOT_QUERY = "Person semijoin[2=2,1>1] Disease"

#: A budget that batches the hot semijoin, and a pool it certifies.
HOT_OPTIONS = PlannerOptions(partition_budget=800, max_workers=4)


def force_parallel(plan: PlanNode, workers: int) -> PlanNode:
    """``plan`` with every batched operator on ``workers``, gate bypassed.

    The differential tests need pooled execution on databases far too
    small for the cost gate to ever choose it; this is the planner's
    conversion — the budget and batch count kept, ``workers`` set —
    without the profitability check.
    """

    def step(node: PlanNode, descend) -> PlanNode:
        node = descend(node)
        if isinstance(node, PartitionedOp):
            return replace(node, workers=workers)
        return node

    return rewrite_plan(plan, step)


def parallel_nodes(plan: PlanNode):
    return [
        n
        for n in plan.nodes()
        if isinstance(n, PartitionedOp) and n.workers > 1
    ]


def parallel_runs(executor):
    return [
        run
        for run in executor.stats.partition_runs.values()
        if isinstance(run, ParallelRun)
    ]


# ----------------------------------------------------------------------
# The plan node and options
# ----------------------------------------------------------------------


class TestWorkers:
    def test_rejects_unpartitionable_inner(self):
        scan = ScanOp(parse("R", SCHEMA))
        with pytest.raises(SchemaError):
            PartitionedOp(scan, 1, 10, workers=2)

    def test_rejects_bad_counts(self):
        plan = plan_expression(parse("R join[2=1] S", SCHEMA))
        (join,) = [n for n in plan.nodes() if not isinstance(n, ScanOp)]
        with pytest.raises(SchemaError):
            PartitionedOp(join, 0, 10, workers=2)
        with pytest.raises(SchemaError):
            PartitionedOp(join, 1, 0, workers=2)
        with pytest.raises(SchemaError):
            PartitionedOp(join, 1, 10, workers=0)

    def test_label_and_logical(self):
        plan = plan_expression(parse("R join[2=1] S", SCHEMA))
        (join,) = [n for n in plan.nodes() if not isinstance(n, ScanOp)]
        node = PartitionedOp(join, 3, 50, workers=4)
        assert node.label() == "Partitioned[k=3,budget=50,workers=4]"
        assert node.logical is join.logical
        serial = PartitionedOp(join, 3, 50)
        assert serial.workers == 1
        assert serial.label() == "Partitioned[k=3,budget=50]"
        assert node != serial

    def test_options_validate_workers(self):
        with pytest.raises(SchemaError):
            PlannerOptions(max_workers=0)
        assert PlannerOptions(max_workers=1).max_workers == 1

    def test_workers_need_a_partition_budget(self):
        # The pool runs only the batches a budget cuts.
        with pytest.raises(SchemaError, match="partition_budget"):
            PlannerOptions(max_workers=2)
        options = PlannerOptions(partition_budget=10, max_workers=2)
        assert options.max_workers == 2


# ----------------------------------------------------------------------
# The dispatch gate
# ----------------------------------------------------------------------


class TestDispatchGate:
    def test_quadratic_workload_is_sharded(self):
        db = hot_symptom_db()
        executor = Executor(db)
        plan = executor.plan(parse(HOT_QUERY, db.schema), HOT_OPTIONS)
        (node,) = parallel_nodes(plan)
        assert node.workers == 4
        assert node.budget == 800
        assert "beats serial" in node.note

    def test_small_workload_stays_serial(self):
        # Linear work on a few dozen rows: startup + IPC can never be
        # paid back, so the gate must refuse.
        db = database(
            {"R": 2, "S": 1},
            R=[(i, i % 7) for i in range(60)],
            S=[(j,) for j in range(7)],
        )
        executor = Executor(db)
        plan = executor.plan(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=20, max_workers=4),
        )
        assert any(isinstance(n, PartitionedOp) for n in plan.nodes())
        assert not parallel_nodes(plan)

    def test_zero_stats_plans_never_parallelize(self):
        # No catalog ⇒ unsound bounds ⇒ nothing certifies the dispatch.
        plan = plan_expression(
            parse(HOT_QUERY, hot_symptom_db().schema),
            options=PlannerOptions(partition_budget=800, max_workers=8),
        )
        assert not parallel_nodes(plan)

    def test_serial_option_plans_byte_identical(self):
        db = hot_symptom_db()
        expr = parse(HOT_QUERY, db.schema)
        default = Executor(db).plan(expr)
        serial = Executor(db).plan(expr, PlannerOptions(max_workers=1))
        assert serial == default

    @PROPERTY
    @given(expressions(max_depth=4), databases())
    def test_max_workers_one_never_changes_random_plans(self, expr, db):
        assert Executor(db).plan(
            expr, PlannerOptions(max_workers=1)
        ) == Executor(db).plan(expr)

    def test_workers_keep_the_serial_batching(self):
        db = hot_symptom_db(groups=8, persons=1600, diseases=600)
        executor = Executor(db)
        options = PlannerOptions(partition_budget=400, max_workers=4)
        expr = parse(HOT_QUERY, db.schema)
        nodes = parallel_nodes(executor.plan(expr, options))
        serial = [
            n
            for n in executor.plan(expr, replace(options, max_workers=1))
            .nodes()
            if isinstance(n, PartitionedOp)
        ]
        assert nodes and [n.workers for n in serial] == [1]
        # The gate set one field: inner, batch count and budget stay.
        assert [(n.inner, n.partitions, n.budget) for n in nodes] == [
            (n.inner, n.partitions, n.budget) for n in serial
        ]

    def test_apply_partitioning_is_idempotent(self):
        db = hot_symptom_db()
        executor = Executor(db)
        plan = executor.plan(parse(HOT_QUERY, db.schema), HOT_OPTIONS)
        assert parallel_nodes(plan)
        again = apply_partitioning(
            plan, executor.cost_model, HOT_OPTIONS.partition_budget, 4
        )
        assert again == plan

    def test_work_bound_prices_rest_atom_pairs(self):
        # The hash semijoin's cost formula is linear; the parallel work
        # bound must still see the quadratic candidate-pair scan that
        # the never-true order atom forces.
        db = hot_symptom_db(groups=4, persons=400, diseases=200)
        executor = Executor(db)
        plan = executor.plan(parse(HOT_QUERY, db.schema))
        (semijoin,) = [
            n for n in plan.nodes() if not isinstance(n, ScanOp)
        ]
        bound = parallel_work_bound(executor.cost_model, semijoin)
        assert bound >= 400 * 200 / 4  # the exact pair count

    def test_split_is_none_without_stats(self):
        plan = plan_expression(parse("R join[2=1] S", SCHEMA))
        (join,) = [n for n in plan.nodes() if not isinstance(n, ScanOp)]
        node = PartitionedOp(join, 1, 10, workers=4)
        assert parallel_cost_split(CostModel(), node) is None

    def test_cost_model_prices_parallel_like_inner_output(self):
        db = hot_symptom_db()
        executor = Executor(db)
        plan = executor.plan(parse(HOT_QUERY, db.schema), HOT_OPTIONS)
        (node,) = parallel_nodes(plan)
        outer = executor.cost_model.estimate(node)
        inner = executor.cost_model.estimate(node.inner)
        assert outer.rows == inner.rows
        assert outer.upper == inner.upper
        assert math.isfinite(outer.upper)
        split = parallel_cost_split(executor.cost_model, node)
        assert split is not None
        serial_cost, parallel_cost = split
        assert parallel_cost < serial_cost  # why it was sharded
        assert outer.cost == parallel_cost

    def test_explain_costs_renders_the_parallel_node(self):
        session = Session(hot_symptom_db(), options=HOT_OPTIONS)
        text = session.explain(HOT_QUERY, costs=True)
        assert "Partitioned[k=7,budget=800,workers=4]" in text


# ----------------------------------------------------------------------
# Execution: differential, reports, degradation
# ----------------------------------------------------------------------


class TestParallelExecution:
    def test_pool_run_matches_oracle_and_records_workers(self):
        db = hot_symptom_db(groups=6, persons=300, diseases=120)
        expr = parse("Person join[2=2] Disease", db.schema)
        executor = Executor(db)
        options = PlannerOptions(partition_budget=2000)
        plan = force_parallel(executor.plan(expr, options), 2)
        assert parallel_nodes(plan)
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        (run,) = parallel_runs(executor)
        assert run.workers == 2 and run.budget == 2000
        assert run.actual() > 1 and run.pool_fallback is None
        assert run.actual() == len(run.timings)
        slices = run.worker_slices()
        assert sum(s.batches for s in slices) == run.actual()
        assert all(s.seconds >= 0.0 for s in slices)
        assert "workers=2" in run.render()

    def test_single_batch_runs_inline(self):
        # One key group ⇒ one batch ⇒ no pool round-trip.
        db = database(
            {"R": 2, "S": 1}, R=[(i, 0) for i in range(5)], S=[(0,)]
        )
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        (join,) = [
            n for n in plan_expression(expr).nodes()
            if not isinstance(n, ScanOp)
        ]
        plan = PartitionedOp(join, 1, 10**6, workers=4)
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        (run,) = parallel_runs(executor)
        assert run.actual() == 1
        assert run.pool_fallback == "single batch"

    def test_broken_pool_degrades_to_inline(self, monkeypatch):
        class BrokenFuture:
            def result(self):
                raise BrokenProcessPool("worker died")

            def cancel(self):
                return True

        class BrokenPool:
            def submit(self, fn, *args):
                return BrokenFuture()

            def shutdown(self, wait=False, cancel_futures=False):
                pass

        monkeypatch.setattr(
            parallel_module, "_pool_for", lambda workers: BrokenPool()
        )
        db = hot_symptom_db(groups=6, persons=200, diseases=80)
        expr = parse(HOT_QUERY, db.schema)
        executor = Executor(db)
        options = PlannerOptions(partition_budget=100)
        plan = force_parallel(executor.plan(expr, options), 3)
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        (run,) = parallel_runs(executor)
        assert run.pool_fallback is not None
        assert "broke" in run.pool_fallback
        assert "ran inline" in run.render()

    def test_division_with_empty_divisor(self):
        db = database(
            {"R": 2, "S": 1}, R=[(i, 0) for i in range(8)], S=[]
        )
        expr = classic_division_expr()
        executor = Executor(db)
        options = PlannerOptions(partition_budget=5)
        plan = force_parallel(executor.plan(expr, options), 2)
        assert parallel_nodes(plan)
        assert executor.execute(plan) == evaluate_reference(expr, db)

    def test_session_report_surfaces_worker_timings(self):
        session = Session(hot_symptom_db(), options=HOT_OPTIONS)
        session.run(HOT_QUERY)
        text = session.last_report.render()
        assert "workers=4" in text
        assert "batch(es)" in text


class TestStaleness:
    def test_mutation_between_gathers_raises_stale_data(self, monkeypatch):
        """A mid-query mutation surfaces at gather time, deterministically.

        The fake pool runs each batch inline at ``submit`` and mutates
        the database after the first one — so by the time the first
        result is folded in, the version token has moved and the
        gather-side re-check must refuse to continue.
        """
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )

        class MutatingPool:
            def __init__(self):
                self.submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                if self.submitted == 1:
                    db._relations = {
                        **db._relations, "S": frozenset({(999,)})
                    }
                future = Future()
                future.set_result(fn(*args))
                return future

        pool = MutatingPool()
        monkeypatch.setattr(
            parallel_module, "_pool_for", lambda workers: pool
        )
        executor = Executor(db)
        serial = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=60)
        )
        plan = force_parallel(serial, 2)
        assert parallel_nodes(plan)
        with pytest.raises(StaleDataError):
            executor.execute(plan)
        assert pool.submitted >= 1

    def test_pool_integration_without_mutation_is_clean(self):
        # Same shape, real pool, no mutation: must simply succeed.
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        expr = classic_division_expr()
        executor = Executor(db)
        serial = executor.plan(expr, PlannerOptions(partition_budget=60))
        plan = force_parallel(serial, 2)
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)


# ----------------------------------------------------------------------
# Properties: parallel ≡ serial partitioned ≡ unpartitioned ≡ oracle
# ----------------------------------------------------------------------


@PROPERTY
@given(
    expressions(max_depth=4),
    databases(),
    st.sampled_from([1, 2, 3]),
)
def test_parallel_matches_serial_and_oracle(expr, db, workers):
    oracle = evaluate_reference(expr, db)

    serial = Executor(db)
    unpartitioned = serial.execute(serial.plan(expr))
    assert unpartitioned == oracle

    tight = Executor(db)
    partitioned = tight.execute(
        tight.plan(expr, PlannerOptions(partition_budget=5))
    )
    assert partitioned == oracle

    par = Executor(db)
    plan = force_parallel(
        par.plan(expr, PlannerOptions(partition_budget=5)), workers
    )
    assert par.execute(plan) == oracle


@PROPERTY
@given(expressions(max_depth=3), databases(), st.sampled_from([2, 4]))
def test_parallel_over_budgeted_plans_matches_oracle(expr, db, workers):
    """Pooled batched operators reproduce the serial rows exactly."""
    executor = Executor(db)
    serial = executor.plan(expr, PlannerOptions(partition_budget=3))
    plan = force_parallel(serial, workers)
    assert executor.execute(plan) == evaluate_reference(expr, db)


# ----------------------------------------------------------------------
# The pool runs the batches the budget cuts
# ----------------------------------------------------------------------


def batch_shape(run):
    return [
        (b.groups, b.input_rows, b.output_rows, b.in_flight, b.fallback)
        for b in run.batches
    ]


@pytest.mark.parametrize("backend", ["memory", "shm"])
def test_pooled_batches_are_the_serial_ones_on_the_fig1_semijoin(backend):
    """The Fig. 1 semijoin under a budget: one plan node, whose
    ``workers`` moves its batches to the pool and changes none."""
    db = hot_symptom_db(groups=8, persons=1200, diseases=400)
    options = PlannerOptions(partition_budget=800, max_workers=2)
    oracle = evaluate_reference(parse(HOT_QUERY, db.schema), db)
    seen = []
    with Session(
        db, options=options, cache_results=False, backend=backend
    ) as session:
        for workers in (2, 1):
            query = session.query(
                HOT_QUERY, replace(options, max_workers=workers)
            )
            assert query.run() == oracle
            (run,) = query.last_report.stats.partition_runs.values()
            seen.append((query.plan().label(), run))
    (pooled_label, pooled), (serial_label, serial) = seen
    assert pooled_label == "Partitioned[k=4,budget=800,workers=2]"
    assert serial_label == "Partitioned[k=4,budget=800]"
    assert isinstance(pooled, ParallelRun) and pooled.pool_fallback is None
    assert type(serial) is PartitionRun
    assert pooled.actual() > 1
    assert batch_shape(pooled) == batch_shape(serial)
    assert (pooled.planned, pooled.budget, pooled.fallback) == (
        serial.planned,
        serial.budget,
        serial.fallback,
    )
    assert pooled.within_budget() and serial.within_budget()
