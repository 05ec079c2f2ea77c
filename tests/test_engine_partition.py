"""Partitioned execution: sizing, the budget invariant, and edge cases.

The contract under test (see ``docs/engine.md`` § Partitioned
execution):

* the planner wraps a partitionable operator iff statistics are
  present, a budget is set, and the operator's *sound* in-flight upper
  bound exceeds it;
* execution in batches computes exactly the unpartitioned relation
  (differential against the structural planner and the brute-force
  oracle);
* no batch ever holds more than the budget in flight, except a batch
  that is a single atomic key group (which cannot be subdivided) —
  property-tested on random databases and expressions;
* mutation between batches is detected via the version token
  (:class:`~repro.errors.StaleDataError`), never folded into a
  mixed-version result.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.partition as partition_module
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.reference import evaluate_reference
from repro.data.database import database
from repro.data.schema import Schema
from repro.engine import (
    Executor,
    PartitionedOp,
    PlannerOptions,
    plan_expression,
)
from repro.engine.partition import (
    MAX_PARTITIONS,
    pack_groups,
    planned_partitions,
)
from repro.engine.plan import (
    DivisionOp,
    HashJoinOp,
    HashSemijoinOp,
    PlanNode,
)
from repro.engine.planner import explain
from repro.errors import SchemaError, StaleDataError
from repro.setjoins.division import (
    classic_division_expr,
    divide_reference,
)
from repro.workloads.generators import (
    crossproduct_division_family,
    division_database,
)
from tests.strategies import databases, engine_run, expressions

SCHEMA = Schema({"R": 2, "S": 1})

#: Derandomized profile matching the other engine property tests.
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def join_db(rows=60, keys=7):
    return database(
        {"R": 2, "S": 1},
        R=[(i, i % keys) for i in range(rows)],
        S=[(j,) for j in range(keys)],
    )


def partitioned_nodes(plan):
    return [n for n in plan.nodes() if isinstance(n, PartitionedOp)]


def assert_invariant(stats, budget):
    """Every batch within budget, or a lone atomic group."""
    for node, prun in stats.partition_runs.items():
        assert prun.budget == budget
        for batch in prun.batches:
            assert batch.within(budget), (
                f"{node.label()}: batch {batch} exceeds budget {budget} "
                f"with {batch.groups} groups"
            )


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


class TestPackGroups:
    def test_respects_capacity(self):
        weights = {f"k{i}": 3 for i in range(10)}
        batches = pack_groups(weights, 9)
        assert sorted(k for b in batches for k in b) == sorted(weights)
        for batch in batches:
            assert sum(weights[k] for k in batch) <= 9

    def test_oversized_group_is_a_singleton_batch(self):
        weights = {"huge": 50, "a": 2, "b": 2}
        batches = pack_groups(weights, 10)
        assert ("huge",) in batches
        for batch in batches:
            total = sum(weights[k] for k in batch)
            assert total <= 10 or batch == ("huge",)

    def test_deterministic(self):
        weights = {i: (i % 5) + 1 for i in range(20)}
        assert pack_groups(weights, 7) == pack_groups(dict(weights), 7)

    def test_zero_capacity_degenerates_to_singletons(self):
        weights = {"a": 1, "b": 2}
        assert sorted(pack_groups(weights, 0)) == [("a",), ("b",)]

    def test_empty_weights(self):
        assert pack_groups({}, 10) == []

    def test_best_fit_prefers_the_tightest_batch(self):
        # 7 then 5 open batches with room 3 and 5; the 4 must go to the
        # 5-room batch (best fit), leaving room for the 3 beside the 7.
        weights = {"a": 7, "b": 5, "c": 4, "d": 3}
        batches = {frozenset(b) for b in pack_groups(weights, 10)}
        assert batches == {frozenset({"a", "d"}), frozenset({"b", "c"})}

    def test_packing_scales_past_first_fit_quadratics(self):
        import time

        # The first-fit pathologies: every group oversized (capacity 0)
        # and every pair of groups just over capacity — both quadratic
        # under a linear fit scan, both near-linear under binary-search
        # best fit.  Generous wall-clock bound for loaded CI machines.
        many = 50_000
        start = time.perf_counter()
        assert len(pack_groups({i: 10 for i in range(many)}, 0)) == many
        assert (
            len(pack_groups({i: 51 for i in range(many)}, 100)) == many
        )
        assert time.perf_counter() - start < 10.0


class TestPlannedPartitions:
    def test_ceiling(self):
        assert planned_partitions(100.0, 30) == 4
        assert planned_partitions(90.0, 30) == 3
        assert planned_partitions(10.0, 30) == 1

    def test_capped(self):
        assert planned_partitions(1e12, 1) == MAX_PARTITIONS
        assert planned_partitions(float("inf"), 10) == MAX_PARTITIONS


def test_planner_options_reject_a_nonpositive_budget():
    # Validated at construction: apply_partitioning only sees plans
    # with partitionable operators, so a late check would make the
    # same bad option fail on some queries and pass on others.
    with pytest.raises(SchemaError):
        PlannerOptions(partition_budget=0)
    with pytest.raises(SchemaError):
        PlannerOptions(partition_budget=-5)
    assert PlannerOptions(partition_budget=None).partition_budget is None


# ----------------------------------------------------------------------
# Planner sizing decisions
# ----------------------------------------------------------------------


class TestPlannerSizing:
    def test_wraps_hash_join_over_budget(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=30),
        )
        wrapped = partitioned_nodes(plan)
        assert len(wrapped) == 1
        assert isinstance(wrapped[0].inner, HashJoinOp)
        assert wrapped[0].budget == 30
        assert wrapped[0].partitions >= 2

    def test_budget_larger_than_input_skips_partitioning(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=10**9),
        )
        assert partitioned_nodes(plan) == []

    def test_no_budget_means_no_partitioning(self):
        executor = Executor(join_db())
        plan = executor.plan(parse("R join[2=1] S", SCHEMA))
        assert partitioned_nodes(plan) == []

    def test_zero_stats_planning_never_partitions(self):
        # Without statistics nothing sound can be sized against the
        # budget, so the structural planner leaves operators one-shot.
        plan = plan_expression(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=2),
        )
        assert partitioned_nodes(plan) == []

    def test_wraps_division_over_budget(self):
        db = crossproduct_division_family(64)
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=50)
        )
        wrapped = partitioned_nodes(plan)
        assert len(wrapped) == 1
        assert isinstance(wrapped[0].inner, DivisionOp)

    def test_wraps_semijoin_over_budget(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(
            parse("R semijoin[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=20),
        )
        wrapped = partitioned_nodes(plan)
        assert len(wrapped) == 1
        assert isinstance(wrapped[0].inner, HashSemijoinOp)

    def test_partitioned_op_rejects_unpartitionable_inner(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(parse("R join[2=1] S", SCHEMA))
        scan = plan.children()[0]
        with pytest.raises(SchemaError):
            PartitionedOp(scan, 2, 10)

    def test_budget_never_flips_division_to_the_quadratic_plan(self):
        """The scatter surcharge must not influence operator choice.

        Partition wrapping runs as a post-pass *after* the division-vs-
        structural cost comparison; if it instead inflated the division
        candidate's price during the comparison, a tight budget could
        re-quadratify the plan — the wrapped linear operator would lose
        to the unpartitionable classic RA shape.
        """
        db = division_database(
            num_keys=1500, divisor_size=4, extra_per_key=2, seed=11
        )
        for budget in (1, 50, 500, 5000):
            executor = Executor(db)
            plan = executor.plan(
                classic_division_expr(),
                PlannerOptions(partition_budget=budget),
            )
            assert any(
                isinstance(node, DivisionOp) for node in plan.nodes()
            ), f"budget {budget} re-quadratified the division plan"

    def test_apply_partitioning_is_idempotent(self):
        # Public API: re-applying to an already-partitioned plan must
        # not wrap a PartitionedOp around another PartitionedOp's inner.
        from repro.engine import apply_partitioning

        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=40)
        )
        assert partitioned_nodes(plan)
        again = apply_partitioning(plan, executor.cost_model, 40)
        assert again == plan


def strip_partitioning(node: PlanNode) -> PlanNode:
    """Remove every PartitionedOp wrapper, keeping the rest intact."""
    from dataclasses import fields, replace

    if isinstance(node, PartitionedOp):
        return strip_partitioning(node.inner)
    changes = {}
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, PlanNode):
            stripped = strip_partitioning(value)
            if stripped is not value:
                changes[f.name] = stripped
    return replace(node, **changes) if changes else node


@PROPERTY
@given(expressions(max_depth=4), databases(), st.integers(1, 40))
def test_partitioning_is_a_pure_wrapper_pass(expr, db, budget):
    """Modulo PartitionedOp wrappers, the budget changes nothing.

    Every operator-choice decision must be identical with and without
    a budget — partitioning is applied after them, never priced into
    them.
    """
    budgeted = Executor(db).plan(
        expr, PlannerOptions(partition_budget=budget)
    )
    unbudgeted = Executor(db).plan(expr)
    assert strip_partitioning(budgeted) == unbudgeted


# ----------------------------------------------------------------------
# Execution: differential + recorded runs
# ----------------------------------------------------------------------


class TestPartitionedExecution:
    def test_join_matches_oracle_and_stays_within_budget(self):
        db = join_db()
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr, PlannerOptions(partition_budget=30))
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        assert executor.stats.partition_runs
        assert_invariant(executor.stats, 30)
        assert executor.stats.max_in_flight() <= 30

    def test_division_matches_oracle_and_stays_within_budget(self):
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        budget = 60  # covers the replicated divisor + several groups
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=budget)
        )
        assert partitioned_nodes(plan)
        result = executor.execute(plan)
        assert {a for (a,) in result} == divide_reference(db["R"], db["S"])
        assert_invariant(executor.stats, budget)
        assert executor.stats.max_in_flight() <= budget

    def test_run_entry_point_with_budget(self):
        db = join_db()
        expr = parse("R join[2=1] S", SCHEMA)
        options = PlannerOptions(partition_budget=25)
        assert engine_run(expr, db, options) == evaluate_reference(
            expr, db
        )

    def test_estimated_vs_actual_batch_counts_recorded(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=30),
        )
        executor.execute(plan)
        (prun,) = executor.stats.partition_runs.values()
        assert prun.planned >= 2  # the planner's upper-bound prediction
        assert prun.actual() == len(prun.batches) >= 2
        assert prun.peak_in_flight() <= 30
        assert "planned" in prun.render()

    def test_report_mentions_partitioned_operators(self):
        db = join_db()
        executor = Executor(db)
        plan = executor.plan(
            parse("R join[2=1] S", SCHEMA),
            PlannerOptions(partition_budget=30),
        )
        executor.execute(plan)
        report = executor.stats.report()
        assert "Partitioned[k=" in report
        assert "peak-in-flight" in report

    def test_partition_index_reuse_across_executions_and_plans(self):
        db = join_db()
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr, PlannerOptions(partition_budget=30))
        first = executor.execute(plan)
        builds = executor.indexes.builds
        assert builds >= 2  # one grouping build per join side
        executor.reset_query_state()
        second = executor.execute(plan)
        assert second == first
        assert executor.indexes.builds == builds  # nothing regrouped
        assert executor.indexes.reuses >= 2
        # The groupings share cache keys with the one-shot hash join:
        # executing the *unpartitioned* plan rebuilds nothing either.
        executor.reset_query_state()
        one_shot = executor.plan(expr, PlannerOptions(partition_budget=None))
        assert not partitioned_nodes(one_shot)
        assert executor.execute(one_shot) == first
        assert executor.indexes.builds == builds

    def test_explain_shows_partition_counts_and_stays_parseable(self):
        db = join_db()
        executor = Executor(db)
        options = PlannerOptions(partition_budget=30)
        plan = executor.plan(parse("R join[2=1] S", SCHEMA), options)
        rendered = explain(
            parse("R join[2=1] S", SCHEMA),
            options,
            plan=plan,
            costs=True,
            cost_model=executor.cost_model,
        )
        assert "Partitioned[k=" in rendered
        assert "budget=30" in rendered
        for line in rendered.splitlines():
            __, sep, logical = line.partition(" :: ")
            assert sep, f"unsplittable explain line: {line!r}"
            reparsed = parse(logical.strip(), SCHEMA)
            assert reparsed.arity >= 1


# ----------------------------------------------------------------------
# Edge cases (the ISSUE 4 satellite checklist)
# ----------------------------------------------------------------------


class TestBudgetEdgeCases:
    def test_empty_relations(self):
        db = database({"R": 2, "S": 1}, R=[], S=[])
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr, PlannerOptions(partition_budget=5))
        assert executor.execute(plan) == frozenset()
        assert_invariant(executor.stats, 5)

    def test_empty_divisor_keeps_classic_semantics(self):
        # R ÷ ∅ = π_A(R) for the classic plan, partitioned or not.
        db = database({"R": 2, "S": 1}, R=[(i, 0) for i in range(30)], S=[])
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=20)
        )
        result = executor.execute(plan)
        assert {a for (a,) in result} == set(range(30))
        assert_invariant(executor.stats, 20)

    def test_empty_dividend(self):
        db = database({"R": 2, "S": 1}, R=[], S=[(b,) for b in range(40)])
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=10)
        )
        assert executor.execute(plan) == frozenset()

    def test_budget_of_one_row(self):
        """The degenerate budget: every batch is one atomic group.

        A single key group (its rows plus its possible output) always
        weighs more than one row, so nothing can share a batch; the
        packing falls back to singletons, results stay exact, and every
        over-budget batch is atomic — the invariant's escape hatch.
        """
        db = join_db(rows=24, keys=6)
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr, PlannerOptions(partition_budget=1))
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        (prun,) = executor.stats.partition_runs.values()
        assert prun.actual() == 6  # one batch per join key
        for batch in prun.batches:
            assert batch.groups == 1
            assert batch.within(1)

    def test_mutation_between_batches_raises_stale_data(self, monkeypatch):
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=60)
        )
        assert partitioned_nodes(plan)

        calls = {"count": 0}
        original = partition_module.kernels.quotient

        def mutating_quotient(trie, divisor, eq):
            calls["count"] += 1
            if calls["count"] == 1:
                # A storage backend swapping contents mid-run: same
                # handle, new relation value — the version token moves.
                db._relations = {**db._relations, "S": frozenset({(999,)})}
            return original(trie, divisor, eq)

        monkeypatch.setattr(
            partition_module.kernels, "quotient", mutating_quotient
        )
        with pytest.raises(StaleDataError):
            executor.execute(plan)
        assert calls["count"] == 1  # no batch ran against mixed versions

    def test_mutation_invalidates_partitioned_plan_between_queries(self):
        db = join_db()
        expr = parse("R join[2=1] S", SCHEMA)
        options = PlannerOptions(partition_budget=30)
        executor = Executor(db)
        first = executor.execute(executor.plan(expr, options))
        assert len(first) == 60
        db._relations = {**db._relations, "R": frozenset({(1, 2)})}
        second = executor.execute(executor.plan(expr, options))
        assert second == {(1, 2, 2)}


# ----------------------------------------------------------------------
# Properties: budget invariant + differential, random workloads
# ----------------------------------------------------------------------


@PROPERTY
@given(expressions(max_depth=4), databases(), st.integers(1, 40))
def test_partitioned_execution_matches_oracle(expr, db, budget):
    executor = Executor(db)
    plan = executor.plan(expr, PlannerOptions(partition_budget=budget))
    assert executor.execute(plan) == evaluate_reference(expr, db)


@PROPERTY
@given(expressions(max_depth=4), databases(max_rows=12), st.integers(1, 25))
def test_no_batch_exceeds_the_budget(expr, db, budget):
    """The packing invariant on random plans, databases, and budgets."""
    executor = Executor(db)
    plan = executor.plan(expr, PlannerOptions(partition_budget=budget))
    executor.execute(plan)
    assert_invariant(executor.stats, budget)


@PROPERTY
@given(expressions(max_depth=3), databases())
def test_partitioned_and_unpartitioned_plans_agree(expr, db):
    tight = Executor(db)
    loose = Executor(db)
    partitioned = tight.execute(
        tight.plan(expr, PlannerOptions(partition_budget=3))
    )
    one_shot = loose.execute(loose.plan(expr))
    assert partitioned == one_shot


# ----------------------------------------------------------------------
# One-shot fallback: replicated side meets the budget alone
# ----------------------------------------------------------------------


class TestOneShotFallback:
    """Capacity ``budget − replicated ≤ 0`` collapses to one batch.

    Before the fix, :func:`~repro.engine.partition.pack_groups` was
    handed the non-positive capacity directly and degenerated to one
    singleton batch *per key group* — the replicated side rescanned
    once per group for zero memory gain, since every batch already
    exceeded the budget by the replicated rows alone.
    """

    def test_packed_or_fallback_collapses_to_one_batch(self):
        weights = {k: 1 for k in range(12)}
        batches, reason = partition_module.packed_or_fallback(
            weights, budget=10, replicated=10
        )
        assert len(batches) == 1  # was 12 singleton batches before
        assert set(batches[0]) == set(weights)
        assert "one-shot" in reason

    def test_packed_or_fallback_normal_when_capacity_remains(self):
        weights = {k: 1 for k in range(12)}
        batches, reason = partition_module.packed_or_fallback(
            weights, budget=10, replicated=4
        )
        assert reason is None
        assert batches == pack_groups(weights, 6)
        assert len(batches) > 1

    def test_packed_or_fallback_empty_weights(self):
        assert partition_module.packed_or_fallback({}, 5, 99) == ([], None)

    def test_division_with_oversized_divisor_runs_one_shot(self):
        db = division_database(
            num_keys=40, divisor_size=25, extra_per_key=2, seed=1
        )
        budget = 20  # < |S| = 25: the replicated divisor alone blows it
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=budget)
        )
        assert partitioned_nodes(plan)
        result = executor.execute(plan)
        assert {a for (a,) in result} == divide_reference(db["R"], db["S"])
        (prun,) = executor.stats.partition_runs.values()
        assert prun.actual() == 1
        assert prun.fallback is not None
        assert "one-shot" in prun.fallback
        assert all(batch.fallback for batch in prun.batches)
        assert all(batch.within(budget) for batch in prun.batches)
        assert "one-shot fallback" in prun.render()

    def test_nested_loop_semijoin_runs_one_shot(self):
        db = join_db(rows=50, keys=30)
        budget = 25  # < |S| = 30 replicated probe rows
        executor = Executor(db)
        plan = executor.plan(
            parse("R semijoin[2>1] S", SCHEMA),
            PlannerOptions(partition_budget=budget),
        )
        assert partitioned_nodes(plan)
        expr = parse("R semijoin[2>1] S", SCHEMA)
        assert executor.execute(plan) == evaluate_reference(expr, db)
        (prun,) = executor.stats.partition_runs.values()
        assert prun.actual() == 1
        assert prun.fallback is not None
        assert all(batch.fallback for batch in prun.batches)

    def test_plan_note_flags_the_possible_fallback(self):
        db = division_database(
            num_keys=40, divisor_size=25, extra_per_key=2, seed=1
        )
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=20)
        )
        (wrapped,) = partitioned_nodes(plan)
        assert "one-shot fallback possible" in wrapped.note

    def test_comfortable_budget_has_no_fallback(self):
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        executor = Executor(db)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=60)
        )
        executor.execute(plan)
        (prun,) = executor.stats.partition_runs.values()
        assert prun.fallback is None
        assert prun.actual() > 1
        assert not any(batch.fallback for batch in prun.batches)
