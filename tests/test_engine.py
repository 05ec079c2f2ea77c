"""Tests for the cost-aware engine: planner routing and executor."""

import pytest

from repro.algebra.ast import Join, Projection, Rel, Semijoin, rel
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.data.database import database
from repro.data.schema import Schema
from repro.engine import (
    Executor,
    Planner,
    PlannerOptions,
    plan_expression,
)
from repro.engine.plan import (
    DivisionOp,
    FilterOp,
    HashJoinOp,
    HashSemijoinOp,
    NestedLoopJoinOp,
    NestedLoopSemijoinOp,
    ProjectOp,
    ScanOp,
)
from repro.engine.planner import explain, match_division
from repro.errors import ArityError, SchemaError
from repro.extended.division_plan import (
    containment_division_plan,
    division_plan,
    equality_division_plan,
)
from repro.extended.evaluator import evaluate_extended
from repro.session import Session
from repro.setjoins.division import classic_division_expr, divide_reference
from repro.workloads.generators import (
    crossproduct_division_family,
    division_database,
)
from tests.strategies import engine_run

SCHEMA = Schema({"R": 2, "S": 1})


@pytest.fixture
def db():
    return database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 7), (3, 7), (3, 8), (3, 9)],
        S=[(7,), (8,)],
    )


class TestDivisionRouting:
    def test_classic_plan_routes_to_division_op(self):
        plan = plan_expression(classic_division_expr())
        assert isinstance(plan, DivisionOp)
        assert plan.label().startswith("Division[hash,")
        assert not plan.eq
        assert plan.empty_divisor == "all"

    def test_gamma_containment_routes(self):
        plan = plan_expression(containment_division_plan())
        assert isinstance(plan, DivisionOp)
        assert plan.empty_divisor == "none"

    def test_gamma_equality_routes(self):
        plan = plan_expression(equality_division_plan())
        assert isinstance(plan, DivisionOp)
        assert plan.eq

    def test_division_inside_larger_expression(self):
        inner = classic_division_expr()
        outer = Projection(inner, (1, 1))
        plan = plan_expression(outer)
        assert isinstance(plan, ProjectOp)
        assert isinstance(plan.child, DivisionOp)

    def test_match_division_rejects_near_misses(self):
        # Same shape but the join condition is not the cross product.
        r, s = Rel("R", 2), Rel("S", 1)
        candidates = Projection(r, (1,))
        joined = Join(candidates, s, "1=1")
        from repro.algebra.ast import Difference

        near_miss = Difference(
            candidates,
            Projection(Difference(joined, r), (1,)),
        )
        assert match_division(near_miss) is None

    def test_rewrite_can_be_disabled(self):
        options = PlannerOptions(rewrite_divisions=False)
        plan = plan_expression(classic_division_expr(), options)
        assert not isinstance(plan, DivisionOp)
        assert not any(
            isinstance(node, DivisionOp) for node in plan.nodes()
        )


class TestOperatorChoice:
    def test_equijoin_uses_hash(self):
        plan = plan_expression(parse("R join[2=1] S", SCHEMA))
        assert isinstance(plan, HashJoinOp)

    def test_cartesian_uses_nested_loop(self):
        plan = plan_expression(parse("R cartesian S", SCHEMA))
        assert isinstance(plan, NestedLoopJoinOp)
        assert "dichotomy" in plan.note

    def test_order_join_uses_nested_loop(self):
        plan = plan_expression(parse("S join[1<1] S", SCHEMA))
        assert isinstance(plan, NestedLoopJoinOp)

    def test_equisemijoin_uses_hash(self):
        plan = plan_expression(parse("R semijoin[2=1] S", SCHEMA))
        assert isinstance(plan, HashSemijoinOp)

    def test_order_semijoin_uses_nested_loop(self):
        plan = plan_expression(parse("R semijoin[2<1] S", SCHEMA))
        assert isinstance(plan, NestedLoopSemijoinOp)

    def test_projected_join_becomes_semijoin(self):
        plan = plan_expression(parse("project[1](R join[2=1] S)", SCHEMA))
        assert isinstance(plan, ProjectOp)
        assert isinstance(plan.child, HashSemijoinOp)

    def test_projected_join_right_side_mirrored(self):
        plan = plan_expression(parse("project[3](R join[2=1] S)", SCHEMA))
        assert isinstance(plan, ProjectOp)
        assert isinstance(plan.child, HashSemijoinOp)
        # The semijoin's left operand is the right join operand.
        assert plan.child.left.logical == Rel("S", 1)
        assert plan.positions == (1,)

    def test_stacked_selections_fuse(self):
        expr = parse(
            "select[1=2](select[2<3](T))", Schema({"T": 3})
        )
        plan = plan_expression(expr)
        assert isinstance(plan, FilterOp)
        assert len(plan.predicates) == 2

    def test_scan_checks_arity(self, db):
        with pytest.raises(ArityError):
            engine_run(rel("R", 3), db)


class TestExecutor:
    def test_results_match_structural_evaluator(self, db):
        for text in (
            "R join[2=1] S",
            "project[1](R join[2=1] S)",
            "R cartesian S",
            "R semijoin[2=1] S",
            "project[2,1](R) minus (R semijoin[2=1] R)",
            "tag[5](S) union project[1,1](S)",
        ):
            expr = parse(text, SCHEMA)
            assert engine_run(expr, db) == evaluate(expr, db), text

    def test_index_reused_across_subplans(self, db):
        # Both joins probe S on column 1: one index build, one reuse.
        expr = parse("(R join[2=1] S) union (R join[2=1] S)", SCHEMA)
        executor = Executor(db)
        executor.execute(plan_expression(expr))
        assert executor.stats.indexes_built == 1

    def test_index_reused_across_queries(self, db):
        executor = Executor(db)
        executor.execute(plan_expression(parse("R join[2=1] S", SCHEMA)))
        built = executor.stats.indexes_built
        executor.execute(
            plan_expression(parse("R semijoin[2=1] S", SCHEMA))
        )
        assert executor.stats.indexes_built == built
        assert executor.stats.index_reuses >= 1

    def test_stats_report_renders(self, db):
        executor = Executor(db)
        executor.execute(plan_expression(parse("R join[2=1] S", SCHEMA)))
        report = executor.stats.report()
        assert "max intermediate" in report
        assert "HashJoin" in report


class TestVersionInvalidation:
    """Mutated relation contents must never be served stale.

    The public API is immutable (every "mutation" returns a new
    ``Database``), so these tests simulate the real hazard — a storage
    backend swapping a relation's contents behind the same handle — by
    assigning ``_relations`` directly.  The executor's version token
    (``Database.version_token``) must catch that and drop its indexes,
    statistics, plans, and memo.
    """

    def test_mutating_database_between_runs_refreshes_results(self):
        db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 8)], S=[(7,)])
        expr = parse("R join[2=1] S", SCHEMA)
        session = Session(db)
        assert session.run(expr) == {(1, 7, 7)}
        db._relations = {**db._relations, "S": frozenset({(8,)})}
        # Same handle, new contents: the session's executor must
        # rebuild its index on S instead of probing the stale one.
        assert session.run(expr) == {(2, 8, 8)}

    def test_executor_drops_indexes_stats_and_plans(self):
        db = database(
            {"R": 2, "S": 1},
            R=[(i, i % 3) for i in range(9)],
            S=[(0,)],
        )
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr)
        first = executor.execute(plan)
        assert len(first) == 3
        assert executor.catalog.relation("R").rows == 9
        db._relations = {**db._relations, "R": frozenset({(5, 0)})}
        replanned = executor.plan(expr)
        second = executor.execute(replanned)
        assert second == {(5, 0, 0)}
        # Statistics were re-profiled, not served from the old catalog.
        assert executor.catalog.relation("R").rows == 1

    def test_unchanged_database_keeps_plans_and_indexes(self):
        db = database(
            {"R": 2, "S": 1},
            R=[(i, i % 3) for i in range(9)],
            S=[(0,), (1,)],
        )
        expr = parse("R join[2=1] S", SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr)
        executor.execute(plan)
        builds = executor.indexes.builds
        assert executor.plan(expr) is plan  # plan memo hit
        executor.execute(plan)
        assert executor.indexes.builds == builds  # index reused


class TestDivisionSemantics:
    def test_empty_divisor_classic_returns_candidates(self):
        db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 9)])
        expr = classic_division_expr()
        assert engine_run(expr, db) == evaluate(expr, db)
        assert engine_run(expr, db) == frozenset({(1,), (2,)})

    def test_empty_divisor_gamma_returns_empty(self):
        db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 9)])
        for expr in (
            containment_division_plan(),
            equality_division_plan(),
        ):
            assert engine_run(expr, db) == evaluate_extended(expr, db)
            assert engine_run(expr, db) == frozenset()

    def test_division_plan_through_session_matches_reference(self, db):
        result = engine_run(division_plan(), db)
        assert result == evaluate_extended(containment_division_plan(), db)
        assert {a for (a,) in result} == divide_reference(db["R"], db["S"])

    def test_division_plan_eq_through_session(self, db):
        result = engine_run(division_plan(eq=True), db)
        assert result == evaluate_extended(equality_division_plan(), db)

    def test_division_plans_plan_to_division_op(self):
        assert isinstance(plan_expression(division_plan()), DivisionOp)
        assert isinstance(
            plan_expression(division_plan(eq=True)), DivisionOp
        )

    def test_division_on_generated_workload(self):
        db = division_database(
            num_keys=30, divisor_size=5, hit_fraction=0.4, seed=11
        )
        expr = classic_division_expr()
        assert engine_run(expr, db) == evaluate(expr, db)


class TestEngineBeatsClassicPlan:
    """The acceptance claim: on the Fig. 5 / Prop. 26 quadratic division
    witness family, the engine-selected plan beats the classic RA plan
    by ≥ 5× in peak intermediate size at the largest seeded size."""

    def test_linear_vs_quadratic_intermediates(self):
        expr = classic_division_expr()
        sizes = (16, 32, 64)
        ratios = []
        for n in sizes:
            db = crossproduct_division_family(n)
            classic_max = trace(expr, db).max_intermediate()
            executor = Executor(db)
            engine_result = executor.execute(plan_expression(expr))
            assert engine_result == evaluate(expr, db)
            ratios.append(classic_max / executor.stats.max_intermediate())
        assert ratios[-1] >= 5.0
        # And the separation grows with n — quadratic vs linear.
        assert ratios[0] < ratios[1] < ratios[2]

    def test_engine_intermediates_stay_linear(self):
        expr = classic_division_expr()
        peaks = []
        for n in (16, 32, 64):
            db = crossproduct_division_family(n)
            executor = Executor(db)
            executor.execute(plan_expression(expr))
            peaks.append((db.size(), executor.stats.max_intermediate()))
        for size, peak in peaks:
            assert peak <= size


class TestExplain:
    def test_explain_contains_operators_and_logical(self):
        text = explain(classic_division_expr())
        assert "Division[hash" in text
        assert " :: " in text

    def test_explain_analyze_prefixes_verdict(self):
        text = explain(
            parse("R cartesian S", SCHEMA), schema=SCHEMA, analyze=True
        )
        assert text.startswith("-- dichotomy: quadratic")

    def test_explain_analyze_requires_schema(self):
        with pytest.raises(SchemaError):
            explain(parse("R cartesian S", SCHEMA), analyze=True)


class TestTwoEvaluators:
    """``evaluate`` runs the expression as written; ``Session`` plans."""

    def test_evaluate_is_as_written_session_is_one_division_op(self):
        db = crossproduct_division_family(32)
        expr = classic_division_expr()
        memo = {}
        as_written = evaluate(expr, db, memo)
        # The structural evaluator records every logical
        # sub-expression; the largest is the quadratic cross product
        # π_A(R) × S that the engine never builds.
        cross = next(
            node for node in expr.subexpressions() if isinstance(node, Join)
        )
        largest = max(memo, key=lambda node: len(memo[node]))
        assert largest == cross
        assert len(memo[cross]) == len({a for a, __ in db["R"]}) * len(
            db["S"]
        )
        session = Session(db, cache_results=False)
        assert session.run(expr) == as_written
        executed = sorted(
            type(node).__name__
            for node in session.last_report.stats.node_rows
        )
        assert executed == ["DivisionOp", "ScanOp", "ScanOp"]

    def test_evaluate_needs_the_extension_hook_for_gamma(self, db):
        # evaluate() knows RA/SA nodes only; evaluate_extended is the
        # documented form for γ / Sort expressions.
        gamma = containment_division_plan()
        with pytest.raises(SchemaError):
            evaluate(gamma, db)
        assert evaluate_extended(gamma, db) == engine_run(gamma, db)

    def test_session_reuses_indexes_across_queries(self, db):
        session = Session(db, cache_results=False)
        session.run(parse("R join[2=1] S", SCHEMA))
        session.run(parse("R semijoin[2=1] S", SCHEMA))
        assert session.executor.indexes.builds == 1
        assert session.executor.indexes.reuses >= 1

    def test_session_does_not_pin_query_results(self, db):
        session = Session(db, cache_results=False)
        session.run(parse("R cartesian S", SCHEMA))
        # Only index state survives a run; the per-query result memo
        # and stats are reset, so repeated runs recompute and big
        # relations are never pinned outside the (here disabled)
        # bounded result cache.
        executor = session.executor
        assert executor._memo == {}
        assert executor.stats.node_rows == {}
        assert len(session.result_cache) == 0
