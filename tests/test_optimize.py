"""Tests for the plan optimizer (:mod:`repro.algebra.optimize`)."""

import pytest
from hypothesis import given, settings

from repro.algebra.ast import Join, Projection, Semijoin, is_sa, rel
from repro.algebra.evaluator import evaluate
from repro.algebra.optimize import (
    filter_joins,
    optimize,
    prune_projections,
    push_selections,
)
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.data.database import database
from repro.data.schema import Schema
from tests.strategies import databases, expressions

SCHEMA = Schema({"R": 2, "S": 1, "T": 3})


@pytest.fixture
def db():
    return database(
        SCHEMA,
        R=[(1, 2), (2, 3), (3, 1), (1, 1)],
        S=[(2,), (3,)],
        T=[(1, 2, 3)],
    )


class TestFilterJoins:
    def test_left_projection_becomes_semijoin(self):
        expr = parse("project[1,2](R join[2=1] S)", SCHEMA)
        rewritten = filter_joins(expr)
        assert isinstance(rewritten, Projection)
        assert isinstance(rewritten.child, Semijoin)

    def test_right_projection_swaps_operands(self):
        expr = parse("project[3](R join[2=1] S)", SCHEMA)
        rewritten = filter_joins(expr)
        semijoin = rewritten.child
        assert isinstance(semijoin, Semijoin)
        assert semijoin.left == rel("S", 1)
        assert rewritten.positions == (1,)

    def test_mixed_projection_untouched(self):
        expr = parse("project[1,4](R join[2=1] T)", SCHEMA)
        assert filter_joins(expr) == expr

    def test_a_side_read_through_its_join_column_is_a_filter(self, db):
        """S's column equals R's column 2 on every joined pair."""
        expr = parse("project[1,3](R join[2=1] S)", SCHEMA)
        rewritten = filter_joins(expr)
        assert rewritten == parse("project[1,2](R semijoin[2=1] S)", SCHEMA)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_non_equi_condition_supported(self, db):
        expr = parse("project[1,2](R join[2<1] S)", SCHEMA)
        rewritten = filter_joins(expr)
        assert isinstance(rewritten.child, Semijoin)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_quadratic_plan_becomes_linear(self):
        """The headline effect: π[1,2](R ⋈[1=1] R) has a quadratic
        intermediate; the rewritten semijoin plan is linear."""
        expr = parse("project[1,2](R join[1=1] R)", SCHEMA)
        rewritten = filter_joins(expr)
        big = database(
            SCHEMA, R=[(1, i) for i in range(30)]
        )
        assert evaluate(rewritten, big) == evaluate(expr, big)
        assert trace(expr, big).max_intermediate() == 900
        assert trace(rewritten, big).max_intermediate() == 30

    def test_rewrites_nested_occurrences(self):
        inner = parse("project[1,2](R join[2=1] S)", SCHEMA)
        expr = inner.union(inner)
        rewritten = filter_joins(expr)
        assert is_sa(rewritten)

    @pytest.mark.parametrize(
        "text",
        [
            "project[1,2](R join[2=1] (R join[2=1] R))",
            "project[1,2]((R join[2=1] R) join[4=1] R)",
        ],
    )
    def test_chains_become_semijoins_only(self, text, db):
        """A join under a semijoin's right side, and the inner join of
        a left-deep chain whose outer join feeds the projection."""
        expr = parse(text, SCHEMA)
        rewritten = filter_joins(expr)
        assert rewritten == parse(
            "project[1,2](R semijoin[2=1] (R semijoin[2=1] R))", SCHEMA
        )
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_unchanged_expression_is_the_same_object(self):
        expr = parse("project[1,4](R join[2=1] T)", SCHEMA)
        assert filter_joins(expr) is expr


class TestPushSelections:
    def test_through_union(self, db):
        expr = parse("select[1=2](R union R)", SCHEMA)
        rewritten = push_selections(expr)
        assert type(rewritten).__name__ == "Union"
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_through_difference_left_only(self, db):
        expr = parse("select[1<2](R minus select[1=2](R))", SCHEMA)
        rewritten = push_selections(expr)
        assert type(rewritten).__name__ == "Difference"
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_into_left_join_operand(self, db):
        expr = parse("select[1=2](R join[2=1] S)", SCHEMA)
        rewritten = push_selections(expr)
        assert isinstance(rewritten, Join)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_into_right_join_operand(self, db):
        expr = parse("select[4<5](R join[] T)", SCHEMA)
        rewritten = push_selections(expr)
        assert isinstance(rewritten, Join)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_cross_side_selection_becomes_theta(self, db):
        expr = parse("select[1=3](R join[] S)", SCHEMA)
        rewritten = push_selections(expr)
        assert isinstance(rewritten, Join)
        assert len(rewritten.cond) == 1
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_cross_side_order_selection(self, db):
        expr = parse("select[3<1](R join[] S)", SCHEMA)
        rewritten = push_selections(expr)
        assert isinstance(rewritten, Join)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_into_semijoin_left(self, db):
        expr = parse("select[1=2](R semijoin[2=1] S)", SCHEMA)
        rewritten = push_selections(expr)
        assert isinstance(rewritten, Semijoin)
        assert evaluate(rewritten, db) == evaluate(expr, db)


class TestOptimizePipeline:
    def test_combines_all_rewrites(self, db):
        expr = parse(
            "project[1,2](select[1=2](R join[2=1] S))", SCHEMA
        )
        rewritten = optimize(expr)
        assert is_sa(rewritten)
        assert evaluate(rewritten, db) == evaluate(expr, db)

    def test_prunes_projections(self):
        expr = parse("project[1](project[2,1](R))", SCHEMA)
        assert prune_projections(expr) == parse("project[2](R)", SCHEMA)


@settings(max_examples=120, deadline=None)
@given(expressions(max_depth=4), databases())
def test_optimize_preserves_semantics(expr, db):
    assert evaluate(optimize(expr), db) == evaluate(expr, db)


@settings(max_examples=60, deadline=None)
@given(expressions(max_depth=4), databases())
def test_optimize_never_grows_intermediates(expr, db):
    before = trace(expr, db).max_intermediate()
    after = trace(optimize(expr), db).max_intermediate()
    assert after <= before


@settings(max_examples=60, deadline=None)
@given(expressions(max_depth=3))
def test_optimize_is_idempotent(expr):
    once = optimize(expr)
    assert optimize(once) == once
