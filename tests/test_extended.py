"""Tests for the extended algebra (γ) and the Section 5 linear plans."""

import pytest
from hypothesis import given, settings

from repro.algebra.ast import Rel, rel
from repro.data.database import database
from repro.data.schema import Schema
from repro.errors import PositionError, SchemaError
from repro.extended.ast import Aggregate, GroupBy, group_by
from repro.extended.division_plan import (
    containment_division_plan,
    equality_division_plan,
    plan_intermediate_bound,
)
from repro.extended.evaluator import evaluate_extended, trace_extended
from repro.setjoins.division import divide_reference, divide_reference_eq
from tests.strategies import databases


@pytest.fixture
def db():
    return database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 7), (3, 7), (3, 8), (3, 9)],
        S=[(7,), (8,)],
    )


class TestGroupByNode:
    def test_arity(self):
        node = group_by(rel("R", 2), [1], "count(2)")
        assert node.arity == 2

    def test_positions_validated(self):
        with pytest.raises(PositionError):
            GroupBy(rel("R", 2), (3,), ())
        with pytest.raises(PositionError):
            group_by(rel("R", 2), [1], "count(5)")

    def test_needs_something(self):
        with pytest.raises(SchemaError):
            GroupBy(rel("R", 2), (), ())

    def test_unknown_aggregate(self):
        with pytest.raises(SchemaError):
            Aggregate("avg", 1)


class TestGroupByEvaluation:
    def test_count_distinct(self, db):
        node = group_by(rel("R", 2), [1], "count(2)")
        assert evaluate_extended(node, db) == frozenset(
            {(1, 2), (2, 1), (3, 3)}
        )

    def test_global_count(self, db):
        node = group_by(rel("S", 1), [], "count(1)")
        assert evaluate_extended(node, db) == frozenset({(2,)})

    def test_global_count_empty_input(self):
        empty = database({"R": 2, "S": 1})
        node = group_by(rel("S", 1), [], "count(1)")
        assert evaluate_extended(node, empty) == frozenset({(0,)})

    def test_min_max_sum(self, db):
        node = group_by(rel("R", 2), [1], "min(2)", "max(2)", "sum(2)")
        result = evaluate_extended(node, db)
        assert (3, 7, 9, 24) in result
        assert (2, 7, 7, 7) in result

    def test_min_over_empty_input_suppressed(self):
        empty = database({"R": 2, "S": 1})
        node = group_by(rel("R", 2), [], "min(1)")
        assert evaluate_extended(node, empty) == frozenset()

    def test_sum_over_strings_rejected(self):
        db = database({"R": 2, "S": 1}, R=[("a", "b")])
        node = group_by(rel("R", 2), [], "sum(1)")
        with pytest.raises(SchemaError):
            evaluate_extended(node, db)

    def test_grouping_only(self, db):
        node = GroupBy(rel("R", 2), (1,), ())
        assert evaluate_extended(node, db) == frozenset(
            {(1,), (2,), (3,)}
        )

    def test_count_is_distinct_count(self):
        # Set semantics dedups rows, so count is over distinct values.
        db = database({"R": 2, "S": 1}, R=[(1, 7), (1, 7)])
        node = group_by(rel("R", 2), [1], "count(2)")
        assert evaluate_extended(node, db) == frozenset({(1, 1)})


class TestSection5Plans:
    def test_containment_plan_matches_reference(self, db):
        plan = containment_division_plan()
        result = {a for (a,) in evaluate_extended(plan, db)}
        assert result == divide_reference(db["R"], db["S"])
        assert result == {1, 3}

    def test_equality_plan_matches_reference(self, db):
        plan = equality_division_plan()
        result = {a for (a,) in evaluate_extended(plan, db)}
        assert result == divide_reference_eq(db["R"], db["S"])
        assert result == {1}

    def test_plans_are_linear(self, db):
        for plan in (
            containment_division_plan(),
            equality_division_plan(),
        ):
            t = trace_extended(plan, db)
            bound = plan_intermediate_bound(
                len(db["R"]), len(db["S"])
            )
            assert t.max_intermediate() <= bound

    def test_arity_validation(self):
        with pytest.raises(SchemaError):
            containment_division_plan(Rel("R", 3))
        with pytest.raises(SchemaError):
            equality_division_plan(Rel("R", 2), Rel("S", 2))

    def test_empty_divisor_caveat(self):
        """Documented divergence: the γ plans return ∅ for R ÷ ∅."""
        db = database({"R": 2, "S": 1}, R=[(1, 7)])
        plan = containment_division_plan()
        assert evaluate_extended(plan, db) == frozenset()
        assert divide_reference(db["R"], db["S"]) == {1}


@settings(max_examples=100, deadline=None)
@given(databases(schema=Schema({"R": 2, "S": 1}), max_rows=8))
def test_plans_match_reference_on_random_databases(db):
    if not db["S"]:
        return  # the documented empty-divisor caveat
    containment = {
        a for (a,) in evaluate_extended(containment_division_plan(), db)
    }
    assert containment == divide_reference(db["R"], db["S"])
    equality = {
        a for (a,) in evaluate_extended(equality_division_plan(), db)
    }
    assert equality == divide_reference_eq(db["R"], db["S"])


@settings(max_examples=60, deadline=None)
@given(databases(schema=Schema({"R": 2, "S": 1}), max_rows=8))
def test_plan_intermediates_stay_linear(db):
    t = trace_extended(containment_division_plan(), db)
    assert t.max_intermediate() <= plan_intermediate_bound(
        len(db["R"]), len(db["S"])
    )
