"""Tests for evaluation traces (:mod:`repro.algebra.trace`)."""

import pytest
from hypothesis import given, settings

from repro.algebra.ast import rel
from repro.algebra.evaluator import evaluate
from repro.algebra.trace import max_intermediate_size, trace
from repro.data.database import database
from tests.strategies import databases, expressions

R = rel("R", 2)
S = rel("S", 1)


@pytest.fixture
def db():
    return database(
        {"R": 2, "S": 1, "T": 3},
        R=[(1, 2), (2, 3), (3, 4)],
        S=[(2,), (4,)],
    )


class TestTrace:
    def test_result_matches_evaluate(self, db):
        expr = R.join(S, "2=1").project(1)
        t = trace(expr, db)
        assert t.result == evaluate(expr, db)

    def test_every_subexpression_recorded(self, db):
        expr = R.join(S, "2=1").project(1)
        t = trace(expr, db)
        for sub in set(expr.subexpressions()):
            assert sub in t.results
            assert t.results[sub] == evaluate(sub, db)

    def test_cardinality_accessors(self, db):
        expr = R.cartesian(S)
        t = trace(expr, db)
        assert t.cardinality(R) == 3
        assert t.cardinality(S) == 2
        assert t.cardinality(expr) == 6
        assert t.cardinalities()[expr] == 6

    def test_max_and_argmax(self, db):
        expr = R.cartesian(S).project(1)
        t = trace(expr, db)
        assert t.max_intermediate() == 6
        assert t.argmax_intermediate() == R.cartesian(S)

    def test_db_size_recorded(self, db):
        assert trace(R, db).db_size == db.size()

    def test_shared_subexpressions_counted_once(self, db):
        shared = R.join(S, "2=1")
        expr = shared.union(shared)
        t = trace(expr, db)
        # Distinct entries: R, S, shared, union (structural sharing).
        assert len(t.results) == 4

    def test_report_renders(self, db):
        text = trace(R.cartesian(S), db).report()
        assert "|D| = 5" in text
        assert "⋈" in text

    def test_helper(self, db):
        assert max_intermediate_size(R.cartesian(S), db) == 6

    def test_empty_expression_trace(self):
        empty = database({"R": 2, "S": 1})
        t = trace(R.cartesian(S), empty)
        assert t.max_intermediate() == 0


@settings(max_examples=80, deadline=None)
@given(expressions(max_depth=4), databases())
def test_trace_consistent_with_evaluate(expr, db):
    t = trace(expr, db)
    assert t.result == evaluate(expr, db)
    assert t.max_intermediate() >= len(t.result)
    assert all(
        len(rows) <= t.max_intermediate() for rows in t.results.values()
    )
