"""Tests for distinguishing-expression search (Corollary 14's converse)."""

import pytest

from repro.algebra.ast import is_sa_eq
from repro.algebra.evaluator import evaluate
from repro.bisim.distinguish import (
    find_distinguishing_expression,
    probe_expressions,
)
from repro.data.database import database
from repro.data.schema import Schema
from repro.workloads.figures import (
    fig3_databases,
    fig5_databases,
    fig6_databases,
)


class TestProbeExpressions:
    def test_probes_are_sa_eq(self):
        schema = Schema({"R": 2, "S": 1})
        for index, probe in enumerate(probe_expressions(schema, 1, depth=1)):
            assert is_sa_eq(probe)
            assert probe.arity == 1
            if index > 200:
                break

    def test_probe_arity_respected(self):
        schema = Schema({"R": 2})
        for index, probe in enumerate(probe_expressions(schema, 2, depth=1)):
            assert probe.arity == 2
            if index > 50:
                break


class TestFindDistinguishing:
    def test_non_bisimilar_pair_is_separated(self):
        a, b = fig3_databases()
        # (1,2) ∈ S(A) but (7,8) ∉ S(B): separable.
        probe = find_distinguishing_expression(a, (1, 2), b, (7, 8))
        assert probe is not None
        assert ((1, 2) in evaluate(probe, a)) != (
            (7, 8) in evaluate(probe, b)
        )

    def test_bisimilar_pair_is_not_separated_fig3(self):
        a, b = fig3_databases()
        assert (
            find_distinguishing_expression(
                a, (1, 2), b, (6, 7), depth=2, budget=1500
            )
            is None
        )

    def test_bisimilar_pair_is_not_separated_fig5(self):
        a, b = fig5_databases()
        assert (
            find_distinguishing_expression(
                a, (1,), b, (1,), depth=2, budget=2500
            )
            is None
        )

    def test_bisimilar_pair_is_not_separated_fig6(self):
        a, b = fig6_databases()
        assert (
            find_distinguishing_expression(
                a, ("alex",), b, ("alex",), depth=1, budget=1500
            )
            is None
        )

    def test_semijoin_depth_needed(self):
        # 1 has an R-successor in S on the left, not on the right:
        # the base projections cannot see it, one semijoin hop can.
        a = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(2,)])
        b = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(3,)])
        probe = find_distinguishing_expression(a, (1,), b, (1,), depth=2)
        assert probe is not None
        assert probe.size() > 2  # not a bare projection

    def test_reachability_probe_found(self):
        """Different path lengths are separated by a nested-semijoin
        probe — k-step reachability needs right-nested chains."""
        a = database(
            {"R": 2, "S": 1}, R=[(1, 2), (2, 3), (3, 4)]
        )
        b = database({"R": 2, "S": 1}, R=[(5, 6), (6, 7)])
        probe = find_distinguishing_expression(a, (1, 2), b, (5, 6), depth=2)
        assert probe is not None
        assert ((1, 2) in evaluate(probe, a)) != (
            (5, 6) in evaluate(probe, b)
        )

    def test_schema_mismatch(self):
        a = database({"R": 1})
        b = database({"Q": 1})
        with pytest.raises(ValueError):
            find_distinguishing_expression(a, (1,), b, (1,))

    def test_arity_mismatch(self):
        a, b = fig5_databases()
        with pytest.raises(ValueError):
            find_distinguishing_expression(a, (1,), b, (1, 2))

    def test_budget_zero_finds_nothing(self):
        a, b = fig3_databases()
        assert (
            find_distinguishing_expression(
                a, (1, 2), b, (7, 8), budget=0
            )
            is None
        )
