"""Tests for Definition 20 (θ^α, constrained/unc) and Definition 22
(free values), pinned to Examples 21 and 23 of the paper."""

import pytest

from repro.algebra.ast import Join, Rel
from repro.algebra.conditions import Condition
from repro.core.freevalues import (
    doubly_free_pairs,
    free_values,
    free_values_of_join,
    joining_pairs,
)
from repro.core.joininfo import JoinInfo
from repro.data.universe import INTEGERS, RATIONALS


class TestExample21:
    """E = R ⋈_{3=1} S with R, S ternary."""

    def setup_method(self):
        self.node = Join(Rel("R", 3), Rel("S", 3), "3=1")
        self.info = JoinInfo.of(self.node)

    def test_theta_eq(self):
        assert self.info.theta_eq() == frozenset({(3, 1)})

    def test_constrained1(self):
        assert self.info.constrained1() == frozenset({3})

    def test_unc1(self):
        assert self.info.unc1() == frozenset({1, 2})

    def test_constrained2(self):
        assert self.info.constrained2() == frozenset({1})

    def test_unc2(self):
        assert self.info.unc2() == frozenset({2, 3})


class TestJoinInfoGeneral:
    def test_mixed_condition_decomposition(self):
        info = JoinInfo(3, 3, Condition.parse("1=1,2<2,3!=1,2>3"))
        assert info.theta("=") == frozenset({(1, 1)})
        assert info.theta("<") == frozenset({(2, 2)})
        assert info.theta("!=") == frozenset({(3, 1)})
        assert info.theta(">") == frozenset({(2, 3)})

    def test_empty_condition(self):
        info = JoinInfo(2, 2, Condition())
        assert info.constrained1() == frozenset()
        assert info.unc1() == frozenset({1, 2})
        assert info.unc2() == frozenset({1, 2})

    def test_partners(self):
        info = JoinInfo(3, 3, Condition.parse("1=2,3=2"))
        assert info.partners_of_right(2) == frozenset({1, 3})
        assert info.partners_of_left(1) == frozenset({2})
        assert info.partners_of_left(2) == frozenset()

    def test_side_accessors(self):
        info = JoinInfo(2, 3, Condition.parse("1=2"))
        assert info.constrained(1) == info.constrained1()
        assert info.unc(2) == info.unc2()
        with pytest.raises(ValueError):
            info.constrained(3)


class TestExample23:
    """E = σ_{2='2'}R ⋈_{3=1} σ_{3='5'}S over U = Z, C = {2, 5}."""

    def setup_method(self):
        # For free values only the join condition and arities matter.
        self.info = JoinInfo(3, 3, Condition.parse("3=1"))
        self.constants = (2, 5)

    def test_r1(self):
        assert free_values(
            (1, 2, 3), 1, self.info, self.constants, INTEGERS
        ) == frozenset({1})

    def test_r2(self):
        assert free_values(
            (4, 6, 3), 1, self.info, self.constants, INTEGERS
        ) == frozenset({6})

    def test_s1(self):
        assert free_values(
            (3, 5, 6), 2, self.info, self.constants, INTEGERS
        ) == frozenset({6})

    def test_s2(self):
        assert free_values(
            (1, 1, 1), 2, self.info, self.constants, INTEGERS
        ) == frozenset()

    def test_rational_universe_keeps_gap_values(self):
        """Over Q the interval [2,5] is infinite, so 4 stays free: the
        tuple r2 = (4,6,3) has F = {6} over Z but F = {4,6} over Q."""
        assert free_values(
            (4, 6, 3), 1, self.info, self.constants, RATIONALS
        ) == frozenset({4, 6})

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            free_values((1, 2), 1, self.info, self.constants, INTEGERS)


class TestFreeValueEdgeCases:
    def test_value_pinned_anywhere_is_removed(self):
        # Value 3 appears at both a constrained and an unconstrained
        # position: Definition 22 removes the *value*.
        info = JoinInfo(2, 1, Condition.parse("2=1"))
        assert free_values((3, 3), 1, info, (), INTEGERS) == frozenset()

    def test_join_node_wrapper(self):
        node = Join(Rel("R", 2), Rel("S", 1), "2=1")
        assert free_values_of_join(
            node, (7, 9), 1, (), INTEGERS
        ) == frozenset({7})

    def test_joining_pairs(self):
        info = JoinInfo(2, 1, Condition.parse("2=1"))
        pairs = list(
            joining_pairs([(1, 2), (3, 4)], [(2,), (5,)], info)
        )
        assert pairs == [((1, 2), (2,))]

    def test_doubly_free_pairs(self):
        info = JoinInfo(2, 1, Condition())  # cartesian product
        found = list(
            doubly_free_pairs([(1, 2)], [(9,)], info, (), INTEGERS)
        )
        assert len(found) == 1
        __, __, f1, f2 = found[0]
        assert f1 == frozenset({1, 2})
        assert f2 == frozenset({9})

    def test_doubly_free_pairs_skips_empty_sides(self):
        info = JoinInfo(2, 1, Condition.parse("1=1,2=1"))
        # Right side fully constrained: never doubly free.
        found = list(
            doubly_free_pairs([(5, 5)], [(5,)], info, (), INTEGERS)
        )
        assert found == []
