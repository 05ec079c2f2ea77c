"""Tests for the expression AST (:mod:`repro.algebra.ast`)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from repro.algebra.ast import (
    ConstantTag,
    Difference,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
    identity_projection,
    is_ra,
    is_ra_eq,
    is_sa,
    is_sa_eq,
    join_nodes,
    rel,
    select_eq_const,
    select_gt,
    select_neq,
    uses_order,
)
from repro.algebra.conditions import Condition
from repro.errors import ArityError, PositionError, SchemaError
from tests.strategies import expressions

R = rel("R", 2)
S = rel("S", 1)
T = rel("T", 3)


class TestConstruction:
    def test_rel_arity(self):
        assert R.arity == 2

    def test_rel_requires_positive_arity(self):
        with pytest.raises(ArityError):
            Rel("R", 0)

    def test_rel_requires_name(self):
        with pytest.raises(SchemaError):
            Rel("", 1)

    def test_union_arity_checked(self):
        with pytest.raises(ArityError):
            Union(R, S)
        assert Union(R, R).arity == 2

    def test_difference_arity_checked(self):
        with pytest.raises(ArityError):
            Difference(R, T)

    def test_projection_positions_checked(self):
        with pytest.raises(PositionError):
            Projection(R, (3,))
        with pytest.raises(PositionError):
            Projection(R, (0,))

    def test_projection_repeats_and_reorder(self):
        p = Projection(R, (2, 1, 2))
        assert p.arity == 3

    def test_empty_projection(self):
        assert Projection(R, ()).arity == 0

    def test_selection_ops_restricted(self):
        with pytest.raises(SchemaError):
            Selection(R, ">", 1, 2)
        with pytest.raises(SchemaError):
            Selection(R, "!=", 1, 2)

    def test_selection_positions_checked(self):
        with pytest.raises(PositionError):
            Selection(R, "=", 1, 3)

    def test_tag_arity(self):
        assert ConstantTag(R, 5).arity == 3

    def test_tag_rejects_bool_and_float(self):
        with pytest.raises(SchemaError):
            ConstantTag(R, True)
        with pytest.raises(SchemaError):
            ConstantTag(R, 1.5)

    def test_join_arity_is_sum(self):
        assert Join(R, T).arity == 5

    def test_join_condition_positions_checked(self):
        with pytest.raises(PositionError):
            Join(R, S, Condition.parse("3=1"))
        with pytest.raises(PositionError):
            Join(R, S, Condition.parse("1=2"))

    def test_semijoin_arity_is_left(self):
        assert Semijoin(R, T, Condition.parse("1=1")).arity == 2

    def test_condition_coercion_in_constructor(self):
        assert Join(R, S, "2=1").cond == Condition.parse("2=1")


class TestFluentApi:
    def test_chaining(self):
        expr = R.join(S, "2=1").project(1).union(S)
        assert expr.arity == 1

    def test_cartesian(self):
        assert R.cartesian(S).arity == 3
        assert R.cartesian(S).cond == Condition()

    def test_tag_and_select(self):
        expr = R.tag(5).select_eq(1, 3)
        assert expr.arity == 3


class TestTraversal:
    def test_subexpressions_postorder(self):
        expr = R.join(S, "2=1")
        nodes = list(expr.subexpressions())
        assert nodes[0] == R
        assert nodes[1] == S
        assert nodes[-1] == expr

    def test_size_and_depth(self):
        expr = R.join(S, "2=1").project(1)
        assert expr.size() == 4
        assert expr.depth() == 3

    def test_relation_names(self):
        expr = R.join(S).minus(R.cartesian(S).project(1, 2, 3))
        assert expr.relation_names() == frozenset({"R", "S"})

    def test_constants(self):
        expr = R.tag(5).tag("x")
        assert expr.constants() == frozenset({5, "x"})

    def test_structural_equality(self):
        assert R.join(S, "2=1") == rel("R", 2).join(rel("S", 1), "2=1")
        assert hash(R.join(S)) == hash(rel("R", 2).join(rel("S", 1)))


class TestDerivedOperations:
    def test_select_eq_const_shape(self):
        # The paper's desugaring: π_{1..n}(σ_{i=n+1}(τ_c(E))).
        expr = select_eq_const(R, 2, 7)
        assert isinstance(expr, Projection)
        assert expr.positions == (1, 2)
        assert isinstance(expr.child, Selection)
        assert expr.child.i == 2 and expr.child.j == 3
        assert isinstance(expr.child.child, ConstantTag)
        assert expr.child.child.value == 7

    def test_select_neq_shape(self):
        expr = select_neq(R, 1, 2)
        assert isinstance(expr, Difference)

    def test_select_gt_swaps(self):
        expr = select_gt(R, 1, 2)
        assert expr.op == "<" and expr.i == 2 and expr.j == 1

    def test_identity_projection(self):
        assert identity_projection(R).positions == (1, 2)


class TestFragments:
    def test_is_ra(self):
        assert is_ra(R.join(S))
        assert not is_ra(R.semijoin(S))

    def test_is_sa(self):
        assert is_sa(R.semijoin(S))
        assert not is_sa(R.join(S))

    def test_is_ra_eq(self):
        assert is_ra_eq(R.join(S, "2=1"))
        assert not is_ra_eq(R.join(S, "2<1"))

    def test_is_sa_eq(self):
        assert is_sa_eq(R.semijoin(S, "2=1"))
        assert not is_sa_eq(R.semijoin(S, "2<1"))
        assert not is_sa_eq(R.join(S, "2=1"))

    def test_uses_order(self):
        assert uses_order(R.select_lt(1, 2))
        assert uses_order(R.join(S, "2>1"))
        assert not uses_order(R.join(S, "2=1,1!=1"))

    def test_join_nodes(self):
        j1 = R.join(S, "2=1")
        expr = j1.project(1).cartesian(S)
        found = join_nodes(expr)
        assert j1 in found
        assert len(found) == 2  # j1 and the cartesian


@given(expressions(max_depth=4))
def test_random_expressions_are_well_formed(expr):
    # Construction already validates; traversal must terminate and agree.
    count = sum(1 for _ in expr.subexpressions())
    assert count == expr.size()
    assert expr.depth() <= expr.size()
    assert expr.arity >= 0


@given(expressions(max_depth=4))
def test_a_cached_hash_is_the_structural_one(expr):
    """A node hashes once; an equal node built apart hashes the same,
    and a pickled copy carries no hash of its own."""
    first = hash(expr)
    assert hash(expr) == first
    assert "_hash_value" in expr.__dict__
    copy = pickle.loads(pickle.dumps(expr))
    assert "_hash_value" not in copy.__dict__
    assert copy == expr and hash(copy) == first


#: Pickles a parsed expression after hashing it (the cache is filled).
_DUMP = """
import pickle, sys
from repro.algebra.parser import parse
from repro.data.schema import Schema
expr = parse(sys.argv[1], Schema({"Rel": 2, "Other": 1}))
hash(expr)
sys.stdout.buffer.write(pickle.dumps(expr))
"""

#: Loads that pickle and uses it beside a freshly parsed equal text.
_LOAD = """
import pickle, sys
from repro.algebra.parser import parse
from repro.data.schema import Schema
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse(sys.argv[1], Schema({"Rel": 2, "Other": 1}))
assert loaded == fresh, "unequal"
assert hash(loaded) == hash(fresh), "stale hash"
assert {fresh: 1}.get(loaded) == 1 and {loaded: 1}.get(fresh) == 1
"""


def test_a_pickled_expression_hashes_afresh_under_another_hash_seed():
    """A server ships an expression to a worker process, whose string
    hashes differ: there it must key the worker's memos like its own."""
    text = "project[1](Rel join[2=1] Other)"
    src = str(Path(__file__).resolve().parent.parent / "src")

    def python(code, seed, data=None):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        return subprocess.run(
            [sys.executable, "-c", code, text], input=data, env=env,
            capture_output=True, check=False,
        )

    dumped = python(_DUMP, 1)
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = python(_LOAD, 2, dumped.stdout)
    assert loaded.returncode == 0, loaded.stderr.decode()
