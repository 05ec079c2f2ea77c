"""Tests for the Theorem 18 compiler (:mod:`repro.core.compile_sa`)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra.ast import Join, is_sa_eq, rel
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.core.compile_sa import compile_join, compile_to_sa, tagged_values
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.universe import INTEGERS, RATIONALS
from repro.errors import AnalysisError, FragmentError
from tests.strategies import databases

SCHEMA = Schema({"R": 2, "S": 1, "T": 3})


class TestTaggedValues:
    def test_integers_enumerate_gaps(self):
        assert tagged_values(INTEGERS, (2, 5)) == (2, 3, 4, 5)

    def test_rationals_keep_constants_only(self):
        assert tagged_values(RATIONALS, (2, 5)) == (2, 5)

    def test_budget_guard(self):
        with pytest.raises(AnalysisError):
            tagged_values(INTEGERS, (0, 10_000))


class TestSafeJoinCompilation:
    """Joins satisfying the Theorem 18 hypothesis compile exactly."""

    def check_exact(self, expr_text, db, constants=None):
        expr = parse(expr_text, SCHEMA)
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS, constants)
        assert is_sa_eq(compiled)
        assert evaluate(compiled, db) == evaluate(expr, db)

    def test_unary_right_side(self):
        db = database(SCHEMA, R=[(1, 2), (3, 4), (5, 2)], S=[(2,), (4,)])
        self.check_exact("R join[2=1] S", db)

    def test_left_side_safe(self):
        db = database(SCHEMA, R=[(1, 2), (3, 4)], S=[(1,), (3,)])
        self.check_exact("S join[1=1] R", db)

    def test_both_sides_safe(self):
        db = database(SCHEMA, S=[(1,), (2,)])
        self.check_exact("S join[1=1] S", db)

    def test_multi_column_key(self):
        db = database(SCHEMA, R=[(1, 2), (2, 1), (1, 1)])
        self.check_exact("R join[1=1,2=2] R", db)

    def test_join_with_non_eq_residual(self):
        # Key join plus an inequality filter: still safe, σψ must apply.
        db = database(
            SCHEMA, R=[(1, 2), (2, 1), (2, 3)], T=[(1, 2, 9), (2, 1, 0)]
        )
        self.check_exact("R join[1=1,2=2,1!=3] T", db)

    def test_join_with_order_residual(self):
        db = database(
            SCHEMA, R=[(1, 2), (2, 1)], T=[(1, 2, 9), (2, 1, 0)]
        )
        self.check_exact("R join[1=1,2=2,1<3] T", db)
        self.check_exact("R join[1=1,2=2,1>3] T", db)

    def test_constant_grounded_column(self):
        # Right side = S × {5}: column 2 grounded by the tag.
        expr = Join(rel("R", 2), rel("S", 1).tag(5), "1=1")
        db = database(SCHEMA, R=[(1, 2), (3, 4)], S=[(1,), (9,)])
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        assert is_sa_eq(compiled)
        assert evaluate(compiled, db) == evaluate(expr, db)

    def test_finite_interval_values_recovered(self):
        """Over Z with constants 2 and 5, an unconstrained column whose
        values stay inside [2,5] is recoverable — the f-mapping covers
        the whole finite interval."""
        expr = Join(
            rel("S", 1).tag(2).tag(5).project(1),
            rel("R", 2),
            "1=1",
        )
        # R's column 2 is unconstrained; keep its values inside [2, 5].
        db = database(SCHEMA, R=[(1, 3), (1, 4), (7, 2)], S=[(1,), (7,)])
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        assert evaluate(compiled, db) == evaluate(expr, db)


class TestUnderApproximation:
    """On quadratic joins the compilation is a strict subset (Z1 ∪ Z2
    covers exactly the pairs with an empty free side)."""

    def test_cartesian_subset(self):
        expr = parse("R cartesian S", SCHEMA)
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        db = database(SCHEMA, R=[(1, 2)], S=[(9,)])
        full = evaluate(expr, db)
        under = evaluate(compiled, db)
        assert under <= full
        assert under < full  # the (1,2,9) pair is doubly free

    def test_cartesian_keeps_constant_pairs(self):
        # With C = {9}, the pair ((1,2),(9,)) has F2 = ∅: Z2 keeps it.
        expr = parse("R cartesian S", SCHEMA)
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS, constants=(9,))
        db = database(SCHEMA, R=[(1, 2)], S=[(9,)])
        assert evaluate(compiled, db) == evaluate(expr, db)

    def test_division_plan_differs(self):
        plan = parse(
            "project[1](R) minus project[1]((project[1](R) cartesian S) "
            "minus R)",
            SCHEMA,
        )
        compiled = compile_to_sa(plan, SCHEMA, INTEGERS)
        # R: 1 is related to both divisor values, 2 only to one.
        db = database(SCHEMA, R=[(1, 7), (1, 8), (2, 7)], S=[(7,), (8,)])
        assert evaluate(plan, db) == frozenset({(1,)})
        # The under-approximated cross product breaks the double
        # negation: the compiled plan is NOT equivalent (division is
        # quadratic — Proposition 26 — so no SA= expression can be).
        assert evaluate(compiled, db) != evaluate(plan, db)


class TestStructuralCases:
    def test_non_join_nodes_map_through(self):
        expr = parse("project[1](R) union (S minus S)", SCHEMA)
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        assert compiled == expr  # no joins: unchanged

    def test_semijoins_pass_through(self):
        expr = parse("R semijoin[2=1] S", SCHEMA)
        assert compile_to_sa(expr, SCHEMA, INTEGERS) == expr

    def test_non_equi_semijoin_rejected(self):
        expr = parse("R semijoin[2<1] S", SCHEMA)
        with pytest.raises(FragmentError):
            compile_to_sa(expr, SCHEMA, INTEGERS)

    def test_nested_joins_compile_bottom_up(self):
        expr = parse("(R join[2=1] S) join[1=1,2=2,3=3] (R join[2=1] S)", SCHEMA)
        db = database(SCHEMA, R=[(1, 2), (3, 4)], S=[(2,), (4,)])
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        assert is_sa_eq(compiled)
        assert evaluate(compiled, db) == evaluate(expr, db)

    def test_compile_join_sides_parameter(self):
        node = parse("R join[2=1] S", SCHEMA)
        db = database(SCHEMA, R=[(1, 2)], S=[(2,)])
        z2_only = compile_join(node, SCHEMA, INTEGERS, (), sides=(2,))
        z1_only = compile_join(node, SCHEMA, INTEGERS, (), sides=(1,))
        assert evaluate(z2_only, db) == evaluate(node, db)
        # Z1 alone only covers pairs with F1(ā) = ∅: (1,2) is free.
        assert evaluate(z1_only, db) < evaluate(node, db)
        with pytest.raises(AnalysisError):
            compile_join(node, SCHEMA, INTEGERS, (), sides=())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(databases(max_rows=5))
def test_soundness_property_on_safe_join(db):
    """compile(E)(D) == E(D) for a hypothesis-satisfying join, and
    compile(E)(D) ⊆ E(D) for a cartesian product, on random databases."""
    safe = parse("R join[2=1] S", SCHEMA)
    compiled_safe = compile_to_sa(safe, SCHEMA, INTEGERS)
    assert evaluate(compiled_safe, db) == evaluate(safe, db)

    cross = parse("R cartesian S", SCHEMA)
    compiled_cross = compile_to_sa(cross, SCHEMA, INTEGERS)
    assert evaluate(compiled_cross, db) <= evaluate(cross, db)
