"""Tests for the dichotomy classifier (:mod:`repro.core.classify`)."""

from repro.algebra.ast import Join, rel, select_eq_const
from repro.algebra.parser import parse
from repro.core.classify import (
    Verdict,
    classify,
    default_search_databases,
    grounded_columns,
    join_is_safe,
    unsafe_joins,
)
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.universe import RATIONALS

SCHEMA = Schema({"R": 2, "S": 1, "T": 3})


class TestGroundedColumns:
    def test_rel_has_none(self):
        assert grounded_columns(rel("R", 2)) == {}

    def test_tag_grounds_last_column(self):
        assert grounded_columns(rel("R", 2).tag(5)) == {3: 5}

    def test_projection_remaps(self):
        expr = rel("R", 2).tag(5).project(3, 1, 3)
        assert grounded_columns(expr) == {1: 5, 3: 5}

    def test_selection_propagates_equality(self):
        expr = rel("R", 2).tag(5).select_eq(1, 3)
        assert grounded_columns(expr) == {3: 5, 1: 5}

    def test_union_intersects(self):
        left = rel("R", 2).tag(5)
        right = rel("R", 2).tag(5)
        assert grounded_columns(left.union(right)) == {3: 5}
        other = rel("R", 2).tag(6)
        assert grounded_columns(left.union(other)) == {}

    def test_difference_keeps_left(self):
        expr = rel("R", 2).tag(5).minus(rel("R", 2).tag(5))
        assert grounded_columns(expr) == {3: 5}

    def test_join_shifts_and_propagates(self):
        left = rel("R", 2).tag(7)       # columns 1,2,3 with 3 ↦ 7
        right = rel("S", 1)
        expr = Join(left, right, "3=1")  # right col 1 equated to 7
        assert grounded_columns(expr) == {3: 7, 4: 7}

    def test_constant_selection_grounds(self):
        expr = select_eq_const(rel("R", 2), 2, 9)
        assert grounded_columns(expr) == {2: 9}


class TestJoinSafety:
    def test_fully_constrained_side_is_safe(self):
        assert join_is_safe(parse("R join[2=1] S", SCHEMA))

    def test_key_style_join_safe(self):
        # Both of T's first two columns pinned by R's columns.
        node = parse("T join[1=1,2=2,3=3] T", SCHEMA)
        assert join_is_safe(node)

    def test_cartesian_unsafe(self):
        assert not join_is_safe(parse("R cartesian S", SCHEMA))

    def test_partial_constraint_unsafe(self):
        assert not join_is_safe(parse("R join[1=1] T", SCHEMA))

    def test_grounding_makes_safe(self):
        # Right side: one constrained column + one tagged constant.
        node = Join(rel("R", 2), rel("S", 1).tag(5), "1=1")
        assert join_is_safe(node)

    def test_order_atoms_do_not_constrain(self):
        assert not join_is_safe(parse("R join[2<1] S", SCHEMA))

    def test_unsafe_joins_collects(self):
        expr = parse(
            "project[1,2](R cartesian S) union project[1,2]"
            "((R join[2=1] S) join[1=1,2=2,3=3] (R join[2=1] S))",
            SCHEMA,
        )
        found = unsafe_joins(expr)
        assert len(found) == 1  # only the cartesian product is unsafe


class TestClassify:
    def test_semijoin_only_is_linear(self):
        expr = parse(
            "project[1](Visits semijoin[2=1] (project[1](Serves) minus "
            "project[1](Serves semijoin[2=2] Likes)))",
            Schema({"Likes": 2, "Serves": 2, "Visits": 2}),
        )
        c = classify(expr, Schema({"Likes": 2, "Serves": 2, "Visits": 2}))
        assert c.verdict is Verdict.LINEAR

    def test_safe_join_linear(self):
        c = classify(parse("R join[2=1] S", SCHEMA), SCHEMA)
        assert c.verdict is Verdict.LINEAR

    def test_cartesian_quadratic(self):
        c = classify(parse("R cartesian S", SCHEMA), SCHEMA)
        assert c.verdict is Verdict.QUADRATIC
        assert c.evidence is not None
        assert c.evidence.verified()

    def test_division_plan_quadratic(self):
        plan = parse(
            "project[1](R) minus project[1]((project[1](R) cartesian S) minus R)",
            SCHEMA,
        )
        c = classify(plan, SCHEMA)
        assert c.verdict is Verdict.QUADRATIC

    def test_order_join_quadratic(self):
        c = classify(parse("S join[1<1] S", SCHEMA), SCHEMA, RATIONALS)
        assert c.verdict is Verdict.QUADRATIC

    def test_non_key_join_quadratic(self):
        c = classify(parse("R join[1=1] T", SCHEMA), SCHEMA)
        assert c.verdict is Verdict.QUADRATIC

    def test_evidence_replay(self):
        c = classify(parse("R cartesian S", SCHEMA), SCHEMA)
        from repro.core.blowup import blow_up

        result = blow_up(c.evidence.witness, 5)
        assert result.join_output_size() >= 25

    def test_user_supplied_databases(self):
        db = database(SCHEMA, R=[(1, 2)], S=[(7,)])
        c = classify(
            parse("R cartesian S", SCHEMA),
            SCHEMA,
            search_databases=[db],
        )
        assert c.verdict is Verdict.QUADRATIC
        assert c.evidence.witness.db == db

    def test_unknown_when_search_space_empty(self):
        # Searching only an empty database finds no joining pair.
        empty = database(SCHEMA)
        c = classify(
            parse("R cartesian S", SCHEMA),
            SCHEMA,
            search_databases=[empty],
        )
        assert c.verdict is Verdict.UNKNOWN
        assert not c  # UNKNOWN is falsy

    def test_grounded_join_linear(self):
        expr = Join(rel("R", 2), rel("S", 1).tag(5), "1=1")
        c = classify(expr, SCHEMA)
        assert c.verdict is Verdict.LINEAR


class TestDefaultSearchDatabases:
    def test_cover_schema(self):
        for db in default_search_databases(SCHEMA):
            assert db.schema == SCHEMA
            assert db.size() > 0

    def test_deterministic(self):
        a = default_search_databases(SCHEMA)
        b = default_search_databases(SCHEMA)
        assert a == b
