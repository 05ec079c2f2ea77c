"""Tests for :mod:`repro.data.schema` and :mod:`repro.data.database`."""

import pytest
from hypothesis import given

from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.errors import (
    ArityError,
    SchemaError,
    UnknownRelationError,
)
from tests.strategies import databases


class TestSchema:
    def test_lookup(self):
        s = Schema({"R": 2, "S": 1})
        assert s["R"] == 2
        assert s.arity("S") == 1

    def test_unknown_name(self):
        s = Schema({"R": 2})
        with pytest.raises(UnknownRelationError):
            s["Q"]

    def test_zero_arity_rejected(self):
        with pytest.raises(ArityError):
            Schema({"R": 0})

    def test_negative_arity_rejected(self):
        with pytest.raises(ArityError):
            Schema({"R": -1})

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema({"": 1})

    def test_iteration_sorted(self):
        s = Schema({"Z": 1, "A": 2, "M": 3})
        assert list(s) == ["A", "M", "Z"]

    def test_equality_and_hash(self):
        assert Schema({"R": 2}) == Schema({"R": 2})
        assert hash(Schema({"R": 2})) == hash(Schema({"R": 2}))
        assert Schema({"R": 2}) != Schema({"R": 3})

    def test_restrict(self):
        s = Schema({"R": 2, "S": 1})
        assert s.restrict(("R",)) == Schema({"R": 2})

    def test_max_arity(self):
        assert Schema({"R": 2, "T": 5}).max_arity() == 5
        assert Schema({}).max_arity() == 0


class TestDatabaseConstruction:
    def test_basic(self):
        db = database({"R": 2}, R=[(1, 2)])
        assert db["R"] == frozenset({(1, 2)})

    def test_missing_relations_default_empty(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)])
        assert db["S"] == frozenset()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityError):
            database({"R": 2}, R=[(1, 2, 3)])

    def test_unknown_relation_rejected(self):
        with pytest.raises(SchemaError):
            database({"R": 2}, Q=[(1, 2)])

    def test_rows_are_deduplicated(self):
        db = database({"R": 2}, R=[(1, 2), (1, 2)])
        assert db.size() == 1

    def test_accepts_lists_as_rows(self):
        db = database({"R": 2}, R=[[1, 2]])
        assert (1, 2) in db["R"]


class TestDatabaseAccessors:
    def setup_method(self):
        # Fig. 2 of the paper.
        self.db = database(
            {"R": 3, "S": 3, "T": 2},
            R=[("a", "b", "c"), ("d", "e", "f")],
            S=[("d", "a", "b")],
            T=[("e", "a"), ("f", "c")],
        )

    def test_size_is_sum_of_cardinalities(self):
        assert self.db.size() == 5
        assert len(self.db) == 5

    def test_active_domain(self):
        assert self.db.active_domain() == frozenset("abcdef")

    def test_tuple_space(self):
        assert ("d", "a", "b") in self.db.tuple_space()
        assert ("e", "a") in self.db.tuple_space()
        assert len(self.db.tuple_space()) == 5

    def test_guarded_sets(self):
        guarded = self.db.guarded_sets()
        assert frozenset({"a", "b", "c"}) in guarded
        assert frozenset({"e", "a"}) in guarded
        assert frozenset({"a"}) not in guarded

    def test_relations_containing(self):
        assert self.db.relations_containing(("e", "a")) == ("T",)
        assert self.db.relations_containing(("x", "y")) == ()

    def test_is_empty(self):
        assert not self.db.is_empty()
        assert database({"R": 1}).is_empty()


class TestDatabaseOperations:
    def test_with_tuples(self):
        db = database({"R": 2}, R=[(1, 2)])
        bigger = db.with_tuples({"R": [(3, 4)]})
        assert bigger.size() == 2
        assert db.size() == 1  # original unchanged

    def test_without_tuples(self):
        db = database({"R": 2}, R=[(1, 2), (3, 4)])
        smaller = db.without_tuples({"R": [(1, 2)]})
        assert smaller["R"] == frozenset({(3, 4)})

    def test_deltas_share_the_untouched_relations(self):
        # A write rebuilds only what it touches: the other relations are
        # the very same frozensets (cached hashes and all).
        db = database({"R": 2, "S": 1, "T": 1}, R=[(1, 2)], S=[(1,)])
        bigger = db.with_tuples({"R": [(3, 4)], "T": [[7]]})
        assert bigger["S"] is db["S"]
        assert bigger["R"] == {(1, 2), (3, 4)} and bigger["T"] == {(7,)}
        smaller = bigger.without_tuples({"R": [[1, 2]]})
        assert smaller["S"] is db["S"] and smaller["T"] is bigger["T"]
        assert smaller["R"] == {(3, 4)}
        assert db["R"] == {(1, 2)} and db["T"] == frozenset()
        assert bigger == Database(
            db.schema, {"R": [(1, 2), (3, 4)], "S": [(1,)], "T": [(7,)]}
        )
        assert bigger.version_token() != db.version_token()
        assert hash(bigger) != hash(db)

    def test_bad_deltas_raise_what_the_constructor_raises(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)])
        with pytest.raises(UnknownRelationError):
            db.with_tuples({"R": [(1,)], "Q": [(1,)]})  # name before arity
        with pytest.raises(UnknownRelationError):
            db.without_tuples({"Q": [(1,)]})
        with pytest.raises(ArityError) as caught:
            db.with_tuples({"R": [(5, 6)], "S": [(1, 2, 3)]})
        with pytest.raises(ArityError) as built:
            Database(db.schema, {"R": [(5, 6)], "S": [(1, 2, 3)]})
        assert str(caught.value) == str(built.value)
        # Removing a tuple that cannot be there is a no-op, as before.
        assert db.without_tuples({"R": [(9,)]}) == db

    def test_rename_values(self):
        db = database({"R": 2}, R=[(1, 2)])
        renamed = db.rename_values({1: 10, 2: 20})
        assert renamed["R"] == frozenset({(10, 20)})

    def test_rename_partial_mapping(self):
        db = database({"R": 2}, R=[(1, 2)])
        renamed = db.rename_values({1: 10})
        assert renamed["R"] == frozenset({(10, 2)})

    def test_rename_non_injective_rejected(self):
        db = database({"R": 2}, R=[(1, 2)])
        with pytest.raises(SchemaError):
            db.rename_values({1: 2})

    def test_disjoint_union(self):
        a = database({"R": 1}, R=[(1,)])
        b = database({"R": 1}, R=[(2,)])
        assert a.disjoint_union(b).size() == 2

    def test_disjoint_union_schema_mismatch(self):
        a = database({"R": 1})
        b = database({"S": 1})
        with pytest.raises(SchemaError):
            a.disjoint_union(b)

    def test_project_schema(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(3,)])
        sub = db.project_schema(["R"])
        assert list(sub.schema) == ["R"]
        assert sub.size() == 1

    def test_equality_and_hash(self):
        a = database({"R": 2}, R=[(1, 2)])
        b = database({"R": 2}, R=[(1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_pretty_contains_rows(self):
        db = database({"R": 2}, R=[(1, 2)])
        text = db.pretty()
        assert "R/2" in text
        assert "1  2" in text


@given(databases())
def test_size_equals_tuple_count(db: Database):
    assert db.size() == sum(len(db[name]) for name in db.schema)


@given(databases())
def test_guarded_sets_come_from_tuple_space(db: Database):
    for guarded in db.guarded_sets():
        assert any(
            guarded == frozenset(row) for row in db.tuple_space()
        )


@given(databases())
def test_rename_identity(db: Database):
    assert db.rename_values({}) == db


@given(databases(), databases())
def test_deltas_equal_rebuilding_from_scratch(db: Database, delta: Database):
    added = db.with_tuples(delta.relations())
    removed = db.without_tuples(delta.relations())
    assert added == Database(
        db.schema, {name: db[name] | delta[name] for name in db.schema}
    )
    assert removed == Database(
        db.schema, {name: db[name] - delta[name] for name in db.schema}
    )
    assert added.version_token() == db.disjoint_union(delta).version_token()


class TestHashAgreesWithEquality:
    """``a == b`` must imply ``hash(a) == hash(b)``, also after the
    in-place contents swap a ``Server`` write does to its database."""

    def test_after_with_tuples(self):
        db = database({"R": 2, "S": 1}, R=[(1, 7)], S=[(7,)])
        hash(db)  # a cached value here must not outlive the contents
        grown = db.with_tuples({"S": [(8,)]})
        fresh = database({"R": 2, "S": 1}, R=[(1, 7)], S=[(7,), (8,)])
        assert grown == fresh and hash(grown) == hash(fresh)
        assert {fresh: 1}.get(grown) == 1

    def test_after_server_write(self):
        from repro.serve.server import Server

        db = database({"R": 2, "S": 1}, R=[(1, 7)], S=[(7,)])
        with Server(db, workers=0) as server:
            hash(server.db)
            server.connect("writer").write(additions={"S": [(8,)]})
            fresh = database(
                {"R": 2, "S": 1}, R=[(1, 7)], S=[(7,), (8,)]
            )
            assert server.db == fresh
            assert hash(server.db) == hash(fresh)
            assert {fresh: 1}.get(server.db) == 1
