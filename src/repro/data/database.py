"""Databases: assignments of finite relations to relation names.

Implements Definition 15 (size), Definition 25 (tuple space), and
Definition 9 (guarded sets), plus the structural operations the rest of
the library needs: active domain, order-isomorphic renaming (used by the
Lemma 24 construction), tuple insertion, and disjoint union.

A :class:`Database` is immutable; every "mutation" returns a new
database.  Relations are ``frozenset`` s of value tuples, reflecting the
paper's set semantics.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.data.schema import Schema
from repro.data.universe import Value
from repro.errors import ArityError, SchemaError

#: A database tuple.
Row = tuple[Value, ...]


def _checked_rows(
    name: str, arity: int, rows: Iterable[Row]
) -> frozenset[Row]:
    """``rows`` as a relation of ``name``, every tuple arity-checked."""
    relation = frozenset(tuple(row) for row in rows)
    for row in relation:
        if len(row) != arity:
            raise ArityError(
                f"tuple {row!r} has arity {len(row)}, but "
                f"{name!r} has arity {arity}"
            )
    return relation


class Database:
    """An assignment ``D`` of a finite relation to each schema name.

    Parameters
    ----------
    schema:
        The database schema.  Also accepts a plain mapping
        ``name -> arity``.
    relations:
        Mapping from relation name to an iterable of tuples.  Missing
        names default to the empty relation; unknown names raise
        :class:`~repro.errors.SchemaError`.

    Examples
    --------
    >>> db = Database({"R": 2}, {"R": [(1, 2), (2, 3)]})
    >>> db.size()
    2
    >>> sorted(db.active_domain())
    [1, 2, 3]
    """

    __slots__ = ("schema", "_relations")

    def __init__(
        self,
        schema: Schema | Mapping[str, int],
        relations: Mapping[str, Iterable[Row]] | None = None,
    ) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        provided = dict(relations or {})
        unknown = set(provided) - set(schema)
        if unknown:
            raise SchemaError(
                f"relations {sorted(unknown)} not in schema {schema!r}"
            )
        self._relations = {
            name: _checked_rows(name, schema[name], provided.get(name, ()))
            for name in schema
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __getitem__(self, name: str) -> frozenset[Row]:
        self.schema[name]  # raises UnknownRelationError if absent
        return self._relations[name]

    def relations(self) -> Mapping[str, frozenset[Row]]:
        """A read-only view of all relations."""
        return dict(self._relations)

    def size(self) -> int:
        """``|D|``: the sum of the relation cardinalities (Definition 15)."""
        return sum(len(rows) for rows in self._relations.values())

    def __len__(self) -> int:
        return self.size()

    def is_empty(self) -> bool:
        """Whether every relation is empty."""
        return self.size() == 0

    def active_domain(self) -> frozenset[Value]:
        """All values occurring in some tuple of some relation."""
        domain: set[Value] = set()
        for rows in self._relations.values():
            for row in rows:
                domain.update(row)
        return frozenset(domain)

    def tuple_space(self) -> frozenset[Row]:
        """``T_D = ⋃ {D(R) | R ∈ S}`` (Definition 25)."""
        space: set[Row] = set()
        for rows in self._relations.values():
            space.update(rows)
        return frozenset(space)

    def guarded_sets(self) -> frozenset[frozenset[Value]]:
        """All guarded sets of the database (Definition 9).

        A set is guarded if it is ``{d1, ..., dn}`` for some tuple
        ``(d1, ..., dn)`` in some relation.
        """
        return frozenset(frozenset(row) for row in self.tuple_space())

    def relations_containing(self, row: Row) -> tuple[str, ...]:
        """The names of all relations containing ``row``."""
        return tuple(
            name
            for name in self.schema
            if row in self._relations[name]
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema)

    def version_token(self) -> int:
        """A token identifying the *current* relation contents.

        Recomputed from the relation frozensets on every call (each
        frozenset caches its own hash, so the recomputation is cheap),
        as is ``hash(self)``.  Caches keyed by a database — the
        engine's per-database executors with their hash indexes, plan
        memos, and statistics — compare tokens to detect that contents
        changed underneath them (e.g. a storage backend swapping a
        relation behind the same handle) and must be invalidated.
        """
        return hash(
            tuple(self._relations[name] for name in self.schema)
        )

    # ------------------------------------------------------------------
    # Structural operations (all return new databases)
    # ------------------------------------------------------------------

    def _replacing(
        self, changed: Mapping[str, frozenset[Row]]
    ) -> "Database":
        """A new database with the ``changed`` relations swapped in.

        The untouched relations are *shared* with this database (same
        frozenset objects, so their cached hashes keep
        :meth:`version_token` cheap); ``changed`` must already be
        validated — this skips the constructor's per-row checks.
        """
        successor = Database.__new__(Database)
        successor.schema = self.schema
        successor._relations = {**self._relations, **changed}
        return successor

    def with_tuples(self, additions: Mapping[str, Iterable[Row]]) -> "Database":
        """A new database with extra tuples added to some relations."""
        for name in additions:
            self.schema[name]  # every name is checked before any arity
        return self._replacing({
            name: self._relations[name]
            | _checked_rows(name, self.schema[name], additions[name])
            for name in self.schema
            if name in additions
        })

    def without_tuples(self, removals: Mapping[str, Iterable[Row]]) -> "Database":
        """A new database with the given tuples removed."""
        changed: dict[str, frozenset[Row]] = {}
        for name, rows in removals.items():
            self.schema[name]
            changed[name] = self._relations[name].difference(
                tuple(row) for row in rows
            )
        return self._replacing(changed)

    def rename_values(self, renaming: Mapping[Value, Value]) -> "Database":
        """Apply a value renaming to every tuple.

        Used for the order-isomorphic copies ("translations") of the
        Lemma 24 proof.  Values absent from ``renaming`` are left
        unchanged.  The renaming must be injective on the active domain,
        otherwise distinct tuples could collapse; this is checked.
        """
        domain = self.active_domain()
        image = {renaming.get(v, v) for v in domain}
        if len(image) != len(domain):
            raise SchemaError("renaming is not injective on the active domain")
        renamed = {
            name: frozenset(
                tuple(renaming.get(v, v) for v in row) for row in rows
            )
            for name, rows in self._relations.items()
        }
        return Database(self.schema, renamed)

    def disjoint_union(self, other: "Database") -> "Database":
        """Union of two databases over the same schema.

        The name reflects the typical use (combining databases with
        disjoint active domains, e.g. when building bisimilar pairs),
        but overlapping domains are permitted: relations are unioned.
        """
        if self.schema != other.schema:
            raise SchemaError("disjoint_union requires identical schemas")
        merged = {
            name: self._relations[name] | other._relations[name]
            for name in self.schema
        }
        return Database(self.schema, merged)

    def project_schema(self, names: Iterable[str]) -> "Database":
        """Restrict to a sub-schema (drops the other relations)."""
        wanted = tuple(names)
        sub = self.schema.restrict(wanted)
        return Database(sub, {name: self._relations[name] for name in wanted})

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Database):
            return (
                self.schema == other.schema
                and self._relations == other._relations
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Recomputed per call, like version_token(): the frozensets
        # cache their own hashes, and an in-place contents swap (the
        # server's write path) must not leave a stale value behind.
        return hash((self.schema, self.version_token()))

    def __repr__(self) -> str:
        parts = []
        for name in self.schema:
            rows = sorted(self._relations[name])
            parts.append(f"{name}={rows!r}")
        return f"Database({', '.join(parts)})"

    def pretty(self) -> str:
        """A multi-line rendering in the style of the paper's figures."""
        blocks: list[str] = []
        for name in self.schema:
            rows = sorted(self._relations[name])
            header = f"{name}/{self.schema[name]}"
            lines = [header, "-" * len(header)]
            lines.extend(
                "  ".join(str(v) for v in row) if row else "()"
                for row in rows
            )
            if not rows:
                lines.append("(empty)")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)


def database(schema: Mapping[str, int], **relations: Iterable[Row]) -> Database:
    """Convenience constructor: ``database({"R": 2}, R=[(1, 2)])``."""
    return Database(Schema(schema), relations)


def order_canonical(db: Database) -> Database:
    """Rename the active domain to ``0..m-1`` by order rank.

    Two databases are *order-isomorphic* iff their canonical forms are
    equal — the right notion of equality for constructions (like the
    Lemma 24 blow-up) that are only determined up to an order-preserving
    renaming of fresh values.  All values must be mutually comparable.
    """
    ranked = {v: i for i, v in enumerate(sorted(db.active_domain()))}
    return db.rename_values(ranked)


def order_isomorphic(left: Database, right: Database) -> bool:
    """Whether two databases coincide up to order-preserving renaming."""
    if left.schema != right.schema:
        return False
    return order_canonical(left) == order_canonical(right)
