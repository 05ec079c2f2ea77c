"""Expression trees for the relational algebra and the semijoin algebra.

The paper works with two algebras over the same carrier operations:

* **RA** (Definition 1): union, difference, projection, selection
  (``σ_{i=j}`` and ``σ_{i<j}``), constant-tagging ``τ_c``, and θ-joins
  whose conditions are conjunctions of ``=, ≠, <, >`` comparisons
  (cartesian product is the empty conjunction);
* **SA** (Definition 2): the same, with the join replaced by the
  *semijoin* ``E1 ⋉_θ E2``.

Because SA is literally "RA with the join node swapped out", we model
both in a single AST and provide fragment predicates
(:func:`is_ra`, :func:`is_sa`, :func:`is_sa_eq`, ...) instead of two
parallel class hierarchies.  All column positions are **1-based**, as in
the paper.

Arity is computed at construction time and every structural constraint
(position ranges, equal arities for union/difference) is validated
eagerly, so an :class:`Expr` that exists is well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator

from repro.algebra.conditions import Condition, condition
from repro.data.universe import Value
from repro.errors import ArityError, PositionError, SchemaError


@dataclass(frozen=True)
class Expr:
    """Base class of all algebra expressions.

    Each node's ``__post_init__`` stores its ``arity`` (the number of
    output columns) in the instance, read off its children's: an
    attribute, not a dataclass field, so equality, hashing and ``repr``
    never see it, and a pickled node carries it.
    """

    if TYPE_CHECKING:
        arity: int

    def __post_init__(self) -> None:  # pragma: no cover - abstract
        raise SchemaError("Expr is abstract; use a concrete node type")

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions, left to right."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def subexpressions(self) -> Iterator["Expr"]:
        """All sub-expressions in post-order (self last).

        Structurally equal occurrences are yielded each time they occur;
        use ``set()`` to deduplicate.
        """
        for child in self.children():
            yield from child.subexpressions()
        yield self

    def size(self) -> int:
        """The number of AST nodes."""
        return 1 + sum(child.size() for child in self.children())

    def depth(self) -> int:
        """The height of the AST (a leaf has depth 1)."""
        return 1 + max(
            (child.depth() for child in self.children()), default=0
        )

    def relation_names(self) -> frozenset[str]:
        """All relation names referenced by the expression."""
        names: set[str] = set()
        for node in self.subexpressions():
            if isinstance(node, Rel):
                names.add(node.name)
        return frozenset(names)

    def constants(self) -> frozenset[Value]:
        """The set ``C`` of constants used (via ``τ_c``) in the expression."""
        found: set[Value] = set()
        for node in self.subexpressions():
            if isinstance(node, ConstantTag):
                found.add(node.value)
        return frozenset(found)

    # ------------------------------------------------------------------
    # Fluent combinators (1-based positions, like the paper)
    # ------------------------------------------------------------------

    def project(self, *positions: int) -> "Projection":
        """``π_{positions}(self)``."""
        return Projection(self, tuple(positions))

    def select_eq(self, i: int, j: int) -> "Selection":
        """``σ_{i=j}(self)``."""
        return Selection(self, "=", i, j)

    def select_lt(self, i: int, j: int) -> "Selection":
        """``σ_{i<j}(self)``."""
        return Selection(self, "<", i, j)

    def tag(self, value: Value) -> "ConstantTag":
        """``τ_value(self)`` — append the constant as a new last column."""
        return ConstantTag(self, value)

    def union(self, other: "Expr") -> "Union":
        """``self ∪ other``."""
        return Union(self, other)

    def minus(self, other: "Expr") -> "Difference":
        """``self − other``."""
        return Difference(self, other)

    def join(self, other: "Expr", cond: object = None) -> "Join":
        """``self ⋈_θ other``; ``cond`` may be a string like ``"2=1"``."""
        return Join(self, other, condition(cond))

    def semijoin(self, other: "Expr", cond: object = None) -> "Semijoin":
        """``self ⋉_θ other``."""
        return Semijoin(self, other, condition(cond))

    def cartesian(self, other: "Expr") -> "Join":
        """``self × other`` (join with the empty condition)."""
        return Join(self, other, Condition())

    def __str__(self) -> str:
        from repro.algebra.printer import to_text

        return to_text(self)

    def __getstate__(self) -> dict:
        """The fields without the cached hash: a string's hash differs
        between processes, so an unpickled node hashes afresh."""
        state = self.__dict__.copy()
        state.pop("_hash_value", None)
        return state


def cached_hash(self) -> int:
    """Hash of the dataclass field tuple, computed once per node.

    The generated frozen-dataclass ``__hash__`` re-hashes the whole
    subtree on every call, which makes memo-dict lookups on deep
    shared trees quadratic-to-exponential; caching keeps them O(1)
    after the first hash (child hashes are themselves cached, so even
    the first full hash is linear in distinct nodes).  Equality stays
    the generated structural one.
    """
    value = self.__dict__.get("_hash_value")
    if value is None:
        value = self.__dict__["_hash_value"] = hash(self._hash_fields(self))
    return value


def cache_hashes(*classes: type) -> None:
    """Give each frozen dataclass in ``classes`` :func:`cached_hash`."""
    for cls in classes:
        cls._hash_fields = attrgetter(*(f.name for f in fields(cls)))
        cls.__hash__ = cached_hash


def _check_position(position: int, arity: int, context: str) -> None:
    if not isinstance(position, int) or isinstance(position, bool):
        raise PositionError(-1, arity, context)
    if position < 1 or position > arity:
        raise PositionError(position, arity, context)


@dataclass(frozen=True)
class Rel(Expr):
    """A relation name with its arity (Definition 1, item 1)."""

    name: str
    _arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be nonempty")
        if self._arity < 1:
            raise ArityError(
                f"relation {self.name!r} must have arity >= 1, "
                f"got {self._arity}"
            )
        self.__dict__["arity"] = self._arity

    def children(self) -> tuple[Expr, ...]:
        return ()


@dataclass(frozen=True)
class Union(Expr):
    """``E1 ∪ E2`` (same arity on both sides)."""

    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        arity = self.left.arity
        if arity != self.right.arity:
            raise ArityError(
                f"union of arities {arity} and {self.right.arity}"
            )
        self.__dict__["arity"] = arity

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Difference(Expr):
    """``E1 − E2`` (same arity on both sides)."""

    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        arity = self.left.arity
        if arity != self.right.arity:
            raise ArityError(
                f"difference of arities {arity} and {self.right.arity}"
            )
        self.__dict__["arity"] = arity

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Projection(Expr):
    """``π_{i1,...,ik}(E)`` — positions may repeat and reorder; k ≥ 0."""

    child: Expr
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        positions = self.__dict__["positions"] = tuple(self.positions)
        arity = self.child.arity
        for position in positions:
            _check_position(position, arity, "projection")
        self.__dict__["arity"] = len(positions)

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Selection(Expr):
    """``σ_{i=j}(E)`` or ``σ_{i<j}(E)`` (Definition 1, item 4)."""

    child: Expr
    op: str
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.op not in ("=", "<"):
            raise SchemaError(
                f"selection comparison must be '=' or '<', got {self.op!r}; "
                "use the select_* helper functions for derived comparisons"
            )
        arity = self.child.arity
        _check_position(self.i, arity, "selection")
        _check_position(self.j, arity, "selection")
        self.__dict__["arity"] = arity

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def holds(self, row: tuple[Value, ...]) -> bool:
        """Evaluate the selection predicate on one tuple."""
        a, b = row[self.i - 1], row[self.j - 1]
        return a == b if self.op == "=" else a < b


@dataclass(frozen=True)
class ConstantTag(Expr):
    """``τ_c(E)`` — append constant ``c`` as column ``n+1``."""

    child: Expr
    value: Value

    def __post_init__(self) -> None:
        from fractions import Fraction

        is_valid = isinstance(self.value, (int, str, Fraction)) and not (
            isinstance(self.value, bool)
        )
        if not is_valid:
            raise SchemaError(
                f"constant must be int, Fraction or str, got {self.value!r}"
            )
        self.__dict__["arity"] = self.child.arity + 1

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Join(Expr):
    """``E1 ⋈_θ E2`` (Definition 1, item 6); arity ``n + m``."""

    left: Expr
    right: Expr
    cond: Condition = field(default_factory=Condition)

    def __post_init__(self) -> None:
        cond = self.__dict__["cond"] = condition(self.cond)
        left, right = self.left.arity, self.right.arity
        cond.validate(left, right)
        self.__dict__["arity"] = left + right

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Semijoin(Expr):
    """``E1 ⋉_θ E2`` (Definition 2); arity ``n``."""

    left: Expr
    right: Expr
    cond: Condition = field(default_factory=Condition)

    def __post_init__(self) -> None:
        cond = self.__dict__["cond"] = condition(self.cond)
        left = self.left.arity
        cond.validate(left, self.right.arity)
        self.__dict__["arity"] = left

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)


cache_hashes(
    Rel, Union, Difference, Projection, Selection, ConstantTag, Join, Semijoin
)


# ----------------------------------------------------------------------
# Derived operations (expressible in the core algebra; see Definition 1's
# remark that σ_{i='c'} = π_{1..n}(σ_{i=n+1}(τ_c(E))) ).
# ----------------------------------------------------------------------


def select_eq_const(expr: Expr, i: int, value: Value) -> Expr:
    """``σ_{i='value'}(E)`` desugared to core RA as in the paper."""
    _check_position(i, expr.arity, "constant selection")
    n = expr.arity
    tagged = ConstantTag(expr, value)
    selected = Selection(tagged, "=", i, n + 1)
    return Projection(selected, tuple(range(1, n + 1)))


def select_lt_const(expr: Expr, i: int, value: Value) -> Expr:
    """``σ_{i<'value'}(E)`` desugared to core RA."""
    _check_position(i, expr.arity, "constant selection")
    n = expr.arity
    tagged = ConstantTag(expr, value)
    selected = Selection(tagged, "<", i, n + 1)
    return Projection(selected, tuple(range(1, n + 1)))


def select_gt_const(expr: Expr, i: int, value: Value) -> Expr:
    """``σ_{i>'value'}(E)`` desugared to core RA."""
    _check_position(i, expr.arity, "constant selection")
    n = expr.arity
    tagged = ConstantTag(expr, value)
    selected = Selection(tagged, "<", n + 1, i)
    return Projection(selected, tuple(range(1, n + 1)))


def select_neq(expr: Expr, i: int, j: int) -> Expr:
    """``σ_{i≠j}(E) = E − σ_{i=j}(E)``."""
    return Difference(expr, Selection(expr, "=", i, j))


def select_neq_const(expr: Expr, i: int, value: Value) -> Expr:
    """``σ_{i≠'value'}(E)``."""
    return Difference(expr, select_eq_const(expr, i, value))


def select_gt(expr: Expr, i: int, j: int) -> Selection:
    """``σ_{i>j}(E) = σ_{j<i}(E)``."""
    return Selection(expr, "<", j, i)


def identity_projection(expr: Expr) -> Projection:
    """``π_{1..n}(E)`` — semantically the identity."""
    return Projection(expr, tuple(range(1, expr.arity + 1)))


# ----------------------------------------------------------------------
# Fragment predicates
# ----------------------------------------------------------------------


def is_ra(expr: Expr) -> bool:
    """Whether the expression is in RA (no semijoin nodes)."""
    return not any(
        isinstance(node, Semijoin) for node in expr.subexpressions()
    )


def is_sa(expr: Expr) -> bool:
    """Whether the expression is in SA (no join nodes)."""
    return not any(isinstance(node, Join) for node in expr.subexpressions())


def _conditions_equi(expr: Expr) -> bool:
    for node in expr.subexpressions():
        if isinstance(node, (Join, Semijoin)) and not node.cond.is_equi():
            return False
    return True


def is_ra_eq(expr: Expr) -> bool:
    """Whether the expression is in RA= (equijoins only)."""
    return is_ra(expr) and _conditions_equi(expr)


def is_sa_eq(expr: Expr) -> bool:
    """Whether the expression is in SA= (equi-semijoins only)."""
    return is_sa(expr) and _conditions_equi(expr)


def uses_order(expr: Expr) -> bool:
    """Whether the expression uses ``<``/``>`` anywhere."""
    for node in expr.subexpressions():
        if isinstance(node, Selection) and node.op == "<":
            return True
        if isinstance(node, (Join, Semijoin)):
            if any(atom.op in ("<", ">") for atom in node.cond):
                return True
    return False


def join_nodes(expr: Expr) -> tuple[Join, ...]:
    """All join nodes in post-order (deduplicated, order preserved)."""
    seen: list[Join] = []
    for node in expr.subexpressions():
        if isinstance(node, Join) and node not in seen:
            seen.append(node)
    return tuple(seen)


def rel(name: str, arity: int) -> Rel:
    """Shorthand constructor for a relation reference."""
    return Rel(name, arity)
