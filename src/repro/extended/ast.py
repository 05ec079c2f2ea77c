"""Extended relational algebra: grouping and aggregation (Section 5).

"Practical query processing uses a more powerful relational algebra
including grouping, sorting, and aggregation operators" — the paper
closes by noting that in this richer algebra, containment- and
equality-division become *linear*.  This package adds the γ operator
on top of the core AST so the Section 5 plans can be built, traced and
measured.

Set semantics carries over: a group's ``count`` over a position counts
*distinct* values (rows are deduplicated), matching the paper's use
``count(B)`` on ``R ⋈_{B=C} S``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.ast import Expr, cache_hashes
from repro.errors import PositionError, SchemaError

#: The supported aggregate functions.
AGG_FUNCS = ("count", "min", "max", "sum")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate column: ``func`` over a 1-based input position."""

    func: str
    position: int

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise SchemaError(
                f"unknown aggregate {self.func!r}; expected one of "
                f"{AGG_FUNCS}"
            )
        if self.position < 1:
            raise PositionError(self.position, 0, "aggregate")

    def __str__(self) -> str:
        return f"{self.func}({self.position})"


@dataclass(frozen=True)
class GroupBy(Expr):
    """``γ_{positions, aggregates}(E)``.

    Output columns: the grouping positions (in the given order)
    followed by one column per aggregate.  With no grouping positions
    there is a single group; over an *empty* input, a count-only
    grouping emits one all-zero row (the SQL convention), while
    min/max/sum have no value and the row is suppressed — the
    empty-divisor caveat of the Section 5 division plans, documented in
    :mod:`repro.extended.division_plan`.
    """

    child: Expr
    group_positions: tuple[int, ...]
    aggregates: tuple[Aggregate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "group_positions", tuple(self.group_positions)
        )
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        arity = self.child.arity
        for position in self.group_positions:
            if position < 1 or position > arity:
                raise PositionError(position, arity, "grouping")
        for aggregate in self.aggregates:
            if aggregate.position > arity:
                raise PositionError(aggregate.position, arity, str(aggregate))
        if not self.aggregates and not self.group_positions:
            raise SchemaError("γ needs grouping positions or aggregates")
        self.__dict__["arity"] = (
            len(self.group_positions) + len(self.aggregates)
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)


cache_hashes(GroupBy)


def group_by(
    child: Expr,
    positions: tuple[int, ...] | list[int],
    *aggregates: "Aggregate | tuple[str, int] | str",
) -> GroupBy:
    """Convenience constructor.

    >>> from repro.algebra.ast import rel
    >>> group_by(rel("R", 2), [1], "count(2)").arity
    2
    """
    built: list[Aggregate] = []
    for aggregate in aggregates:
        if isinstance(aggregate, Aggregate):
            built.append(aggregate)
        elif isinstance(aggregate, tuple):
            built.append(Aggregate(*aggregate))
        else:
            func, __, rest = aggregate.partition("(")
            built.append(Aggregate(func.strip(), int(rest.rstrip(") "))))
    return GroupBy(child, tuple(positions), tuple(built))
