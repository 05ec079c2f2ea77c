"""Database schemas (Section 2 of the paper).

A *database schema* is a finite set of relation names, each with an
associated arity.  :class:`Schema` is an immutable mapping from relation
name to arity with eager validation.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.errors import ArityError, SchemaError, UnknownRelationError


class Schema(Mapping[str, int]):
    """An immutable mapping ``relation name -> arity``.

    Examples
    --------
    >>> s = Schema({"R": 2, "S": 1})
    >>> s.arity("R")
    2
    >>> "S" in s
    True
    >>> sorted(s)
    ['R', 'S']
    """

    __slots__ = ("_arities",)

    def __init__(self, arities: Mapping[str, int]) -> None:
        validated: dict[str, int] = {}
        for name, arity in arities.items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"relation name must be a nonempty string, got {name!r}")
            if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
                raise ArityError(
                    f"arity of {name!r} must be a positive integer, got {arity!r}"
                )
            validated[name] = arity
        # Sorted, for deterministic iteration order everywhere downstream.
        self._arities: dict[str, int] = dict(sorted(validated.items()))

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._arities)

    def __len__(self) -> int:
        return len(self._arities)

    def __contains__(self, name: object) -> bool:
        # Explicit: the Mapping default delegates to __getitem__, which
        # raises UnknownRelationError (not KeyError) and would escape.
        return name in self._arities

    # -- Convenience --------------------------------------------------------

    def arity(self, name: str) -> int:
        """The arity of relation ``name`` (raises if unknown)."""
        return self[name]

    def names(self) -> tuple[str, ...]:
        """All relation names in sorted order."""
        return tuple(self._arities)

    def restrict(self, names: Mapping[str, int] | tuple[str, ...]) -> "Schema":
        """A sub-schema containing only the given relation names."""
        wanted = names if isinstance(names, tuple) else tuple(names)
        return Schema({name: self[name] for name in wanted})

    def max_arity(self) -> int:
        """The largest arity in the schema (0 for an empty schema)."""
        return max(self._arities.values(), default=0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}/{a}" for n, a in self._arities.items())
        return f"Schema({{{inner}}})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schema):
            return self._arities == other._arities
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._arities.items()))
