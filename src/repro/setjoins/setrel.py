"""Set-valued views of binary relations.

Set joins relate database elements "on the basis of sets of values,
rather than single values" (Section 1).  A binary relation ``R(A, B)``
induces the set-valued mapping ``a ↦ { b | R(a, b) }``;
:class:`SetRelation` materializes that mapping and is the common input
format of the set-join algorithms in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.data.database import Row
from repro.data.universe import Value
from repro.errors import SchemaError


@dataclass(frozen=True)
class SetRelation:
    """An immutable mapping ``key → finite set of elements``.

    Keys with empty sets are representable (relevant: the empty set is
    ⊆-below everything), although :meth:`from_binary` never produces
    them — a key occurs in a binary relation only with ≥ 1 element.
    """

    _sets: tuple[tuple[Value, frozenset[Value]], ...]

    def __post_init__(self) -> None:
        keys = [k for k, __ in self._sets]
        if len(set(keys)) != len(keys):
            raise SchemaError("duplicate keys in SetRelation")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_mapping(mapping: Mapping[Value, Iterable[Value]]) -> "SetRelation":
        return SetRelation(
            tuple(
                (key, frozenset(values))
                for key, values in sorted(mapping.items(), key=lambda kv: repr(kv[0]))
            )
        )

    @staticmethod
    def from_binary(rows: Iterable[Row]) -> "SetRelation":
        """Group a binary relation: first column → set of second columns."""
        grouped: dict[Value, set[Value]] = {}
        for row in rows:
            if len(row) != 2:
                raise SchemaError(
                    f"from_binary needs 2-tuples, got {row!r}"
                )
            grouped.setdefault(row[0], set()).add(row[1])
        return SetRelation.from_mapping(grouped)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def keys(self) -> tuple[Value, ...]:
        return tuple(k for k, __ in self._sets)

    def __getitem__(self, key: Value) -> frozenset[Value]:
        for k, values in self._sets:
            if k == key:
                return values
        raise KeyError(key)

    def get(self, key: Value, default: frozenset[Value] = frozenset()) -> frozenset[Value]:
        for k, values in self._sets:
            if k == key:
                return values
        return default

    def items(self) -> tuple[tuple[Value, frozenset[Value]], ...]:
        return self._sets

    def __iter__(self) -> Iterator[Value]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._sets)

    def __contains__(self, key: object) -> bool:
        return any(k == key for k, __ in self._sets)

    def element_universe(self) -> frozenset[Value]:
        """All elements appearing in any set."""
        out: set[Value] = set()
        for __, values in self._sets:
            out |= values
        return frozenset(out)

    def total_elements(self) -> int:
        """Σ |set| — the input size measure of the set-join algorithms."""
        return sum(len(values) for __, values in self._sets)

    def to_binary(self) -> frozenset[Row]:
        """Back to a binary relation (loses empty sets)."""
        return frozenset(
            (key, value)
            for key, values in self._sets
            for value in values
        )

    def restrict_keys(self, keys: Iterable[Value]) -> "SetRelation":
        wanted = set(keys)
        return SetRelation(
            tuple((k, v) for k, v in self._sets if k in wanted)
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k!r}: {sorted(v, key=repr)!r}" for k, v in self._sets
        )
        return f"SetRelation({{{inner}}})"


def divisor_values(divisor: Iterable) -> frozenset[Value]:
    """Normalize a divisor: accepts raw values or 1-tuples (algebra rows).

    ``R(A,B) ÷ S(B)``'s divisor is a unary relation; the algebra
    produces rows ``(b,)`` while algorithm users often pass plain
    values.  Mixing the two styles in one call is rejected.
    """
    items = list(divisor)
    tuple_like = [isinstance(v, tuple) for v in items]
    if any(tuple_like) and not all(tuple_like):
        raise SchemaError("divisor mixes raw values and tuples")
    if items and tuple_like[0]:
        out: set[Value] = set()
        for row in items:
            if len(row) != 1:
                raise SchemaError(
                    f"divisor rows must be 1-tuples, got {row!r}"
                )
            out.add(row[0])
        return frozenset(out)
    return frozenset(items)
