"""Set-equality joins: ``R ⋈_{B = D} S``.

Returns ``{ (a, c) | set_B(a) = set_D(c) }``.  The paper's footnote 1:
"for set-equality join, where the result size alone can already be
quadratic, we should really say in time O(n log n) plus output size" —
both implementations below achieve that bound (grouping by a canonical
form, then emitting the cross product of matching groups), and the
ALG-SEJ experiment demonstrates the quadratic-output case.
"""

from __future__ import annotations

from typing import Iterable

from repro.data.universe import Value
from repro.setjoins.setrel import SetRelation
from repro.setjoins.signatures import DEFAULT_BITS, make_signature

Pairs = frozenset[tuple[Value, Value]]


def _canonical(values: frozenset[Value]) -> tuple[Value, ...]:
    """A canonical (sorted) form usable as a grouping key."""
    return tuple(sorted(values, key=repr))


def sej_nested_loop(left: SetRelation, right: SetRelation) -> Pairs:
    """Baseline: compare every pair."""
    return frozenset(
        (a, c)
        for a, x in left.items()
        for c, y in right.items()
        if x == y
    )


def sej_sort(left: SetRelation, right: SetRelation) -> Pairs:
    """By sorting: canonicalize each set, sort, merge equal groups.

    ``O(n log n + output)`` — the footnote-1 bound via sorting.
    """
    left_keyed = sorted(
        ((_canonical(values), key) for key, values in left.items()),
    )
    right_keyed = sorted(
        ((_canonical(values), key) for key, values in right.items()),
    )
    out: set[tuple[Value, Value]] = set()
    li = ri = 0
    while li < len(left_keyed) and ri < len(right_keyed):
        lkey = left_keyed[li][0]
        rkey = right_keyed[ri][0]
        if lkey < rkey:
            li += 1
        elif rkey < lkey:
            ri += 1
        else:
            lj = li
            while lj < len(left_keyed) and left_keyed[lj][0] == lkey:
                lj += 1
            rj = ri
            while rj < len(right_keyed) and right_keyed[rj][0] == rkey:
                rj += 1
            for __, a in left_keyed[li:lj]:
                for __, c in right_keyed[ri:rj]:
                    out.add((a, c))
            li, ri = lj, rj
    return frozenset(out)


def sej_hash(left: SetRelation, right: SetRelation) -> Pairs:
    """Hash-based: group by the canonical form in a dictionary.

    Expected ``O(n + output)`` — the footnote-1 bound via hashing
    (counting-style).
    """
    groups: dict[tuple[Value, ...], list[Value]] = {}
    for key, values in left.items():
        groups.setdefault(_canonical(values), []).append(key)
    out: set[tuple[Value, Value]] = set()
    for key, values in right.items():
        for a in groups.get(_canonical(values), ()):
            out.add((a, key))
    return frozenset(out)


def sej_signature(
    left: SetRelation, right: SetRelation, bits: int = DEFAULT_BITS
) -> Pairs:
    """Signature pre-grouping, then exact verification."""
    groups: dict[int, list[tuple[Value, frozenset[Value]]]] = {}
    for key, values in left.items():
        groups.setdefault(make_signature(values, bits), []).append(
            (key, values)
        )
    out: set[tuple[Value, Value]] = set()
    for c, values in right.items():
        for a, candidate in groups.get(make_signature(values, bits), ()):
            if candidate == values:
                out.add((a, c))
    return frozenset(out)


def equality_join_binary(
    left_rows: Iterable[tuple[Value, Value]],
    right_rows: Iterable[tuple[Value, Value]],
    algorithm=sej_hash,
) -> Pairs:
    """Set-equality join on binary relations."""
    return algorithm(
        SetRelation.from_binary(tuple(left_rows)),
        SetRelation.from_binary(tuple(right_rows)),
    )


#: All set-equality join algorithms, keyed by name.
EQUALITY_ALGORITHMS = {
    "nested_loop": sej_nested_loop,
    "sort": sej_sort,
    "hash": sej_hash,
    "signature": sej_signature,
}
