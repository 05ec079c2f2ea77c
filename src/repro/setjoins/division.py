"""Relational division: ``R(A, B) ÷ S(B)`` and its algorithm zoo.

The paper (Section 1, Section 5, and references [11, 12] — Graefe's
"Relational division: four algorithms and their performance" and
Graefe & Cole's "Fast algorithms for universal quantification") frames
division as the prototypical query that classical RA plans handle badly:
every RA expression for it is quadratic (Proposition 26), while direct
algorithms run in ``O(n log n)`` (sorting) or ``O(n)`` (hashing/counting).

Implemented here, all over the same inputs (a binary relation and a
unary divisor) and all returning the quotient as a ``frozenset`` of
A-values:

================================  ============================  ==========
function                           technique                     cost
================================  ============================  ==========
:func:`divide_reference`           per-key set containment       oracle
:func:`divide_nested_loop`         candidate × divisor probing   O(|A|·|S|)
:func:`divide_sort_merge`          sort + group merge            O(n log n)
:func:`divide_hash`                Graefe's hash-division        O(n)
:func:`divide_counting`            aggregate/count division      O(n)
:func:`classic_division_expr`      the quadratic RA plan         Ω(n²)
:func:`small_divisor_expr`         join-per-divisor-value plan   O(|S|·n)
================================  ============================  ==========

Each function also has an equality-division variant (``*_eq``),
computing ``{ a | set_B(a) = S }`` instead of ``⊇``.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.ast import (
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    select_eq_const,
)
from repro.data.database import Row
from repro.data.universe import Value
from repro.errors import SchemaError
from repro.setjoins.setrel import SetRelation, divisor_values

BinaryRelation = Iterable[Row]


class TypedPairs:
    """A dividend its maker vouches for — every row a 2-``tuple`` —
    which :func:`_pairs` unwraps unchecked.  The engine wraps what a plan
    already typed (a binary expression over rows the database coerced
    and arity-checked on entry); all other rows enter through the checks.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: BinaryRelation) -> None:
        self.pairs = frozenset(pairs)  # a frozenset is kept, not copied


def _pairs(r: BinaryRelation) -> frozenset[tuple[Value, Value]]:
    """Validate and normalize a dividend: a set of 2-tuples.

    Every zoo variant (containment and ``_eq`` alike) funnels its
    dividend through here, so malformed inputs fail the same way
    everywhere: a :class:`SchemaError` naming the offending row.  The
    row type is checked *before* ``tuple()`` coercion — strings are
    sequences of length 2 far too often (``tuple("ab") == ('a', 'b')``)
    and non-sequences used to surface as ``TypeError`` from deep inside
    an algorithm instead of a schema complaint at the boundary.

    A :class:`TypedPairs` was validated where its rows entered.  A
    ``frozenset`` whose rows are all exactly ``tuple`` s of length 2 is
    already normal: two C-speed passes check that, and it is returned
    uncopied.  Anything else — lists, tuple subclasses, strings, wrong
    lengths — takes the row-by-row path below and fails or normalizes
    there.
    """
    if type(r) is TypedPairs:
        return r.pairs
    if (
        isinstance(r, frozenset)
        and set(map(type, r)) <= {tuple}
        and set(map(len, r)) <= {2}
    ):
        return r
    out: set[tuple[Value, Value]] = set()
    for row in r:
        if isinstance(row, str) or not isinstance(row, (tuple, list)):
            raise SchemaError(
                f"dividend rows must be 2-tuples, got {row!r}"
            )
        pair = tuple(row)
        if len(pair) != 2:
            raise SchemaError(
                f"dividend rows must be 2-tuples, got {row!r}"
            )
        out.add(pair)
    return frozenset(out)


# ----------------------------------------------------------------------
# Reference semantics
# ----------------------------------------------------------------------


def divide_reference(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """``{ a | { b | R(a,b) } ⊇ S }`` by direct set containment."""
    divisor = divisor_values(s)
    sets = SetRelation.from_binary(_pairs(r))
    return frozenset(
        key for key, values in sets.items() if divisor <= values
    )


def divide_reference_eq(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """``{ a | { b | R(a,b) } = S }`` (the equality variant)."""
    divisor = divisor_values(s)
    sets = SetRelation.from_binary(_pairs(r))
    return frozenset(
        key for key, values in sets.items() if divisor == values
    )


# ----------------------------------------------------------------------
# Nested-loop division
# ----------------------------------------------------------------------


def divide_nested_loop(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """For each candidate A-value, probe every divisor value.

    Graefe's "nested-loops division" with a hash table on the dividend:
    ``O(|π_A(R)| · |S|)`` probes — quadratic when both factors grow.
    """
    pairs = _pairs(r)
    divisor = divisor_values(s)
    candidates = {a for a, __ in pairs}
    quotient: set[Value] = set()
    for a in candidates:
        if all((a, b) in pairs for b in divisor):
            quotient.add(a)
    return frozenset(quotient)


def divide_nested_loop_eq(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    pairs = _pairs(r)
    divisor = divisor_values(s)
    counts: dict[Value, int] = {}
    for a, __ in pairs:
        counts[a] = counts.get(a, 0) + 1
    quotient: set[Value] = set()
    for a, total in counts.items():
        if total == len(divisor) and all((a, b) in pairs for b in divisor):
            quotient.add(a)
    return frozenset(quotient)


# ----------------------------------------------------------------------
# Sort-merge division
# ----------------------------------------------------------------------


def divide_sort_merge(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Sort the dividend by (A, B) and merge each group with sorted S.

    The ``O(n log n)`` strategy the paper's footnote 1 alludes to.
    """
    divisor = sorted(divisor_values(s), key=repr)
    rows = sorted(_pairs(r), key=lambda p: (repr(p[0]), repr(p[1])))
    quotient: set[Value] = set()
    index = 0
    while index < len(rows):
        a = rows[index][0]
        group_end = index
        while group_end < len(rows) and rows[group_end][0] == a:
            group_end += 1
        group = [rows[k][1] for k in range(index, group_end)]
        if _sorted_contains(group, divisor):
            quotient.add(a)
        index = group_end
    return frozenset(quotient)


def _sorted_contains(group: list[Value], divisor: list[Value]) -> bool:
    """Merge-check that sorted ``group`` ⊇ sorted ``divisor``."""
    gi = 0
    for needed in divisor:
        while gi < len(group) and repr(group[gi]) < repr(needed):
            gi += 1
        if gi >= len(group) or group[gi] != needed:
            return False
        gi += 1
    return True


def divide_sort_merge_eq(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    divisor = sorted(divisor_values(s), key=repr)
    rows = sorted(_pairs(r), key=lambda p: (repr(p[0]), repr(p[1])))
    quotient: set[Value] = set()
    index = 0
    while index < len(rows):
        a = rows[index][0]
        group_end = index
        while group_end < len(rows) and rows[group_end][0] == a:
            group_end += 1
        group = [rows[k][1] for k in range(index, group_end)]
        if group == divisor:
            quotient.add(a)
        index = group_end
    return frozenset(quotient)


# ----------------------------------------------------------------------
# Hash-division (Graefe)
# ----------------------------------------------------------------------


def divide_hash(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Graefe's hash-division: divisor table + per-candidate bitmaps.

    The divisor is hashed to bit positions ``0..|S|-1``; one pass over
    the dividend ORs bits into each candidate's bitmap (one dict
    update per row; a non-divisor value contributes no bit);
    candidates with a full bitmap qualify.  ``O(|R| + |S|)``.
    """
    return _hash_division(r, s, stray=0)


def divide_hash_eq(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Hash-division, equality variant: a full bitmap and no strays.

    A non-divisor value sets one extra bit above the full mask, so a
    candidate holding any stray can never compare equal to it.
    """
    return _hash_division(r, s, stray=1)


def _hash_division(
    r: BinaryRelation, s: Iterable, stray: int
) -> frozenset[Value]:
    divisor = divisor_values(s)
    ordered = sorted(divisor, key=repr)
    mask = {b: 1 << i for i, b in enumerate(ordered)}.get
    full = (1 << len(ordered)) - 1
    other = stray << len(ordered)
    bitmaps: dict[Value, int] = {}
    seen = bitmaps.get
    for a, b in _pairs(r):
        bitmaps[a] = seen(a, 0) | mask(b, other)
    return frozenset(a for a, bits in bitmaps.items() if bits == full)


# ----------------------------------------------------------------------
# Counting (aggregate) division — the Section 5 strategy
# ----------------------------------------------------------------------


def divide_counting(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Count matching B's per A and compare with |S|.

    This is exactly the Section 5 plan
    ``π_A(γ_{A, count}(R ⋈_{B=C} S) ⋈_{count=count} γ_{count}(S))``
    executed directly: linear, and expressible in RA+grouping.
    """
    divisor = divisor_values(s)
    matched: dict[Value, int] = {}
    for a, b in _pairs(r):
        matched.setdefault(a, 0)
        if b in divisor:
            matched[a] += 1
    return frozenset(
        a for a, count in matched.items() if count == len(divisor)
    )


def divide_counting_eq(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Equality division by counting: matches == |S| == total."""
    divisor = divisor_values(s)
    matched: dict[Value, int] = {}
    totals: dict[Value, int] = {}
    for a, b in _pairs(r):
        totals[a] = totals.get(a, 0) + 1
        if b in divisor:
            matched[a] = matched.get(a, 0) + 1
    return frozenset(
        a
        for a, total in totals.items()
        if total == len(divisor) and matched.get(a, 0) == len(divisor)
    )


# ----------------------------------------------------------------------
# RA plans
# ----------------------------------------------------------------------


def classic_division_expr(r: Expr | None = None, s: Expr | None = None) -> Expr:
    """The textbook RA plan: ``π_A(R) − π_A((π_A(R) × S) − R)``.

    Proposition 26 says every RA plan for division is quadratic; this
    one's cross product ``π_A(R) × S`` is the canonical offender — the
    PROP26 experiment measures it.
    """
    r = r if r is not None else Rel("R", 2)
    s = s if s is not None else Rel("S", 1)
    if r.arity != 2 or s.arity != 1:
        raise SchemaError("classic_division_expr needs R/2 and S/1")
    candidates = Projection(r, (1,))
    all_pairs = Join(candidates, s)           # π_A(R) × S
    missing = Difference(all_pairs, r)        # pairs a should have but...
    disqualified = Projection(missing, (1,))
    return Difference(candidates, disqualified)


def small_divisor_expr(divisor: Iterable, r: Expr | None = None) -> Expr:
    """A per-divisor-value plan: ``⋂_{b ∈ S} π_A(σ_{B='b'}(R))``.

    Linear in |R| for a *fixed* divisor, but the expression itself
    depends on the divisor's contents — it is a different query for
    every S, which is exactly why it does not contradict Proposition 26
    (the proposition is about a single expression computing division
    for all inputs).
    """
    r = r if r is not None else Rel("R", 2)
    values = sorted(divisor_values(divisor), key=repr)
    if not values:
        return Projection(r, (1,))
    parts = [
        Projection(select_eq_const(r, 2, value), (1,)) for value in values
    ]
    # Balanced pairwise intersection: RA intersection A ∩ B is
    # A − (A − B), which mentions A twice, so a left-leaning chain
    # repeats its accumulator once per level — 2^|S| node occurrences.
    # Pairing keeps the depth logarithmic and the occurrence count
    # polynomial, which tree-walking tools (hashing, printing,
    # occurrence traversals) depend on for larger divisors.
    while len(parts) > 1:
        paired = [
            Difference(parts[i], Difference(parts[i], parts[i + 1]))
            for i in range(0, len(parts) - 1, 2)
        ]
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


def divide_merge_count(r: BinaryRelation, s: Iterable) -> frozenset[Value]:
    """Sort-based *aggregate* division (Graefe's merge-count variant).

    Sorts the dividend by A only and counts divisor matches per group
    during a single scan — the sort-based sibling of
    :func:`divide_counting` (no per-group merge against sorted S).
    """
    divisor = divisor_values(s)
    rows = sorted(_pairs(r), key=lambda p: repr(p[0]))
    quotient: set[Value] = set()
    index = 0
    while index < len(rows):
        a = rows[index][0]
        matches = 0
        while index < len(rows) and rows[index][0] == a:
            if rows[index][1] in divisor:
                matches += 1
            index += 1
        if matches == len(divisor):
            quotient.add(a)
    return frozenset(quotient)


def divide_hash_transposed(
    r: BinaryRelation, s: Iterable
) -> frozenset[Value]:
    """Hash-division with the table roles transposed (Graefe & Cole).

    Classic hash-division keys the *quotient* table by candidate and
    bitmaps the divisor; the transposed variant keys by *divisor value*
    and collects candidate sets, intersecting at the end.  Preferable
    when the divisor is small and candidates are many (smaller bitmaps,
    one set intersection).
    """
    divisor = divisor_values(s)
    pairs = _pairs(r)
    candidates = frozenset(a for a, __ in pairs)
    if not divisor:
        return candidates
    holders: dict[Value, set[Value]] = {b: set() for b in divisor}
    for a, b in pairs:
        if b in holders:
            holders[b].add(a)
    quotient: set[Value] = set(candidates)
    for haves in holders.values():
        quotient &= haves
        if not quotient:
            break
    return frozenset(quotient)


#: All containment-division algorithms, keyed by name (for experiments).
DIVISION_ALGORITHMS = {
    "nested_loop": divide_nested_loop,
    "sort_merge": divide_sort_merge,
    "merge_count": divide_merge_count,
    "hash": divide_hash,
    "hash_transposed": divide_hash_transposed,
    "counting": divide_counting,
}

#: All equality-division algorithms.
DIVISION_EQ_ALGORITHMS = {
    "nested_loop": divide_nested_loop_eq,
    "sort_merge": divide_sort_merge_eq,
    "hash": divide_hash_eq,
    "counting": divide_counting_eq,
}
