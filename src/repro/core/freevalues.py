"""Free values of joining tuples (Definition 22).

For ``E = E1 ⋈_θ E2`` with constants in ``C = {c1 < ... < ck}`` and a
tuple ``d̄ ∈ E1(D)``::

    F1_E(d̄) = set(d̄) − { d_i | i ∈ constrained1(E) }
                       − C
                       − ⋃ { [c_i, c_i+1] | the interval is finite }

i.e. the values of ``d̄`` that are neither pinned by an equality atom,
nor constants, nor trapped in a finite gap between two constants
(whether a gap is finite depends on the universe — over **Z** the
interval ``[2, 5]`` is ``{2,3,4,5}``, over **Q** it is infinite).

Lemma 24's hypothesis is a joining pair with free values on **both**
sides; the blow-up construction multiplies exactly those values.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.ast import Join, Semijoin
from repro.core.joininfo import JoinInfo
from repro.data.database import Row
from repro.data.universe import Universe, Value


def free_values(
    row: Row,
    side: int,
    info: JoinInfo,
    constants: Iterable[Value],
    universe: Universe,
) -> frozenset[Value]:
    """``F^E_side(row)`` per Definition 22 (side is 1 or 2)."""
    arity = info.left_arity if side == 1 else info.right_arity
    if len(row) != arity:
        raise ValueError(
            f"tuple {row!r} has arity {len(row)}, side {side} expects {arity}"
        )
    pinned_positions = info.constrained(side)
    pinned_values = {row[i - 1] for i in pinned_positions}
    excluded = universe.excluded_by_constants(constants)
    return frozenset(set(row) - pinned_values - excluded)


def free_values_of_join(
    node: "Join | Semijoin",
    row: Row,
    side: int,
    constants: Iterable[Value],
    universe: Universe,
) -> frozenset[Value]:
    """Free values of a tuple w.r.t. a join node's own condition.

    ``constants`` should be the constant set ``C`` of the *whole*
    expression the node occurs in (Definition 22 fixes one global C).
    """
    return free_values(row, side, JoinInfo.of(node), constants, universe)


def joining_pairs(
    left_rows: Iterable[Row],
    right_rows: Iterable[Row],
    info: JoinInfo,
) -> Iterable[tuple[Row, Row]]:
    """All pairs ``(ā, b̄)`` satisfying θ — the candidates of Lemma 24."""
    right_list = list(right_rows)
    for left in left_rows:
        for right in right_list:
            if info.condition.holds(left, right):
                yield left, right


def doubly_free_pairs(
    left_rows: Iterable[Row],
    right_rows: Iterable[Row],
    info: JoinInfo,
    constants: Iterable[Value],
    universe: Universe,
) -> Iterable[tuple[Row, Row, frozenset[Value], frozenset[Value]]]:
    """Joining pairs with nonempty free values on both sides.

    Yields ``(ā, b̄, F1(ā), F2(b̄))`` — each is a Lemma 24 witness: the
    blow-up construction applies and certifies the join quadratic.
    """
    constants = tuple(constants)
    for left, right in joining_pairs(left_rows, right_rows, info):
        f1 = free_values(left, 1, info, constants, universe)
        if not f1:
            continue
        f2 = free_values(right, 2, info, constants, universe)
        if not f2:
            continue
        yield left, right, f1, f2
