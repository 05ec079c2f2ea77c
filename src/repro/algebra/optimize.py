"""Plan optimization: filter joins become semijoins; σ moves down.

The paper's Corollary 19 says the queries computable with linear
intermediate results are exactly the SA= queries — so a practical
optimizer should *recognize* joins that the query only uses as filters
and rewrite them into semijoins, wherever they sit.
:func:`filter_joins` walks top-down with the output positions some
ancestor reads (π its positions; σ adds ``i`` and ``j``; a semijoin's
left side what its parent reads plus θ's left columns, its right side
θ's right columns; ∪ and − every column; τ its child's).  A join whose
one side supplies none of them becomes ``E1 ⋉_θ E2`` (``E2 ⋉_θ' E1``,
mirrored, when E1 is unread), and ``(L ⋈ R) ⋉_φ X → L ⋈ (R ⋉_φ' X)``
when φ reads only R (likewise L) reaches left-deep chains — turning,
e.g., the quadratic ``π[1,2](R ⋈[1=1] R)`` into the linear
``π[1,2](R ⋉[1=1] R)``.  A side read only through columns an ``=``
atom binds is a filter too: the reader takes each such column from its
partner on the other side, so ``π[4,1](U ⋈[1=1] T)`` becomes
``π[2,1](T ⋉[1=1] U)``.  That needs a reader that remaps positions —
π, or a σ / τ / semijoin-left / join-child chain ending in one, or a
semijoin's right side — so at the root and under ∪ and − every column
keeps its side.  Each step is exact for **every** θ under set
semantics and adds no rows (``|E1 ⋉_θ E2| ≤ |E1 ⋈_θ E2|``).

Also provided: selection pushdown through join/semijoin/union/difference
and projection-pruning, composing into :func:`optimize`.  All rewrites
are property-tested for equivalence, and the optimizer's effect on
intermediate sizes is measured by the OPT ablation benchmark.
"""

from __future__ import annotations

from repro.algebra.ast import (
    ConstantTag,
    Difference,
    Expr,
    Join,
    Projection,
    Selection,
    Semijoin,
    Union,
)
from repro.algebra.conditions import Atom, Condition
from repro.algebra.rewrites import map_expression, simplify


def filter_joins(
    expr: Expr, keep_cycles: bool = False, notes: dict | None = None
) -> Expr:
    """Make every join read through one side only a semijoin.

    A side counts as unread, too, when a reader that remaps positions
    reads it only through columns an ``=`` atom binds: those come from
    their partners.  Walks until one changes nothing; an unchanged
    expression comes back as the same object.  ``keep_cycles`` keeps a
    join whose equality atoms read two leaves of the join chain on one
    side: that filter closes a cycle, the multiway join's case.
    ``notes``, if given, maps each semijoin made from a join to whether
    it was mirrored.
    """
    everything = set(range(1, expr.arity + 1))
    done = _walk(expr, everything, keep_cycles, notes, False)[0]
    return expr if done is expr else filter_joins(done, keep_cycles, notes)


def _walk(expr: Expr, need: set, cycles: bool, notes, remap: bool):
    """``expr`` for readers of ``need``; each old position's new one.

    ``remap``: the reader maps positions through the returned ``at``,
    so a read position may move to a column equal to it."""
    kind, same = type(expr), tuple(range(1, expr.arity + 1))
    if kind is Projection:
        child, at = _walk(expr.child, set(expr.positions), cycles, notes, True)
        if child is not expr.child:
            expr = Projection(child, tuple(at[p - 1] for p in expr.positions))
        return expr, same
    if kind is Selection:
        child, at = _walk(
            expr.child, need | {expr.i, expr.j}, cycles, notes, remap
        )
        if child is not expr.child:
            expr = Selection(child, expr.op, at[expr.i - 1], at[expr.j - 1])
        return expr, at
    if kind is ConstantTag:  # the tag column follows a shrinking child
        child, at = _walk(
            expr.child, need - {expr.arity}, cycles, notes, remap
        )
        if child is not expr.child:
            expr = ConstantTag(child, expr.value)
        return expr, at + (expr.arity,)
    if kind is Union or kind is Difference:
        left = _walk(expr.left, set(same), cycles, notes, False)[0]
        right = _walk(expr.right, set(same), cycles, notes, False)[0]
        if left is not expr.left or right is not expr.right:
            expr = kind(left, right)
        return expr, same
    if kind is not Join and kind is not Semijoin:
        return expr, same
    cond, inner, right = expr.cond, expr.left, expr.right
    lefts, rights = {a.i for a in cond}, {a.j for a in cond}
    width = inner.arity
    mirrored = notes.get(expr) if notes and kind is Semijoin else None
    if kind is Join:
        read = {p - width for p in need if p > width}
        need = {p for p in need if p <= width}
        side = _filter_side(cond, need, read, remap)
        if side is not None and not (
            cycles and cond.is_equi()
            and (_closes_cycle(inner, lefts) or _closes_cycle(right, rights))
        ):  # one side is a filter; mirror when it is the left one
            mirror, partner = side
            if mirror:
                node, kept = Semijoin(right, inner, cond.mirrored()), read
            else:
                node, kept = Semijoin(inner, right, cond), need
            if notes is not None:
                notes[node] = mirror
            node, at = _walk(
                node, kept | set(partner.values()), cycles, notes, remap
            )
            moved = tuple(  # a redirected column reads its partner
                at[partner[p] - 1] if p in partner else 0
                for p in range(1, (width if mirror else right.arity) + 1)
            )
            return node, moved + at if mirror else at + moved
        rights |= read
    elif type(inner) is Join and cond:  # (L ⋈ R) ⋉ X: filter L or R
        cut, side = inner.left.arity, None
        if max(lefts) <= cut:
            side = Semijoin(inner.left, right, cond)
            joined = Join(side, inner.right, inner.cond)
        elif min(lefts) > cut:
            shift = Condition(tuple(Atom(a.i - cut, a.op, a.j) for a in cond))
            side = Semijoin(inner.right, right, shift)
            joined = Join(inner.left, side, inner.cond)
        if side is not None:
            if mirrored is not None:
                notes[side] = mirrored
            return _walk(joined, need, cycles, notes, remap)
    left, left_at = _walk(inner, need | lefts, cycles, notes, remap)
    right, right_at = _walk(
        expr.right, rights, cycles, notes, remap or kind is Semijoin
    )
    if left is inner and right is expr.right:
        return expr, same
    cond = Condition(
        tuple(Atom(left_at[a.i - 1], a.op, right_at[a.j - 1]) for a in cond)
    )
    if kind is Semijoin:
        expr = Semijoin(left, right, cond)
        if mirrored is not None:
            notes[expr] = mirrored
        return expr, left_at
    return Join(left, right, cond), left_at + tuple(
        p and p + left.arity for p in right_at
    )


def _filter_side(cond: Condition, need: set, read: set, remap: bool):
    """``(mirror, partner)`` when one side of a join is a filter: the
    left one if ``mirror``; ``partner`` sends each of its read columns
    to the other side's column an ``=`` atom equates it with.  ``None``
    when both sides supply a column."""
    if not read or not need:
        return bool(read), {}
    if not remap:
        return None
    partner = {a.j: a.i for a in cond if a.op == "="}
    if read <= partner.keys():
        return False, {p: partner[p] for p in read}
    partner = {a.i: a.j for a in cond if a.op == "="}
    if need <= partner.keys():
        return True, {p: partner[p] for p in need}
    return None


def _closes_cycle(chain: Expr, columns) -> bool:
    """Whether ``columns`` of a join chain lie in two of its leaves."""
    starts = set()
    for column in columns:
        node, start = chain, 0
        while type(node) is Join:
            if column - start > node.left.arity:
                start += node.left.arity
                node = node.right
            else:
                node = node.left
        starts.add(start)
    return len(starts) > 1


def push_selections(expr: Expr) -> Expr:
    """Push selections toward the leaves.

    * through union/difference: ``σ(A ∪ B) → σ(A) ∪ σ(B)`` (same for −);
    * into a join/semijoin operand when both columns live on one side
      (for joins: either side; for semijoins: the left side only);
    * a selection spanning both join operands becomes a θ-atom.
    """
    expr = map_expression(expr, push_selections)
    if not isinstance(expr, Selection):
        return expr
    child = expr.child
    if isinstance(child, (Union, Difference)):
        left = push_selections(Selection(child.left, expr.op, expr.i, expr.j))
        if isinstance(child, Difference):
            # σ(A − B) = σ(A) − B (filtering the subtrahend is optional).
            return Difference(left, child.right)
        right = Selection(child.right, expr.op, expr.i, expr.j)
        return Union(left, push_selections(right))
    if isinstance(child, (Join, Semijoin)):
        op, i, j, width = expr.op, expr.i, expr.j, child.left.arity
        if i <= width and j <= width:
            left = push_selections(Selection(child.left, op, i, j))
            return type(child)(left, child.right, child.cond)
        if isinstance(child, Join) and i > width and j > width:
            right = Selection(child.right, op, i - width, j - width)
            return Join(child.left, push_selections(right), child.cond)
        if isinstance(child, Join):  # one column on each side: a θ-atom
            if i <= width:
                atom = Atom(i, op, j - width)
            else:
                atom = Atom(j, {"=": "=", "<": ">"}[op], i - width)
            cond = Condition(child.cond.atoms + (atom,))
            return Join(child.left, child.right, cond)
    return expr


def prune_projections(expr: Expr) -> Expr:
    """Collapse stacked projections and drop identity projections."""
    return simplify(expr)


def optimize(expr: Expr) -> Expr:
    """The composed pipeline, to a fixpoint: push σ, make filter joins
    semijoins, prune π.

    Pruning a projection can hand a join a narrower reader, so the
    three repeat until a round changes nothing; the result is
    idempotent by construction and never changes the result relation.
    """
    rewritten = prune_projections(filter_joins(push_selections(expr)))
    return expr if rewritten == expr else optimize(rewritten)
