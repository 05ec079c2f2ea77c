"""Plan optimization: σ moves down; filter joins become semijoins.

Corollary 19 says the queries computable with linear intermediate
results are exactly the SA= queries, so joins used only as filters
should run as semijoins, wherever they sit.  :func:`rewrite` does that
and σ pushdown in one top-down walk, which carries the output positions
some ancestor reads (π its positions; σ adds ``i`` and ``j``; a
semijoin's left side what its parent reads plus θ's left columns, its
right side θ's right columns; ∪ and − every column; τ its child's):

* a σ sinks to the lowest node that supplies its columns — into both ∪
  operands, the left − operand, a semijoin's left side, the join side
  holding both columns, or the join's condition as a θ-atom;
* a join with one side unread becomes ``E1 ⋉_θ E2`` (mirrored when E1
  is unread), and ``(L ⋈ R) ⋉_φ X → L ⋈ (R ⋉_φ' X)`` when φ reads only
  R (likewise L) reaches left-deep chains;
* under a reader that remaps positions (π, a σ / τ / semijoin-left /
  join-child chain ending in one, a semijoin's right side), a side read
  only through ``=``-bound columns is unread too: ``π[4,1](U ⋈[1=1] T)``
  becomes ``π[2,1](T ⋉[1=1] U)``; at the root and under ∪ and − every
  column keeps its side.

A join or semijoin decides again once its children are rewritten (a
child can make two read columns one, or break a cycle), so one call
settles, and an expression it leaves alone comes back as the same
object.  Every step is exact for every θ under set semantics and adds
no rows; the OPT ablation benchmark measures the effect.
"""

from __future__ import annotations

from repro.algebra.ast import (
    ConstantTag,
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
)
from repro.algebra.conditions import Atom, Condition
from repro.algebra.rewrites import simplify

#: The nodes a σ stack sinks through.
_SINKS = (Join, Semijoin, Union, Difference)


def rewrite(
    expr: Expr, keep_cycles: bool = False, notes=None, limit=None
) -> Expr:
    """Push σ and make every join read through one side a semijoin.

    ``keep_cycles`` keeps a join whose equality atoms read two leaves of
    its chain on one side (it closes a cycle: the multiway join's case).
    ``notes`` gets each node built over a semijoin made from a join →
    ``(mirrored, *children's notes)``, ``mirrored`` ``None`` unless the
    node is one.  Past ``limit`` occurrences, or with a γ / Sort node,
    a limited walk returns ``expr``."""
    return _Walk(True, True, keep_cycles, notes, limit).run(expr)


def filter_joins(expr: Expr, keep_cycles: bool = False) -> Expr:
    """:func:`rewrite` with every σ left where it is written."""
    return _Walk(False, True, keep_cycles, None, None).run(expr)


def push_selections(expr: Expr) -> Expr:
    """:func:`rewrite` without the filter joins: σ moves through ∪ (both
    operands), − and semijoins (the left operand), and joins (the side
    holding both columns; a θ-atom when the sides hold one each)."""
    return _Walk(True, False, False, None, None).run(expr)


class _Refused(Exception):
    """A limited walk met a γ / Sort node or ran out of occurrences."""


def _same(expr: Expr) -> tuple:
    return tuple(range(1, expr.arity + 1))


class _Walk:
    __slots__ = ("push", "filters", "cycles", "notes", "strict", "budget")

    def __init__(self, push, filters, cycles, notes, limit) -> None:
        self.push, self.filters, self.cycles = push, filters, cycles
        self.notes, self.strict = notes, limit is not None
        self.budget = float("inf") if limit is None else limit

    def run(self, expr: Expr) -> Expr:
        try:
            return self.walk(expr, set(_same(expr)), False)[0]
        except _Refused:
            return expr

    def keep(self, node: Expr, mirrored=None) -> Expr:
        """``node``, noted when it holds a semijoin made from a join."""
        if self.notes is not None:
            parts = tuple(map(self.notes.get, node.children()))
            if mirrored is not None or parts.count(None) < len(parts):
                self.notes[node] = (mirrored, *parts)
        return node

    def walk(self, expr: Expr, need: set, remap: bool):
        """``expr`` for readers of ``need``, and each old position's new
        one; ``remap``: the reader maps positions through it."""
        self.budget -= 1
        if self.budget < 0:
            raise _Refused
        kind = type(expr)
        if kind is Rel:
            return expr, _same(expr)
        if kind is Projection:
            child, at = self.walk(expr.child, set(expr.positions), True)
            if child is not expr.child:
                positions = tuple(at[p - 1] for p in expr.positions)
                expr = self.keep(Projection(child, positions))
            return expr, _same(expr)
        if kind is Join:
            return self.join(expr, need, remap)
        if kind is Semijoin:
            return self.semijoin(expr, need, remap)
        if kind is Selection:
            if self.push and _sinks(expr):
                return self.walk(_sink(expr, []), need, remap)
            child, at = self.walk(expr.child, need | {expr.i, expr.j}, remap)
            if child is not expr.child:
                i, j = at[expr.i - 1], at[expr.j - 1]
                expr = self.keep(Selection(child, expr.op, i, j))
            return expr, at
        if kind is ConstantTag:  # the tag column follows a shrinking child
            child, at = self.walk(expr.child, need - {expr.arity}, remap)
            if child is not expr.child:
                expr = self.keep(ConstantTag(child, expr.value))
            return expr, at + (expr.arity,)
        if kind is Union or kind is Difference:
            same = _same(expr)
            left = self.walk(expr.left, set(same), False)[0]
            right = self.walk(expr.right, set(same), False)[0]
            if left is not expr.left or right is not expr.right:
                expr = self.keep(kind(left, right))
            return expr, same
        if self.strict:
            raise _Refused
        return expr, _same(expr)

    def join(self, expr: Join, need: set, remap: bool):
        left, right = expr.left, expr.right
        width = left.arity
        read = {p - width for p in need if p > width}
        need = {p for p in need if p <= width}
        made = self.to_semijoin(left, right, expr.cond, need, read, remap)
        if made is not None:
            return made
        cond = expr.cond
        left, left_at = self.walk(left, need | {a.i for a in cond}, remap)
        right, right_at = self.walk(right, read | {a.j for a in cond}, remap)
        if left is expr.left and right is expr.right:
            return expr, _same(expr)
        cond = _moved(cond, left_at, right_at)
        at = left_at + tuple(p and p + left.arity for p in right_at)
        need = {left_at[p - 1] for p in need}  # decide again
        read = {right_at[p - 1] for p in read}
        made = self.to_semijoin(left, right, cond, need, read, remap)
        if made is not None:
            return made[0], tuple(p and made[1][p - 1] for p in at)
        return self.keep(Join(left, right, cond)), at

    def to_semijoin(self, inner, right, cond, need, read, remap):
        """``inner ⋈ right`` as a semijoin, walked, when one side is a
        filter (a redirected column reads its partner); else ``None``."""
        side = _filter_side(cond, need, read, remap) if self.filters else None
        if side is None or (
            self.cycles and cond.is_equi() and (
                _closes_cycle(inner, {a.i for a in cond})
                or _closes_cycle(right, {a.j for a in cond})
            )
        ):
            return None
        mirror, partner = side
        if mirror:
            node, kept = Semijoin(right, inner, cond.mirrored()), read
        else:
            node, kept = Semijoin(inner, right, cond), need
        self.keep(node, mirror)
        node, at = self.walk(node, kept | set(partner.values()), remap)
        moved = tuple(
            at[partner[p] - 1] if p in partner else 0
            for p in range(1, (inner.arity if mirror else right.arity) + 1)
        )
        return node, moved + at if mirror else at + moved

    def semijoin(self, expr: Semijoin, need: set, remap: bool):
        noted = self.notes.get(expr) if self.notes else None
        mirrored, inner, cond = noted and noted[0], expr.left, expr.cond
        if self.push and type(inner) is Selection and _sinks(inner):
            inner = _sink(inner, [])  # decide on the pushed shape
        joined = self.reassociate(inner, expr.right, cond, mirrored)
        if joined is not None:
            return self.walk(joined, need, remap)
        left, at = self.walk(inner, need | {a.i for a in cond}, remap)
        right, right_at = self.walk(expr.right, {a.j for a in cond}, True)
        if left is expr.left and right is expr.right:
            return expr, at
        cond = _moved(cond, at, right_at)
        joined = self.reassociate(left, right, cond, mirrored)
        if joined is not None:  # the left side became a join chain
            node, again = self.walk(joined, {at[p - 1] for p in need}, remap)
            return node, tuple(p and again[p - 1] for p in at)
        return self.keep(Semijoin(left, right, cond), mirrored), at

    def reassociate(self, inner, right, cond, mirrored):
        """``(L ⋈ R) ⋉ X`` as ``(L ⋉ X) ⋈ R`` or ``L ⋈ (R ⋉ X)`` when
        the condition reads one side of the join; ``None`` otherwise."""
        if not self.filters or not cond or type(inner) is not Join:
            return None
        cut, lefts = inner.left.arity, {a.i for a in cond}
        if max(lefts) <= cut:
            side = self.keep(Semijoin(inner.left, right, cond), mirrored)
            return self.keep(Join(side, inner.right, inner.cond))
        if min(lefts) > cut:
            shift = Condition(tuple(Atom(a.i - cut, a.op, a.j) for a in cond))
            side = self.keep(Semijoin(inner.right, right, shift), mirrored)
            return self.keep(Join(inner.left, side, inner.cond))
        return None


def _moved(cond: Condition, left_at: tuple, right_at: tuple) -> Condition:
    return Condition(
        tuple(Atom(left_at[a.i - 1], a.op, right_at[a.j - 1]) for a in cond)
    )


def _sinks(node: Expr) -> bool:
    """Whether the σ stack ``node`` sinks (into a join, ∪, − or ⋉)."""
    while type(node) is Selection:
        node = node.child
    return type(node) in _SINKS


def _sink(node: Expr, sels: list) -> Expr:
    """``node`` under the σ stack ``sels`` (outermost first), each σ as
    far down as it goes; a join gains θ-atoms innermost σ first."""
    while type(node) is Selection:
        sels = sels + [(node.op, node.i, node.j)]
        node = node.child
    kind = type(node)
    if kind is Join:
        width, left, right, atoms = node.left.arity, [], [], []
        for op, i, j in sels:
            if i <= width and j <= width:
                left.append((op, i, j))
            elif i > width and j > width:
                right.append((op, i - width, j - width))
            elif i <= width:
                atoms.append(Atom(i, op, j - width))
            else:
                atoms.append(Atom(j, {"=": "=", "<": ">"}[op], i - width))
        return Join(
            _sink(node.left, left) if left else node.left,
            _sink(node.right, right) if right else node.right,
            Condition(node.cond.atoms + tuple(reversed(atoms))),
        )
    if kind is Semijoin:
        return Semijoin(_sink(node.left, sels), node.right, node.cond)
    if kind is Union:
        return Union(_sink(node.left, sels), _sink(node.right, sels))
    if kind is Difference:  # filtering the subtrahend is optional
        return Difference(_sink(node.left, sels), node.right)
    for op, i, j in reversed(sels):
        node = Selection(node, op, i, j)
    return node


def _filter_side(cond: Condition, need: set, read: set, remap: bool):
    """``(mirror, partner)`` when the right (the left if ``mirror``) side
    is a filter; ``partner`` sends its read columns to their ``=``
    partners on the other side."""
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
    """Whether ``columns`` of a join chain (σ sinks into it) lie in two
    of its leaves."""
    starts = set()
    for column in columns:
        node, start = chain, 0
        while type(node) is Join or type(node) is Selection:
            if type(node) is Selection:
                node = node.child
            elif column - start > node.left.arity:
                start += node.left.arity
                node = node.right
            else:
                node = node.left
        starts.add(start)
    return len(starts) > 1


def prune_projections(expr: Expr) -> Expr:
    """Collapse stacked projections and drop identity projections."""
    return simplify(expr)


def optimize(expr: Expr) -> Expr:
    """The composed pipeline, to a fixpoint: :func:`rewrite`, then prune
    π — pruning can hand a join a narrower reader.  Idempotent by
    construction; never changes the result relation."""
    rewritten = prune_projections(rewrite(expr))
    return expr if rewritten == expr else optimize(rewritten)
