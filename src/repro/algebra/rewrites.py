"""Semantics-preserving rewrites between algebra fragments.

The two rewrites the paper relies on:

* :func:`semijoin_to_join` — the defining equation
  ``E1 ⋉_θ E2 = π_{1..n}(E1 ⋈_θ E2)`` (set semantics collapses the
  duplicate left rows).  Valid for every θ, but *not* linear: the
  intermediate join can be quadratic.

* :func:`linear_semijoin_embedding` — the remark after Theorem 18:
  "the equi-semijoin operator can be expressed in RA in a linear way;
  for example ``R ⋉_{2=1} S = π_{1,2}(R ⋈_{2=1} π_1(S))``."
  The right operand is first projected onto exactly the columns used by
  the (equi-)condition, so each left row matches at most one projected
  right row, and the join output stays ≤ |E1|.  Only valid for
  equi-semijoins; non-equi conditions raise
  :class:`~repro.errors.FragmentError`.

Both are used by the tests as executable statements of the paper's
claims, and :func:`eliminate_semijoins` rewrites whole expressions.
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
from repro.errors import FragmentError, SchemaError


def semijoin_to_join(node: Semijoin) -> Expr:
    """``E1 ⋉_θ E2  =  π_{1..n}(E1 ⋈_θ E2)`` — works for every θ."""
    joined = Join(node.left, node.right, node.cond)
    return Projection(joined, tuple(range(1, node.left.arity + 1)))


def linear_semijoin_embedding(node: Semijoin) -> Expr:
    """The paper's linear RA embedding of an equi-semijoin.

    The right operand is projected onto the (deduplicated, sorted)
    columns used by θ, the condition is remapped onto the projected
    columns, and the result is projected back onto the left columns.
    Every intermediate has size at most
    ``max(|E1|, |E2|, |E1 ⋈ π(E2)|) ≤ max(|E1|, |E2|)`` because the
    equi-condition functionally determines the single matching projected
    right row for each left row.
    """
    if not node.cond.is_equi():
        raise FragmentError(
            "the linear embedding requires an equi-semijoin; "
            f"condition {node.cond} uses order/inequality atoms"
        )
    if not node.cond.atoms:
        # θ empty: E1 ⋉ E2 is E1 if E2 nonempty, else empty.  Project E2
        # to a single column to keep the join linear.
        if node.right.arity < 1:
            raise SchemaError("semijoin right operand must have arity >= 1")
        witness = Projection(node.right, (1,))
        joined = Join(node.left, witness, Condition())
        return Projection(joined, tuple(range(1, node.left.arity + 1)))
    right_columns = tuple(sorted({atom.j for atom in node.cond}))
    remap = {j: k + 1 for k, j in enumerate(right_columns)}
    projected_right = Projection(node.right, right_columns)
    remapped = Condition(
        tuple(Atom(atom.i, "=", remap[atom.j]) for atom in node.cond)
    )
    joined = Join(node.left, projected_right, remapped)
    return Projection(joined, tuple(range(1, node.left.arity + 1)))


def eliminate_semijoins(expr: Expr, linear: bool = True) -> Expr:
    """Rewrite every semijoin node into joins, bottom-up.

    With ``linear=True`` (default) uses the linear embedding and
    therefore requires every semijoin to be equi; with ``linear=False``
    uses the general (possibly quadratic) defining equation.
    """
    rewritten = _map_children(expr, lambda e: eliminate_semijoins(e, linear))
    if isinstance(rewritten, Semijoin):
        if linear:
            return linear_semijoin_embedding(rewritten)
        return semijoin_to_join(rewritten)
    return rewritten


def _map_children(expr: Expr, f) -> Expr:
    """Rebuild ``expr`` with ``f`` applied to each child."""
    if isinstance(expr, Rel):
        return expr
    if isinstance(expr, Union):
        return Union(f(expr.left), f(expr.right))
    if isinstance(expr, Difference):
        return Difference(f(expr.left), f(expr.right))
    if isinstance(expr, Projection):
        return Projection(f(expr.child), expr.positions)
    if isinstance(expr, Selection):
        return Selection(f(expr.child), expr.op, expr.i, expr.j)
    if isinstance(expr, ConstantTag):
        return ConstantTag(f(expr.child), expr.value)
    if isinstance(expr, Join):
        return Join(f(expr.left), f(expr.right), expr.cond)
    if isinstance(expr, Semijoin):
        return Semijoin(f(expr.left), f(expr.right), expr.cond)
    raise SchemaError(f"unknown expression node: {type(expr).__name__}")


def map_expression(expr: Expr, f) -> Expr:
    """Public structural map: rebuild with ``f`` on children (see tests)."""
    return _map_children(expr, f)


def simplify(expr: Expr) -> Expr:
    """Light, provably sound simplifications.

    * ``π_{1..n}(E) → E`` (identity projection);
    * ``π_p(π_q(E)) → π_{q∘p}(E)`` (projection composition);
    * ``E ∪ E → E`` and ``E − E``'s obvious dual are left alone (the
      latter would need an "empty" constant the core algebra lacks).
    """
    expr = _map_children(expr, simplify)
    if isinstance(expr, Projection):
        if expr.positions == tuple(range(1, expr.child.arity + 1)):
            return expr.child
        if isinstance(expr.child, Projection):
            inner = expr.child
            composed = tuple(inner.positions[p - 1] for p in expr.positions)
            return Projection(inner.child, composed)
    if isinstance(expr, Union) and expr.left == expr.right:
        return expr.left
    return expr
