"""Set-semantics evaluation of RA/SA expressions (Definitions 1 and 2).

:func:`evaluate` is the *structural evaluator*: a memoizing tree-walk
that computes each logical sub-expression exactly as written, which is
what the Definition 16 trace measures and what Theorem 17 and
Proposition 26 are statements about.  It never plans, rewrites or
reorders; the cost-aware engine (division rewrites, hash operators,
join ordering) is reached through :class:`repro.session.Session` only.
The brute-force oracle lives in :mod:`repro.algebra.reference`; the
three are asserted to agree on random inputs in
``tests/test_engine_differential.py``.

The memo table doubles as the *evaluation trace*: it holds the result of
every distinct sub-expression, which is exactly the data needed to
measure the intermediate-result sizes ``c(E')`` of Definition 16 (see
:mod:`repro.algebra.trace`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

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
from repro.data.database import Database, Row
from repro.data.universe import Value
from repro.errors import ArityError, SchemaError

#: The result type of evaluation: a set of rows.
Relation = frozenset[Row]


#: An extension hook: ``(expr, db, recurse) -> Relation | None``.
#: Returning ``None`` means "not my node"; used by
#: :mod:`repro.extended` to add grouping/aggregation nodes.
Extension = "Callable[[Expr, Database, Callable[[Expr], Relation]], Relation | None]"


def evaluate(
    expr: Expr,
    db: Database,
    memo: dict[Expr, Relation] | None = None,
    extension=None,
) -> Relation:
    """Evaluate ``expr`` on ``db`` as written; returns a frozenset of rows.

    Parameters
    ----------
    expr:
        Any RA/SA expression.
    db:
        The database; every relation name used by ``expr`` must exist in
        ``db``'s schema with matching arity.
    memo:
        Optional memo table.  Pass a dict to retain the results of every
        distinct sub-expression (used by :mod:`repro.algebra.trace`).
    extension:
        Optional hook handling extra node types (see :data:`Extension`);
        :func:`repro.extended.evaluator.evaluate_extended` passes the
        γ hook.
    """
    if memo is None:
        memo = {}
    return _eval(expr, db, memo, extension)


def _eval(
    expr: Expr, db: Database, memo: dict[Expr, Relation], extension=None
) -> Relation:
    cached = memo.get(expr)
    if cached is not None:
        return cached
    if extension is not None:
        result = extension(
            expr, db, lambda child: _eval(child, db, memo, extension)
        )
        if result is not None:
            memo[expr] = result
            return result
    result = _eval_node(expr, db, memo, extension)
    memo[expr] = result
    return result


def _eval_node(
    expr: Expr, db: Database, memo: dict[Expr, Relation], extension=None
) -> Relation:
    if isinstance(expr, Rel):
        stored = db[expr.name]
        if db.schema[expr.name] != expr.arity:
            raise ArityError(
                f"expression expects {expr.name!r} with arity {expr.arity}, "
                f"database has arity {db.schema[expr.name]}"
            )
        return stored
    if isinstance(expr, Union):
        return _eval(expr.left, db, memo, extension) | _eval(
            expr.right, db, memo, extension
        )
    if isinstance(expr, Difference):
        return _eval(expr.left, db, memo, extension) - _eval(
            expr.right, db, memo, extension
        )
    if isinstance(expr, Projection):
        child = _eval(expr.child, db, memo, extension)
        idx = tuple(p - 1 for p in expr.positions)
        return frozenset(tuple(row[i] for i in idx) for row in child)
    if isinstance(expr, Selection):
        child = _eval(expr.child, db, memo, extension)
        return frozenset(row for row in child if expr.holds(row))
    if isinstance(expr, ConstantTag):
        child = _eval(expr.child, db, memo, extension)
        return frozenset(row + (expr.value,) for row in child)
    if isinstance(expr, Join):
        left = _eval(expr.left, db, memo, extension)
        right = _eval(expr.right, db, memo, extension)
        return join_relations(left, right, expr.cond)
    if isinstance(expr, Semijoin):
        left = _eval(expr.left, db, memo, extension)
        right = _eval(expr.right, db, memo, extension)
        return semijoin_relations(left, right, expr.cond)
    raise SchemaError(f"unknown expression node: {type(expr).__name__}")


# ----------------------------------------------------------------------
# Join kernels
# ----------------------------------------------------------------------


def _split_condition(cond: Condition) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """Split into (equality atoms, residual atoms)."""
    eq = tuple(a for a in cond if a.op == "=")
    rest = tuple(a for a in cond if a.op != "=")
    return eq, rest


def _hash_index(
    rows: Iterable[Row], positions: tuple[int, ...]
) -> dict[tuple[Value, ...], list[Row]]:
    index: dict[tuple[Value, ...], list[Row]] = defaultdict(list)
    for row in rows:
        key = tuple(row[p - 1] for p in positions)
        index[key].append(row)
    return index


def join_relations(left: Relation, right: Relation, cond: Condition) -> Relation:
    """``r1 ⋈_θ r2``: concatenated pairs satisfying θ.

    Equality atoms are evaluated with a hash index on the right operand;
    the remaining atoms are checked per candidate pair.
    """
    eq, rest = _split_condition(cond)
    out: set[Row] = set()
    if eq:
        right_index = _hash_index(right, tuple(a.j for a in eq))
        left_positions = tuple(a.i for a in eq)
        for lrow in left:
            key = tuple(lrow[p - 1] for p in left_positions)
            for rrow in right_index.get(key, ()):
                if all(atom.holds(lrow, rrow) for atom in rest):
                    out.add(lrow + rrow)
    else:
        right_list = list(right)
        for lrow in left:
            for rrow in right_list:
                if all(atom.holds(lrow, rrow) for atom in rest):
                    out.add(lrow + rrow)
    return frozenset(out)


def semijoin_relations(
    left: Relation, right: Relation, cond: Condition
) -> Relation:
    """``r1 ⋉_θ r2``: left rows with at least one θ-partner in r2."""
    eq, rest = _split_condition(cond)
    out: set[Row] = set()
    if eq:
        right_index = _hash_index(right, tuple(a.j for a in eq))
        left_positions = tuple(a.i for a in eq)
        for lrow in left:
            key = tuple(lrow[p - 1] for p in left_positions)
            candidates = right_index.get(key, ())
            if any(
                all(atom.holds(lrow, rrow) for atom in rest)
                for rrow in candidates
            ):
                out.add(lrow)
    else:
        right_list = list(right)
        for lrow in left:
            if any(
                all(atom.holds(lrow, rrow) for atom in rest)
                for rrow in right_list
            ):
                out.add(lrow)
    return frozenset(out)
