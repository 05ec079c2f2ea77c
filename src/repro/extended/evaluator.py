"""Evaluation of the extended algebra (γ nodes).

Implements the :data:`repro.algebra.evaluator.Extension` hook, so the
core evaluator, memoization and tracing all work unchanged on extended
expressions — ``evaluate_extended`` / ``trace_extended`` are thin
wrappers passing the hook.
"""

from __future__ import annotations

from repro.algebra.ast import Expr
from repro.algebra.evaluator import Relation, evaluate
from repro.algebra.trace import EvalTrace, trace
from repro.data.database import Database, Row
from repro.errors import SchemaError
from repro.extended.ast import Aggregate, GroupBy


def _aggregate_value(aggregate: Aggregate, rows: list[Row]):
    values = {row[aggregate.position - 1] for row in rows}
    if aggregate.func == "count":
        return len(values)
    if not values:
        return None  # suppressed: no aggregate value over an empty group
    if aggregate.func == "min":
        return min(values)
    if aggregate.func == "max":
        return max(values)
    if aggregate.func == "sum":
        total = 0
        for value in values:
            if isinstance(value, str):
                raise SchemaError("sum over string values")
            total += value
        return total
    raise SchemaError(f"unknown aggregate {aggregate.func!r}")


def _eval_group_by(node: GroupBy, rows: Relation) -> Relation:
    groups: dict[Row, list[Row]] = {}
    for row in rows:
        key = tuple(row[p - 1] for p in node.group_positions)
        groups.setdefault(key, []).append(row)
    if not node.group_positions and not groups:
        # SQL convention: aggregates over an empty input form one group.
        groups[()] = []
    out: set[Row] = set()
    for key, members in groups.items():
        aggregated = []
        suppressed = False
        for aggregate in node.aggregates:
            value = _aggregate_value(aggregate, members)
            if value is None:
                suppressed = True
                break
            aggregated.append(value)
        if not suppressed:
            out.add(key + tuple(aggregated))
    return frozenset(out)


def extension(expr: Expr, db: Database, recurse) -> Relation | None:
    """The extended-algebra evaluation hook."""
    if isinstance(expr, GroupBy):
        return _eval_group_by(expr, recurse(expr.child))
    return None


def evaluate_extended(
    expr: Expr, db: Database, memo: dict[Expr, Relation] | None = None
) -> Relation:
    """Evaluate an expression that may contain γ nodes."""
    return evaluate(expr, db, memo, extension)


def trace_extended(expr: Expr, db: Database) -> EvalTrace:
    """Traced evaluation for extended expressions."""
    return trace(expr, db, extension)
