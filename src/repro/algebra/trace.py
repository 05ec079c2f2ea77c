"""Evaluation traces: intermediate result sizes per sub-expression.

Definition 16 measures, for each sub-expression ``E'`` of ``E``, the
output cardinality ``|E'(D)|``.  :func:`trace` evaluates an expression
while recording exactly those cardinalities, and :class:`EvalTrace`
exposes them.  This is the measurement instrument behind the empirical
dichotomy experiments (Theorem 17) and the division lower-bound
experiment (Proposition 26).

Structurally equal sub-expressions denote the same query, hence have the
same result; they share one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.algebra.ast import Expr
from repro.algebra.evaluator import Relation, evaluate
from repro.data.database import Database


@dataclass(frozen=True)
class EvalTrace:
    """The outcome of a traced evaluation.

    Attributes
    ----------
    expr:
        The evaluated expression.
    db_size:
        ``|D|`` of the input database (Definition 15).
    results:
        Result of every distinct sub-expression, keyed by the
        sub-expression itself.
    """

    expr: Expr
    db_size: int
    results: Mapping[Expr, Relation]

    @property
    def result(self) -> Relation:
        """The result of the top-level expression."""
        return self.results[self.expr]

    def cardinality(self, subexpr: Expr) -> int:
        """``|E'(D)|`` for a sub-expression ``E'``."""
        return len(self.results[subexpr])

    def cardinalities(self) -> dict[Expr, int]:
        """Output cardinality of every distinct sub-expression."""
        return {sub: len(rows) for sub, rows in self.results.items()}

    def max_intermediate(self) -> int:
        """The largest intermediate result size.

        This is the quantity the dichotomy theorem is about: an
        expression is linear iff this stays ``O(|D|)`` over all
        databases, quadratic iff it is ``Ω(|D|²)`` for some
        sub-expression infinitely often.
        """
        return max(
            (len(rows) for rows in self.results.values()), default=0
        )

    def argmax_intermediate(self) -> Expr:
        """A sub-expression achieving :meth:`max_intermediate`."""
        return max(self.results, key=lambda sub: len(self.results[sub]))

    def report(self) -> str:
        """A human-readable per-sub-expression size table."""
        from repro.algebra.printer import to_text

        lines = [f"|D| = {self.db_size}"]
        ordered = sorted(
            self.results.items(), key=lambda kv: (-len(kv[1]), kv[0].size())
        )
        for sub, rows in ordered:
            lines.append(f"{len(rows):>8}  {to_text(sub)}")
        return "\n".join(lines)


def trace(expr: Expr, db: Database, extension=None) -> EvalTrace:
    """Evaluate ``expr`` on ``db`` recording every intermediate size.

    ``extension`` is forwarded to the evaluator, so traces work for
    extended-algebra nodes (grouping/aggregation) too.
    """
    memo: dict[Expr, Relation] = {}
    evaluate(expr, db, memo, extension)
    return EvalTrace(expr=expr, db_size=db.size(), results=dict(memo))


def max_intermediate_size(expr: Expr, db: Database) -> int:
    """Shorthand: the largest intermediate cardinality of one evaluation."""
    return trace(expr, db).max_intermediate()
