"""Empirical growth measurement of intermediate result sizes.

Definition 16 defines ``c(E')(n) = max{ |E'(D)| : |D| = n }`` for every
sub-expression; Theorem 17 says each expression's worst sub-expression
grows either O(n) or Ω(n²).  This module measures the realized
intermediate sizes along a *database family* ``n ↦ D_n`` and fits a
log–log slope per sub-expression, which the THM17 experiment uses to
show the fitted exponents cluster at ≤ 1 and ≥ 2 with nothing between.

The measurement is a lower-bound probe of ``c``: a good family (the
Lemma 24 blow-up, or the harness's worst-case generators) realizes the
true growth; a bad family under-reports.  The experiments document
which family each claim uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.algebra.ast import Expr
from repro.algebra.trace import trace
from repro.data.database import Database

#: A family of databases indexed by a size parameter.
DatabaseFamily = Callable[[int], Database]


def fit_loglog_slope(sizes: Sequence[int], values: Sequence[int]) -> float:
    """Least-squares slope of ``log(values)`` against ``log(sizes)``.

    Zero values are clamped to 1 (an empty intermediate is O(1)).
    Returns 0.0 when the inputs are degenerate (fewer than two distinct
    sizes).
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must have equal length")
    points = [
        (math.log(s), math.log(max(v, 1)))
        for s, v in zip(sizes, values)
        if s > 0
    ]
    if len({x for x, __ in points}) < 2:
        return 0.0
    mean_x = sum(x for x, __ in points) / len(points)
    mean_y = sum(y for __, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, __ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx


@dataclass(frozen=True)
class SubexpressionGrowth:
    """Measured growth of one sub-expression along the family."""

    subexpr: Expr
    db_sizes: tuple[int, ...]
    cardinalities: tuple[int, ...]
    exponent: float

    def looks_linear(self, threshold: float = 1.5) -> bool:
        return self.exponent < threshold

    def looks_quadratic(self, threshold: float = 1.5) -> bool:
        return self.exponent >= threshold


@dataclass(frozen=True)
class GrowthReport:
    """Growth of every distinct sub-expression along a database family."""

    expr: Expr
    db_sizes: tuple[int, ...]
    per_subexpression: tuple[SubexpressionGrowth, ...]

    def max_exponent(self) -> float:
        return max(
            (g.exponent for g in self.per_subexpression), default=0.0
        )

    def worst(self) -> SubexpressionGrowth:
        return max(self.per_subexpression, key=lambda g: g.exponent)

    def is_empirically_linear(self, threshold: float = 1.5) -> bool:
        """All sub-expressions grew with exponent below the threshold."""
        return all(
            g.looks_linear(threshold) for g in self.per_subexpression
        )

    def is_empirically_quadratic(self, threshold: float = 1.5) -> bool:
        """Some sub-expression grew with exponent at/above the threshold."""
        return any(
            g.looks_quadratic(threshold) for g in self.per_subexpression
        )

    def table(self) -> str:
        """An aligned text table: exponent, sizes, sub-expression."""
        from repro.algebra.printer import to_text

        lines = [
            "exponent  sizes " + " ".join(f"n={n}" for n in self.db_sizes)
        ]
        ordered = sorted(
            self.per_subexpression, key=lambda g: -g.exponent
        )
        for growth in ordered:
            cards = " ".join(str(c) for c in growth.cardinalities)
            lines.append(
                f"{growth.exponent:8.2f}  {cards}  {to_text(growth.subexpr)}"
            )
        return "\n".join(lines)


def measure_growth(
    expr: Expr,
    family: DatabaseFamily,
    ns: Sequence[int],
) -> GrowthReport:
    """Trace ``expr`` on ``family(n)`` for each n and fit exponents.

    The x-axis is the realized database size ``|family(n)|`` (not the
    index n), matching Definition 16.
    """
    db_sizes: list[int] = []
    cardinalities: dict[Expr, list[int]] = {}
    for n in ns:
        db = family(n)
        db_sizes.append(db.size())
        t = trace(expr, db)
        for sub, rows in t.results.items():
            cardinalities.setdefault(sub, []).append(len(rows))
    growths = tuple(
        SubexpressionGrowth(
            subexpr=sub,
            db_sizes=tuple(db_sizes),
            cardinalities=tuple(cards),
            exponent=fit_loglog_slope(db_sizes, cards),
        )
        for sub, cards in cardinalities.items()
    )
    return GrowthReport(
        expr=expr,
        db_sizes=tuple(db_sizes),
        per_subexpression=growths,
    )


def blowup_family(witness, base_db_factor: int = 1) -> DatabaseFamily:
    """The Lemma 24 family as a :data:`DatabaseFamily`.

    ``family(n) = blow_up(witness, n).database`` — the canonical
    worst-case family for the witnessed join.
    """
    from repro.core.blowup import blow_up

    def family(n: int) -> Database:
        return blow_up(witness, max(1, n * base_db_factor)).database

    return family
