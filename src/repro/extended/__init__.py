"""Extended RA (grouping/aggregation) and the Section 5 linear plans."""

from repro.extended.ast import AGG_FUNCS, Aggregate, GroupBy, group_by
from repro.extended.division_plan import (
    containment_division_plan,
    equality_division_plan,
    plan_intermediate_bound,
)
from repro.extended.evaluator import (
    evaluate_extended,
    extension,
    trace_extended,
)

__all__ = [
    "AGG_FUNCS",
    "Aggregate",
    "GroupBy",
    "group_by",
    "containment_division_plan",
    "equality_division_plan",
    "plan_intermediate_bound",
    "evaluate_extended",
    "extension",
    "trace_extended",
]
