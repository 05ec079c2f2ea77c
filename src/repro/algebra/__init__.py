"""The relational algebra RA and semijoin algebra SA (Definitions 1, 2).

A single AST covers both algebras (SA is RA with :class:`Join` replaced
by :class:`Semijoin`); fragment predicates pick out RA, RA=, SA and SA=.
"""

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
    identity_projection,
    is_ra,
    is_ra_eq,
    is_sa,
    is_sa_eq,
    join_nodes,
    rel,
    select_eq_const,
    select_gt,
    select_gt_const,
    select_lt_const,
    select_neq,
    select_neq_const,
    uses_order,
)
from repro.algebra.conditions import TRUE, Atom, Condition, condition, parse_atom
from repro.algebra.evaluator import (
    Relation,
    evaluate,
    join_relations,
    semijoin_relations,
)
from repro.algebra.optimize import (
    filter_joins,
    optimize,
    prune_projections,
    push_selections,
)
from repro.algebra.parser import parse
from repro.algebra.printer import to_ascii, to_text, to_tree
from repro.algebra.reference import evaluate_reference
from repro.algebra.rewrites import (
    eliminate_semijoins,
    linear_semijoin_embedding,
    map_expression,
    semijoin_to_join,
    simplify,
)
from repro.algebra.trace import EvalTrace, max_intermediate_size, trace
from repro.algebra.validate import is_valid, problems, validate

__all__ = [
    "ConstantTag",
    "Difference",
    "Expr",
    "Join",
    "Projection",
    "Rel",
    "Selection",
    "Semijoin",
    "Union",
    "identity_projection",
    "is_ra",
    "is_ra_eq",
    "is_sa",
    "is_sa_eq",
    "join_nodes",
    "rel",
    "select_eq_const",
    "select_gt",
    "select_gt_const",
    "select_lt_const",
    "select_neq",
    "select_neq_const",
    "uses_order",
    "TRUE",
    "Atom",
    "Condition",
    "condition",
    "parse_atom",
    "Relation",
    "evaluate",
    "join_relations",
    "semijoin_relations",
    "filter_joins",
    "optimize",
    "prune_projections",
    "push_selections",
    "parse",
    "to_ascii",
    "to_text",
    "to_tree",
    "evaluate_reference",
    "eliminate_semijoins",
    "linear_semijoin_embedding",
    "map_expression",
    "semijoin_to_join",
    "simplify",
    "EvalTrace",
    "max_intermediate_size",
    "trace",
    "is_valid",
    "problems",
    "validate",
]
