"""The cost-aware planner: logical expressions → physical plans.

The planner runs in one of two modes, and its
:class:`~repro.engine.cost.CostModel` decides which.  When the model
has a :class:`~repro.engine.stats.StatsCatalog` (how
:meth:`repro.engine.executor.Executor.plan` calls it), its bounds are
certified and operator choice is **cost-based**: candidate operators
are priced by the model and the cheapest wins, with the structural
choice as the tie-break.  Without statistics (the zero-stats fallback —
:func:`plan_expression`, or a model with no catalog) the decisions
below fall back to their purely structural forms, which is exactly the
pre-cost-model behaviour.

Routing rules (documented in ``docs/engine.md``):

1. **Division patterns collapse to direct algorithms.**  A sub-tree
   that instantiates a builder's division plan — the classic quadratic
   RA plan ``π_A(R) − π_A((π_A(R) × S) − R)`` (Proposition 26 says
   *every* RA expression for division is quadratic) or a §5 γ plan —
   becomes one linear :class:`~repro.engine.plan.DivisionOp` (a ∀ test
   per candidate of the dividend's set grouping) with the source's
   empty-divisor semantics.  Under the cost model the direct operator
   is kept only while its estimated cost does not exceed the RA plan's
   (the regression tests pin that it never does on the witness families).
2. **A join read only as a filter is a semijoin, wherever it sits.**
   Before planning, one walk (:func:`repro.algebra.optimize.rewrite`)
   pushes σ and turns every join whose one side supplies no column an
   ancestor reads — or, under a reader that remaps positions, only
   ``=``-bound columns — into a semijoin (Corollary 19): the quadratic
   intermediate is never materialized.  Such a semijoin's ``note``
   says so; the sub-plan memo keys a node over it on the notes beneath.
3. **Equality atoms select hash operators.**  Joins/semijoins with at
   least one ``=`` atom run as hash joins (index on the right, probe
   from the left); pure θ/cartesian joins fall back to nested loops
   and the planner records the dichotomy risk
   (:func:`repro.core.classify.join_is_safe`, Definition 20 data from
   :mod:`repro.core.joininfo`) in the operator's ``note``.  Costed
   mode compares the two (a nested loop beats building a hash table
   when a side is near-empty).
4. **≥3-way join chains are reordered by estimated size** (costed mode
   only): the chain is flattened into its leaves and equality atoms,
   a greedy smallest-intermediate-first order is built left-deep, and
   the reordered plan — wrapped in a projection restoring the original
   column order — replaces the as-written order when its estimated
   cost is strictly lower.  When the chain is a pure equi-join over
   base relations and its AGM fractional-edge-cover bound
   (:func:`repro.engine.cost.fractional_edge_cover`) beats the best
   binary plan's sound intermediate bound — the cyclic/triangle
   regime where every binary order is provably quadratically worse —
   the whole chain collapses into one worst-case-optimal
   :class:`~repro.engine.plan.MultiwayJoinOp` (gated by
   ``PlannerOptions.use_multiway`` / CLI ``--no-multiway``;
   zero-stats plans always keep the binary chain).  A projection
   directly above the collapsed chain is absorbed into it: the generic
   join enumerates only the projected variables and decides the rest
   at their first witness, under their own AGM bound.  Where the
   collapse can fire, rule 2 keeps a join whose equality atoms read two
   leaves of the chain beneath it: that filter closes a cycle.
5. **Selections are pushed toward the leaves** first (by rule 2's
   walk), then fused into single :class:`~repro.engine.plan.FilterOp`
   nodes.
6. **Oversized operators are partitioned** (costed mode with a
   ``partition_budget`` only): in a final post-pass over the chosen
   plan — after every cost comparison, so the scatter surcharge never
   influences operator choice — each partitionable operator whose
   sound in-flight upper bound exceeds the budget is wrapped in a
   :class:`~repro.engine.plan.PartitionedOp` sized by
   :func:`repro.engine.partition.planned_partitions`; the executor
   then runs it in budget-bounded batches
   (:mod:`repro.engine.partition`).  With ``max_workers > 1`` a
   batched operator whose certified parallel cost beats serial runs
   its batches on that many workers (:mod:`repro.engine.parallel`).

:func:`plan_expression` is the entry point; :func:`explain` renders the
chosen plan, optionally with the full Theorem 17 dichotomy verdict from
:func:`repro.core.dichotomy.analyze` and (``costs=True``) the cost
model's per-operator estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from repro.algebra.optimize import rewrite
from repro.core.classify import join_is_safe
from repro.data.schema import Schema
from repro.engine.plan import (
    DivisionOp,
    DifferenceOp,
    FilterOp,
    GroupByOp,
    HashJoinOp,
    HashSemijoinOp,
    MultiwayJoinOp,
    NestedLoopJoinOp,
    NestedLoopSemijoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    TagOp,
    UnionOp,
)
from repro.errors import SchemaError

#: The note of a semijoin a written join became, by whether mirrored.
_FILTER_NOTES = {
    False: "join used only as a filter (Cor. 19): semijoin avoids the "
    "join's intermediate",
    True: "join used only as a right-side filter (Cor. 19): mirrored semijoin",
}


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs for the planner; a benchmark reads each one.

    ``rewrite_divisions`` gates rule 1, so the quadratic RA plan it
    replaces can still be planned and measured.  The other rewrites
    (filter joins become semijoins, selection pushdown) always apply.
    Whether the cost-based decisions — operator choice, join ordering,
    the multiway collapse, partitioning, parallelism — apply is not an
    option: they do exactly when the planner's cost model has
    statistics (:func:`plan_expression` plans without).

    ``use_multiway`` (default on) lets the planner collapse a pure
    equi-join chain over base relations into one worst-case-optimal
    :class:`~repro.engine.plan.MultiwayJoinOp` when the chain's AGM
    fractional-edge-cover bound beats the best binary plan's sound
    intermediate bound.  The collapse is a cost-based decision: it
    needs statistics, so zero-stats planning — and ``use_multiway=
    False``, which skips the code path entirely — keeps the binary
    chain byte-identically.

    ``partition_budget`` is the rows-in-flight cap for partitioned
    execution: when set (and statistics are present — sizing needs
    *sound* bounds), any partitionable
    operator whose estimated in-flight upper bound exceeds the budget
    is wrapped in a :class:`~repro.engine.plan.PartitionedOp` and runs
    in budget-bounded batches.  ``None`` (the default) disables
    partitioning entirely.

    ``max_workers`` runs the batches a budget cuts on a process pool:
    when > 1 (and statistics are present — the dispatch gate needs
    *sound* bounds), each :class:`~repro.engine.plan.PartitionedOp`
    whose certified parallel cost beats its serial cost gets that many
    ``workers``.  It needs a ``partition_budget`` (the pool runs no
    other batches).  The default ``1`` keeps planning and execution
    exactly serial.

    Storage is not a planner option: it is chosen where the executor
    is built (``Session(db, backend=)``).
    """

    rewrite_divisions: bool = True
    partition_budget: int | None = None
    max_workers: int = 1
    use_multiway: bool = True

    def __post_init__(self) -> None:
        # Fail fast: apply_partitioning only runs on plans that contain
        # a partitionable operator, so a bad budget caught there would
        # surface on some queries and pass silently on others.
        if self.partition_budget is not None and self.partition_budget < 1:
            raise SchemaError(
                "partition_budget must be >= 1 row (or None to disable "
                f"partitioning), got {self.partition_budget}"
            )
        if self.max_workers < 1:
            raise SchemaError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.max_workers > 1 and self.partition_budget is None:
            raise SchemaError(
                f"max_workers={self.max_workers} needs a partition_budget: "
                "the pool runs only the batches a budget cuts"
            )


DEFAULT_OPTIONS = PlannerOptions()


# ----------------------------------------------------------------------
# Division pattern recognition
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DivisionMatch:
    """A recognized division sub-tree."""

    dividend: Expr
    divisor: Expr
    eq: bool
    empty_divisor: str
    origin: str


#: Rule 1's shapes, ``(template, eq, empty_divisor, origin)``, built on
#: the first match: each template is its builder's expression over two
#: placeholders no parsed text can name.  A new spelling is a new row.
_DIVIDEND, _DIVISOR = Rel("\0dividend", 2), Rel("\0divisor", 1)
_DIVISION_SHAPES: list[tuple[Expr, bool, str, str]] = []


def _division_shapes() -> list[tuple[Expr, bool, str, str]]:
    from repro.extended import division_plan as gamma
    from repro.setjoins.division import classic_division_expr

    r, s = _DIVIDEND, _DIVISOR
    _DIVISION_SHAPES[:] = [
        (classic_division_expr(r, s), False, "all",
         "classic RA division plan (quadratic, Prop. 26)"),
        (gamma.containment_division_plan(r, s), False, "none",
         "§5 γ containment-division plan"),
        (gamma.equality_division_plan(r, s), True, "none",
         "§5 γ equality-division plan"),
    ]
    return _DIVISION_SHAPES


def _unify(pattern: Expr, expr: Expr, bound: dict[Expr, Expr]) -> bool:
    """Whether ``expr`` instantiates ``pattern``: a placeholder binds the
    first subtree it meets, of its arity, and later occurrences must equal
    it; any other node needs the same type and equal non-``Expr`` fields."""
    if isinstance(pattern, Rel):  # a template's only relations
        first = bound.setdefault(pattern, expr)
        return expr.arity == pattern.arity if first is expr else first == expr
    if type(expr) is not type(pattern):
        return False
    for name in pattern.__dataclass_fields__:
        want = getattr(pattern, name)
        if not isinstance(want, Expr) and want != getattr(expr, name):
            return False
    for sub, part in zip(pattern.children(), expr.children()):
        if not _unify(sub, part, bound):
            return False
    return True


def match_division(expr: Expr) -> DivisionMatch | None:
    """The first of rule 1's shapes that ``expr`` instantiates, if any."""
    shapes = _DIVISION_SHAPES or _division_shapes()
    for pattern, eq, empty_divisor, origin in shapes:
        if type(expr) is type(pattern) and _unify(pattern, expr, bound := {}):
            dividend, divisor = bound[_DIVIDEND], bound[_DIVISOR]
            return DivisionMatch(dividend, divisor, eq, empty_divisor, origin)
    return None


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


class Planner:
    """Translate logical expressions into physical plans.

    Planning is memoized per distinct sub-expression: expressions are
    trees whose structurally equal subtrees can repeat (the
    intersection chains of ``small_divisor_expr`` double a subtree per
    level), so an occurrence-by-occurrence walk would be exponential
    while the distinct-node walk is linear — and shared logical
    subtrees come back as the *same* plan node, which the executor then
    computes once.  The executor passes a ``memo`` that outlives the
    call, so later queries reuse the sub-plans earlier ones chose.
    """

    #: Occurrence budget for the logical rewrite (σ pushdown, filter
    #: joins), which walks occurrences, not distinct nodes.
    PUSHDOWN_SIZE_LIMIT = 512

    #: Join chains with more leaves than this keep their written order
    #: (the greedy search is quadratic in the leaf count).
    REORDER_MAX_LEAVES = 8

    def __init__(
        self,
        options: PlannerOptions = DEFAULT_OPTIONS,
        cost_model=None,
        memo: dict[Expr, PlanNode] | None = None,
    ) -> None:
        from repro.engine.cost import CostModel

        self.options = options
        #: One shared model per planning session (callers with a
        #: longer-lived model — the executor — pass their own, with the
        #: memo of plans it priced): estimates of common subtrees are
        #: memoized across all candidate comparisons.  Its catalog is
        #: the planner's statistics; without one it plans structurally.
        self.cost_model = (
            cost_model if cost_model is not None else CostModel()
        )
        self._memo = {} if memo is None else memo
        #: Set while pricing a division rewrite's alternative: the one
        #: node whose division match is suppressed (rewrites below it
        #: stay on, keeping the cost comparison symmetric).
        self._no_division_root: Expr | None = None
        #: The nodes of this text over a semijoin made from a join →
        #: their notes (:func:`repro.algebra.optimize.rewrite`).
        self._filters: dict[Expr, tuple] = {}

    def _costed(self) -> bool:
        """Whether cost-based decisions are in force (stats present)."""
        return self.cost_model.catalog is not None

    def _cost(self, node: PlanNode) -> float:
        return self.cost_model.estimate(node).cost

    def _post_passes(self, plan: PlanNode) -> PlanNode:
        """Partition the plan once it is wholly chosen, giving its
        batched operators workers where that certifies.

        A post-pass, deliberately not part of operator choice: wrapping
        adds the scatter pass (:func:`repro.engine.partition.
        apply_partitioning`) or the parallel repricing
        (:func:`repro.engine.cost.parallel_cost_split`) to an
        operator's cost, and pricing candidates with either could flip
        a comparison toward an unpartitionable — hence budget-unbounded
        — alternative.  Both need certified bounds, so without
        statistics or a budget plans come back untouched and serial
        planning stays byte-identical.
        """
        budget = self.options.partition_budget
        if not self._costed() or budget is None:
            return plan
        from repro.engine.partition import apply_partitioning

        return apply_partitioning(
            plan, self.cost_model, budget, self.options.max_workers
        )

    def plan(self, expr: Expr) -> PlanNode:
        """Plan a logical expression (RA/SA, optionally with γ)."""
        self._filters = {}
        expr = rewrite(
            expr,
            keep_cycles=self._costed() and self.options.use_multiway,
            notes=self._filters,
            limit=self.PUSHDOWN_SIZE_LIMIT,
        )
        return self._post_passes(self._plan(expr))

    # -- recursive translation -----------------------------------------

    def _plan(self, expr: Expr) -> PlanNode:
        # A node over a semijoin made from a join is keyed with the
        # notes beneath it, so no text reads another's notes.
        noted = self._filters.get(expr) if self._filters else None
        key = expr if noted is None else (expr, noted)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        planned = self._plan_node(expr)
        self._memo[key] = planned
        return planned

    def _plan_node(self, expr: Expr) -> PlanNode:
        if self.options.rewrite_divisions and expr != self._no_division_root:
            match = match_division(expr)
            if match is not None:
                return self._division(expr, match)
        if isinstance(expr, Rel):
            return ScanOp(expr)
        if isinstance(expr, Union):
            return UnionOp(self._plan(expr.left), self._plan(expr.right), expr)
        if isinstance(expr, Difference):
            return DifferenceOp(
                self._plan(expr.left), self._plan(expr.right), expr
            )
        if isinstance(expr, Projection):
            return self._projection(expr)
        if isinstance(expr, Selection):
            return self._selection(expr)
        if isinstance(expr, ConstantTag):
            return TagOp(self._plan(expr.child), expr.value, expr)
        if isinstance(expr, Join):
            return self._join(expr, self._plan(expr.left), self._plan(expr.right))
        if isinstance(expr, Semijoin):
            noted = self._filters.get(expr) if self._filters else None
            return self._semijoin(
                expr,
                self._plan(expr.left),
                self._plan(expr.right),
                expr.cond,
                note=_FILTER_NOTES.get(noted and noted[0], ""),
            )
        extended = self._plan_extended(expr)
        if extended is not None:
            return extended
        raise SchemaError(
            f"planner: unknown expression node {type(expr).__name__}"
        )

    def _plan_extended(self, expr: Expr) -> PlanNode | None:
        from repro.extended.ast import GroupBy

        if isinstance(expr, GroupBy):
            return GroupByOp(self._plan(expr.child), expr)
        return None

    # -- operator choice ------------------------------------------------

    def _division(self, expr: Expr, match: DivisionMatch) -> PlanNode:
        division = DivisionOp(
            dividend=self._plan(match.dividend),
            divisor=self._plan(match.divisor),
            eq=match.eq,
            empty_divisor=match.empty_divisor,
            expr=expr,
            note=f"rewritten from {match.origin}; direct hash "
            "division is O(|R|+|S|)",
        )
        if not self._costed():
            return division
        # Price the source RA/γ plan too, suppressing the division
        # match at this node only: nested patterns keep their rewrites
        # (the comparison stays symmetric).  The suppression is a field
        # on *this* planner around one direct ``_plan_node`` call, so
        # the alternative is never memoized under ``expr`` — a memo
        # shared across calls stays exact — and each distinct
        # sub-expression is planned at most twice.  Keep the direct
        # operator on ties.
        previous = self._no_division_root
        self._no_division_root = expr
        try:
            structural = self._plan_node(expr)
        finally:
            self._no_division_root = previous
        if self._cost(structural) < self._cost(division):
            return structural
        return division

    def _projection(self, expr: Projection) -> PlanNode:
        """π over the planned child; a collapsed chain absorbs it.

        The generic join then enumerates only the projected (free)
        variables, ordered first, and decides the rest at their first
        witness — no full binding, no dedup — under the AGM bound of
        the free variables alone
        (:func:`repro.engine.cost.multiway_bound`).  The collapse
        itself was decided on the unprojected chain.
        """
        child = self._plan(expr.child)
        if not (
            isinstance(child, MultiwayJoinOp) and child.positions is None
        ):
            return ProjectOp(child, expr.positions, expr)
        from repro.engine.cost import _fmt, multiway_bound
        from repro.engine.wcoj import choose_order

        flat = [v for row in child.attrs for v in row]
        free = {flat[p - 1] for p in expr.positions}
        cards = self.cost_model.cardinalities(child.relations)
        agm, __ = multiway_bound(child.attrs, cards, free)
        return MultiwayJoinOp(
            child.relations,
            child.attrs,
            choose_order(child.attrs, cards, free),
            agm,
            expr,
            note=f"{child.note}; projection absorbed: {len(free)} of "
            f"{len(child.order)} variables enumerated, the rest decided "
            f"at their first witness, projected AGM bound {_fmt(agm)}",
            positions=expr.positions,
        )

    def _selection(self, expr: Selection) -> PlanNode:
        # Fuse stacked selections into one FilterOp.
        predicates: list[tuple[str, int, int]] = []
        node: Expr = expr
        while isinstance(node, Selection):
            predicates.append((node.op, node.i, node.j))
            node = node.child
        return FilterOp(self._plan(node), tuple(predicates), expr)

    def _join(self, expr: Join, left: PlanNode, right: PlanNode) -> PlanNode:
        best = self._join_operator(expr, left, right, expr.cond)
        if not self._costed():
            return best
        reordered = self._reorder_join(expr)
        if reordered is not None and self._cost(reordered) < self._cost(best):
            best = reordered
        if self.options.use_multiway:
            multiway = self._multiway_join(expr, best)
            if multiway is not None:
                return multiway
        return best

    def _join_operator(
        self, expr: Expr, left: PlanNode, right: PlanNode, cond: Condition
    ) -> PlanNode:
        """Hash vs nested-loop for one join, costed when stats allow."""
        try:
            safe = isinstance(expr, Join) and join_is_safe(expr)
        except SchemaError:
            # Extended (γ) operands: the Definition 20 analysis only
            # reads core RA/SA nodes, so no dichotomy verdict here.
            safe = True
        if cond.by_op("="):
            keys = ",".join(str(a.j) for a in sorted(
                cond.by_op("="), key=lambda a: a.j
            ))
            note = f"equality atoms: hash index on right[{keys}]"
            if isinstance(expr, Join) and not safe:
                note += (
                    "; dichotomy: no side fully constrained — output "
                    "may still be quadratic (Thm. 17)"
                )
            hashed = HashJoinOp(left, right, cond, expr, note=note)
            if not self._costed():
                return hashed
            looped = NestedLoopJoinOp(
                left, right, cond, expr,
                note="equality atoms, but an input is small enough "
                "that a nested loop beats building the hash index "
                "(cost-based)",
            )
            if self._cost(looped) < self._cost(hashed):
                return looped
            return hashed
        note = (
            "no equality atoms: nested loop; dichotomy: quadratic "
            "candidate space (Thm. 17 / Lemma 24)"
            if not safe
            else "no equality atoms: nested loop over a constant side"
        )
        return NestedLoopJoinOp(left, right, cond, expr, note=note)

    # -- cost-based join ordering ---------------------------------------

    def _reorder_join(self, expr: Join) -> PlanNode | None:
        """A greedy smallest-intermediate-first reordering of a chain.

        Flattens the maximal join subtree rooted at ``expr`` into its
        leaves and equality/order atoms (over global column positions),
        rebuilds a left-deep chain greedily — start with the pair of
        smallest estimated join size, then repeatedly absorb the leaf
        with the smallest estimated intermediate, preferring leaves
        connected by at least one atom — and restores the original
        column order with a final projection.  Every intermediate node
        carries a genuine equivalent logical expression, so EXPLAIN
        output stays parseable.  Returns None when the chain has fewer
        than 3 leaves (nothing to reorder) or the greedy order is the
        written one.
        """
        leaves, spans, atoms = _flatten_logical_join(expr)
        count = len(leaves)
        if not 3 <= count <= self.REORDER_MAX_LEAVES:
            return None
        estimates = self.cost_model
        plans = [self._plan(leaf) for leaf in leaves]

        def connected(done: set[int], leaf: int) -> bool:
            for gi, __, gj in atoms:
                li, lj = _leaf_of(spans, gi), _leaf_of(spans, gj)
                if (li == leaf and lj in done) or (lj == leaf and li in done):
                    return True
            return False

        def extend(state, done: set[int], leaf: int):
            """Join ``leaf`` onto the accumulated state.

            Every atom linking ``leaf`` to an already-placed leaf
            becomes a condition atom of the new join (mirrored when the
            atom was written the other way around); atoms to leaves not
            yet placed stay pending for a later step.
            """
            acc_expr, acc_plan, placed = state
            start, __ = spans[leaf]
            cond_atoms = []
            for gi, op, gj in atoms:
                li, lj = _leaf_of(spans, gi), _leaf_of(spans, gj)
                if li in done and lj == leaf:
                    cond_atoms.append(Atom(placed[gi], op, gj - start + 1))
                elif lj in done and li == leaf:
                    cond_atoms.append(
                        Atom(gi - start + 1, op, placed[gj]).mirrored()
                    )
            cond = Condition(tuple(cond_atoms))
            joined_expr = Join(acc_expr, leaves[leaf], cond)
            joined_plan = self._join_operator(
                joined_expr, acc_plan, plans[leaf], cond
            )
            width = acc_expr.arity
            new_placed = dict(placed)
            for column in range(leaves[leaf].arity):
                new_placed[start + column] = width + column + 1
            return joined_expr, joined_plan, new_placed

        def score_of(plan: PlanNode, *tiebreak: int):
            estimate = estimates.estimate(plan)
            return (estimate.rows, estimate.cost) + tiebreak

        # Seed: the cheapest-looking first pair (both orientations).
        best = None
        for i in range(count):
            for j in range(count):
                if i == j:
                    continue
                placed = {
                    spans[i][0] + c: c + 1 for c in range(leaves[i].arity)
                }
                state = extend((leaves[i], plans[i], placed), {i}, j)
                score = score_of(state[1], i, j)
                if best is None or score < best[0]:
                    best = (score, state, [i, j])
        (__, state, order) = best
        placed_leaves = set(order)
        while len(order) < count:
            candidates = [
                leaf
                for leaf in range(count)
                if leaf not in placed_leaves
                and connected(placed_leaves, leaf)
            ] or [leaf for leaf in range(count) if leaf not in placed_leaves]
            chosen = None
            for leaf in candidates:
                extended = extend(state, placed_leaves, leaf)
                score = score_of(extended[1], leaf)
                if chosen is None or score < chosen[0]:
                    chosen = (score, extended, leaf)
            state = chosen[1]
            order.append(chosen[2])
            placed_leaves.add(chosen[2])
        if order == list(range(count)):
            return None
        acc_expr, acc_plan, placed = state
        permutation = tuple(
            placed[column] for column in range(expr.arity)
        )
        restored = Projection(acc_expr, permutation)
        return ProjectOp(
            acc_plan,
            permutation,
            restored,
            note=f"cost-based join order {order} (estimated "
            "intermediates); projection restores the written column "
            "order",
        )

    # -- worst-case-optimal multiway collapse ---------------------------

    def _multiway_join(self, expr: Join, binary: PlanNode) -> PlanNode | None:
        """Collapse an equi-join chain into one generic-join operator.

        Applies when the maximal join subtree at ``expr`` is a pure
        equality join over 3..``REORDER_MAX_LEAVES`` base relations
        (``ScanOp`` leaves — the AGM bound needs exact cardinalities)
        and the chain's fractional-edge-cover bound
        (:func:`repro.engine.cost.fractional_edge_cover`) is strictly
        below the best binary candidate's *peak sound intermediate
        bound* — the quantity the worst-case argument compares: every
        binary plan must materialize its intermediates, while the
        generic join materializes nothing beyond its output, which the
        AGM bound caps.  Returns None (keep the binary plan) whenever
        the shape doesn't qualify, the binary plan has no certified
        intermediate bound to beat, or a partition budget is set that
        the one-shot multiway execution could exceed — binary joins
        can run under :class:`~repro.engine.plan.PartitionedOp`,
        the multiway operator deliberately cannot (this PR).
        """
        leaves, __, atoms = _flatten_logical_join(expr)
        count = len(leaves)
        if not 3 <= count <= self.REORDER_MAX_LEAVES:
            return None
        if not atoms or any(op != "=" for __g, op, __h in atoms):
            return None
        plans = [self._plan(leaf) for leaf in leaves]
        if not all(isinstance(plan, ScanOp) for plan in plans):
            return None
        from repro.engine.cost import _fmt, fractional_edge_cover
        from repro.engine.wcoj import choose_order, variable_layout

        attrs = variable_layout([leaf.arity for leaf in leaves], atoms)
        edges = [frozenset(row) for row in attrs]
        if not all(edges):  # an arity-0 leaf carries no hyperedge
            return None
        cards = self.cost_model.cardinalities(plans)
        agm, cover = fractional_edge_cover(edges, cards)
        peak = self._binary_intermediate_bound(binary)
        if peak is None or not agm < peak:
            return None
        note = (
            f"worst-case-optimal: AGM bound {_fmt(agm)} (fractional "
            f"cover {'/'.join(_fmt(x) for x in cover)}) beats the "
            f"binary plan's peak intermediate bound {_fmt(peak)}"
        )
        budget = self.options.partition_budget
        if budget is not None:
            if agm + sum(cards) > budget:
                # The binary chain can run partitioned under the
                # budget; the one-shot generic join cannot.
                return None
            note += (
                "; one-shot only: multiway join refuses PartitionedOp "
                "fusion"
            )
        return MultiwayJoinOp(
            tuple(plans),
            attrs,
            choose_order(attrs, cards),
            agm,
            expr,
            note=note,
        )

    def _binary_intermediate_bound(self, plan: PlanNode) -> float | None:
        """Peak sound row bound over a binary plan's join operators.

        The multiway gate's comparison target: the largest certified
        ``upper`` any join node in ``plan`` may materialize.  Returns
        None — the gate then keeps the binary plan — when any join
        node's bound is infinite, because "AGM beats an uncertified
        guess" is not a certificate.  Only costed planning asks, so
        the model has statistics here.
        """
        peak = None
        stack = [plan]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, (HashJoinOp, NestedLoopJoinOp)):
                upper = self.cost_model.estimate(node).upper
                if not math.isfinite(upper):
                    return None
                if peak is None or upper > peak:
                    peak = upper
        return peak

    def _semijoin(
        self,
        expr: Expr,
        left: PlanNode,
        right: PlanNode,
        cond: Condition,
        note: str = "",
    ) -> PlanNode:
        if cond.by_op("="):
            extra = "hash semijoin (linear, SA= fragment)"
            merged = f"{note}; {extra}" if note else extra
            return HashSemijoinOp(left, right, cond, expr, note=merged)
        extra = "nested-loop semijoin (linear output, |L|·|R| probes)"
        merged = f"{note}; {extra}" if note else extra
        return NestedLoopSemijoinOp(left, right, cond, expr, note=merged)


def _flatten_logical_join(
    expr: Join,
) -> tuple[list[Expr], list[tuple[int, int]], list[tuple[int, str, int]]]:
    """Flatten a maximal logical join subtree into leaves/spans/atoms.

    Thin wrapper over :func:`repro.engine.cost.flatten_join_tree` (the
    same flattener the AGM bound uses on physical operators, so the
    global-column arithmetic cannot drift apart); any non-``Join``
    node is a leaf.
    """
    from repro.engine.cost import flatten_join_tree

    return flatten_join_tree(expr, (Join,))


def _leaf_of(spans: list[tuple[int, int]], column: int) -> int:
    """The leaf index owning a global column."""
    for index, (start, arity) in enumerate(spans):
        if start <= column < start + arity:
            return index
    raise SchemaError(f"global column {column} outside all leaf spans")


def plan_expression(
    expr: Expr, options: PlannerOptions = DEFAULT_OPTIONS
) -> PlanNode:
    """Plan ``expr`` with the given options."""
    return Planner(options).plan(expr)


def dichotomy_line(expr: Expr, schema: Schema) -> str:
    """The Theorem 17 verdict for ``expr``, rendered as a comment line."""
    from repro.core.dichotomy import analyze as run_analysis

    report = run_analysis(expr, schema)
    return (
        f"-- dichotomy: {report.verdict.value} "
        f"({report.classification.reason})"
    )


def explain(
    expr: Expr,
    options: PlannerOptions = DEFAULT_OPTIONS,
    schema: Schema | None = None,
    analyze: bool = False,
    plan: PlanNode | None = None,
    costs: bool = False,
    cost_model=None,
) -> str:
    """Render the physical plan for ``expr``.

    With ``analyze=True`` (requires ``schema``) the output is prefixed
    with the Theorem 17 dichotomy verdict from
    :func:`repro.core.dichotomy.analyze` — the planner's authority for
    routing claims.  Pass a pre-built ``plan`` to render exactly the
    plan some caller is about to execute.

    ``cost_model`` both plans (when no ``plan`` is given) and
    annotates: pass the model that priced the plan (e.g.
    ``executor.cost_model``, how the CLI's ``explain --costs -d
    db.json`` calls it) to reuse its statistics and memoized
    estimates.  Without one, planning is structural.

    With ``costs=True`` every operator line carries the model's
    estimate — ``{~rows=<point> ub=<sound upper bound> cost=<work>}``
    — from the model's statistics, or from the zero-stats default
    assumptions when it has none (``ub`` renders as ``?`` then:
    nothing is certified without statistics).
    """
    lines: list[str] = []
    if analyze:
        if schema is None:
            raise SchemaError("explain(analyze=True) needs a schema")
        lines.append(dichotomy_line(expr, schema))
    if cost_model is None:
        from repro.engine.cost import CostModel

        cost_model = CostModel()
    if plan is None:
        plan = Planner(options, cost_model).plan(expr)
    annotate = None
    if costs:
        annotate = lambda node: cost_model.estimate(node).render()  # noqa: E731
    lines.append(plan.explain(annotate=annotate))
    return "\n".join(lines)
