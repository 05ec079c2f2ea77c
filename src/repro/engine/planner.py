"""The cost-aware planner: logical expressions → physical plans.

The planner runs in one of two modes.  Given a
:class:`~repro.engine.stats.StatsCatalog` (how
:meth:`repro.engine.executor.Executor.plan` calls it), operator choice
is **cost-based**: candidate operators are priced by the
:class:`~repro.engine.cost.CostModel` and the cheapest wins, with the
structural choice as the tie-break.  Without statistics (the zero-stats
fallback — :func:`plan_expression`, or ``use_costs=False``) the
decisions below fall back to their purely structural forms, which is
exactly the pre-cost-model behaviour.

Routing rules (documented in ``docs/engine.md``):

1. **Division patterns collapse to direct algorithms.**  The classic
   quadratic RA plan ``π_A(R) − π_A((π_A(R) × S) − R)`` (Proposition 26
   says *every* RA expression for division is quadratic) and the §5
   γ plans (containment and equality) are recognized structurally and
   replaced by a single linear :class:`~repro.engine.plan.DivisionOp`
   running Graefe's hash division by default.  The empty-divisor
   semantics of the source expression is preserved exactly.  Under the
   cost model the direct operator is kept only while its estimated
   cost does not exceed the RA plan's (it never does on the witness
   families — the regression tests pin that no re-quadratification
   sneaks in).
2. **Projected joins become semijoins.**  ``π_p̄(E1 ⋈_θ E2)`` with p̄ on
   one side routes through a semijoin operator — the Corollary 19
   move: the join was only a filter, so the quadratic intermediate is
   never materialized.  Costed mode prices both shapes and keeps the
   semijoin on ties.
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
   zero-stats plans always keep the binary chain).
5. **Selections are pushed toward the leaves** first (reusing
   :func:`repro.algebra.optimize.push_selections`), then fused into
   single :class:`~repro.engine.plan.FilterOp` nodes.
6. **Oversized operators are partitioned** (costed mode with a
   ``partition_budget`` only): in a final post-pass over the chosen
   plan — after every cost comparison, so the scatter surcharge never
   influences operator choice — each partitionable operator whose
   sound in-flight upper bound exceeds the budget is wrapped in a
   :class:`~repro.engine.plan.PartitionedOp` sized by
   :func:`repro.engine.partition.planned_partitions`; the executor
   then runs it in budget-bounded batches
   (:mod:`repro.engine.partition`).

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
    SortOp,
    TagOp,
    UnionOp,
)
from repro.errors import SchemaError

#: The empty condition, used to recognize cartesian products.
_TRUE = Condition()


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs for the planner.

    ``division_method`` picks the direct algorithm DivisionOp runs
    (``"hash"`` is O(n); ``"sort_merge"``/``"counting"``/
    ``"nested_loop"`` exist for experiments and ablations).
    ``rewrite_divisions`` / ``introduce_semijoins`` / ``push_selections``
    gate the three rewrites so ablations can isolate each one.
    ``use_costs`` gates every cost-based decision (it has no effect
    unless the planner also has a statistics catalog) and
    ``reorder_joins`` gates the ≥3-way join-order search specifically.

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

    ``max_workers`` enables shard-per-worker parallel execution: when
    > 1 (and statistics are present — the dispatch gate needs *sound*
    bounds), partitionable operators whose certified parallel cost
    beats their serial cost are wrapped in a
    :class:`~repro.engine.plan.ParallelOp` and their batches run on a
    process pool of that many workers.  The default ``1`` keeps
    planning and execution exactly serial.

    ``backend`` selects the storage backend
    (:data:`repro.storage.backend.BACKEND_KINDS`) a
    :class:`~repro.session.Session` or CLI invocation opens for its
    executor.  It is a *construction* knob: the executor's actual
    backend is what the cost model prices (attached backends get the
    cheaper descriptor transport rate in the parallel dispatch gate)
    and what execution reads from; a per-query options override never
    changes the storage mid-session.

    ``replan_threshold`` closes the estimator feedback loop: when set
    (a ratio strictly greater than 1), execution feeds each operator's
    estimated-vs-actual pair into the catalog's persistent
    :class:`~repro.engine.stats.FeedbackLedger`, the cost model
    corrects point estimates by the learned factors, and a memoized
    plan is re-planned once any of its operators' correction factors
    has drifted by at least the threshold since the plan was priced.
    ``None`` (the default) freezes plans and costs nothing: the run
    feeds no ledger, estimates are never corrected and nothing
    re-plans.  Feedback requires
    ``use_costs`` — the threshold measures the cost model's error, so
    there is nothing to measure (or re-plan with) structurally.
    """

    division_method: str = "hash"
    rewrite_divisions: bool = True
    introduce_semijoins: bool = True
    push_selections: bool = True
    use_costs: bool = True
    reorder_joins: bool = True
    partition_budget: int | None = None
    max_workers: int = 1
    backend: str = "memory"
    replan_threshold: float | None = None
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
        from repro.storage.backend import BACKEND_KINDS

        if self.backend not in BACKEND_KINDS:
            raise SchemaError(
                f"unknown storage backend {self.backend!r}; expected "
                f"one of {', '.join(BACKEND_KINDS)}"
            )
        if self.replan_threshold is not None:
            if not self.replan_threshold > 1.0:
                raise SchemaError(
                    "replan_threshold is an error *ratio* and must be "
                    "> 1 (or None to freeze plans), got "
                    f"{self.replan_threshold}"
                )
            if not self.use_costs:
                raise SchemaError(
                    "replan_threshold needs cost-based planning: the "
                    "threshold measures the cost model's estimation "
                    "error, which use_costs=False disables"
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


def match_classic_division(expr: Expr) -> DivisionMatch | None:
    """Recognize ``π_A(R) − π_A((π_A(R) × S) − R)`` (any sub-exprs R, S).

    The textbook plan built by
    :func:`repro.setjoins.division.classic_division_expr`; on an empty
    divisor it returns all candidates (``R ÷ ∅ = π_A(R)``).
    """
    if not isinstance(expr, Difference):
        return None
    candidates, disqualified = expr.left, expr.right
    if not (
        isinstance(candidates, Projection)
        and candidates.positions == (1,)
        and candidates.child.arity == 2
    ):
        return None
    dividend = candidates.child
    if not (
        isinstance(disqualified, Projection)
        and disqualified.positions == (1,)
        and isinstance(disqualified.child, Difference)
    ):
        return None
    missing = disqualified.child
    if missing.right != dividend:
        return None
    cross = missing.left
    if not (
        isinstance(cross, Join)
        and cross.cond == _TRUE
        and cross.left == candidates
        and cross.right.arity == 1
    ):
        return None
    return DivisionMatch(
        dividend=dividend,
        divisor=cross.right,
        eq=False,
        empty_divisor="all",
        origin="classic RA division plan (quadratic, Prop. 26)",
    )


def _is_count_group(expr: Expr, positions: tuple[int, ...], over: int):
    """Whether ``expr`` is ``γ_{positions, count(over)}(child)``; → child."""
    try:
        from repro.extended.ast import GroupBy
    except ImportError:  # pragma: no cover - extended always ships
        return None
    if not isinstance(expr, GroupBy):
        return None
    if expr.group_positions != positions:
        return None
    if len(expr.aggregates) != 1:
        return None
    aggregate = expr.aggregates[0]
    if aggregate.func != "count" or aggregate.position != over:
        return None
    return expr.child


_B_EQ_C = Condition((Atom(2, "=", 1),))


def match_gamma_containment_division(expr: Expr) -> DivisionMatch | None:
    """Recognize the §5 containment plan
    ``π_A(γ_{A,count}(R ⋈_{2=1} S) ⋈_{2=1} γ_{count}(S))``.

    Returns ∅ on an empty divisor (the documented caveat), which the
    match records as the ``"none"`` policy.
    """
    if not (isinstance(expr, Projection) and expr.positions == (1,)):
        return None
    matched = expr.child
    if not (isinstance(matched, Join) and matched.cond == _B_EQ_C):
        return None
    joined = _is_count_group(matched.left, (1,), 2)
    divisor = _is_count_group(matched.right, (), 1)
    if joined is None or divisor is None:
        return None
    if not (isinstance(joined, Join) and joined.cond == _B_EQ_C):
        return None
    dividend = joined.left
    if dividend.arity != 2 or joined.right != divisor:
        return None
    if divisor.arity != 1:
        return None
    return DivisionMatch(
        dividend=dividend,
        divisor=divisor,
        eq=False,
        empty_divisor="none",
        origin="§5 γ containment-division plan",
    )


def match_gamma_equality_division(expr: Expr) -> DivisionMatch | None:
    """Recognize the §5 equality plan built by
    :func:`repro.extended.division_plan.equality_division_plan`."""
    if not (isinstance(expr, Projection) and expr.positions == (1,)):
        return None
    selected = expr.child
    if not (
        isinstance(selected, Selection)
        and selected.op == "="
        and (selected.i, selected.j) == (4, 5)
    ):
        return None
    with_k = selected.child
    if not (isinstance(with_k, Join) and with_k.cond == _B_EQ_C):
        return None
    per_candidate, divisor_size = with_k.left, with_k.right
    divisor = _is_count_group(divisor_size, (), 1)
    if divisor is None or divisor.arity != 1:
        return None
    if not (
        isinstance(per_candidate, Join)
        and per_candidate.cond == Condition((Atom(1, "=", 1),))
    ):
        return None
    joined = _is_count_group(per_candidate.left, (1,), 2)
    totals = _is_count_group(per_candidate.right, (1,), 2)
    if joined is None or totals is None:
        return None
    if not (isinstance(joined, Join) and joined.cond == _B_EQ_C):
        return None
    dividend = joined.left
    if dividend.arity != 2 or dividend != totals:
        return None
    if joined.right != divisor:
        return None
    return DivisionMatch(
        dividend=dividend,
        divisor=divisor,
        eq=True,
        empty_divisor="none",
        origin="§5 γ equality-division plan",
    )


def match_division(expr: Expr) -> DivisionMatch | None:
    """Try all known division shapes at this node."""
    for matcher in (
        match_classic_division,
        match_gamma_containment_division,
        match_gamma_equality_division,
    ):
        found = matcher(expr)
        if found is not None:
            return found
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
    computes once.
    """

    #: Occurrence budget for the global selection-pushdown rewrite,
    #: which (unlike planning) walks occurrences, not distinct nodes.
    PUSHDOWN_SIZE_LIMIT = 512

    #: Join chains with more leaves than this keep their written order
    #: (the greedy search is quadratic in the leaf count).
    REORDER_MAX_LEAVES = 8

    def __init__(
        self,
        options: PlannerOptions = DEFAULT_OPTIONS,
        catalog=None,
        cost_model=None,
    ) -> None:
        from repro.engine.cost import CostModel

        self.options = options
        self.catalog = catalog
        #: One shared model per planning session (callers with a
        #: longer-lived model — the executor — pass their own):
        #: estimates of common subtrees are memoized across all
        #: candidate comparisons.
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(catalog)
        )
        self._memo: dict[Expr, PlanNode] = {}
        #: Set while pricing a division rewrite's alternative: the one
        #: node whose division match is suppressed (rewrites below it
        #: stay on, keeping the cost comparison symmetric).
        self._no_division_root: Expr | None = None

    def _costed(self) -> bool:
        """Whether cost-based decisions are in force (stats present)."""
        return self.catalog is not None and self.options.use_costs

    def _cost(self, node: PlanNode) -> float:
        return self.cost_model.estimate(node).cost

    def _apply_partition_budget(self, plan: PlanNode) -> PlanNode:
        """Wrap oversized operators once the whole plan is chosen.

        Partitioning is a *post-pass* (:func:`repro.engine.partition.
        apply_partitioning`), deliberately not part of operator choice:
        wrapping adds the scatter pass to an operator's cost, and
        pricing candidates with that surcharge could flip a comparison
        toward an unpartitionable — hence budget-unbounded —
        alternative.  Sizing needs *sound* in-flight bounds, so without
        statistics (or without a budget) plans are returned untouched.
        """
        budget = self.options.partition_budget
        if budget is None or not self._costed():
            return plan
        from repro.engine.partition import apply_partitioning

        return apply_partitioning(plan, self.cost_model, budget)

    def _apply_parallelism(self, plan: PlanNode) -> PlanNode:
        """Shard certified-profitable operators once the plan is chosen.

        Like partitioning, a post-pass so the parallel repricing never
        flips an operator choice.  The dispatch gate
        (:func:`repro.engine.cost.parallel_cost_split`) needs sound
        bounds, so without statistics — or with the default
        ``max_workers=1`` — plans are returned untouched and serial
        planning stays byte-identical.
        """
        if self.options.max_workers <= 1 or not self._costed():
            return plan
        from repro.engine.parallel import apply_parallelism

        return apply_parallelism(
            plan, self.cost_model, self.options.max_workers
        )

    def plan(self, expr: Expr) -> PlanNode:
        """Plan a logical expression (RA/SA, optionally with γ/Sort)."""
        if (
            self.options.push_selections
            and _is_core(expr)
            and _occurrences_within(expr, self.PUSHDOWN_SIZE_LIMIT)
        ):
            from repro.algebra.optimize import push_selections

            expr = push_selections(expr)
        return self._apply_parallelism(
            self._apply_partition_budget(self._plan(expr))
        )

    # -- recursive translation -----------------------------------------

    def _plan(self, expr: Expr) -> PlanNode:
        cached = self._memo.get(expr)
        if cached is not None:
            return cached
        planned = self._plan_node(expr)
        self._memo[expr] = planned
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
            return self._semijoin(
                expr, self._plan(expr.left), self._plan(expr.right), expr.cond
            )
        extended = self._plan_extended(expr)
        if extended is not None:
            return extended
        raise SchemaError(
            f"planner: unknown expression node {type(expr).__name__}"
        )

    def _plan_extended(self, expr: Expr) -> PlanNode | None:
        try:
            from repro.extended.ast import GroupBy, Sort
        except ImportError:  # pragma: no cover - extended always ships
            return None
        if isinstance(expr, GroupBy):
            return GroupByOp(self._plan(expr.child), expr)
        if isinstance(expr, Sort):
            return SortOp(self._plan(expr.child), expr)
        return None

    # -- operator choice ------------------------------------------------

    def _division(self, expr: Expr, match: DivisionMatch) -> PlanNode:
        method = self.options.division_method
        cost = {
            "hash": "O(|R|+|S|)",
            "counting": "O(|R|+|S|)",
            "sort_merge": "O(|R| log |R|)",
            "nested_loop": "O(|A|·|S|)",
        }.get(method, "?")  # DivisionOp rejects unknown methods
        division = DivisionOp(
            dividend=self._plan(match.dividend),
            divisor=self._plan(match.divisor),
            method=method,
            eq=match.eq,
            empty_divisor=match.empty_divisor,
            expr=expr,
            note=f"rewritten from {match.origin}; direct {method} "
            f"division is {cost}",
        )
        if not self._costed():
            return division
        # Price the source RA/γ plan too, suppressing the division
        # match at this node only: nested division patterns inside the
        # alternative keep their rewrites (the comparison stays
        # symmetric), and because the planning memo is shared — the
        # suppression is a field on *this* planner, saved and restored
        # around one direct ``_plan_node`` call — each distinct
        # sub-expression is still planned at most twice, keeping
        # planning linear even for nested division patterns.  Keep the
        # direct operator on ties.
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
        child = expr.child
        if self.options.introduce_semijoins and isinstance(child, Join):
            semijoin = self._semijoin_projection(expr, child)
            if semijoin is not None:
                if not self._costed():
                    return semijoin
                direct = ProjectOp(
                    self._plan(child), expr.positions, expr
                )
                if self._cost(direct) < self._cost(semijoin):
                    return direct
                return semijoin
        return ProjectOp(self._plan(child), expr.positions, expr)

    def _semijoin_projection(
        self, expr: Projection, child: Join
    ) -> PlanNode | None:
        """The Corollary 19 candidate: π over a join on one side only."""
        left_arity = child.left.arity
        if all(p <= left_arity for p in expr.positions):
            semijoin = self._semijoin(
                Semijoin(child.left, child.right, child.cond),
                self._plan(child.left),
                self._plan(child.right),
                child.cond,
                note="join used only as a filter (Cor. 19): "
                "semijoin avoids the join's intermediate",
            )
            return ProjectOp(semijoin, expr.positions, expr)
        if all(p > left_arity for p in expr.positions):
            mirrored = child.cond.mirrored()
            semijoin = self._semijoin(
                Semijoin(child.right, child.left, mirrored),
                self._plan(child.right),
                self._plan(child.left),
                mirrored,
                note="join used only as a right-side filter "
                "(Cor. 19): mirrored semijoin",
            )
            remapped = tuple(p - left_arity for p in expr.positions)
            return ProjectOp(semijoin, remapped, expr)
        return None

    def _selection(self, expr: Selection) -> PlanNode:
        # Fuse stacked selections into one FilterOp.
        predicates: list[tuple[str, int, int]] = []
        node: Expr = expr
        while isinstance(node, Selection):
            predicates.append((node.op, node.i, node.j))
            node = node.child
        return FilterOp(self._plan(node), tuple(predicates), expr)

    def _join(self, expr: Join, left: PlanNode, right: PlanNode) -> PlanNode:
        as_written = self._join_operator(expr, left, right, expr.cond)
        best = as_written
        if self._costed() and self.options.reorder_joins:
            reordered = self._reorder_join(expr)
            if reordered is not None and (
                self._cost(reordered) < self._cost(best)
            ):
                best = reordered
        if self._costed() and self.options.use_multiway:
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
        cards = [
            float(self.catalog.relation(plan.expr.name).rows)
            for plan in plans
        ]
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
        node's bound is unsound or infinite, because "AGM beats an
        uncertified guess" is not a certificate.
        """
        peak = None
        stack = [plan]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, (HashJoinOp, NestedLoopJoinOp)):
                estimate = self.cost_model.estimate(node)
                if not estimate.sound or not math.isfinite(estimate.upper):
                    return None
                if peak is None or estimate.upper > peak:
                    peak = estimate.upper
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


_CORE_NODES = (
    Rel,
    Union,
    Difference,
    Projection,
    Selection,
    ConstantTag,
    Join,
    Semijoin,
)


def _is_core(expr: Expr) -> bool:
    """Whether the expression uses only core RA/SA nodes.

    Walks *distinct* sub-expressions (repeated subtrees are visited
    once), so it stays linear on expressions with heavy sharing.
    """
    seen: set[Expr] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if type(node) not in _CORE_NODES:
            return False
        stack.extend(node.children())
    return True


def _occurrences_within(expr: Expr, limit: int) -> bool:
    """Whether the tree has at most ``limit`` node occurrences.

    Aborts as soon as the budget is exceeded, so exponentially shared
    trees are rejected in O(limit) instead of being enumerated.
    """
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        count += 1
        if count > limit:
            return False
        stack.extend(node.children())
    return True


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
    catalog=None,
    cost_model=None,
) -> str:
    """Render the physical plan for ``expr``.

    With ``analyze=True`` (requires ``schema``) the output is prefixed
    with the Theorem 17 dichotomy verdict from
    :func:`repro.core.dichotomy.analyze` — the planner's authority for
    routing claims.  Pass a pre-built ``plan`` to render exactly the
    plan some caller is about to execute.

    With ``costs=True`` every operator line carries the cost model's
    estimate — ``{~rows=<point> ub=<sound upper bound> cost=<work>}``
    — computed from ``catalog`` statistics when given (how the CLI's
    ``explain --costs -d db.json`` calls it) and from the zero-stats
    default assumptions otherwise (``ub`` renders as ``?`` then:
    nothing is certified without statistics).  Pass the ``cost_model``
    that priced the plan (e.g. ``executor.cost_model``) to reuse its
    memoized estimates instead of re-estimating.
    """
    lines: list[str] = []
    if analyze:
        if schema is None:
            raise SchemaError("explain(analyze=True) needs a schema")
        lines.append(dichotomy_line(expr, schema))
    if plan is None:
        if catalog is not None:
            plan = Planner(options, catalog, cost_model).plan(expr)
        else:
            plan = plan_expression(expr, options)
    annotate = None
    if costs:
        from repro.engine.cost import CostModel

        model = cost_model if cost_model is not None else CostModel(catalog)
        annotate = lambda node: model.estimate(node).render()  # noqa: E731
    lines.append(plan.explain(annotate=annotate))
    return "\n".join(lines)
