"""Cardinality and cost estimation over physical plans.

:class:`CostModel` walks a plan bottom-up and assigns every operator an
:class:`Estimate` with two cardinality figures and one work figure:

* ``rows`` — the point estimate, built from textbook selectivities
  (equality ``1/max(d_i, d_j)`` over distinct counts, ``1/3`` for
  order comparisons) and used for cost comparisons.  A join of two
  base relations reads its first equality atom off the same
  most-common-value sketches its bound reads, so one skewed shared
  value is priced as the product of its two counts;
* ``upper`` — a **sound upper bound** on the actual output
  cardinality.  When the model has exact statistics
  (:class:`~repro.engine.stats.StatsCatalog` profiles frozensets, so
  its counts are exact) every composition rule preserves soundness:
  projections/filters/semijoins cannot grow their input, unions add,
  joins multiply — tightened by most-common-value frequency bounds and
  by an **AGM-style bound** (Atserias–Grohe–Marx) on equi-join chains
  over base relations, computed from a feasible fractional edge cover
  of the join's hypergraph.  ``tests/test_engine_cost.py`` property-
  tests the soundness claim on random databases;
* ``cost`` — cumulative estimated row operations (builds, probes,
  emitted rows), the quantity the planner minimizes.

Each estimate also carries per-column **sound upper bounds on distinct
counts** (``distinct``), which is what lets equality selectivities
propagate through the tree.  Whether the bounds are certified is one
fact, and the model owns it: they are exactly when the model has a
catalog.  Without one the model falls back to fixed default assumptions
(``DEFAULT_ROWS`` per relation, ``sqrt`` of that distinct values per
column) that still rank plans but certify nothing — ``upper`` is then
infinite (``?`` in EXPLAIN) unless the plan itself proves a bound, as
an unsatisfiable ``σ_{i<i}`` proves 0.  The planner treats that
zero-stats mode as "keep the structural rules".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.plan import (
    DifferenceOp,
    DivisionOp,
    FilterOp,
    GroupByOp,
    HashJoinOp,
    HashSemijoinOp,
    MultiwayJoinOp,
    NestedLoopJoinOp,
    NestedLoopSemijoinOp,
    PartitionedOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    TagOp,
    UnionOp,
)
from repro.engine.stats import StatsCatalog
from repro.errors import SchemaError

#: Selectivity assumed for ``<`` / ``>`` comparisons (System R's third).
INEQUALITY_SELECTIVITY = 1.0 / 3.0

#: Zero-stats default assumptions: every relation is assumed to hold
#: this many rows with ``sqrt(rows)`` distinct values per column.
DEFAULT_ROWS = 1000.0

#: Join subtrees with at most this many base-relation leaves get the
#: LP-solved fractional-edge-cover AGM bound; longer chains fall back
#: to the (still sound) pairwise product bound.  The cap bounds only
#: the flattening/solve work per node — the LP itself is polynomial —
#: and sits above the planner's ``REORDER_MAX_LEAVES``.
AGM_MAX_EDGES = 12

#: Per-row surcharge for crossing the process boundary as pickled
#: fragments (a row out to a worker, a result row back), in units of
#: one row touch: an index build-plus-probe step of
#: :func:`repro.engine.kernels.hash_semijoin`, which is what
#: ``tools/calibrate_ipc.py`` times.  A pickle dumps+loads round trip
#: reads 2.4–2.5× that unit (≈ 65 ns/row) on the reference machine, so
#: 5.0 overprices transport about twofold.  Deliberately: overpricing
#: only delays parallelism until the compute genuinely dominates,
#: while underpricing would certify dispatches that lose — and the two
#: fixed costs below are not fitted to this kernel, whose batches are
#: cheap enough for pool dispatch to lose (ROADMAP item 2).
PARALLEL_IPC_ROW_COST = 5.0

#: Per-row surcharge when the backend is *attached* (shm): the
#: scatter writes each distinct fragment once into a shared columnar
#: buffer and ships only descriptors, so the parent's serial critical
#: path is the columnar encode — 0.89–0.93× the unit row touch (encode
#: + decode together 2.1×; see ``tools/calibrate_ipc.py``).
#: Overpriced like the constant above, for the same reason, and so
#: that attached : pickled stays at 1 : 2.5.
#: The worker-side decode overlaps the divided kernel work, and
#: replicated sides (a θ-semijoin's right side, a division's divisor)
#: are encoded once instead of re-pickled per task.
PARALLEL_ATTACHED_ROW_COST = 2.0

#: Fixed dispatch/bookkeeping cost per batch submitted to the pool.
PARALLEL_BATCH_COST = 64.0

#: Fixed cost of engaging the worker pool at all (queue wake-ups,
#: result plumbing; pool *creation* is amortized across queries).
PARALLEL_STARTUP_COST = 512.0

_INF = math.inf


@dataclass(frozen=True)
class Estimate:
    """One operator's estimated output and cost (see module docstring)."""

    rows: float
    upper: float
    cost: float
    distinct: tuple[float, ...]

    def __post_init__(self) -> None:
        # Keep the point estimate inside the certified bound.
        if self.rows > self.upper:
            object.__setattr__(self, "rows", self.upper)

    def render(self) -> str:
        """Compact text for EXPLAIN annotations (no ``' :: '`` inside)."""
        return (
            f"~rows={_fmt(self.rows)} ub={_fmt(self.upper)} "
            f"cost={_fmt(self.cost)}"
        )


def _fmt(x: float) -> str:
    if not math.isfinite(x):  # ∞ (nothing certified) — or a NaN bug
        return "?"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.3g}"


def _mul(a: float, b: float) -> float:
    """``a·b`` with ``0·∞ = 0``: an empty side empties the product.

    IEEE would make it NaN, which then poisons every bound above it.
    """
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _cap_distinct(distinct: tuple[float, ...], upper: float) -> tuple[float, ...]:
    return tuple(min(d, upper) for d in distinct)


class CostModel:
    """Estimate cardinalities and costs for plan nodes.

    One model per (catalog, moment): estimates are memoized per node,
    so a planner comparing many candidate sub-plans shares the work for
    common subtrees.  The catalog's statistics must describe the
    database the plan will run against, or the certified ``upper``
    bounds lie; without a catalog nothing is certified.
    """

    def __init__(
        self,
        catalog: StatsCatalog | None = None,
        attached: bool = False,
    ) -> None:
        self.catalog = catalog
        #: Whether execution reads an attached backend (shm) — it
        #: decides the per-row transport price in
        #: :func:`parallel_cost_split` (attached backends ship
        #: descriptors, not pickles).
        self.attached = attached
        self._memo: dict[PlanNode, Estimate] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def estimate(self, node: PlanNode) -> Estimate:
        cached = self._memo.get(node)
        if cached is not None:
            return cached
        computed = self._estimate(node)
        self._memo[node] = computed
        return computed

    def estimates(self, plan: PlanNode) -> dict[PlanNode, Estimate]:
        """Estimates for every node of ``plan`` (post-order keys)."""
        return {node: self.estimate(node) for node in plan.nodes()}

    def __len__(self) -> int:
        """Memoized node count — callers recycle models grown too big."""
        return len(self._memo)

    def cardinalities(self, scans) -> list[float]:
        """The exact row counts of stored-relation ``scans``, in order."""
        return [
            float(self.catalog.relation(scan.expr.name).rows)
            for scan in scans
        ]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _estimate(self, node: PlanNode) -> Estimate:
        if isinstance(node, ScanOp):
            return self._scan(node)
        if isinstance(node, UnionOp):
            return self._union(node)
        if isinstance(node, DifferenceOp):
            return self._difference(node)
        if isinstance(node, ProjectOp):
            return self._project(node)
        if isinstance(node, FilterOp):
            return self._filter(node)
        if isinstance(node, TagOp):
            return self._tag(node)
        if isinstance(node, (HashJoinOp, NestedLoopJoinOp)):
            return self._join(node)
        if isinstance(node, MultiwayJoinOp):
            return self._multiway(node)
        if isinstance(node, (HashSemijoinOp, NestedLoopSemijoinOp)):
            return self._semijoin(node)
        if isinstance(node, DivisionOp):
            return self._division(node)
        if isinstance(node, PartitionedOp):
            return self._batched(node)
        if isinstance(node, GroupByOp):
            return self._group_by(node)
        raise SchemaError(
            f"cost model: unknown plan node {type(node).__name__}"
        )

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def _scan(self, node: ScanOp) -> Estimate:
        if self.catalog is None:
            distinct = (math.sqrt(DEFAULT_ROWS),) * node.arity
            return Estimate(DEFAULT_ROWS, _INF, DEFAULT_ROWS, distinct)
        stats = self.catalog.relation(node.expr.name)
        rows = float(stats.rows)
        distinct = tuple(float(c.distinct) for c in stats.columns)
        if len(distinct) != node.arity:
            # Plan/schema arity mismatch: the executor will raise a
            # clean ArityError at run time; keep estimation total so
            # planning never crashes first.
            distinct = (distinct + (rows,) * node.arity)[: node.arity]
        return Estimate(rows, rows, rows, distinct)

    # ------------------------------------------------------------------
    # Unary operators
    # ------------------------------------------------------------------

    def _union(self, node: UnionOp) -> Estimate:
        left, right = self.estimate(node.left), self.estimate(node.right)
        upper = left.upper + right.upper
        distinct = _cap_distinct(
            tuple(l + r for l, r in zip(left.distinct, right.distinct)),
            upper,
        )
        return Estimate(
            left.rows + right.rows,
            upper,
            left.cost + right.cost + left.rows + right.rows,
            distinct,
        )

    def _difference(self, node: DifferenceOp) -> Estimate:
        left, right = self.estimate(node.left), self.estimate(node.right)
        return Estimate(
            left.rows,
            left.upper,
            left.cost + right.cost + left.rows + right.rows,
            left.distinct,
        )

    def _project(self, node: ProjectOp) -> Estimate:
        child = self.estimate(node.child)
        # Output rows are determined by the values at the *distinct*
        # source positions, so the product of their distinct counts
        # bounds the output (certified when each factor is).
        combos = 1.0
        for position in sorted(set(node.positions)):
            combos *= max(child.distinct[position - 1], 1.0)
        upper = child.upper
        if self.catalog is not None:
            upper = min(upper, combos)
        distinct = _cap_distinct(
            tuple(child.distinct[p - 1] for p in node.positions), upper
        )
        return Estimate(
            min(child.rows, combos),
            upper,
            child.cost + child.rows,
            distinct,
        )

    def _filter(self, node: FilterOp) -> Estimate:
        child = self.estimate(node.child)
        selectivity, upper = 1.0, child.upper
        for op, i, j in node.predicates:
            if i == j:
                if op == "<":  # σ_{i<i} is unsatisfiable
                    selectivity, upper = 0.0, 0.0
                continue  # σ_{i=i} keeps everything
            if op == "=":
                d = max(child.distinct[i - 1], child.distinct[j - 1], 1.0)
                selectivity /= d
            else:
                selectivity *= INEQUALITY_SELECTIVITY
        distinct = _cap_distinct(child.distinct, upper)
        return Estimate(
            child.rows * selectivity,
            upper,
            child.cost + child.rows,
            distinct,
        )

    def _tag(self, node: TagOp) -> Estimate:
        child = self.estimate(node.child)
        return Estimate(
            child.rows,
            child.upper,
            child.cost + child.rows,
            child.distinct + (1.0,),
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def _join_selectivity(self, cond, left: Estimate, right: Estimate) -> float:
        selectivity = 1.0
        for atom in cond:
            if atom.op == "=":
                d = max(
                    left.distinct[atom.i - 1],
                    right.distinct[atom.j - 1],
                    1.0,
                )
                selectivity /= d
            elif atom.op in ("<", ">"):
                selectivity *= INEQUALITY_SELECTIVITY
            # "!=" filters almost nothing: selectivity 1 is the bound.
        return selectivity

    def _join(self, node: HashJoinOp | NestedLoopJoinOp) -> Estimate:
        left, right = self.estimate(node.left), self.estimate(node.right)
        catalog = self.catalog
        upper = _mul(left.upper, right.upper)
        left_stats = (
            catalog.relation(node.left.expr.name)
            if catalog is not None and isinstance(node.left, ScanOp)
            else None
        )
        right_stats = (
            catalog.relation(node.right.expr.name)
            if catalog is not None and isinstance(node.right, ScanOp)
            else None
        )
        if catalog is not None:
            # MCV refinement: joining into a base relation emits at most
            # max_freq matches per probe (per equality atom; exact
            # sketch counts make this a theorem, not a guess) — and for
            # scan⋈scan the per-value sketches give the tighter
            # Σ f_L(v)·f_R(v) style bound.
            for atom in node.cond.by_op("="):
                if right_stats is not None and atom.j <= right_stats.arity:
                    upper = min(
                        upper, left.upper * right_stats.max_freq(atom.j)
                    )
                if left_stats is not None and atom.i <= left_stats.arity:
                    upper = min(
                        upper, right.upper * left_stats.max_freq(atom.i)
                    )
                if (
                    left_stats is not None
                    and right_stats is not None
                    and atom.i <= left_stats.arity
                    and atom.j <= right_stats.arity
                ):
                    upper = min(
                        upper,
                        _sketch_join_bound(left_stats, atom.i, right_stats, atom.j),
                        _sketch_join_bound(right_stats, atom.j, left_stats, atom.i),
                    )
            agm = self._agm_bound(node)
            if agm is not None:
                upper = min(upper, agm)
        atoms = node.cond.atoms
        first = next(
            (k for k, atom in enumerate(atoms) if atom.op == "="), None
        )
        if (
            left_stats is not None
            and right_stats is not None
            and first is not None
            and atoms[first].i <= left_stats.arity
            and atoms[first].j <= right_stats.arity
        ):
            # Scan ⋈ scan: the first equality atom is read off both
            # sketches; the other atoms keep their selectivities.
            rows = _sketch_join_estimate(
                left_stats, atoms[first].i, right_stats, atoms[first].j
            ) * self._join_selectivity(
                atoms[:first] + atoms[first + 1 :], left, right
            )
        else:
            rows = left.rows * right.rows * self._join_selectivity(
                node.cond, left, right
            )
        distinct = _cap_distinct(left.distinct + right.distinct, upper)
        out = min(rows, upper)
        if isinstance(node, HashJoinOp):
            cost = left.cost + right.cost + right.rows + left.rows + out
        else:
            cost = left.cost + right.cost + left.rows * right.rows + out
        return Estimate(rows, upper, cost, distinct)

    def _semijoin(
        self, node: HashSemijoinOp | NestedLoopSemijoinOp
    ) -> Estimate:
        left, right = self.estimate(node.left), self.estimate(node.right)
        selectivity = 1.0
        for atom in node.cond:
            if atom.op == "=":
                matched = min(
                    left.distinct[atom.i - 1], right.distinct[atom.j - 1]
                )
                selectivity *= min(
                    1.0, matched / max(left.distinct[atom.i - 1], 1.0)
                )
            elif atom.op in ("<", ">"):
                selectivity *= 1.0 - INEQUALITY_SELECTIVITY
        if right.rows == 0:
            selectivity = 0.0
        if isinstance(node, HashSemijoinOp):
            cost = left.cost + right.cost + right.rows + left.rows
        else:
            cost = left.cost + right.cost + left.rows * right.rows
        distinct = _cap_distinct(left.distinct, left.upper)
        return Estimate(
            left.rows * selectivity,
            left.upper,
            cost,
            distinct,
        )

    # ------------------------------------------------------------------
    # Division / grouping
    # ------------------------------------------------------------------

    def _division(self, node: DivisionOp) -> Estimate:
        dividend = self.estimate(node.dividend)
        divisor = self.estimate(node.divisor)
        keys = max(dividend.distinct[0], 0.0)
        # At most one output row per key; the key count certifies
        # nothing without statistics.
        bound = min(keys, dividend.upper)
        upper = bound if self.catalog is not None else dividend.upper
        if divisor.rows <= 0:
            rows = keys if node.empty_divisor == "all" else 0.0
        else:
            # Coverage heuristic: a key relates to rows/keys values on
            # average; it passes when that fan-out reaches the divisor.
            fanout = dividend.rows / keys if keys else 0.0
            rows = keys * min(1.0, fanout / divisor.rows)
        # Hash division is one pass over each input.
        cost = dividend.cost + divisor.cost + dividend.rows + divisor.rows
        return Estimate(rows, upper, cost, (bound,))

    def _batched(self, node: PartitionedOp) -> Estimate:
        """Batched execution: same output, plus the scatter pass.

        Batching does not change what is computed — rows, the sound
        upper bound, and distinct counts are the inner operator's.  The
        extra cost is one grouping pass over each input (the scatter)
        plus per-batch bookkeeping.  A wrapped plan therefore always
        prices ≥ the unwrapped one: the planner partitions to honour
        the rows-in-flight *budget*, not because it is cheaper — the
        cost-based part of the decision is *which* operators must pay
        the scatter at all (only those whose in-flight bound exceeds
        the budget; see :func:`repro.engine.partition.in_flight_upper`).

        A node with ``workers > 1`` is repriced for the pool instead, at
        the certified parallel cost of :func:`parallel_cost_split`, when
        the bounds allow one; a hand-built node priced without
        statistics pays the scatter surcharge — the planner itself
        never gives workers to an uncertified node.
        """
        inner = self.estimate(node.inner)
        split = None
        if node.workers > 1:
            split = parallel_cost_split(self, node)
        if split is None:
            scatter = sum(
                self.estimate(child).rows
                for child in node.inner.children()
            )
            cost = inner.cost + scatter + node.partitions
        else:
            cost = split[1]
        return Estimate(inner.rows, inner.upper, cost, inner.distinct)

    def _group_by(self, node: GroupByOp) -> Estimate:
        child = self.estimate(node.child)
        positions = node.expr.group_positions
        certified = self.catalog is not None
        if not positions:
            # A single group — and γ_count emits its one row even on
            # empty input (the SQL convention), so 1 is the bound.
            upper = bound = 1.0 if certified else _INF
            rows = 1.0
        else:
            groups = 1.0
            for position in sorted(set(positions)):
                groups *= max(child.distinct[position - 1], 1.0)
            # The group count certifies nothing without statistics.
            bound = min(child.upper, groups)
            upper = bound if certified else child.upper
            rows = min(child.rows, groups)
        distinct = tuple(child.distinct[p - 1] for p in positions) + (
            bound,
        ) * len(node.expr.aggregates)
        return Estimate(
            rows,
            upper,
            child.cost + child.rows,
            _cap_distinct(distinct, bound),
        )

    # ------------------------------------------------------------------
    # AGM bound for equi-join chains over base relations
    # ------------------------------------------------------------------

    def _agm_bound(self, node: PlanNode) -> float | None:
        """AGM-style bound for a join subtree, or None when inapplicable.

        Flattens the subtree of ``HashJoinOp``/``NestedLoopJoinOp``
        nodes into base-relation leaves (``ScanOp`` only — the leaf
        cardinalities must be exact) plus the equality atoms between
        them, builds the join hypergraph (variables = equivalence
        classes of equated columns, hyperedges = leaves), and returns
        ``Π |R_e|^{x_e}`` for the optimal fractional edge cover ``x``
        from :func:`fractional_edge_cover` — solved exactly for
        arbitrary (including cyclic) hypergraphs, where the historical
        implementation enumerated half-integral covers and silently
        kept the product bound on anything the enumeration missed.
        Non-equality atoms only filter the output, so ignoring them
        keeps the bound sound.
        """
        if self.catalog is None:
            return None
        flat = _flatten_join(node)
        if flat is None:
            return None
        leaves, atoms = flat
        if len(leaves) < 2 or len(leaves) > AGM_MAX_EDGES:
            return None
        from repro.engine.wcoj import variable_layout

        attrs = variable_layout(
            [leaf.arity for leaf in leaves],
            [atom for atom in atoms if atom[1] == "="],
        )
        edges = [frozenset(row) for row in attrs]
        if not all(edges):  # an arity-0 leaf: no hyperedge to weight
            return None
        bound, __ = fractional_edge_cover(edges, self.cardinalities(leaves))
        return bound

    # ------------------------------------------------------------------
    # Multiway (worst-case-optimal) join
    # ------------------------------------------------------------------

    def _multiway(self, node: MultiwayJoinOp) -> Estimate:
        """Estimate for a generic-join operator (:mod:`repro.engine.wcoj`).

        The sound upper bound is the AGM bound *recomputed from the
        current statistics* (never the planner-stamped ``node.agm``,
        which may describe an older version token), intersected with
        the input-upper product.  The point estimate mirrors the
        binary chain's textbook rule: the input product discounted by
        one equality selectivity ``1/max(d)`` per extra occurrence of
        each join variable.  Cost is input production plus one trie
        build per input plus the emitted rows — the generic join does
        no other materialization.

        A projected node's AGM bound is that of its free variables
        (:func:`multiway_bound`), and like a projection its output is
        also bounded by the product, over free variables, of the
        fewest distinct values any column holding one has.
        """
        children = [self.estimate(child) for child in node.relations]
        certified = self.catalog is not None
        upper = 1.0
        for child in children:
            upper = _mul(upper, child.upper)
        if certified:
            agm = self._multiway_agm(node)
            if agm is not None:
                upper = min(upper, agm)
        flat_distinct = [d for child in children for d in child.distinct]
        occurrences: dict[int, list[int]] = {}
        position = 0
        for attrs_k in node.attrs:
            for variable in attrs_k:
                occurrences.setdefault(variable, []).append(position)
                position += 1
        rows = 1.0
        for child in children:
            rows *= child.rows
        for positions in occurrences.values():
            if len(positions) > 1:
                d = max(max(flat_distinct[p] for p in positions), 1.0)
                rows /= d ** (len(positions) - 1)
        distinct = tuple(flat_distinct)
        if node.positions is not None:
            flat = [v for attrs_k in node.attrs for v in attrs_k]
            combos = 1.0
            for variable in node.order[: node.free]:
                combos *= max(
                    min(flat_distinct[p] for p in occurrences[variable]),
                    1.0,
                )
            rows = min(rows, combos)
            if certified:
                upper = min(upper, combos)
            distinct = tuple(
                min(flat_distinct[p] for p in occurrences[flat[q - 1]])
                for q in node.positions
            )
        inputs = sum(child.rows for child in children)
        out = min(rows, upper)
        cost = sum(child.cost for child in children) + inputs + out
        distinct = _cap_distinct(distinct, upper)
        return Estimate(rows, upper, cost, distinct)

    def _multiway_agm(self, node: MultiwayJoinOp) -> float | None:
        """The node's AGM bound against *current* statistics, or None.

        Needs exact input cardinalities, so only all-``ScanOp`` inputs
        qualify (exactly the shape the planner collapses).
        """
        if self.catalog is None:
            return None
        if not all(
            isinstance(child, ScanOp) for child in node.relations
        ):
            return None
        if not all(node.attrs):
            return None
        free = None
        if node.positions is not None:
            free = node.order[: node.free]
        bound, __ = multiway_bound(
            node.attrs, self.cardinalities(node.relations), free
        )
        return bound


def _sketch_join_bound(probe, i: int, build, j: int) -> float:
    """Sound bound on ``Σ_v f_probe(v)·f_build(v)`` from MCV sketches.

    Each probe-side row with value ``v`` matches exactly ``f_build(v)``
    build-side rows on one equality atom.  For probe values the sketch
    retained, ``f_build`` is read exactly (or, if the build sketch
    dropped the value, bounded by the build sketch's smallest retained
    count — every unretained value is at most that frequent — or by 0
    when the sketch is complete).  The probe rows the sketch did not
    retain are bounded by ``max_freq`` matches each, so the result
    never exceeds — and with complete sketches equals — the plain
    ``rows·max_freq`` bound.
    """
    probe_col, build_col = probe.columns[i - 1], build.columns[j - 1]
    if build_col.distinct <= len(build_col.mcv):
        tail = 0  # complete sketch: unretained values do not occur
    elif build_col.mcv:
        tail = build_col.mcv[-1][1]
    else:
        tail = 0
    total, covered = 0.0, 0
    for value, count in probe_col.mcv:
        matched = build_col.frequency(value)
        total += count * (matched if matched is not None else tail)
        covered += count
    return total + (probe.rows - covered) * build_col.max_freq


def _sketch_join_estimate(left, i: int, right, j: int) -> float:
    """Point estimate of ``|L ⋈_{i=j} R|`` from the MCV sketches.

    A value both sketches retained joins exactly, ``f_L(v)·f_R(v)``;
    the rows outside the sketches join uniformly over the values
    outside them, ``(|L| − Σ mcv_L)·(|R| − Σ mcv_R) / max(d_L − k_L,
    d_R − k_R, 1)`` for ``k`` retained entries.  With both sketches
    complete the second term is 0 and the estimate is the join size.
    """
    left_col, right_col = left.columns[i - 1], right.columns[j - 1]
    right_counts = dict(right_col.mcv)
    shared = sum(
        count * right_counts.get(value, 0) for value, count in left_col.mcv
    )
    rest = (left.rows - sum(count for __, count in left_col.mcv)) * (
        right.rows - sum(count for __, count in right_col.mcv)
    )
    return shared + rest / max(
        left_col.distinct - len(left_col.mcv),
        right_col.distinct - len(right_col.mcv),
        1,
    )


class NotFlattenable(Exception):
    """A leaf failed ``leaf_ok`` during :func:`flatten_join_tree`."""


def flatten_join_tree(root, join_types: tuple, leaf_ok=None):
    """Flatten a binary-join tree into leaves, spans and global atoms.

    The one flattener behind both the planner's join reordering (over
    logical ``Join`` nodes) and the AGM bound (over physical join
    operators) — the subtle 1-based-to-global atom arithmetic lives
    only here.  Works on any nodes with ``left``/``right``/``cond``
    and an ``arity``; anything not in ``join_types`` is a leaf, vetted
    by ``leaf_ok`` (raising :class:`NotFlattenable` on refusal).

    Returns ``(leaves, spans, atoms)``: ``spans[k]`` is the ``(start,
    arity)`` global column range of leaf ``k`` (columns concatenated
    in written order) and each atom is ``(left_global, op,
    right_global)`` with 0-based global indexes.  Every atom relates
    columns of two distinct leaves, because a join condition spans its
    two operand subtrees.
    """
    leaves: list = []
    spans: list[tuple[int, int]] = []
    atoms: list[tuple[int, str, int]] = []

    def walk(node, offset: int) -> int:
        if isinstance(node, join_types):
            middle = walk(node.left, offset)
            end = walk(node.right, middle)
            for atom in node.cond:
                atoms.append(
                    (offset + atom.i - 1, atom.op, middle + atom.j - 1)
                )
            return end
        if leaf_ok is not None and not leaf_ok(node):
            raise NotFlattenable
        leaves.append(node)
        spans.append((offset, node.arity))
        return offset + node.arity

    walk(root, 0)
    return leaves, spans, atoms


def _flatten_join(
    node: PlanNode,
) -> tuple[list[ScanOp], list[tuple[int, str, int]]] | None:
    """Flatten a physical join subtree into scan leaves + atoms.

    Returns None unless every leaf under the join operators is a
    ``ScanOp`` (derived inputs have no exact cardinality, so no AGM).
    """
    if not isinstance(node, (HashJoinOp, NestedLoopJoinOp)):
        return None
    try:
        leaves, __, atoms = flatten_join_tree(
            node,
            (HashJoinOp, NestedLoopJoinOp),
            leaf_ok=lambda leaf: isinstance(leaf, ScanOp),
        )
    except NotFlattenable:
        return None
    return leaves, atoms


def fractional_edge_cover(
    edges, cards
) -> tuple[float, tuple[float, ...]]:
    """Optimal fractional edge cover of a join hypergraph (AGM bound).

    ``edges[k]`` is the set of join variables relation ``k`` covers
    and ``cards[k]`` its exact cardinality.  Returns ``(bound,
    weights)`` where ``weights`` is a **feasible** fractional edge
    cover ``x`` (every variable covered by total weight ≥ 1, ``x ≥
    0``) minimizing the AGM bound ``Π cards[k]^{x_k}`` — solved as a
    linear program in the exponents (minimize ``Σ x_k·log cards[k]``)
    for **arbitrary** hypergraphs: cyclic shapes get their true
    optimum (the triangle's all-½ cover and its ``n^{3/2}`` bound,
    the 4-cycle's ``n²``) instead of the silent product-bound
    fallback the pre-LP implementation applied to anything its
    half-integral enumeration missed.  Malformed hypergraphs raise
    :class:`~repro.errors.SchemaError`.

    Soundness never rests on LP optimality: the returned cover is
    explicitly checked (and numerically repaired) for feasibility,
    and the all-ones cover — the plain cardinality product — is the
    comparison floor, so ``Π cards^x`` is a sound output bound even
    if the pivoting were wrong.  Tightness *is* property-tested
    against exhaustive half-integral enumeration in
    ``tests/test_engine_cost.py``.
    """
    edge_sets = [frozenset(edge) for edge in edges]
    sizes = [float(card) for card in cards]
    if not edge_sets:
        raise SchemaError(
            "fractional edge cover: the hypergraph has no edges"
        )
    if len(edge_sets) != len(sizes):
        raise SchemaError(
            "fractional edge cover: need one cardinality per edge; "
            f"got {len(sizes)} for {len(edge_sets)} edges"
        )
    for edge in edge_sets:
        if not edge:
            raise SchemaError(
                "fractional edge cover: empty hyperedge (an arity-0 "
                "relation covers no variable)"
            )
    for size in sizes:
        if math.isnan(size) or size < 0.0 or math.isinf(size):
            raise SchemaError(
                "fractional edge cover: cardinalities must be finite "
                f"and >= 0, got {size}"
            )
    count = len(edge_sets)
    if any(size == 0.0 for size in sizes):
        # An empty relation empties the join: any feasible cover
        # putting weight on it prices the bound at 0.
        return 0.0, (1.0,) * count
    variables = sorted(set().union(*edge_sets))
    weights = [math.log(max(size, 1.0)) for size in sizes]
    candidates: list[tuple[float, ...]] = [(1.0,) * count]
    solved = _edge_cover_lp(edge_sets, variables, weights)
    if solved is not None:
        candidates.append(solved)
    best_bound, best_cover = _INF, candidates[0]
    for cover in candidates:
        cover = tuple(max(weight, 0.0) for weight in cover)
        coverage = min(
            sum(w for w, e in zip(cover, edge_sets) if v in e)
            for v in variables
        )
        if coverage <= 0.0:
            continue  # degenerate LP output: not repairable, skip
        if coverage < 1.0:  # numerical shortfall: scale up (stays sound)
            cover = tuple(w / coverage for w in cover)
        bound = math.prod(
            size**w for size, w in zip(sizes, cover) if w > 0.0
        )
        if bound < best_bound:
            best_bound, best_cover = bound, cover
    return best_bound, best_cover


def multiway_bound(
    attrs, cards, free=None
) -> tuple[float, tuple[float, ...]]:
    """AGM bound of a multiway join — or of its projection on ``free``.

    ``attrs[k]`` lists the variables of input ``k`` and ``cards[k]``
    is its exact cardinality.  Projected, each hyperedge keeps only its
    free variables and edges left empty are dropped: ``π_free`` of the
    join lies inside the join of the inputs' projections, each no
    larger than its input, so the free variables' fractional edge cover
    bounds it soundly — ``π_{a,b}`` of the triangle by ``|E|``, the
    guarded side of Thm. 17.  No free variable leaves at most the one
    empty row.  Returns ``(bound, cover)`` over the edges kept.
    """
    edges = [frozenset(row) for row in attrs]
    if free is not None:
        free = frozenset(free)
        kept = [
            (edge & free, card)
            for edge, card in zip(edges, cards)
            if edge & free
        ]
        if not kept:
            return 1.0, ()
        edges = [edge for edge, __ in kept]
        cards = [card for __, card in kept]
    return fractional_edge_cover(edges, cards)


def _edge_cover_lp(edge_sets, variables, weights):
    """Solve ``min w·x`` s.t. ``Ax ≥ 1, x ≥ 0`` (A = var×edge incidence).

    Plain dense simplex on the **dual** — maximize ``Σ y_v`` subject
    to ``Σ_{v∈e} y_v ≤ w_e``, ``y ≥ 0`` — which starts feasible at
    ``y = 0`` (``w ≥ 0``), so no two-phase setup is needed; Bland's
    rule (lowest-index entering column, lowest-index leaving basis
    variable on ratio ties) guarantees termination.  At the optimum
    the primal cover is read off the objective row under the slack
    columns (strong duality).  Returns None if the pivot loop hits
    its iteration cap — callers then keep the all-ones cover, which
    costs tightness, not soundness.
    """
    n, m = len(variables), len(edge_sets)
    index = {variable: i for i, variable in enumerate(variables)}
    rows: list[list[float]] = []
    for e, (edge, weight) in enumerate(zip(edge_sets, weights)):
        row = [0.0] * (n + m + 1)
        for variable in edge:
            row[index[variable]] = 1.0
        row[n + e] = 1.0
        row[-1] = weight
        rows.append(row)
    objective = [-1.0] * n + [0.0] * (m + 1)
    basis = list(range(n, n + m))
    eps = 1e-9
    for __ in range(100 * (n + m + 1)):
        entering = next(
            (j for j in range(n + m) if objective[j] < -eps), None
        )
        if entering is None:
            return tuple(objective[n + e] for e in range(m))
        leaving, best = None, None
        for i, row in enumerate(rows):
            coefficient = row[entering]
            if coefficient > eps:
                ratio = row[-1] / coefficient
                if (
                    best is None
                    or ratio < best - eps
                    or (ratio <= best + eps and basis[i] < basis[leaving])
                ):
                    best, leaving = ratio, i
        if leaving is None:  # unbounded dual: an uncoverable variable
            return None
        pivot = rows[leaving][entering]
        rows[leaving] = [value / pivot for value in rows[leaving]]
        pivot_row = rows[leaving]
        for i, row in enumerate(rows):
            if i != leaving and row[entering] != 0.0:
                factor = row[entering]
                rows[i] = [
                    value - factor * p
                    for value, p in zip(row, pivot_row)
                ]
        factor = objective[entering]
        if factor != 0.0:
            objective = [
                value - factor * p
                for value, p in zip(objective, pivot_row)
            ]
        basis[leaving] = entering
    return None


# ----------------------------------------------------------------------
# Parallel pricing
# ----------------------------------------------------------------------


def parallel_work_bound(model: CostModel, node: PlanNode) -> float:
    """Sound upper bound on ``node``'s own *splittable* work.

    The operator's estimated cost minus its children's — the share that
    key-disjoint batches actually divide among workers (reading the
    inputs is not divided; every row is scattered exactly once).

    The cost formulas for the hash operators are per-row linear, which
    understates the work of checking non-equality ``rest`` atoms: those
    run once per key-matched *pair*.  For a sound pair bound the
    operator is repriced as the eq-only hash join it would degenerate
    to — that join's certified output bound (MCV sketch / AGM) *is* the
    candidate-pair count, and the real work can only be smaller because
    the scan stops at the first witness (and overstates a semijoin
    whose rest :func:`~repro.engine.kernels.witness` summarises, which
    is linear — kept so plans stay unchanged).  Infinite whenever the
    model certifies nothing (zero-stats planning never parallelizes).
    """
    if model.catalog is None:
        return _INF
    estimate = model.estimate(node)
    own = estimate.cost - sum(
        model.estimate(child).cost for child in node.children()
    )
    own = max(own, 0.0)
    if isinstance(node, (HashJoinOp, HashSemijoinOp)) and any(
        atom.op != "=" for atom in node.cond
    ):
        from repro.algebra.conditions import Condition

        probe = HashJoinOp(
            node.left,
            node.right,
            Condition(node.cond.by_op("=")),
            node.expr,
        )
        own = max(own, model.estimate(probe).upper)
    return own


def parallel_cost_split(
    model: CostModel, node: PartitionedOp
) -> tuple[float, float] | None:
    """Certified ``(serial, parallel)`` costs for ``node``'s batches run
    on ``node.workers`` workers, or ``None``.

    ``serial`` is what running the inner operator in one process costs;
    ``parallel`` adds the scatter pass, prices every potentially
    shipped row (bounded by the sound upper bounds), divides only the
    operator's own work (:func:`parallel_work_bound`) by the worker
    count, and charges the fixed per-batch and startup overheads.

    The transport price is per-backend (``model.attached``): rows going
    *out* to workers cost :data:`PARALLEL_IPC_ROW_COST` each on the
    memory backend (pickled fragments) but only
    :data:`PARALLEL_ATTACHED_ROW_COST` on attached backends, where the
    scatter writes one shared columnar shipment and workers attach by
    name (:mod:`repro.storage.ship`).  Result rows come *back* through
    the pool's pickled return path on every backend, so they stay at
    the IPC price.

    ``None`` when the model has no statistics or any bound involved is
    infinite — nothing can then certify that scatter + transport is
    paid back, so the planner keeps the serial plan (mirroring the
    partition gate's refusal to partition uncertified plans).
    """
    work = parallel_work_bound(model, node.inner)
    if not math.isfinite(work):
        return None
    inner = model.estimate(node.inner)
    if not math.isfinite(inner.upper):
        return None
    children = [
        model.estimate(child) for child in node.inner.children()
    ]
    if any(not math.isfinite(c.upper) for c in children):
        return None
    outbound_price = (
        PARALLEL_ATTACHED_ROW_COST
        if model.attached
        else PARALLEL_IPC_ROW_COST
    )
    base = sum(c.cost for c in children)
    serial = base + work
    outbound = sum(c.upper for c in children)
    parallel = (
        base
        + sum(c.rows for c in children)  # the scatter/grouping pass
        + work / max(node.workers, 1)
        + outbound_price * outbound
        + PARALLEL_IPC_ROW_COST * inner.upper  # results return pickled
        + PARALLEL_BATCH_COST * node.partitions
        + PARALLEL_STARTUP_COST
    )
    return serial, parallel
