"""Physical query plans: the operator nodes the executor runs.

The logical algebra (:mod:`repro.algebra.ast`) says *what* to compute;
a physical plan says *how*.  One logical node can map to several
physical operators — a ``Join`` becomes a :class:`HashJoinOp` when its
condition has equality atoms and a :class:`NestedLoopJoinOp` otherwise,
and a whole logical sub-tree matching a division pattern collapses into
a single linear :class:`DivisionOp` (Graefe's "four algorithms"
framing, :mod:`repro.setjoins.division`).

Every node carries

* ``logical`` — the logical expression the node computes, so plans stay
  auditable: ``explain()`` renders each operator next to the parseable
  ASCII form of its logical expression (``repro.algebra.parser`` reads
  it back; property-tested in ``tests/test_engine_explain.py``);
* ``note`` — the planner's routing rationale (dichotomy verdicts, cost
  reasoning), free-form text that never affects execution.

Nodes are frozen dataclasses, so structurally equal sub-plans hash
equally and the executor memoizes them exactly like the logical
evaluator memoizes sub-expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.algebra.ast import Expr, cache_hashes
from repro.algebra.conditions import Condition
from repro.data.universe import Value
from repro.errors import ArityError, SchemaError

#: Empty-divisor policies: the classic RA plan returns all candidates
#: (``R ÷ ∅ = π_A(R)``) while the §5 γ plans return ∅ (the documented
#: SQL-folklore caveat).  The planner records which semantics the
#: *source expression* has, so the rewrite stays an exact equivalence.
EMPTY_DIVISOR_POLICIES = ("all", "none")


@dataclass(frozen=True)
class PlanNode:
    """Base class of all physical operators."""

    def __post_init__(self) -> None:  # pragma: no cover - abstract
        raise SchemaError("PlanNode is abstract; use a concrete operator")

    @property
    def logical(self) -> Expr:
        """The logical expression this operator computes."""
        return self.expr

    @property
    def arity(self) -> int:
        return self.logical.arity

    def children(self) -> tuple["PlanNode", ...]:
        raise NotImplementedError

    def label(self) -> str:
        """The operator name with its arguments, e.g. ``HashJoin[2=1]``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Traversal / rendering
    # ------------------------------------------------------------------

    def nodes(self):
        """All distinct plan nodes in post-order (self last).

        Distinct by identity: the planner memoizes per distinct
        logical sub-expression, so shared logical subtrees come back
        as the *same* node object and are yielded once — the walk is
        linear in the plan DAG, not in its unfolded tree (exponential
        for the doubling shapes of ``small_divisor_expr``), mirroring
        the executor's and the cost model's per-distinct-node memos.
        """
        return self._nodes(set())

    def _nodes(self, seen: set[int]):
        if id(self) in seen:
            return
        seen.add(id(self))
        for child in self.children():
            yield from child._nodes(seen)
        yield self

    def explain(self, indent: str = "", annotate=None) -> str:
        """EXPLAIN-style rendering: one line per operator.

        Format per line::

            <indent><Label> /<arity>< {annotation}><  -- note>  :: <ascii logical>

        The text after ``' :: '`` is the parseable ASCII syntax of the
        node's logical expression (when the logical algebra can print
        it; extended γ nodes render but do not parse).  Pass
        ``annotate``, a callable mapping a node to extra text (e.g. the
        cost model's per-operator estimates), to enrich each line; the
        text is inserted before the note and must not contain
        ``' :: '`` so the logical tail stays machine-splittable.
        """
        from repro.algebra.printer import to_ascii

        note = getattr(self, "note", "")
        extra = f" {{{annotate(self)}}}" if annotate is not None else ""
        suffix = f"  -- {note}" if note else ""
        line = (
            f"{indent}{self.label()} /{self.arity}{extra}{suffix}"
            f"  :: {to_ascii(self.logical)}"
        )
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + "  ", annotate))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.explain()


@dataclass(frozen=True)
class ScanOp(PlanNode):
    """A full scan of a stored relation."""

    expr: Expr  # a Rel node
    note: str = ""

    def __post_init__(self) -> None:
        from repro.algebra.ast import Rel

        if not isinstance(self.expr, Rel):
            raise SchemaError("ScanOp needs a Rel logical node")

    def children(self) -> tuple[PlanNode, ...]:
        return ()

    def label(self) -> str:
        return f"Scan {self.expr.name}"


@dataclass(frozen=True)
class UnionOp(PlanNode):
    left: PlanNode
    right: PlanNode
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        if self.left.arity != self.right.arity:
            raise ArityError("union operands must have equal arity")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Union"


@dataclass(frozen=True)
class DifferenceOp(PlanNode):
    left: PlanNode
    right: PlanNode
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        if self.left.arity != self.right.arity:
            raise ArityError("difference operands must have equal arity")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Difference"


@dataclass(frozen=True)
class ProjectOp(PlanNode):
    child: PlanNode
    positions: tuple[int, ...]
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(self.positions))
        for position in self.positions:
            if position < 1 or position > self.child.arity:
                raise SchemaError(
                    f"projection position {position} out of range "
                    f"1..{self.child.arity}"
                )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Project[{','.join(str(p) for p in self.positions)}]"


@dataclass(frozen=True)
class FilterOp(PlanNode):
    """One or more fused selection predicates ``(op, i, j)``."""

    child: PlanNode
    predicates: tuple[tuple[str, int, int], ...]
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.predicates:
            raise SchemaError("FilterOp needs at least one predicate")
        for op, i, j in self.predicates:
            if op not in ("=", "<"):
                raise SchemaError(f"unknown filter comparison {op!r}")
            for position in (i, j):
                if position < 1 or position > self.child.arity:
                    raise SchemaError(
                        f"filter position {position} out of range "
                        f"1..{self.child.arity}"
                    )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        rendered = ",".join(f"{i}{op}{j}" for op, i, j in self.predicates)
        return f"Filter[{rendered}]"


@dataclass(frozen=True)
class TagOp(PlanNode):
    child: PlanNode
    value: Value
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        pass  # the base raises; any constructed TagOp is well-formed

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Tag[{self.value!r}]"


@dataclass(frozen=True)
class HashJoinOp(PlanNode):
    """θ-join probing a hash index on the right operand's equality keys."""

    left: PlanNode
    right: PlanNode
    cond: Condition
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        if not self.cond.by_op("="):
            raise SchemaError(
                "HashJoinOp needs at least one equality atom; use "
                "NestedLoopJoinOp for pure θ/cartesian joins"
            )
        self.cond.validate(self.left.arity, self.right.arity)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"HashJoin[{self.cond}]"


@dataclass(frozen=True)
class NestedLoopJoinOp(PlanNode):
    """θ-join by candidate-pair enumeration (cartesian when θ is TRUE)."""

    left: PlanNode
    right: PlanNode
    cond: Condition
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        self.cond.validate(self.left.arity, self.right.arity)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"NestedLoopJoin[{self.cond}]"


@dataclass(frozen=True)
class HashSemijoinOp(PlanNode):
    """``E1 ⋉_θ E2`` probing a hash index on the right equality keys."""

    left: PlanNode
    right: PlanNode
    cond: Condition
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        if not self.cond.by_op("="):
            raise SchemaError(
                "HashSemijoinOp needs at least one equality atom"
            )
        self.cond.validate(self.left.arity, self.right.arity)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"HashSemijoin[{self.cond}]"


@dataclass(frozen=True)
class NestedLoopSemijoinOp(PlanNode):
    left: PlanNode
    right: PlanNode
    cond: Condition
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        self.cond.validate(self.left.arity, self.right.arity)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"NestedLoopSemijoin[{self.cond}]"


@dataclass(frozen=True)
class DivisionOp(PlanNode):
    """Direct relational division ``dividend(A,B) ÷ divisor(B)``.

    Replaces a whole logical sub-tree (the classic quadratic RA plan or
    a §5 γ plan) with one linear operator: a ∀ test that keeps a
    candidate when its set in the dividend's cached set grouping
    holds every divisor value (``Executor._division``); a
    partitioned batch runs the same test over its fragment's
    grouping (``partition.division_batch_kernel``).  ``eq`` selects
    equality-division, and ``empty_divisor`` records the source
    expression's empty-divisor semantics so the rewrite is exact.
    """

    dividend: PlanNode
    divisor: PlanNode
    eq: bool
    empty_divisor: str
    expr: Expr
    note: str = ""

    def __post_init__(self) -> None:
        if self.empty_divisor not in EMPTY_DIVISOR_POLICIES:
            raise SchemaError(
                f"unknown empty-divisor policy {self.empty_divisor!r}"
            )
        if self.dividend.arity != 2 or self.divisor.arity != 1:
            raise ArityError("DivisionOp needs dividend/2 and divisor/1")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.dividend, self.divisor)

    def label(self) -> str:
        kind = "eq" if self.eq else "contains"
        return f"Division[hash,{kind},empty={self.empty_divisor}]"


@dataclass(frozen=True)
class MultiwayJoinOp(PlanNode):
    """Worst-case-optimal k-way equi-join (generic join, see
    :mod:`repro.engine.wcoj`).

    Joins all ``relations`` at once, variable by variable, instead of
    two at a time: ``attrs[k][c]`` is the join-variable id of input
    ``k``'s column ``c`` (variables are the equivalence classes of
    equated columns across the collapsed binary chain) and ``order``
    is the variable elimination order.  ``agm`` records the
    fractional-edge-cover (AGM) output bound the planner certified
    when collapsing — the figure the operator's materialization is
    bounded by, rendered in the label for ``explain``.

    Output columns are the concatenation of the input columns in
    written order, exactly what the collapsed binary join tree would
    emit, so the node is a drop-in replacement for the chain.  With
    ``positions`` set the node has absorbed the projection above it
    (``expr`` is then that ``Projection``): it emits those 1-based
    columns of the concatenation, and ``order`` must list the
    variables they hold — the *free* ones — first, so the generic join
    enumerates only that prefix and decides the existential rest by
    its first witness.  ``agm`` is then the AGM bound of the free
    variables alone.

    Deliberately **not** partitionable: the generic join never
    materializes an intermediate to batch — its working set is inputs
    plus certified output — so this PR runs it one-shot only and
    :func:`~repro.engine.partition.apply_partitioning` annotates
    instead of wrapping (the planner refuses the collapse outright
    when the certified working set would exceed a partition budget).
    """

    relations: tuple[PlanNode, ...]
    attrs: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    agm: float
    expr: Expr
    note: str = ""
    positions: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.relations) < 2:
            raise SchemaError("MultiwayJoinOp needs at least two inputs")
        if len(self.attrs) != len(self.relations):
            raise SchemaError(
                "MultiwayJoinOp needs one attrs row per input; got "
                f"{len(self.attrs)} rows for {len(self.relations)} inputs"
            )
        for child, row in zip(self.relations, self.attrs):
            if len(row) != child.arity:
                raise ArityError(
                    "MultiwayJoinOp attrs row does not match the input "
                    f"arity: {len(row)} variables for arity {child.arity}"
                )
        variables = {v for row in self.attrs for v in row}
        if len(self.order) != len(variables) or set(self.order) != variables:
            raise SchemaError(
                "MultiwayJoinOp order must be a permutation of the "
                f"join variables {sorted(variables)}; got {self.order}"
            )
        if not self.agm >= 0.0:  # also rejects NaN
            raise SchemaError(
                f"MultiwayJoinOp needs an AGM bound >= 0, got {self.agm}"
            )
        width = sum(len(row) for row in self.attrs)
        if self.positions is not None:
            object.__setattr__(self, "positions", tuple(self.positions))
            for position in self.positions:
                if position < 1 or position > width:
                    raise SchemaError(
                        f"projection position {position} out of range "
                        f"1..{width}"
                    )
            free = self._free_variables()
            if set(self.order[: len(free)]) != free:
                raise SchemaError(
                    "MultiwayJoinOp order must list the projected "
                    f"variables first; got {self.order} for positions "
                    f"{self.positions}"
                )
            width = len(self.positions)
        if self.expr.arity != width:
            raise ArityError(
                "MultiwayJoinOp logical arity must equal its output "
                f"arity {width}, got {self.expr.arity}"
            )

    def _free_variables(self) -> set[int]:
        """The variables the output columns (``positions``) hold."""
        flat = [v for row in self.attrs for v in row]
        return {flat[p - 1] for p in self.positions}

    @property
    def free(self) -> int:
        """How many leading variables of ``order`` are enumerated."""
        if self.positions is None:
            return len(self.order)
        return len(self._free_variables())

    def children(self) -> tuple[PlanNode, ...]:
        return self.relations

    def label(self) -> str:
        order = ">".join(str(v) for v in self.order)
        if self.positions is None:
            return f"MultiwayJoin[vars={order},agm={self.agm:g}]"
        free = ">".join(str(v) for v in self.order[: self.free])
        rest = ">".join(str(v) for v in self.order[self.free :])
        if rest:
            free = f"{free}|{rest}"
        project = ",".join(str(p) for p in self.positions)
        return f"MultiwayJoin[vars={free},agm={self.agm:g},project={project}]"


#: Operator types :class:`PartitionedOp` may wrap.  Hash (semi)joins
#: partition both sides on their equality keys; nested-loop semijoins
#: batch the left side against a replicated right; division partitions
#: the dividend by candidate with a replicated divisor.  (Nested-loop
#: *joins* are excluded: a batch's output is not bounded by its input
#: fragment, so no per-batch budget could be certified; multiway joins
#: are excluded because they never materialize an intermediate to
#: batch — see :class:`MultiwayJoinOp`.)
PARTITIONABLE_OPS = ()  # filled below, after the classes exist


@dataclass(frozen=True)
class PartitionedOp(PlanNode):
    """Batched execution of one operator under a rows-in-flight budget.

    Wraps a partitionable operator (:data:`PARTITIONABLE_OPS`) so the
    executor runs it in hash-partitioned batches instead of one shot:
    each batch *works on* only its input fragments, any replicated
    side, and its own output, and that per-batch working set — the
    quantity ``budget`` caps — is what
    :class:`~repro.engine.partition.PartitionRun` records.  (In this
    in-memory engine the inputs and the accumulated result still
    reside in the process for the whole run; the bounded working-set
    accounting is the contract a spill-to-disk or shard-per-worker
    backend would turn into bounded *memory* — see ``docs/engine.md``
    § Batched execution.)  ``partitions`` is the planner's
    *predicted* batch count (from the cost model's sound upper
    bounds); the executor packs batches from exact per-key weights
    at run time, so the actual count can differ — both are recorded
    for estimated-vs-actual comparison.  ``workers`` says where the
    batches run: in-process at 1, else on a pool of that many worker
    processes (:mod:`repro.engine.parallel`) — the same batches.
    """

    inner: PlanNode
    partitions: int
    budget: int
    note: str = ""
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.inner, PARTITIONABLE_OPS):
            raise SchemaError(
                f"PartitionedOp cannot wrap {type(self.inner).__name__}; "
                "partitionable operators are "
                f"{tuple(t.__name__ for t in PARTITIONABLE_OPS)}"
            )
        if self.partitions < 1:
            raise SchemaError("PartitionedOp needs partitions >= 1")
        if self.budget < 1:
            raise SchemaError("PartitionedOp needs a budget >= 1 row")
        if self.workers < 1:
            raise SchemaError("PartitionedOp needs workers >= 1")

    @property
    def logical(self) -> Expr:
        return self.inner.logical

    def children(self) -> tuple[PlanNode, ...]:
        return (self.inner,)

    def label(self) -> str:
        label = f"Partitioned[k={self.partitions},budget={self.budget}"
        if self.workers > 1:
            label += f",workers={self.workers}"
        return label + "]"


@dataclass(frozen=True)
class GroupByOp(PlanNode):
    """γ with grouping positions and aggregates (extended algebra)."""

    child: PlanNode
    expr: Expr  # a repro.extended.ast.GroupBy node
    note: str = ""

    def __post_init__(self) -> None:
        from repro.extended.ast import GroupBy

        if not isinstance(self.expr, GroupBy):
            raise SchemaError("GroupByOp needs a GroupBy logical node")

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        positions = ",".join(str(p) for p in self.expr.group_positions)
        aggregates = ",".join(str(a) for a in self.expr.aggregates)
        return f"GroupBy[{positions};{aggregates}]"


PARTITIONABLE_OPS = (
    HashJoinOp,
    HashSemijoinOp,
    NestedLoopSemijoinOp,
    DivisionOp,
)


def rewrite_plan(plan: PlanNode, step) -> PlanNode:
    """Rewrite the plan DAG through ``step``, once per distinct node.

    ``step(node, descend)`` returns the node's replacement;
    ``descend(n)`` returns ``n`` with every child field rewritten (by
    ``step``, memoized on node identity, so shared sub-plans stay
    shared) — and returns ``n`` itself when no child changed, so
    untouched subtrees keep their identity and executor memoization is
    unaffected.  A step that does not call ``descend`` leaves the
    subtree alone.  The partition and parallel post-passes are both
    one ``step`` over this walker.
    """
    memo: dict[int, PlanNode] = {}

    def rewrite(node: PlanNode) -> PlanNode:
        cached = memo.get(id(node))
        if cached is None:
            cached = memo[id(node)] = step(node, descend)
        return cached

    def descend(node: PlanNode) -> PlanNode:
        changes = {}
        for f in fields(node):
            value = getattr(node, f.name)
            if isinstance(value, PlanNode):
                new = rewrite(value)
                if new is not value:
                    changes[f.name] = new
        return replace(node, **changes) if changes else node

    return rewrite(plan)


cache_hashes(
    ScanOp,
    UnionOp,
    DifferenceOp,
    ProjectOp,
    FilterOp,
    TagOp,
    HashJoinOp,
    NestedLoopJoinOp,
    HashSemijoinOp,
    NestedLoopSemijoinOp,
    DivisionOp,
    MultiwayJoinOp,
    PartitionedOp,
    GroupByOp,
)
