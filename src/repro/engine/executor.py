"""Plan execution: streaming operators over a per-database index cache.

The executor walks a physical plan (:mod:`repro.engine.plan`) bottom-up,
memoizing every distinct sub-plan (mirroring the logical evaluator's
memoization) and keeping an :class:`IndexCache` of hash indexes keyed by
``(logical expression, key positions)``.  Two operators probing the same
input on the same columns — e.g. a hash join and a hash semijoin both
keyed on ``S[1]``, or repeated executions against the same database —
share one index build.

Alongside the indexes the executor owns a
:class:`~repro.engine.stats.StatsCatalog` (lazy per-relation statistics)
and a per-``(expression, options)`` plan memo, so
:meth:`Executor.plan` produces **cost-based** plans from this
database's actual cardinalities.  All three caches — indexes, stats,
plans — are guarded by the database's
:meth:`~repro.data.database.Database.version_token`: if relation
contents change under the same handle (a storage backend swapping data
behind the executor's back), every cache is invalidated before the next
query rather than served stale.

Operators run as :mod:`repro.engine.kernels` pipelines; results are
materialized once per distinct sub-plan, at the memo boundary — hashed
only where a duplicate can arise (:data:`OPERATORS`), and once more for
the final result.  :class:`ExecutionStats` records the cardinality of every
operator's output — the physical analogue of the Definition 16 trace —
plus index build/reuse counts, which the ENGINE experiment and the
engine benchmarks assert against the classic plans' quadratic
intermediates.  Each execution also records the cost model's
**estimate next to the actual** output cardinality per operator
(``ExecutionStats.node_estimates``), which is what the estimator-quality
tests and benchmarks assert against.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, filterfalse, repeat
from typing import Collection, Iterable, Iterator

from repro.algebra.ast import Expr
from repro.algebra.evaluator import Relation
from repro.data.database import Database, Row
from repro.data.universe import Value
from repro.engine import kernels
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
from repro.errors import ArityError, SchemaError


@dataclass
class ExecutionStats:
    """Observable work done by one executor.

    ``node_rows`` maps each plan node that *ran* to its output
    cardinality; :meth:`max_intermediate` is the physical counterpart
    of :meth:`repro.algebra.trace.EvalTrace.max_intermediate`.  A node
    whose rows a cached grouping stood in for is in ``from_index``
    instead, and the nodes under it did not run either: every plan node
    is in ``node_rows`` or at or under a node in ``from_index`` (a
    result-cache hit, which runs nothing, records neither).
    ``node_estimates`` holds the cost model's per-operator
    :class:`~repro.engine.cost.Estimate` for the same nodes, so
    estimated and actual cardinalities can be compared after the fact
    (:meth:`estimation_pairs`; the soundness property tests live in
    ``tests/test_engine_cost.py``).
    """

    node_rows: dict[PlanNode, int] = field(default_factory=dict)
    node_estimates: dict[PlanNode, object] = field(default_factory=dict)
    #: Per-``PartitionedOp`` batch records (planned vs actual batch
    #: counts, per-batch rows in flight) — see
    #: :class:`repro.engine.partition.PartitionRun`.
    partition_runs: dict[PlanNode, object] = field(default_factory=dict)
    #: Per-``MultiwayJoinOp`` generic-join records (AGM bound vs actual
    #: output, intersection work) — see
    #: :class:`repro.engine.wcoj.WcojRun`.
    wcoj_runs: dict[PlanNode, object] = field(default_factory=dict)
    #: Plan nodes whose rows a cached grouping stood in for: a π's
    #: child read as its grouping's keys, a hash operator's right side
    #: read as its cached index (``Executor._grouping``).
    from_index: set[PlanNode] = field(default_factory=set)
    indexes_built: int = 0
    index_reuses: int = 0

    def max_intermediate(self) -> int:
        return max(self.node_rows.values(), default=0)

    def max_in_flight(self) -> int:
        """Peak *working set* (rows) of any one executed operator.

        For a one-shot operator: its inputs plus its output, which
        coexist while it runs.  For a partitioned operator: the
        recorded per-batch peak — the quantity the partition budget
        bounds.  Leaf scans contribute nothing of their own (stored
        relations exist whether or not they are scanned), though their
        rows do count as the consuming operator's input.  The partition
        benchmarks compare this figure between partitioned and
        unpartitioned runs of the same query.
        """
        peak = 0
        for node, produced in self.node_rows.items():
            run = self.partition_runs.get(node)
            if run is not None:
                peak = max(peak, run.peak_in_flight())
                continue
            children = node.children()
            if not children:  # leaf scan: no working set of its own
                continue
            held = produced + sum(
                self.node_rows.get(child, 0) for child in children
            )
            peak = max(peak, held)
        return peak

    def total_rows(self) -> int:
        return sum(self.node_rows.values())

    def estimation_pairs(self):
        """``(node, actual_rows, estimate)`` for every estimated node."""
        return tuple(
            (node, rows, self.node_estimates[node])
            for node, rows in self.node_rows.items()
            if node in self.node_estimates
        )

    def report(self) -> str:
        lines = [
            f"max intermediate : {self.max_intermediate()}",
            f"max in flight    : {self.max_in_flight()}",
            f"indexes built    : {self.indexes_built}"
            f" (reused {self.index_reuses}x)",
            f"from index       : {len(self.from_index)} node(s) read as a"
            " cached grouping",
        ]
        for node, run in self.partition_runs.items():
            lines.append(f"{node.label()}: {run.render()}")
        for node, run in self.wcoj_runs.items():
            lines.append(f"{node.label()}: {run.render()}")
        ordered = sorted(
            self.node_rows.items(), key=lambda kv: -kv[1]
        )
        for node, rows in ordered:
            estimate = self.node_estimates.get(node)
            suffix = f"  ({estimate.render()})" if estimate else ""
            lines.append(f"{rows:>8}  {node.label()}{suffix}")
        return "\n".join(lines)


#: Default row budget for an :class:`IndexCache` — the same bounding
#: discipline as :data:`DEFAULT_CACHE_BYTES`, counted in indexed rows
#: because indexes hold references to existing row tuples rather than
#: new storage.
DEFAULT_INDEX_ROWS = 1_000_000


class IndexCache:
    """Hash indexes keyed by ``(logical expr, key positions)``.

    The logical expression identifies the input *value* (same database,
    same logical expression ⇒ same rows), so any operator needing the
    same keys on the same input reuses the build: a join's right side,
    a semijoin's stored left side (:meth:`second_sight`), the generic
    join's tries (:meth:`trie_for`) and a division's dividend, grouped
    as ``a → frozenset(b)`` (:meth:`sets_for`).
    A held grouping also answers for its input (:meth:`cached`): a
    hash operator whose right index is here reads it without computing
    the right side, and π on the same positions is the grouping's keys.

    Entries are LRU-evicted against ``row_budget`` (total rows across
    all cached indexes — the :class:`ResultCache` byte-budget
    discipline, in rows): a build or reuse marks the entry most
    recent, and builds pushing the total past the budget evict the
    least recently used entries — never the index just built, which
    the caller holds and which stays fully usable either way (eviction
    only forgets the cache's reference).  ``builds``/``reuses`` count
    events, not live entries, so a rebuild after eviction is a second
    build, not a reuse.

    All public methods are thread-safe: the serving layer
    (:mod:`repro.serve`) shares one executor across client threads,
    and an unguarded ``move_to_end`` racing a ``popitem`` corrupts the
    eviction order (or dies with ``KeyError`` mid-rebalance).  Builds
    happen inside the lock — two threads asking for the same index
    get one build, which is the cache's whole point; the hammer
    regression lives in ``tests/test_serve_threads.py``.
    """

    def __init__(self, row_budget: int = DEFAULT_INDEX_ROWS) -> None:
        if row_budget < 0:
            raise SchemaError(
                f"IndexCache row_budget must be >= 0, got {row_budget}"
            )
        self._indexes: "OrderedDict[" \
            "tuple[object, tuple[int, ...]]," \
            "tuple[dict[tuple[Value, ...], list[Row]], int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.row_budget = row_budget
        #: ``(key, positions)`` asked for once by :meth:`second_sight`.
        self._sighted: set[tuple[object, tuple[int, ...]]] = set()
        self.builds = 0
        self.reuses = 0
        self.evictions = 0
        #: Total rows held across all cached indexes — the figure the
        #: LRU row budget bounds (decremented on eviction).
        self.rows_indexed = 0

    def index_for(
        self,
        key: object,
        rows: Iterable[Row],
        positions: tuple[int, ...],
    ) -> dict[tuple[Value, ...], list[Row]]:
        return self._fetch((key, positions), _indexed, rows, positions)

    def second_sight(
        self,
        key: object,
        rows: Collection[Row],
        positions: tuple[int, ...],
    ) -> dict[tuple[Value, ...], list[Row]] | None:
        """:meth:`index_for`, from the second request for ``(key,
        positions)`` on: the first is only noted — neither a build nor a
        reuse — and answers ``None``, so a query run once never pays for
        an index it would read once.  A build that would push the cache
        past ``row_budget`` answers ``None`` too: evicting the caller's
        other index would have the two rebuild each other every run.
        Sightings go with the cache.  The grouping's keys are what a
        semijoin compares with its right index's keys to learn, without
        reading a row, that it keeps its whole left input."""
        slot = (key, positions)
        with self._lock:
            if slot not in self._indexes:
                if slot not in self._sighted:
                    self._sighted.add(slot)
                    return None
                if self.rows_indexed + len(rows) > self.row_budget:
                    return None
        return self.index_for(key, rows, positions)

    def trie_for(
        self,
        key: object,
        rows: Iterable[Row],
        columns_by_variable: tuple[tuple[int, ...], ...],
    ) -> dict:
        """Build/fetch a generic-join trie (:func:`repro.engine.wcoj.
        build_trie`) under the same LRU row budget as flat indexes.

        The cache key embeds the trie layout behind a ``"trie"``
        sentinel, so a trie and a flat index over the same logical
        input and columns never collide — their payload shapes differ.
        """
        from repro.engine.wcoj import build_trie

        slot = (key, ("trie",) + columns_by_variable)
        return self._fetch(slot, build_trie, rows, columns_by_variable)

    def sets_for(self, key: object, rows: Collection[Row]) -> dict:
        """Build/fetch a binary input's set grouping (:func:`repro.
        engine.kernels.set_groups`), the index a division reads, under
        the ``("sets",)`` sentinel; it counts ``len(rows)`` against the
        row budget."""
        return self._fetch((key, ("sets",)), _set_grouped, rows)

    def cached(
        self, key: object, positions: tuple[int, ...]
    ) -> dict[tuple[Value, ...], list[Row]] | None:
        """The grouping :meth:`index_for` holds for ``(key, positions)``
        (a reuse), or ``None``: it builds nothing and notes no sighting.
        Its keys are the input's projection on ``positions``, so a caller
        holding a hit need not compute the input at all."""
        with self._lock:
            return self._hit((key, positions))

    def _fetch(self, slot, build, *args):
        """The payload under ``slot`` (a reuse), or ``build(*args)``'s
        ``(payload, rows counted)``, admitted (a build)."""
        with self._lock:
            payload = self._hit(slot)
            if payload is None:
                payload, count = build(*args)
                self._admit(slot, payload, count)
            return payload

    def _hit(self, slot):
        """The cached payload, marked most recent and counted as a
        reuse, or ``None`` (lock held)."""
        cached = self._indexes.get(slot)
        if cached is None:
            return None
        self._indexes.move_to_end(slot)
        self.reuses += 1
        return cached[0]

    def _admit(self, slot, built, count: int) -> None:
        """Record a fresh build and rebalance the LRU (lock held)."""
        self._indexes[slot] = (built, count)
        self.builds += 1
        self.rows_indexed += count
        while (
            self.rows_indexed > self.row_budget and len(self._indexes) > 1
        ):
            __, (___, evicted_rows) = self._indexes.popitem(last=False)
            self.rows_indexed -= evicted_rows
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._indexes)


def _indexed(rows, positions):
    """:func:`~repro.engine.kernels.build_index` and its row count."""
    built = kernels.build_index(rows, positions)
    return built, sum(map(len, built.values()))


def _set_grouped(rows):
    """:func:`~repro.engine.kernels.set_groups` and its row count."""
    return kernels.set_groups(rows), len(rows)


#: Default byte budget for a :class:`ResultCache` (estimated bytes of
#: cached row tuples, not process RSS): generous for the in-memory
#: workloads this engine targets while still bounding a long session.
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024


def _result_bytes(result: Relation) -> int:
    """Estimated memory footprint of one cached result.

    A deliberate estimate (CPython tuple/frozenset header sizes plus
    one pointer per value), not a deep ``getsizeof`` walk — eviction
    needs a monotone, cheap measure, not an exact one.
    """
    return 64 + sum(56 + 8 * len(row) for row in result)


class ResultCache:
    """Byte-bounded LRU of query results, keyed by what fixes the rows.

    The class knows nothing about its keys beyond hashing them; the
    owner builds them, and every key ends in (or is) a **version
    token** (:meth:`~repro.data.database.Database.version_token`).  A
    token is a hash of the *contents*, not a counter: any mutation
    moves it, and a write that restores earlier contents restores the
    earlier token — A→B→A *is* the same contents, so an entry stored
    under A is as correct after the swap back as it was before it.
    Staleness is therefore structural, not temporal.  Both owners key
    on what fixes a query's rows — the expression asked for and the
    token, whatever plan computes them — and differ only in what they
    keep:

    * a :class:`~repro.session.Session` keys on ``(expression, planner
      options, token)`` (the options keep ablation runs honest) and
      **invalidates**: it calls :meth:`invalidate` when it sees the
      token move, because a session serves one contents at a time and
      has no use for the last one's rows;
    * a :class:`~repro.serve.server.Server` keys its front-door cache
      on ``(token, expression)`` and **retains by token**: reads pinned
      to the contents a write just replaced are still arriving, and a
      flip-flopping writer comes back to them, so its ``_write`` calls
      :meth:`retain` to keep the current and the replaced token's
      entries and drop everything older — the same pair the storage
      backend keeps images for.

    Entries are LRU-evicted against ``byte_budget`` (estimated bytes
    of the cached rows — the same discipline as the executor's other
    LRU-bounded memos, but sized in bytes because results, unlike
    plans, can be arbitrarily wide).  A result larger than the whole
    budget is never admitted.  ``enabled=False`` turns every lookup
    into a bypass and every store into a no-op, so callers do not need
    two code paths; bypassed lookups are counted separately
    (``disabled_lookups``), never as misses, so hit rates describe
    only lookups the cache actually served.

    ``get``/``put``/``retain``/``invalidate`` are thread-safe (one
    lock): a session shared across threads would otherwise race
    ``move_to_end`` against LRU eviction and corrupt the eviction
    order or the byte accounting (hammer regression in
    ``tests/test_serve_threads.py``).
    """

    def __init__(
        self,
        enabled: bool = True,
        byte_budget: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        if byte_budget < 0:
            raise SchemaError(
                f"ResultCache byte_budget must be >= 0, got {byte_budget}"
            )
        self.enabled = enabled
        self.byte_budget = byte_budget
        self._entries: "OrderedDict[tuple, tuple[Relation, int]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Lookups made while the cache was disabled — not misses (the
        #: cache never got a chance), tracked so ``cache_results=False``
        #: sessions keep hit rates honest.
        self.disabled_lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Relation | None:
        """The cached rows for ``key``, or None (counted as hit/miss)."""
        if not self.enabled:
            self.disabled_lookups += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: tuple, result: Relation) -> None:
        """Store ``result``, evicting LRU entries past the byte budget."""
        if not self.enabled:
            return
        size = _result_bytes(result)
        if size > self.byte_budget:
            return  # would evict everything and still not fit
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= old[1]
            self._entries[key] = (result, size)
            self.total_bytes += size
            while (
                self.total_bytes > self.byte_budget
                and len(self._entries) > 1
            ):
                __, (___, evicted_size) = self._entries.popitem(last=False)
                self.total_bytes -= evicted_size
                self.evictions += 1

    def retain(self, keep) -> None:
        """Drop every entry whose key ``keep(key)`` rejects.

        The owner that retains by token (see the class docstring) calls
        this when the set of tokens worth keeping moves; dropped
        entries are not evictions — nothing pushed them out.
        """
        with self._lock:
            for key in [key for key in self._entries if not keep(key)]:
                self.total_bytes -= self._entries.pop(key)[1]

    def invalidate(self) -> None:
        """Drop every entry (a session's answer to token movement)."""
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self.total_bytes = 0

    def stats_line(self) -> str:
        if not self.enabled:
            return (
                "result cache [off]: "
                f"{self.disabled_lookups} bypassed lookup(s)"
            )
        return (
            f"result cache [on]: {self.hits} hit(s), "
            f"{self.misses} miss(es), {len(self)} entr(y/ies), "
            f"~{self.total_bytes} byte(s), {self.evictions} eviction(s)"
        )


class Executor:
    """Execute physical plans against one database.

    Keep an executor alive across queries to reuse its memo, index
    cache, statistics, and plan memo.  All caches are invalidated
    together when the database's version token changes (see module
    docstring).

    The plan and estimate memos are LRU-bounded (long-running processes
    — classification probes, bisimulation loops — plan many distinct
    small expressions against few databases, so unbounded memos would
    grow forever).  The shared cost model lives with the planner's
    sub-plan memos — one ``Expr → PlanNode`` dict per options value,
    so a fresh query plans and prices only the subexpressions no
    earlier query had — and both are recycled together
    (:meth:`_fresh_cost_model`) once their entries pass 16 per memoised
    plan: the model pins every candidate ever priced — rejected
    nested-loop twins, each join-order trial — with its logical
    expression, note and estimate, ≈ 1.6 KB a node, where a kept plan
    has about 8 (estimates are cheap to recompute; the other 8 are the
    two-leaf candidates later queries price again).
    """

    #: Max (expression, options) plans and per-plan estimate maps kept.
    PLAN_CACHE_SIZE = 512

    def __init__(self, db: Database, backend: str | None = "memory") -> None:
        from repro.engine.stats import StatsCatalog
        from repro.storage import open_backend

        self.db = db
        #: Where relation contents are read from (``repro.storage``),
        #: opened from a kind name (``None`` means ``"memory"``).
        #: Scans, the partition/parallel staleness checks, and the
        #: parallel shipment transport all go through it.
        self.backend = open_backend(
            db, "memory" if backend is None else backend
        )
        self.indexes = IndexCache()
        self.stats = ExecutionStats()
        self.catalog = StatsCatalog(db)
        self._estimates: "OrderedDict[PlanNode, dict[PlanNode, object]]" = (
            OrderedDict()
        )
        self._fresh_cost_model()
        self._memo: dict[PlanNode, Relation] = {}
        self._plans: "OrderedDict[tuple[Expr, object], PlanNode]" = (
            OrderedDict()
        )
        self._version = self.backend.version_token()

    @property
    def version(self) -> int:
        """The contents version the executor's caches are valid for."""
        return self._version

    def check_version(self) -> None:
        """Invalidate every cache if the relation contents changed.

        Cheap when nothing changed (one hash over cached frozenset
        hashes); called before planning and before execution so a
        mutated database — contents swapped behind the same handle —
        never gets stale indexes, statistics, plans, or results.
        """
        current = self.backend.version_token()
        if current == self._version:
            return
        self._version = current
        self._memo.clear()
        self._plans.clear()
        self.indexes = IndexCache()
        self.catalog.invalidate()
        self._fresh_cost_model()
        self.stats = ExecutionStats()
        # The shm backend snapshots contents at encode time; re-encode
        # so the next scan reads the new contents instead of raising
        # StaleDataError on the stale snapshot.
        self.backend.refresh()

    def plan(self, expr: Expr, options=None) -> PlanNode:
        """Cost-based plan for ``expr`` using this database's statistics.

        Plans are memoized per ``(expression, options)`` and
        invalidated with the version token — a cost-chosen plan is only
        valid for the statistics it was priced against.
        """
        from repro.engine.planner import DEFAULT_OPTIONS, Planner

        if options is None:
            options = DEFAULT_OPTIONS
        self.check_version()
        key = (expr, options)
        planned = self._plans.get(key)
        if planned is not None:
            self._plans.move_to_end(key)
            return planned
        held = len(self.cost_model) + sum(map(len, self._subplans.values()))
        if held > 16 * self.PLAN_CACHE_SIZE:
            self._fresh_cost_model()
        memo = self._subplans.setdefault(options, {})
        planned = Planner(options, self.cost_model, memo).plan(expr)
        self._plans[key] = planned
        while len(self._plans) > self.PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return planned

    def _fresh_cost_model(self) -> None:
        """Replace the cost model, dropping every plan it priced.

        The one place a model is made: the planner's sub-plan memos
        (one per options value — ``partition_budget`` and
        ``use_multiway`` change what a subexpression plans to) and the
        per-plan estimates go with it, because a plan choice is only as
        valid as the estimates it was priced with.  Memoised root plans
        (``_plans``) stay: their own invalidation is version-driven.
        """
        from repro.engine.cost import CostModel

        #: One cost model for planning *and* execution-time recording,
        #: so estimates priced during planning are reused, not redone.
        self.cost_model = CostModel(
            self.catalog, attached=self.backend.attached
        )
        self._subplans: dict[object, dict[Expr, PlanNode]] = {}
        self._estimates.clear()

    def execute(self, plan: PlanNode) -> Relation:
        """Evaluate ``plan``; returns a ``frozenset`` of rows — the
        root's own when it holds one (a stored relation, passed through
        by a semijoin that kept all of it, is returned uncopied).
        """
        self.check_version()
        result = frozenset(self._rows(plan))
        self.stats.indexes_built = self.indexes.builds
        self.stats.index_reuses = self.indexes.reuses
        self.stats.node_estimates.update(self._estimates_for(plan))
        return result

    def _estimates_for(self, plan: PlanNode):
        """Cost-model estimates for ``plan``, memoized per version.

        Reuses the executor's shared cost model, so nodes already
        priced during planning are not re-estimated here.
        """
        cached = self._estimates.get(plan)
        if cached is not None:
            self._estimates.move_to_end(plan)
            return cached
        computed = self.cost_model.estimates(plan)
        self._estimates[plan] = computed
        while len(self._estimates) > self.PLAN_CACHE_SIZE:
            self._estimates.popitem(last=False)
        return computed

    def reset_query_state(self) -> None:
        """Drop per-query state (result memo, stats), keep the indexes.

        A :class:`~repro.session.Session` calls this after each
        top-level query on its executor: hash indexes amortize
        across queries, but results are recomputed per call — so
        repeated evaluations measure real work, and large result sets
        are never pinned by the cache.  Caller-managed executors keep
        their memo until they choose to reset.
        """
        self._memo.clear()
        self.stats = ExecutionStats()

    def close(self) -> None:
        """Release the backend's storage (idempotent).

        Shared-memory segments are owned by the backend;
        :meth:`~repro.session.Session.close` routes here so a session's
        storage never outlives it.  A memory backend has nothing to
        release but is still marked closed, keeping the "closed
        sessions don't serve queries" contract uniform across backends.
        """
        self.backend.close()

    # ------------------------------------------------------------------
    # Node dispatch (the table is OPERATORS, below the class) and operators
    # ------------------------------------------------------------------

    def _rows(self, node: PlanNode) -> "Relation | list[Row]":
        """``node``'s rows, computed once per query: a ``frozenset``, or
        a duplicate-free ``list`` where :data:`OPERATORS` says so."""
        cached = self._memo.get(node)
        if cached is not None:
            return cached
        try:
            run, store = OPERATORS[type(node)]
        except KeyError:
            raise SchemaError(
                f"executor: unknown plan node {type(node).__name__}"
            ) from None
        result = self._memo[node] = store(run(self, node))
        self.stats.node_rows[node] = len(result)
        return result

    def _scan(self, node: ScanOp) -> Relation:
        name = node.expr.name
        stored = self.backend.rows(name)
        if self.db.schema[name] != node.expr.arity:
            raise ArityError(
                f"plan expects {name!r} with arity {node.expr.arity}, "
                f"database has arity {self.db.schema[name]}"
            )
        return stored

    def _union(self, node: UnionOp) -> Relation:
        return frozenset().union(
            self._rows(node.left), self._rows(node.right)
        )

    def _difference(self, node: DifferenceOp) -> "Relation | list[Row]":
        """A listed left is filtered, not hashed again: its kept rows
        are as duplicate-free as it is."""
        left, right = self._rows(node.left), self._rows(node.right)
        if isinstance(left, frozenset):
            return left.difference(right)
        return list(filterfalse(frozenset(right).__contains__, left))

    def _project(self, node: ProjectOp) -> Iterable[Row]:
        """The keys of the child's cached grouping on the projected
        positions when there is one — the child does not run — else the
        child's rows' keys."""
        groups = self._grouping(node.child, node.positions)
        if groups is not None:
            return groups.keys()
        return kernels.keys_of(self._rows(node.child), node.positions)

    def _grouping(self, node: PlanNode, positions: tuple[int, ...]):
        """``node``'s cached grouping on ``positions``, recorded as
        standing in for its rows (:attr:`ExecutionStats.from_index`),
        or ``None``."""
        groups = self.indexes.cached(node.logical, positions)
        if groups is not None:
            self.stats.from_index.add(node)
        return groups

    def _filter(self, node: FilterOp) -> Iterable[Row]:
        return kernels.filter_rows(self._rows(node.child), node.predicates)

    def _tag(self, node: TagOp) -> Iterator[Row]:
        return map(
            operator.add, self._rows(node.child), repeat((node.value,))
        )

    def _hash(self, node: HashJoinOp | HashSemijoinOp) -> Iterable[Row]:
        """A hash join or semijoin: the kernel its type names, over the
        left rows, the right side's index (built or fetched), the left
        key positions of the equality atoms and the remaining atoms,
        compiled (a semijoin's by :func:`~repro.engine.kernels.witness`).
        A semijoin that keeps every left row returns the left input
        itself (:func:`_kept`).  A cached right index stands in for the
        right side, which then does not run (:meth:`_grouping`).

        An equality semijoin over a stored left side with more rows than
        the right has distinct keys reads the left's cached grouping
        from the second request on (:meth:`IndexCache.second_sight`):
        when every left key is one of the right's, the answer is the
        left input, decided on the two key sets without touching a row;
        otherwise it gathers the left groups under the right's keys,
        which are disjoint — one lookup per right key, not per left
        row."""
        loop, compile_rest = (
            (kernels.hash_join, kernels.matcher)
            if isinstance(node, HashJoinOp)
            else (kernels.hash_semijoin, kernels.witness)
        )
        eq = node.cond.by_op("=")
        right_positions = tuple(a.j for a in eq)
        index = self._grouping(node.right, right_positions)
        if index is None:
            index = self.indexes.index_for(
                node.right.logical, self._rows(node.right), right_positions
            )
        left = self._rows(node.left)
        positions = tuple(a.i for a in eq)
        if (
            loop is kernels.hash_semijoin
            and node.cond.is_equi()
            and isinstance(node.left, ScanOp)
            and len(index) < len(left)
        ):
            groups = self.indexes.second_sight(
                node.left.logical, left, positions
            )
            if groups is not None:
                if groups.keys() <= index.keys():
                    return left
                return chain.from_iterable(
                    map(groups.get, index, repeat(()))
                )
        rows = loop(
            left,
            index,
            positions,
            compile_rest(a for a in node.cond if a.op != "="),
        )
        return rows if loop is kernels.hash_join else _kept(left, rows)

    def _nested_loop(
        self, node: NestedLoopJoinOp | NestedLoopSemijoinOp
    ) -> Iterable[Row]:
        """A nested-loop join or semijoin: the kernel its type names."""
        loop, compile_cond = (
            (kernels.nested_loop_join, kernels.matcher)
            if isinstance(node, NestedLoopJoinOp)
            else (kernels.nested_loop_semijoin, kernels.witness)
        )
        right = self._rows(node.right)
        left = self._rows(node.left)
        rows = loop(left, right, compile_cond(node.cond))
        return rows if loop is kernels.nested_loop_join else _kept(left, rows)

    def _multiway(self, node: MultiwayJoinOp) -> list[Row]:
        from repro.engine.wcoj import run_multiway

        return run_multiway(self, node)

    def _division(self, node: DivisionOp) -> Iterable[Row]:
        """The ∀ level (:func:`~repro.engine.kernels.quotient`) over
        the dividend's cached set grouping (:meth:`IndexCache.sets_for`),
        one C frozenset compare per group.  A partitioned batch runs the
        same test over its fragment's grouping."""
        dividend = self._rows(node.dividend)
        divisor_rows = self._rows(node.divisor)
        if not divisor_rows and node.empty_divisor == "none":
            # γ-plan semantics: the join with an empty divisor kills
            # every group, so the source expression returns ∅.
            return ()
        groups = self.indexes.sets_for(node.dividend.logical, dividend)
        divisor = map(operator.itemgetter(0), divisor_rows)
        return kernels.quotient(groups, divisor, node.eq)

    def _batched(self, node: PartitionedOp) -> Iterable[Row]:
        """Batched execution: in-process at one worker, else on the pool.

        See :mod:`repro.engine.partition` (the shared scatter → pack →
        run → record pipeline) and :mod:`repro.engine.parallel` (pool
        dispatch).  The wrapped operator is *not* dispatched through
        :meth:`_rows` — that would run it one-shot and record its whole
        intermediate as a single working set instead of the per-batch
        figures the budget is checked against.  Its children are, so
        fragments come from the usual memo, and hash (semi)join
        groupings go through :class:`IndexCache` under the same keys
        the one-shot operators use (batched and one-shot runs share
        builds; re-executions against unchanged contents regroup
        nothing).
        """
        if node.workers > 1:
            from repro.engine.parallel import run_parallel

            return run_parallel(self, node)
        from repro.engine.partition import run_partitioned

        return run_partitioned(self, node)

    def _group_by(self, node: GroupByOp) -> Relation:
        from repro.extended.evaluator import _eval_group_by

        return _eval_group_by(node.expr, self._rows(node.child))


def _kept(
    left: "Relation | list[Row]", rows: Iterable[Row]
) -> "Relation | list[Row]":
    """A semijoin's ``rows``, a subset of its duplicate-free ``left``:
    ``left`` itself when they are as many, else listed."""
    rows = list(rows)
    return left if len(rows) == len(left) else rows


def _listed(rows: Iterable[Row]) -> "Relation | list[Row]":
    """A semijoin's or difference's store: a held ``frozenset`` or
    ``list`` (its left input, or what it kept of it) passes through,
    uncopied; anything else is listed."""
    return rows if isinstance(rows, (frozenset, list)) else list(rows)


#: How each operator runs and what holds its rows — the one place that
#: says either.  ``list``: no duplicate can arise when the inputs hold
#: none (a semijoin, filter or batch union keeps distinct left rows;
#: ``l + r`` and ``row + (tag,)`` are injective at fixed arities; a
#: generic join emits distinct bindings whole, or each distinct free
#: prefix once when it absorbed a projection), so re-hashing every row
#: buys nothing and ``len`` is the cardinality.  ``frozenset``:
#: everything else.  A semijoin that keeps every left row holds the
#: left input itself, ``frozenset`` or ``list``; a difference holds a
#: ``list`` when its left is listed (a filter of distinct rows), else a
#: ``frozenset`` (both :func:`_listed`).
#: Moving an operator to ``list`` takes that proof —
#: ``test_engine_kernels.py::test_memoised_rows_hold_no_duplicate``.
OPERATORS: dict[type, tuple] = {
    ScanOp: (Executor._scan, frozenset),
    UnionOp: (Executor._union, frozenset),
    DifferenceOp: (Executor._difference, _listed),
    ProjectOp: (Executor._project, frozenset),
    GroupByOp: (Executor._group_by, frozenset),
    DivisionOp: (Executor._division, frozenset),
    FilterOp: (Executor._filter, list),
    TagOp: (Executor._tag, list),
    HashJoinOp: (Executor._hash, list),
    NestedLoopJoinOp: (Executor._nested_loop, list),
    MultiwayJoinOp: (Executor._multiway, list),
    HashSemijoinOp: (Executor._hash, _listed),
    NestedLoopSemijoinOp: (Executor._nested_loop, _listed),
    PartitionedOp: (Executor._batched, list),
}
