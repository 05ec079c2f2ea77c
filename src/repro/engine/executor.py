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
from itertools import repeat
from typing import Iterable, Iterator

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
    ParallelOp,
    PartitionedOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    SortOp,
    TagOp,
    UnionOp,
)
from repro.errors import ArityError, SchemaError
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    DIVISION_EQ_ALGORITHMS,
    TypedPairs,
)


@dataclass
class ExecutionStats:
    """Observable work done by one executor.

    ``node_rows`` maps each executed plan node to its output
    cardinality; :meth:`max_intermediate` is the physical counterpart
    of :meth:`repro.algebra.trace.EvalTrace.max_intermediate`.
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
    same keys on the same input reuses the build.

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
        cache_key = (key, positions)
        with self._lock:
            cached = self._indexes.get(cache_key)
            if cached is not None:
                self._indexes.move_to_end(cache_key)
                self.reuses += 1
                return cached[0]
            built = kernels.build_index(rows, positions)
            self._admit(cache_key, built, sum(map(len, built.values())))
            return built

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
        cache_key = (key, ("trie",) + columns_by_variable)
        with self._lock:
            cached = self._indexes.get(cache_key)
            if cached is not None:
                self._indexes.move_to_end(cache_key)
                self.reuses += 1
                return cached[0]
            from repro.engine.wcoj import build_trie

            built, count = build_trie(rows, columns_by_variable)
            self._admit(cache_key, built, count)
            return built

    def _admit(self, cache_key, built, count: int) -> None:
        """Record a fresh build and rebalance the LRU (lock held)."""
        self._indexes[cache_key] = (built, count)
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
    Staleness is therefore structural, not temporal, and the two
    owners differ only in what they keep:

    * a :class:`~repro.session.Session` keys on ``(plan fingerprint,
      planner options, token)`` (:meth:`Executor.cache_key` — the
      fingerprint says *what* is computed, so distinct texts that plan
      to the same physical shape share one entry; the options tell
      apart plans one fingerprint could not and keep ablation runs
      honest) and **invalidates**: :meth:`Executor.check_version` calls
      :meth:`invalidate` on every token movement, because a session
      serves one contents at a time and has no use for the last one's
      rows;
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
    grow forever), and the shared cost model is recycled once its node
    memo passes 16 nodes per memoised plan: it pins every candidate
    ever priced — rejected nested-loop twins, each join-order trial —
    with its logical expression, note and estimate, ≈ 1.6 KB a node,
    where a kept plan has about 8 (estimates are cheap to recompute;
    the other 8 are the two-leaf candidates later queries price again).
    """

    #: Max (expression, options) plans and per-plan estimate maps kept.
    PLAN_CACHE_SIZE = 512

    def __init__(
        self,
        db: Database,
        results: ResultCache | None = None,
        backend=None,
    ) -> None:
        from repro.engine.cost import CostModel
        from repro.engine.stats import StatsCatalog
        from repro.storage import Backend, open_backend

        self.db = db
        if backend is None:
            backend = open_backend(db, "memory")
        elif isinstance(backend, str):
            backend = open_backend(db, backend)
        elif not isinstance(backend, Backend):
            raise SchemaError(
                "backend must be a kind name or a repro.storage."
                f"Backend, got {type(backend).__name__}"
            )
        elif backend.db is not db:
            # Identity, not equality: version tokens are per-handle,
            # so a backend over an equal-but-distinct Database would
            # never observe this handle's mutations.
            raise SchemaError(
                "backend is bound to a different database; storage "
                "snapshots are per-database — open a matching backend"
            )
        #: Where relation contents are read from (``repro.storage``).
        #: Scans, the partition/parallel staleness checks, and the
        #: parallel shipment transport all go through it; the memory
        #: backend reproduces the pre-backend direct-dict behaviour
        #: exactly.
        self.backend = backend
        self.indexes = IndexCache()
        self.stats = ExecutionStats()
        # Statistics read rows through the backend and key their cache
        # by its version token, so the profile describes exactly the
        # snapshot scans execute against — even on per-read-decode
        # backends (mmap) where every read is a fresh frozenset.
        self.catalog = StatsCatalog(db, backend=backend)
        #: One cost model for planning *and* execution-time recording,
        #: so estimates priced during planning are reused, not redone.
        self.cost_model = CostModel(self.catalog, backend=backend.kind)
        #: Feedback-triggered re-plans performed (estimator error for a
        #: memoized plan drifted past its options' replan_threshold).
        self.feedback_replans = 0
        #: Whether the most recent :meth:`plan` call re-planned due to
        #: feedback drift (surfaced as ``ExecutionReport.replanned``).
        self.last_plan_replanned = False
        #: The cross-query result cache seam (None → no caching).  The
        #: :class:`~repro.session.Session` front door passes one in;
        #: it is invalidated with every other cache on version-token
        #: movement, so a mutated database is never served stale rows.
        self.results = results
        self._memo: dict[PlanNode, Relation] = {}
        # Memoized plans: (plan, ledger revision at pricing, factor
        # snapshot) — the latter two drive the feedback re-plan check;
        # a plan made without a threshold snapshots nothing.
        self._plans: (
            "OrderedDict[tuple[Expr, object],"
            " tuple[PlanNode, int, dict[tuple, float]]]"
        ) = OrderedDict()
        self._estimates: "OrderedDict[PlanNode, dict[PlanNode, object]]" = (
            OrderedDict()
        )
        self._version = backend.version_token()

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
        from repro.engine.cost import CostModel

        current = self.backend.version_token()
        if current == self._version:
            return
        self._version = current
        self._memo.clear()
        self._plans.clear()
        self._estimates.clear()
        self.indexes = IndexCache()
        # invalidate() drops statistics only; the feedback ledger is
        # workload knowledge and deliberately survives token movement.
        self.catalog.invalidate()
        self.cost_model = CostModel(
            self.catalog,
            backend=self.backend.kind,
            feedback=self.cost_model.feedback,
        )
        self.stats = ExecutionStats()
        if self.results is not None:
            self.results.invalidate()
        # Columnar backends snapshot contents at encode time; re-encode
        # so the next scan reads the new contents instead of raising
        # StaleDataError on the stale snapshot.
        self.backend.refresh()

    def plan(self, expr: Expr, options=None) -> PlanNode:
        """Cost-based plan for ``expr`` using this database's statistics.

        Plans are memoized per ``(expression, options)`` and
        invalidated with the version token — a cost-chosen plan is only
        valid for the statistics it was priced against.  With a
        ``replan_threshold`` set, the plan snapshots the ledger's
        factors for its operators, and a memoized plan is additionally
        dropped and re-planned when any of them has drifted by at least
        the threshold since — the adaptive re-optimization loop
        (``docs/engine.md`` § Adaptive feedback).  Without one, nothing
        is snapshot and the ledger is never consulted.
        """
        from repro.engine.cost import CostModel
        from repro.engine.planner import DEFAULT_OPTIONS, Planner

        if options is None:
            options = DEFAULT_OPTIONS
        self.check_version()
        self._sync_feedback_mode(options)
        self.last_plan_replanned = False
        threshold = getattr(options, "replan_threshold", None)
        ledger = self.catalog.feedback
        key = (expr, options)
        cached = self._plans.get(key)
        if cached is not None:
            planned, revision, factors = cached
            if (
                threshold is None
                or revision == ledger.revision
                or self._feedback_drift(factors) < threshold
            ):
                if revision != ledger.revision:
                    # Drift below the threshold: keep the plan, but
                    # remember the revision checked so unchanged
                    # ledgers skip the drift walk next time.
                    self._plans[key] = (planned, ledger.revision, factors)
                self._plans.move_to_end(key)
                return planned
            # Observed estimator error for this plan crossed the
            # threshold: drop it and re-price with a fresh cost model
            # so the corrected estimates actually apply.
            del self._plans[key]
            self._estimates.clear()
            self.cost_model = CostModel(
                self.catalog,
                backend=self.backend.kind,
                feedback=self.cost_model.feedback,
            )
            self.feedback_replans += 1
            self.last_plan_replanned = True
        if len(self.cost_model) > 16 * self.PLAN_CACHE_SIZE:
            self.cost_model = CostModel(
                self.catalog,
                backend=self.backend.kind,
                feedback=self.cost_model.feedback,
            )
        planned = Planner(options, self.catalog, self.cost_model).plan(expr)
        self._plans[key] = (
            planned,
            ledger.revision,
            {} if threshold is None else self._feedback_factors(planned),
        )
        while len(self._plans) > self.PLAN_CACHE_SIZE:
            self._plans.popitem(last=False)
        return planned

    def _feedback_factors(self, plan: PlanNode) -> dict[tuple, float]:
        """Snapshot of ledger factors for every fed operator in ``plan``.

        Unknown keys snapshot as 1.0 (the implicit "estimate is right"
        factor), so learning a large error for an operator the plan
        was priced without registers as drift.
        """
        from repro.engine.stats import feedback_key

        ledger = self.catalog.feedback
        factors: dict[tuple, float] = {}
        for node in plan.nodes():
            key = feedback_key(node)
            if key is None:
                continue
            current = ledger.factor(key)
            factors[key] = 1.0 if current is None else current
        return factors

    def _feedback_drift(self, factors: dict[tuple, float]) -> float:
        """Worst factor movement since ``factors`` was snapshot (≥ 1)."""
        ledger = self.catalog.feedback
        worst = 1.0
        for key, snapshot in factors.items():
            current = ledger.factor(key)
            current = 1.0 if current is None else current
            if current <= 0.0 or snapshot <= 0.0:
                continue
            worst = max(worst, current / snapshot, snapshot / current)
        return worst

    def _sync_feedback_mode(self, options) -> None:
        """Attach/detach the ledger from the cost model per options.

        Corrections apply only when the caller planned with a
        ``replan_threshold`` — threshold-free planning stays
        byte-identical to the pre-feedback behaviour.  The model is
        recycled on a mode switch so corrected and uncorrected estimates
        never mix in one memo.
        """
        from repro.engine.cost import CostModel

        wants = getattr(options, "replan_threshold", None) is not None
        ledger = self.catalog.feedback if wants else None
        if (self.cost_model.feedback is None) != (ledger is None):
            self.cost_model = CostModel(
                self.catalog, backend=self.backend.kind, feedback=ledger
            )
            self._estimates.clear()

    def execute(self, plan: PlanNode, options=None) -> Relation:
        """Evaluate ``plan``; returns a ``frozenset`` of rows.

        When ``options`` carry a ``replan_threshold``, the run's
        estimated-vs-actual pairs feed the catalog's feedback ledger —
        only planning under a threshold reads it, so a threshold-free
        run records nothing.
        """
        self.check_version()
        if options is not None:
            self._sync_feedback_mode(options)
        result = frozenset(self._rows(plan))
        self.stats.indexes_built = self.indexes.builds
        self.stats.index_reuses = self.indexes.reuses
        self.stats.node_estimates.update(self._estimates_for(plan))
        if getattr(options, "replan_threshold", None) is not None:
            self._feed_feedback()
        return result

    def _feed_feedback(self) -> None:
        """Fold this run's estimated-vs-actual pairs into the ledger.

        Called only from :meth:`execute` — result-cache hits execute
        zero operators, never reach here, and so cannot poison the
        ledger with ``actual=0`` against a real estimate.  Raw
        (uncorrected) estimates are recorded so stored factors converge
        to the true model error instead of compounding corrections.
        """
        from repro.engine.stats import feedback_key

        ledger = self.catalog.feedback
        for node, actual, estimate in self.stats.estimation_pairs():
            key = feedback_key(node)
            if key is None:
                continue
            raw = (
                estimate.raw_rows
                if estimate.raw_rows is not None
                else estimate.rows
            )
            ledger.record(key, raw, actual)

    def cache_key(self, plan: PlanNode, options) -> tuple:
        """The result-cache key for ``plan`` under ``options`` *now*.

        ``(plan fingerprint, planner options, version token)`` — see
        :class:`ResultCache` for why each component is needed.  Call
        after :meth:`check_version` (``plan``/``execute`` do) so the
        token matches the statistics the plan was priced against.
        """
        return (plan.fingerprint(), options, self._version)

    def execute_cached(self, plan: PlanNode, options) -> tuple[Relation, bool]:
        """Execute ``plan``, serving from the result cache when possible.

        Returns ``(rows, cached)``.  On a hit no plan node is
        dispatched at all — ``ExecutionStats`` records zero operator
        executions — which is the contract the session-level cache
        tests assert.  On a miss the result is computed by
        :meth:`execute` and stored.  With no :attr:`results` cache
        attached this is exactly ``(self.execute(plan), False)``.
        """
        self.check_version()
        if self.results is None:
            return self.execute(plan, options), False
        key = self.cache_key(plan, options)
        cached = self.results.get(key)
        if cached is not None:
            return cached, True
        result = self.execute(plan, options)
        self.results.put(key, result)
        return result, False

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

        Shared-memory segments and spill files are owned by the
        backend; :meth:`~repro.session.Session.close` routes here so a
        session's storage never outlives it.  A memory backend has
        nothing to release but is still marked closed, keeping the
        "closed sessions don't serve queries" contract uniform across
        backends.
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

    def _difference(self, node: DifferenceOp) -> Relation:
        return frozenset(self._rows(node.left)).difference(
            self._rows(node.right)
        )

    def _project(self, node: ProjectOp) -> Iterator[Row]:
        return kernels.keys_of(self._rows(node.child), node.positions)

    def _filter(self, node: FilterOp) -> Iterator[Row]:
        return filter(node.holds, self._rows(node.child))

    def _tag(self, node: TagOp) -> Iterator[Row]:
        return map(
            operator.add, self._rows(node.child), repeat((node.value,))
        )

    def _sort(self, node: SortOp) -> "Relation | list[Row]":
        return self._rows(node.child)  # the identity under set semantics

    def _hash(self, node: HashJoinOp | HashSemijoinOp) -> Iterable[Row]:
        """A hash join or semijoin: the kernel its type names, over the
        left rows, the right side's index (built or fetched), the left
        key positions of the equality atoms and the remaining atoms,
        compiled (a semijoin's by :func:`~repro.engine.kernels.witness`)."""
        loop, compile_rest = (
            (kernels.hash_join, kernels.matcher)
            if isinstance(node, HashJoinOp)
            else (kernels.hash_semijoin, kernels.witness)
        )
        eq = node.cond.by_op("=")
        index = self.indexes.index_for(
            node.right.logical,
            self._rows(node.right),
            tuple(a.j for a in eq),
        )
        return loop(
            self._rows(node.left),
            index,
            tuple(a.i for a in eq),
            compile_rest(a for a in node.cond if a.op != "="),
        )

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
        return loop(self._rows(node.left), right, compile_cond(node.cond))

    def _multiway(self, node: MultiwayJoinOp) -> list[Row]:
        from repro.engine.wcoj import run_multiway

        return run_multiway(self, node)

    def _division(self, node: DivisionOp) -> Iterable[Row]:
        dividend = self._rows(node.dividend)
        divisor_rows = self._rows(node.divisor)
        if not divisor_rows and node.empty_divisor == "none":
            # γ-plan semantics: the join with an empty divisor kills
            # every group, so the source expression returns ∅.
            return ()
        divisor = [row[0] for row in divisor_rows]
        registry = DIVISION_EQ_ALGORITHMS if node.eq else DIVISION_ALGORITHMS
        # The plan typed the dividend (arity 2; rows tuple-coerced where
        # they entered the database), so nothing is re-validated here.
        return zip(registry["hash"](TypedPairs(dividend), divisor))

    def _batched(self, node: PartitionedOp | ParallelOp) -> Iterable[Row]:
        """Batched execution, serial or on the worker pool.

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
        if isinstance(node, ParallelOp):
            from repro.engine.parallel import run_parallel

            return run_parallel(self, node)
        from repro.engine.partition import run_partitioned

        return run_partitioned(self, node)

    def _group_by(self, node: GroupByOp) -> Relation:
        from repro.extended.evaluator import _eval_group_by

        return _eval_group_by(node.expr, self._rows(node.child))


#: How each operator runs and what holds its rows — the one place that
#: says either.  ``list``: no duplicate can arise when the inputs hold
#: none (a semijoin, filter or batch union keeps distinct left rows;
#: ``l + r`` and ``row + (tag,)`` are injective at fixed arities; a
#: generic join emits distinct bindings whole), so re-hashing every row
#: buys nothing and ``len`` is the cardinality.  ``frozenset``:
#: everything else.  Moving an operator to ``list`` takes that proof —
#: ``test_engine_kernels.py::test_memoised_rows_hold_no_duplicate``.
OPERATORS: dict[type, tuple] = {
    ScanOp: (Executor._scan, frozenset),
    UnionOp: (Executor._union, frozenset),
    DifferenceOp: (Executor._difference, frozenset),
    ProjectOp: (Executor._project, frozenset),
    GroupByOp: (Executor._group_by, frozenset),
    SortOp: (Executor._sort, frozenset),
    DivisionOp: (Executor._division, frozenset),
    FilterOp: (Executor._filter, list),
    TagOp: (Executor._tag, list),
    HashJoinOp: (Executor._hash, list),
    NestedLoopJoinOp: (Executor._nested_loop, list),
    MultiwayJoinOp: (Executor._multiway, list),
    HashSemijoinOp: (Executor._hash, list),
    NestedLoopSemijoinOp: (Executor._nested_loop, list),
    PartitionedOp: (Executor._batched, list),
    ParallelOp: (Executor._batched, list),
}
