"""The ``Session`` front door: one connection-style API for the repo.

The paper's dichotomy (Theorem 17) and the division lower bound
(Proposition 26) are statements about *plan choice*, and the engine
(:mod:`repro.engine`) is the machinery that acts on them.  A
:class:`Session` is the one door to that machinery:

* it is bound to one :class:`~repro.data.database.Database` and owns
  one :class:`~repro.engine.executor.Executor` (hash indexes,
  statistics, cost model, plan memo — amortized across every query in
  the session, version-token guarded);
* :meth:`Session.query` returns a :class:`PreparedQuery` — parsed
  once, planned lazily against the *current* statistics state, run and
  explained any number of times;
* it owns the ROADMAP's **cross-query result cache**
  (:class:`~repro.engine.executor.ResultCache`): results keyed by
  ``(expression, planner options, version token)`` — what fixes the
  rows, whatever plan computes them, as the
  :class:`~repro.serve.server.Server`'s door keys on ``(token,
  expression)`` — LRU-evicted against a byte budget.  A repeated query
  is answered before it is planned, with **zero** physical operator
  executions.  The session invalidates where the Server retains: a
  mutation between runs moves the token, which the session sees before
  it looks up, so it empties the cache and the cold re-run recomputes
  against fresh contents instead of raising
  :class:`~repro.errors.StaleDataError`;
* every run leaves an :class:`ExecutionReport` in
  :attr:`Session.last_report`: row count, the result cache's
  counters, and the :class:`~repro.engine.executor.ExecutionStats`
  with per-operator estimated-vs-actual rows and the peak rows in
  flight.

Typical use::

    from repro.session import Session

    session = Session(db)
    prepared = session.query("project[1](R join[2=1] S)")
    rows = prepared.run()          # planned + executed
    rows = prepared.run()          # served from the result cache
    print(prepared.explain(costs=True))
    print(session.last_report.render())

A ``Session`` is the *only* way into the engine: plain
:func:`~repro.algebra.evaluator.evaluate` runs the expression as
written and never plans.  For a one-shot engine run that must measure
real work, open ``Session(db, options, cache_results=False)``.

The semijoin-algebra line of related work (Leinders et al., "On the
expressive power of semijoin queries") motivates keeping the structural
evaluator reachable as an oracle behind the same surface:
:meth:`Session.oracle` evaluates an expression *as written*, bypassing
every engine rewrite, which is what the differential tests compare
engine results against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.algebra.ast import Expr, Rel
from repro.algebra.evaluator import Relation
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine.executor import (
    DEFAULT_CACHE_BYTES,
    ExecutionStats,
    Executor,
    ResultCache,
)
from repro.engine.plan import PlanNode
from repro.engine.planner import DEFAULT_OPTIONS, PlannerOptions
from repro.errors import SchemaError

__all__ = [
    "ExecutionReport",
    "PreparedQuery",
    "Session",
]


@dataclass(frozen=True)
class ExecutionReport:
    """What one :meth:`Session` run did, observable after the fact.

    ``stats`` is the executor's :class:`~repro.engine.executor.
    ExecutionStats` for this query alone (a fresh, empty record when
    the result came from the cache — zero operator executions is the
    cache's contract, and :meth:`operators_executed` asserts it);
    ``cache_line`` is the session's result-cache
    :meth:`~repro.engine.executor.ResultCache.stats_line` when the run
    completed.
    """

    rows: int
    cached: bool
    options: PlannerOptions
    stats: ExecutionStats
    cache_line: str

    def operators_executed(self) -> int:
        """How many physical operators ran (0 for a cache hit)."""
        return len(self.stats.node_rows)

    def render(self) -> str:
        """Human-readable report: cache outcome + the stats report.

        Pooled batches show up through the stats report: each
        :class:`~repro.engine.parallel.ParallelRun` renders its batch
        counts plus per-worker batch assignments and in-worker
        wall-clock seconds.
        """
        source = "result cache (hit)" if self.cached else "executed"
        lines = [
            f"rows             : {self.rows}",
            f"source           : {source}",
            self.cache_line,
            self.stats.report(),
        ]
        return "\n".join(lines)


class PreparedQuery:
    """A query parsed once, planned lazily, runnable many times.

    Created by :meth:`Session.query`.  The logical expression is fixed
    at construction; the physical plan is *not* — every :meth:`run` the
    result cache does not answer, and every :meth:`explain`, asks the
    session's executor for the plan valid under the current statistics
    state (the executor memoizes plans per ``(expression, options)``
    and drops them when the version token moves, so re-planning only
    happens when the contents changed).
    """

    def __init__(
        self,
        session: "Session",
        expr: Expr,
        text: str | None = None,
        options: PlannerOptions | None = None,
    ) -> None:
        self.session = session
        self.expr = expr
        self.text = text
        self._options = options
        #: The report of this query's most recent :meth:`run`.
        self.last_report: ExecutionReport | None = None

    @property
    def options(self) -> PlannerOptions:
        """Per-query options, falling back to the session's."""
        return self._options if self._options is not None else (
            self.session.options
        )

    def plan(self) -> PlanNode:
        """The physical plan under the current statistics state."""
        return self.session.executor.plan(self.expr, self.options)

    def run(self) -> Relation:
        """Execute (or serve from the result cache); returns the rows."""
        return self.session._run(self)

    def explain(self, costs: bool = False, analyze: bool = False) -> str:
        """Render the current plan (the one :meth:`run` would execute).

        The plan is fetched *first*, on its own statement:
        :meth:`plan` runs the executor's version check, which may
        replace the cost model — reading ``executor.cost_model`` before
        that check would render costs priced against pre-mutation
        statistics (the stale-explain bug this ordering guards against;
        regression-tested in ``tests/test_engine_caches.py``).
        """
        from repro.engine.planner import explain as explain_plan

        plan = self.plan()  # runs check_version; may swap the cost model
        executor = self.session.executor
        return explain_plan(
            self.expr,
            options=self.options,
            schema=self.session.schema,
            analyze=analyze,
            plan=plan,
            costs=costs,
            cost_model=executor.cost_model,
        )

    def stats(self) -> ExecutionStats | None:
        """The last run's :class:`ExecutionStats` (None before any run).

        A cache-served run reports a fresh, empty record: zero
        operator executions is precisely what the cache guarantees.
        """
        report = self.last_report
        return report.stats if report is not None else None


@lru_cache(maxsize=64)
def _division_expr(dividend: str, divisor: str, eq: bool) -> Expr:
    """The expression ``Session.divide(algorithm="engine")`` plans: the
    classic RA plan, or the §5 γ plan for ``eq``.

    Built once per operand pair: an ``Expr`` is immutable, and handing
    the executor the same object each time lets its plan memo find the
    plan by identity instead of hashing and comparing a fresh tree.
    """
    if eq:
        from repro.extended.division_plan import equality_division_plan

        return equality_division_plan(Rel(dividend, 2), Rel(divisor, 1))
    from repro.setjoins.division import classic_division_expr

    return classic_division_expr(Rel(dividend, 2), Rel(divisor, 1))


class Session:
    """A connection-style front door to the whole engine.

    Parameters
    ----------
    db:
        The database this session is bound to.  All caches are
        per-database and guarded by
        :meth:`~repro.data.database.Database.version_token`.
    options:
        Session-level :class:`~repro.engine.planner.PlannerOptions`,
        applied to every query unless overridden per call.
    cache_results:
        The result-cache knob.  ``True`` (default) serves repeated
        queries against unchanged contents from the cross-query result
        cache; ``False`` counts bypassed lookups but never stores or
        serves.
    cache_bytes:
        LRU byte budget for cached results (estimated bytes of the
        cached row tuples; see
        :class:`~repro.engine.executor.ResultCache`).
    backend:
        Storage the session's executor reads relations from, for the
        session's whole life: a kind name from
        :data:`~repro.storage.backend.BACKEND_KINDS` (``"memory"``,
        ``"shm"``), an already-open
        :class:`~repro.storage.backend.Backend` over the same ``db``,
        or ``None`` (default) for ``"memory"``.  An unknown kind
        raises :class:`~repro.errors.SchemaError`.  The shm backend
        owns real OS resources — close the session (or use it as a
        context manager) to release them.
    """

    def __init__(
        self,
        db: Database,
        options: PlannerOptions | None = None,
        cache_results: bool = True,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        backend=None,
    ) -> None:
        self.db = db
        self._executor = Executor(db, backend=backend)
        self._results = ResultCache(
            enabled=cache_results, byte_budget=cache_bytes
        )
        #: The version token the result cache's entries were made at.
        self._token = self._executor.version
        self.options = options if options is not None else DEFAULT_OPTIONS
        #: The report of the session's most recent run (any query).
        self.last_report: ExecutionReport | None = None
        #: text → parsed expression (:meth:`parse`).
        self._parsed: dict[str, Expr] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the storage backend."""
        return self._executor.backend.closed

    def close(self) -> None:
        """Release the storage backend (idempotent).

        The shm backend's segments are real OS resources; this gives
        them back.  Queries on a closed session raise
        :class:`~repro.errors.SchemaError`.
        """
        self._executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def executor(self) -> Executor:
        """The session's executor (caches, statistics, cost model)."""
        return self._executor

    @property
    def schema(self) -> Schema:
        return self.db.schema

    @property
    def result_cache(self) -> ResultCache:
        """The session's cross-query result cache (counters included)."""
        return self._results

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Expr:
        """Parse query text against the session's schema.

        A repeated text is parsed once: an ``Expr`` is immutable and
        the schema is fixed for the session's life, so the same text
        returns the same object (a :class:`~repro.errors.ParseError`
        is never stored).  The memo holds at most
        ``Executor.PLAN_CACHE_SIZE`` texts and starts over when full —
        single dict operations only, so server client threads may
        share it without a lock.
        """
        expr = self._parsed.get(text)
        if expr is None:
            from repro.algebra.parser import parse

            expr = parse(text, self.schema)
            if len(self._parsed) >= Executor.PLAN_CACHE_SIZE:
                self._parsed.clear()
            self._parsed[text] = expr
        return expr

    def query(
        self,
        query: "str | Expr",
        options: PlannerOptions | None = None,
    ) -> PreparedQuery:
        """Prepare a query: parse once, plan lazily per stats state.

        ``query`` is either expression text (parsed against the
        session's schema) or an already-built logical
        :class:`~repro.algebra.ast.Expr`.  ``options`` overrides the
        session-level options for this query only; storage is not
        among them (it is fixed when the session is built).
        """
        if isinstance(query, str):
            return PreparedQuery(self, self.parse(query), query, options)
        if not isinstance(query, Expr):
            raise SchemaError(
                "Session.query needs expression text or an Expr, got "
                f"{type(query).__name__}"
            )
        return PreparedQuery(self, query, None, options)

    def run(
        self,
        query: "str | Expr",
        options: PlannerOptions | None = None,
    ) -> Relation:
        """Prepare and run in one step; returns a frozenset of rows."""
        return self.query(query, options).run()

    def explain(
        self,
        query: "str | Expr",
        costs: bool = False,
        analyze: bool = False,
        options: PlannerOptions | None = None,
    ) -> str:
        """Render the plan the session would execute for ``query``."""
        return self.query(query, options).explain(costs=costs, analyze=analyze)

    def oracle(self, query: "str | Expr") -> Relation:
        """Evaluate *as written* with the structural evaluator.

        Bypasses every engine rewrite (and the result cache): the
        memoizing tree-walk computes each logical sub-expression
        exactly as the expression states it — the Definition 16
        semantics the engine's plans are differentially tested
        against.
        """
        from repro.algebra.evaluator import evaluate

        expr = self.parse(query) if isinstance(query, str) else query
        return evaluate(expr, self.db)

    # ------------------------------------------------------------------
    # Division (the uniform validation path shared with the CLI)
    # ------------------------------------------------------------------

    def divide(
        self,
        dividend: str = "R",
        divisor: str = "S",
        algorithm: str = "hash",
        eq: bool = False,
    ) -> frozenset:
        """Relational division ``dividend(A,B) ÷ divisor(B)``.

        ``algorithm`` is ``"engine"`` (plan the classic RA expression —
        or the §5 γ plan for ``eq=True`` — through the session, letting
        the planner collapse it to the linear
        :class:`~repro.engine.plan.DivisionOp`), ``"reference"`` (the
        brute-force oracle), or a name from the direct-algorithm zoo
        (:data:`~repro.setjoins.division.DIVISION_ALGORITHMS`).

        Operands are validated against the *schema* before any
        algorithm runs, so every path fails identically: an unknown
        name raises :class:`~repro.errors.UnknownRelationError` and a
        wrong arity raises :class:`~repro.errors.SchemaError` — even
        when the relation happens to be empty, where the direct
        algorithms' data-driven row checks used to pass vacuously
        while the engine path rejected the expression shape.
        """
        from repro.setjoins.division import (
            DIVISION_ALGORITHMS,
            DIVISION_EQ_ALGORITHMS,
            divide_reference,
            divide_reference_eq,
        )

        dividend_arity = self.schema[dividend]  # UnknownRelationError
        divisor_arity = self.schema[divisor]
        if dividend_arity != 2 or divisor_arity != 1:
            raise SchemaError(
                "division needs a binary dividend and a unary divisor; "
                f"got {dividend!r}/{dividend_arity} and "
                f"{divisor!r}/{divisor_arity}"
            )
        if algorithm == "engine":
            expr = _division_expr(dividend, divisor, eq)
            return frozenset(a for (a,) in self.run(expr))
        if algorithm == "reference":
            fn = divide_reference_eq if eq else divide_reference
        else:
            registry = (
                DIVISION_EQ_ALGORITHMS if eq else DIVISION_ALGORITHMS
            )
            try:
                fn = registry[algorithm]
            except KeyError:
                raise SchemaError(
                    f"unknown division algorithm {algorithm!r}; expected "
                    "'engine', 'reference', or one of "
                    f"{sorted(registry)}"
                ) from None
        return fn(self.db[dividend], self.db[divisor])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run(self, prepared: PreparedQuery) -> Relation:
        executor = self._executor
        cache = self._results
        # The version check comes first, so a mutation between runs
        # empties every cache (results included) *here* — the cold
        # re-run computes against the new contents instead of raising
        # StaleDataError mid-flight.  A repeat is answered before
        # anything is planned: its rows are fixed by the expression,
        # the options and the contents, whatever plan computes them.
        executor.check_version()
        token = executor.version
        if token != self._token:
            self._token = token
            cache.invalidate()
        expr, options = prepared.expr, prepared.options
        result = cache.get((expr, options, token))
        cached = result is not None
        if cached:
            stats = ExecutionStats()
        else:
            result = executor.execute(executor.plan(expr, options))
            # Stored under the contents the rows were computed from.
            cache.put((expr, options, executor.version), result)
            stats = executor.stats
            # Per-query stats and result memo: cached cross-query reuse
            # lives in the bounded ResultCache, not pinned in the memo.
            executor.reset_query_state()
        report = ExecutionReport(
            rows=len(result),
            cached=cached,
            options=options,
            stats=stats,
            cache_line=cache.stats_line(),
        )
        prepared.last_report = report
        self.last_report = report
        return result
