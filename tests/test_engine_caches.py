"""Executor-owned caches: the LRU index budget and honest counters.

Regression tests for two PR-6 bugfixes:

* :class:`~repro.engine.executor.IndexCache` claimed LRU eviction in
  its docstring but grew without bound — it now enforces a
  ``row_budget`` (total rows across cached indexes), evicting least
  recently used entries while never touching the index just built;
* :class:`~repro.engine.executor.ResultCache` counted lookups made
  while disabled as *misses*, poisoning hit-rate arithmetic — they are
  now tracked separately as ``disabled_lookups`` and rendered as an
  explicit off-state line in reports.

It also pins the lifetime of the planner's sub-plan memo: it lives as
long as the executor's cost model and goes wherever the model is
replaced, so no plan priced by an old model outlives it; and the
freshness of the catalog and of ``explain``:

* :class:`~repro.engine.stats.StatsCatalog` keys its cache by *version
  token*, so a session profiles each relation once, not once per
  query, and reads the database, so planning on the shm backend
  decodes nothing from its segment;
* every explain entry point re-checks the version token before
  rendering costs, so a mutation is never shown with pre-mutation
  statistics;
* a result-cache hit executes zero operators.
"""

import pytest

from repro.algebra.ast import ConstantTag, Rel
from repro.algebra.parser import parse
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import Executor, IndexCache, PlannerOptions, ResultCache
from repro.engine.plan import HashJoinOp, NestedLoopJoinOp
from repro.engine.planner import DEFAULT_OPTIONS, Planner
from repro.errors import SchemaError
from repro.serve.server import Server
from repro.session import Session
from repro.storage.backend import ColumnarBackend


def correlated_db() -> Database:
    """A two-relation database whose join defeats ``1/max(d)``.

    ``A``'s second column and ``B``'s first column both put value 0 on
    11 of 20 rows (and values 1–9 on one row each), so the uniformity
    assumption underestimates the equijoin: ``20·20/10 = 40`` rows
    against ``11·11 + 9 = 130`` actual.
    """
    schema = Schema({"A": 2, "B": 2})
    a = frozenset((i, 0) for i in range(10)) | frozenset(
        (10 + i, i) for i in range(10)
    )
    b = frozenset((0, i) for i in range(10)) | frozenset(
        (i, 10 + i) for i in range(10)
    )
    return Database(schema, {"A": a, "B": b})


def build(cache, name, rows):
    """Index ``rows`` (pairs) by first position under logical key ``name``."""
    return cache.index_for(name, rows, (1,))


PAIRS = [[(i, j) for i in range(5)] for j in range(4)]  # four 5-row inputs


class TestIndexCacheLRU:
    def test_negative_budget_rejected(self):
        with pytest.raises(SchemaError):
            IndexCache(row_budget=-1)

    def test_unbounded_growth_is_gone(self):
        cache = IndexCache(row_budget=10)
        for name, rows in zip("abc", PAIRS):
            build(cache, name, rows)
        # Three 5-row builds against a 10-row budget: the oldest entry
        # must have been evicted.  Before the fix len(cache) == 3 and
        # rows_indexed grew without bound.
        assert cache.rows_indexed <= 10
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.builds == 3

    def test_reuse_refreshes_recency(self):
        cache = IndexCache(row_budget=10)
        build(cache, "a", PAIRS[0])
        build(cache, "b", PAIRS[1])
        build(cache, "a", PAIRS[0])  # touch a: now b is least recent
        assert cache.reuses == 1
        build(cache, "c", PAIRS[2])  # forces one eviction: b, not a
        assert cache.evictions == 1
        build(cache, "a", PAIRS[0])
        assert cache.reuses == 2  # a survived
        build(cache, "b", PAIRS[1])
        assert cache.builds == 4  # b did not: rebuild, not reuse

    def test_just_built_index_never_evicted(self):
        # A single build larger than the whole budget must still be
        # returned usable and stay cached (evicting it would thrash).
        cache = IndexCache(row_budget=3)
        index = build(cache, "big", PAIRS[0])
        assert index[(2,)] == [(2, 0)]
        assert len(cache) == 1
        assert cache.evictions == 0
        assert build(cache, "big", PAIRS[0]) is index
        assert cache.reuses == 1

    def test_evicted_index_stays_usable_by_its_holder(self):
        cache = IndexCache(row_budget=5)
        held = build(cache, "a", PAIRS[0])
        build(cache, "b", PAIRS[1])  # evicts a from the cache
        assert cache.evictions == 1
        assert held[(3,)] == [(3, 0)]  # the caller's reference is intact

    def test_rows_indexed_tracks_evictions(self):
        cache = IndexCache(row_budget=10)
        for name, rows in zip("abcd", PAIRS):
            build(cache, name, rows)
        assert cache.rows_indexed == sum(
            count for (_, count) in cache._indexes.values()
        )
        assert cache.rows_indexed <= 10


class TestResultCacheDisabledCounters:
    def test_disabled_lookups_are_not_misses(self):
        cache = ResultCache(enabled=False)
        for _ in range(3):
            assert cache.get(("k",)) is None
        # Before the fix these counted misses == 3, hit rate 0/3.
        assert cache.misses == 0
        assert cache.hits == 0
        assert cache.disabled_lookups == 3

    def test_enabled_lookups_still_count_misses(self):
        cache = ResultCache(enabled=True)
        assert cache.get(("k",)) is None
        assert cache.misses == 1
        assert cache.disabled_lookups == 0

    def test_stats_line_off_state(self):
        cache = ResultCache(enabled=False)
        cache.get(("k",))
        cache.get(("k",))
        line = cache.stats_line()
        assert "[off]" in line
        assert "2 bypassed" in line
        assert "hit" not in line  # no fictitious hit-rate while off

    def test_session_report_renders_off_state(self):
        db = database({"R": 2}, R=[(1, 2), (3, 4)])
        session = Session(db, cache_results=False)
        session.run("R")
        session.run("R")
        text = session.last_report.render()
        assert "off" in text
        assert "bypassed" in text
        # And the counters behind it stayed honest:
        assert session.result_cache.misses == 0
        assert session.result_cache.disabled_lookups >= 2


# ----------------------------------------------------------------------
# The sub-plan memo lives as long as the cost model
# ----------------------------------------------------------------------


def keyed_db(divisor_rows):
    """``R ⋈_{2=1} S`` hashes over 60 ``S`` rows and loops over one."""
    return database(
        {"R": 2, "S": 2},
        R=[(i, i % 7) for i in range(60)],
        S=divisor_rows,
    )


BIG_S = [(i % 7, i) for i in range(60)]
JOIN = parse("R join[2=1] S", {"R": 2, "S": 2})
TAGGED = ConstantTag(JOIN, 5)  #: a later query holding ``JOIN``


def private_plan(executor, expr, options=DEFAULT_OPTIONS):
    """What a planner with its own memo plans on the executor's state."""
    return Planner(options, executor.cost_model).plan(expr)


def shares_no_node(plan, other) -> bool:
    return {id(node) for node in plan.nodes()}.isdisjoint(
        id(node) for node in other.nodes()
    )


class TestSubPlanMemoLifetime:
    def test_a_later_query_reuses_an_earlier_sub_plan(self):
        executor = Executor(keyed_db(BIG_S))
        first = executor.plan(JOIN)
        tagged = executor.plan(TAGGED)
        assert tagged.child is first
        assert tagged == private_plan(executor, TAGGED)

    def test_one_memo_per_options_value(self):
        executor = Executor(keyed_db(BIG_S))
        first = executor.plan(JOIN)
        other = PlannerOptions(use_multiway=False)
        tagged = executor.plan(TAGGED, other)
        assert shares_no_node(tagged, first)
        assert tagged == private_plan(executor, TAGGED, other)

    def test_a_version_change_drops_it(self):
        db = keyed_db(BIG_S)
        executor = Executor(db)
        first = executor.plan(JOIN)
        assert isinstance(first, HashJoinOp)
        # New contents behind the same handle: one S row, and the join
        # is now cheaper as a nested loop.
        db._relations = keyed_db([(1, 2)])._relations
        tagged = executor.plan(TAGGED)
        assert isinstance(tagged.child, NestedLoopJoinOp)
        assert tagged == private_plan(executor, TAGGED)

    def test_a_size_recycle_drops_it(self, monkeypatch):
        monkeypatch.setattr(Executor, "PLAN_CACHE_SIZE", 2)
        executor = Executor(keyed_db(BIG_S))
        first = executor.plan(JOIN)
        model = executor.cost_model
        value = 0
        while executor.cost_model is model:
            value += 1
            executor.plan(ConstantTag(Rel("R", 2), value))
        tagged = executor.plan(TAGGED)
        assert shares_no_node(tagged, first)
        assert tagged == private_plan(executor, TAGGED)

    def test_a_text_stream_stays_bounded(self):
        """Every fresh text adds sub-plans to the memo and estimates to
        the model; counting both keeps the pair bounded."""
        session = Session(keyed_db(BIG_S))
        executor = session.executor
        bound = 16 * Executor.PLAN_CACHE_SIZE
        peak = 0
        for value in range(20_000):
            session.run(f"tag[{value}](R)")
            held = len(executor.cost_model) + sum(
                map(len, executor._subplans.values())
            )
            peak = max(peak, held)
        # The check runs before planning; one text adds one sub-plan
        # and one estimate.
        assert bound < peak <= bound + 2


class TestStatsFreshness:
    def test_shm_planning_decodes_no_relation(self, monkeypatch):
        # Statistics read the Database: pricing a plan on the shm
        # backend never decodes a relation out of its segment.
        decoded = []
        rows = ColumnarBackend.rows

        def counted(self, name):
            decoded.append(name)
            return rows(self, name)

        monkeypatch.setattr(ColumnarBackend, "rows", counted)
        db = correlated_db()
        with Session(db, backend="shm") as session:
            assert "~rows=" in session.explain("A join[2=1] B", costs=True)
            assert session.executor.catalog.profiles == len(db.schema)
        assert decoded == []
        # A shm Server prices every read on its own session; workers=0
        # runs the read inline from the pinned snapshot descriptor.
        with Server(correlated_db(), workers=0, backend="shm") as server:
            handle = server.connect("t")
            handle.write(additions={"A": [(99, 0)]})
            rows = handle.submit("A join[2=1] B").result(30)
            assert (99, 0, 0, 0) in rows
        assert decoded == []

    def test_shm_session_profiles_once_across_queries(self):
        db = correlated_db()
        with Session(db, backend="shm") as session:
            session.run("A join[2=1] B")
            session.run("A join[2=1] B")
            session.run("project[1](A)")
            assert session.executor.catalog.profiles == len(db.schema)


def test_explain_reprices_after_mutation():
    db = correlated_db()
    session = Session(db)
    prepared = session.query("A join[2=1] B")
    prepared.run()
    before = prepared.explain(costs=True)
    # Contents swap behind the same handle: shrink A to one row, whose
    # one value B holds 11 times.
    db._relations = {**db._relations, "A": frozenset({(0, 0)})}
    after = prepared.explain(costs=True)
    assert "~rows=11 ub=11 " not in before
    assert "~rows=11 ub=11 " in after
    assert prepared.run() == session.oracle("A join[2=1] B")


def test_a_cache_hit_executes_no_operator():
    session = Session(correlated_db())
    prepared = session.query("A join[2=1] B")
    prepared.run()
    assert not prepared.last_report.cached
    prepared.run()
    assert prepared.last_report.cached
    assert prepared.last_report.operators_executed() == 0
