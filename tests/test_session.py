"""The ``Session`` front door and the cross-query result cache.

Covers the PR's acceptance contract:

* a repeated identical query against unchanged contents is served from
  the result cache with **zero** physical operator executions
  (asserted through :class:`~repro.engine.executor.ExecutionStats`);
* a mutation between runs invalidates the cache — the cold re-run
  returns fresh correct rows and raises no
  :class:`~repro.errors.StaleDataError`;
* partitioned ≡ unpartitioned ≡ structural-oracle differential
  agreement through the Session API, with caching on and off;
* a mutate-between-runs sequence never serves stale rows
  (Hypothesis property over random contents and mutation schedules);
* ``SchemaError`` behavior is identical across every session division
  path (engine-planned and direct algorithms alike), including on
  empty relations where the old data-driven checks passed vacuously.
* a session streaming many queries plans each one as a planner with a
  memo of its own would, though sub-plans outlive the query that made
  them (Hypothesis property over three option sets), and the
  structural plan run on the same executor gives the same rows.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.partition as partition_module
from repro.algebra.ast import (
    Difference,
    Join,
    Projection,
    Rel,
    Semijoin,
    Union,
)
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import PlannerOptions
from repro.engine.executor import ResultCache
from repro.engine.planner import Planner, plan_expression
from repro.errors import SchemaError, StaleDataError, UnknownRelationError
from repro.extended.division_plan import (
    containment_division_plan,
    equality_division_plan,
)
from repro.extended.evaluator import evaluate_extended
from repro.session import Session
from repro.setjoins.division import classic_division_expr
from repro.workloads.generators import division_database
from tests.strategies import databases, expressions, rows

SCHEMA = Schema({"R": 2, "S": 1})

#: Derandomized profile matching the other engine property tests.
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def join_db(n: int = 24, keys: int = 6) -> Database:
    return database(
        {"R": 2, "S": 1},
        R=[(i, i % keys) for i in range(n)],
        S=[(k,) for k in range(keys // 2)],
    )


class TestPreparedQuery:
    def test_text_is_parsed_once_and_kept(self):
        session = Session(join_db())
        prepared = session.query("R join[2=1] S")
        assert prepared.text == "R join[2=1] S"
        assert prepared.expr == parse("R join[2=1] S", SCHEMA)
        assert prepared.stats() is None  # no run yet

    def test_accepts_prebuilt_expressions(self):
        session = Session(join_db())
        expr = parse("project[1](R)", SCHEMA)
        prepared = session.query(expr)
        assert prepared.expr is expr
        assert prepared.run() == evaluate(expr, session.db)

    def test_rejects_non_queries(self):
        session = Session(join_db())
        with pytest.raises(SchemaError):
            session.query(42)

    def test_explain_renders_the_executed_plan(self):
        session = Session(join_db())
        prepared = session.query("R join[2=1] S")
        rendered = prepared.explain(costs=True)
        assert " :: " in rendered
        assert "ub=" in rendered
        analyzed = prepared.explain(analyze=True)
        assert analyzed.startswith("-- dichotomy:")

    def test_per_query_options_override_session_options(self):
        session = Session(
            join_db(), options=PlannerOptions(use_multiway=False)
        )
        default = session.query("R join[2=1] S")
        assert default.options.use_multiway is False
        costed = session.query(
            "R join[2=1] S", options=PlannerOptions()
        )
        assert costed.options.use_multiway is True
        assert default.run() == costed.run()


class TestParseMemo:
    def test_a_repeated_text_is_the_same_expression_parsed_once(
        self, monkeypatch
    ):
        import repro.algebra.parser as parser_module

        texts = []
        real = parser_module.parse

        def recording(text, schema):
            texts.append(text)
            return real(text, schema)

        monkeypatch.setattr(parser_module, "parse", recording)
        session = Session(join_db())
        first = session.parse("R join[2=1] S")
        assert session.parse("R join[2=1] S") is first
        assert session.query("R join[2=1] S").expr is first
        assert first == real("R join[2=1] S", SCHEMA)
        assert session.parse("project[1](R)") is not first
        assert texts == ["R join[2=1] S", "project[1](R)"]

    def test_the_memo_is_bounded_and_a_parse_error_is_never_stored(
        self, monkeypatch
    ):
        from repro.engine.executor import Executor
        from repro.errors import ParseError

        monkeypatch.setattr(Executor, "PLAN_CACHE_SIZE", 8)
        session = Session(join_db())
        for width in range(1, 30):
            positions = ",".join("1" * width)
            expr = session.parse(f"project[{positions}](R)")
            assert len(expr.positions) == width
            assert len(session._parsed) <= 8
        for __ in range(2):  # raised afresh each time
            with pytest.raises(ParseError):
                session.parse("R join[2=1")
        assert "R join[2=1" not in session._parsed


class TestResultCache:
    def test_repeated_identical_query_hits_with_zero_operators(self):
        session = Session(join_db())
        prepared = session.query("R join[2=1] S")
        cold = prepared.run()
        assert not prepared.last_report.cached
        assert prepared.last_report.operators_executed() > 0
        warm = prepared.run()
        assert warm == cold
        assert prepared.last_report.cached
        # The acceptance contract: zero physical operator executions,
        # asserted via ExecutionStats.
        assert prepared.last_report.operators_executed() == 0
        assert prepared.last_report.stats.node_rows == {}
        assert prepared.stats().total_rows() == 0
        assert session.result_cache.hits == 1
        assert session.result_cache.misses == 1

    def test_structurally_shared_queries_share_one_entry(self):
        # Sized so Corollary 19 routes the projected join through a
        # semijoin: both texts then plan to the same physical shape.
        db = database(
            {"R": 2, "S": 1},
            R=[(i, i % 8) for i in range(32)],
            S=[(k,) for k in range(6)],
        )
        session = Session(db)
        joined = session.query("project[1](R join[2=1] S)")
        semi = session.query("project[1](R semijoin[2=1] S)")
        assert joined.expr != semi.expr  # different logical queries
        assert (
            joined.plan().fingerprint() == semi.plan().fingerprint()
        )  # same physical computation
        first = joined.run()
        assert not joined.last_report.cached
        shared = semi.run()
        assert shared == first
        assert semi.last_report.cached
        assert semi.last_report.operators_executed() == 0
        assert len(session.result_cache) == 1

    def test_hit_rate_on_repeated_workload(self):
        session = Session(join_db())
        texts = ["R join[2=1] S", "project[1](R)", "R semijoin[2=1] S"]
        for text in texts:
            session.run(text)
        assert session.result_cache.hits == 0
        assert session.result_cache.misses == len(texts)
        for _ in range(3):
            for text in texts:
                session.run(text)
        assert session.result_cache.hits == 3 * len(texts)
        assert session.result_cache.misses == len(texts)

    def test_mutation_between_runs_invalidates_without_stale_error(self):
        db = join_db()
        session = Session(db)
        prepared = session.query("R join[2=1] S")
        before = prepared.run()
        prepared.run()
        assert prepared.last_report.cached
        mutated = db.with_tuples({"S": [(99,)], "R": [(99, 99)]})
        db._relations = mutated._relations  # contents swap, same handle
        # The cold re-run recomputes against the new contents — fresh
        # correct rows, no StaleDataError.
        after = prepared.run()
        assert not prepared.last_report.cached
        assert after == evaluate(prepared.expr, db)
        assert (99, 99, 99) in after
        assert after != before

    def test_disabled_cache_never_hits_or_stores(self):
        session = Session(join_db(), cache_results=False)
        prepared = session.query("R join[2=1] S")
        first = prepared.run()
        second = prepared.run()
        assert first == second
        assert not prepared.last_report.cached
        assert prepared.last_report.operators_executed() > 0
        assert session.result_cache.hits == 0
        assert len(session.result_cache) == 0

    def test_byte_budget_evicts_lru(self):
        # Each result fits individually, the set does not: LRU entries
        # must be evicted to stay within the byte budget.
        session = Session(join_db(n=40, keys=8), cache_bytes=3000)
        texts = [f"project[{p}](R)" for p in (1, 2)] + [
            "R join[2=1] S",
            "R semijoin[2=1] S",
        ]
        for text in texts:
            session.run(text)
        cache = session.result_cache
        assert cache.total_bytes <= 3000
        assert cache.evictions > 0
        assert len(cache) < len(texts)

    def test_oversized_results_are_not_admitted(self):
        cache = ResultCache(byte_budget=10)
        cache.put(("fp", None, 0), frozenset({(1, 2), (3, 4)}))
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(SchemaError):
            ResultCache(byte_budget=-1)

    def test_options_partition_the_key_space(self):
        # Same fingerprint never crosses options: an ablation run must
        # not be served a default-options result.
        session = Session(join_db())
        ablation = PlannerOptions(rewrite_divisions=False)
        session.run("project[1](R)")
        session.run("project[1](R)", options=ablation)
        assert session.result_cache.hits == 0
        assert session.result_cache.misses == 2


class TestExecutionReport:
    def test_cold_report_carries_stats_and_counters(self):
        session = Session(join_db())
        session.run("R join[2=1] S")
        report = session.last_report
        assert report is not None and not report.cached
        assert report.rows == len(session.run("R join[2=1] S"))
        pairs = report.stats.estimation_pairs()
        assert pairs
        for __, actual, estimate in pairs:
            assert math.isfinite(estimate.upper)
            assert actual <= estimate.upper

    def test_render_reports_cache_and_in_flight(self):
        session = Session(join_db())
        prepared = session.query("R join[2=1] S")
        prepared.run()
        cold = session.last_report.render()
        assert "source           : executed" in cold
        assert "max in flight" in cold
        assert "result cache" in cold
        prepared.run()
        warm = session.last_report.render()
        assert "result cache (hit)" in warm

    def test_session_and_prepared_reports_stay_in_sync(self):
        session = Session(join_db())
        a = session.query("project[1](R)")
        b = session.query("project[2](R)")
        a.run()
        b.run()
        assert session.last_report is b.last_report
        assert a.last_report is not b.last_report


class TestDifferentialThroughSession:
    """Partitioned ≡ unpartitioned ≡ structural oracle, cache on/off."""

    EXPRESSIONS = (
        "R join[2=1] S",
        "project[1](R join[2=1] S)",
        "project[1](R) minus project[1]((project[1](R) join[] S)"
        " minus R)",
    )

    @pytest.mark.parametrize("cache_results", [True, False])
    def test_partitioned_unpartitioned_oracle_agree(self, cache_results):
        db = division_database(
            num_keys=30, divisor_size=4, extra_per_key=2, seed=11
        )
        plain = Session(db, cache_results=cache_results)
        parted = Session(
            db,
            options=PlannerOptions(partition_budget=12),
            cache_results=cache_results,
        )
        for text in self.EXPRESSIONS:
            oracle = plain.oracle(text)
            for attempt in range(2):
                assert plain.run(text) == oracle
                assert parted.run(text) == oracle
            if cache_results:
                assert plain.last_report.cached
                assert parted.last_report.cached
                assert parted.last_report.operators_executed() == 0
            else:
                assert not plain.last_report.cached
                assert not parted.last_report.cached

    def test_partitioned_plans_actually_partition(self):
        db = division_database(
            num_keys=30, divisor_size=4, extra_per_key=2, seed=11
        )
        session = Session(db, options=PlannerOptions(partition_budget=12))
        prepared = session.query(self.EXPRESSIONS[0])
        assert "Partitioned[" in prepared.explain()
        prepared.run()
        assert session.last_report.stats.partition_runs

    def test_stale_data_error_propagates_unwrapped(self, monkeypatch):
        """Mid-run mutation surfaces as StaleDataError via the Session
        exactly as via a raw Executor (identical error contract)."""
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        session = Session(
            db, options=PlannerOptions(partition_budget=60)
        )
        prepared = session.query(classic_division_expr())
        assert "Partitioned[" in prepared.explain()

        quotient = partition_module.kernels.quotient

        def mutating_quotient(trie, divisor, eq):
            db._relations = {**db._relations, "S": frozenset({(999,)})}
            return quotient(trie, divisor, eq)

        monkeypatch.setattr(
            partition_module.kernels, "quotient", mutating_quotient
        )
        with pytest.raises(StaleDataError):
            prepared.run()


class TestDivideUniformity:
    """Satellite: SchemaError behavior identical across all paths."""

    ALGORITHMS = ("engine", "reference", "hash", "counting", "sort_merge")

    @pytest.fixture
    def bad_arity_db(self):
        # T is ternary and EMPTY: the direct algorithms' data-driven
        # row checks used to pass vacuously here while the engine path
        # rejected the expression shape — the old CLI divergence.
        return database({"T": 3, "R": 2, "S": 1, "U": 2}, R=[(1, 7)], S=[(7,)])

    def test_wrong_arity_raises_identically_even_when_empty(
        self, bad_arity_db
    ):
        session = Session(bad_arity_db)
        messages = set()
        for algorithm in self.ALGORITHMS:
            with pytest.raises(SchemaError) as caught:
                session.divide("T", "S", algorithm=algorithm)
            messages.add(str(caught.value))
        assert len(messages) == 1  # one message, every path
        assert "binary dividend" in messages.pop()

    def test_wrong_divisor_arity_raises_identically(self, bad_arity_db):
        session = Session(bad_arity_db)
        for algorithm in self.ALGORITHMS:
            with pytest.raises(SchemaError):
                session.divide("R", "U", algorithm=algorithm)

    def test_unknown_names_raise_unknown_relation(self, bad_arity_db):
        session = Session(bad_arity_db)
        for algorithm in self.ALGORITHMS:
            with pytest.raises(UnknownRelationError):
                session.divide("Nope", "S", algorithm=algorithm)
            with pytest.raises(UnknownRelationError):
                session.divide("R", "Nope", algorithm=algorithm)

    def test_unknown_algorithm_is_a_schema_error(self, bad_arity_db):
        session = Session(bad_arity_db)
        with pytest.raises(SchemaError):
            session.divide("R", "S", algorithm="quantum")

    def test_all_algorithms_agree_on_valid_inputs(self):
        db = division_database(
            num_keys=12, divisor_size=3, extra_per_key=2, seed=7
        )
        session = Session(db)
        results = {
            algorithm: session.divide("R", "S", algorithm=algorithm)
            for algorithm in self.ALGORITHMS
        }
        expected = results["reference"]
        assert all(result == expected for result in results.values())

    def test_eq_division_agrees_across_paths(self):
        db = database(
            {"R": 2, "S": 1},
            R=[(1, 7), (1, 8), (2, 7), (3, 7), (3, 8), (3, 9)],
            S=[(7,), (8,)],
        )
        session = Session(db)
        expected = session.divide("R", "S", algorithm="reference", eq=True)
        assert expected == frozenset({1})
        for algorithm in ("engine", "hash", "counting"):
            assert (
                session.divide("R", "S", algorithm=algorithm, eq=True)
                == expected
            )

    @pytest.mark.parametrize("eq", [False, True])
    def test_a_repeated_engine_division_plans_one_expression(self, eq):
        # The expression is built once per operand pair, so the plan
        # memo finds a repeated division by identity.
        db = database(
            {"R": 2, "Q": 2, "S": 1},
            R=[(1, 7), (1, 8), (2, 7)],
            Q=[(3, 7), (3, 8)],
            S=[(7,), (8,)],
        )
        session = Session(db)
        planned = []
        real = session.executor.plan

        def recording(expr, options=None):
            planned.append(expr)
            return real(expr, options)

        session.executor.plan = recording
        for dividend in ("R", "R", "Q"):
            assert session.divide(
                dividend, "S", algorithm="engine", eq=eq
            ) == session.divide(dividend, "S", algorithm="reference", eq=eq)
        build = equality_division_plan if eq else classic_division_expr
        assert planned[0] is planned[1]
        assert planned[0] == build(Rel("R", 2), Rel("S", 1))
        assert planned[2] == build(Rel("Q", 2), Rel("S", 1))


def test_session_module_has_no_one_shot_door_or_registry():
    import repro.session as session_module

    assert not hasattr(session_module, "run")
    assert not hasattr(session_module, "_sessions")


# ----------------------------------------------------------------------
# Properties: a mutate-between-runs sequence never serves stale rows
# ----------------------------------------------------------------------


@PROPERTY
@given(
    r_rows=rows(2, max_rows=8),
    s_versions=st.lists(rows(1, max_rows=5), min_size=1, max_size=4),
    repeats=st.integers(1, 2),
)
def test_mutation_schedule_never_serves_stale_rows(
    r_rows, s_versions, repeats
):
    """Version-token invalidation: whatever the interleaving of runs
    and content swaps, every answer matches the structural oracle on
    the *current* contents."""
    db = Database(SCHEMA, {"R": r_rows, "S": s_versions[0]})
    session = Session(db)
    prepared = session.query("project[1](R join[2=1] S)")
    for s_rows in s_versions:
        db._relations = {**db._relations, "S": frozenset(s_rows)}
        oracle = evaluate(
            prepared.expr,
            Database(SCHEMA, {"R": r_rows, "S": s_rows}),
        )
        for _ in range(repeats):
            assert prepared.run() == oracle


@PROPERTY
@given(r_rows=rows(2, max_rows=8), s_rows=rows(1, max_rows=5))
def test_unchanged_contents_always_hit_after_warmup(r_rows, s_rows):
    session = Session(Database(SCHEMA, {"R": r_rows, "S": s_rows}))
    prepared = session.query("R semijoin[2=1] S")
    expected = prepared.run()
    for _ in range(3):
        assert prepared.run() == expected
        assert prepared.last_report.cached
        assert prepared.last_report.operators_executed() == 0
    assert session.result_cache.hits == 3


# ----------------------------------------------------------------------
# Properties: a long-lived session plans what a fresh planner would
# ----------------------------------------------------------------------

#: One stream per value: the executor keeps one sub-plan memo for each.
STREAMED_OPTIONS = (
    PlannerOptions(),
    PlannerOptions(partition_budget=3),
    PlannerOptions(use_multiway=False),
)


def nested_divisions() -> tuple:
    """The three division patterns, bare and inside larger expressions
    that reach them by sharing subexpressions with their alternatives."""
    r, s, t = Rel("R", 2), Rel("S", 1), Rel("T", 3)
    found = []
    for plan in (
        classic_division_expr(r, s),
        containment_division_plan(r, s),
        equality_division_plan(r, s),
    ):
        found += [
            plan,
            Union(plan, Projection(r, (1,))),
            Join(plan, s, "1=1"),
            Semijoin(r, plan, "1=1"),
            Difference(Projection(t, (1,)), plan),
        ]
    return tuple(found)


@PROPERTY
@given(
    db=databases(),
    exprs=st.lists(
        st.one_of(
            expressions(max_depth=4), st.sampled_from(nested_divisions())
        ),
        min_size=2,
        max_size=6,
    ),
)
def test_a_streaming_session_plans_what_a_private_planner_plans(db, exprs):
    """The executor's sub-plan memo outlives each query; every plan it
    builds still equals a planner's with a memo of its own, on the same
    executor state, and runs to the structural rows — as does the
    structural plan (no statistics) on that executor."""
    for options in STREAMED_OPTIONS:
        with Session(db, options=options) as session:
            executor = session.executor
            for expr in exprs:
                plan = session.query(expr).plan()
                private = Planner(options, executor.cost_model).plan(expr)
                assert plan == private
                assert session.run(expr) == evaluate_extended(expr, db)
                structural = plan_expression(expr, options)
                assert executor.execute(structural) == session.run(expr)
