"""The cardinality/cost estimator: soundness, plan choice, statistics.

Three claims are held here:

1. **Soundness** — for every operator priced by a model with
   statistics, the estimated ``upper`` is finite and really bounds the
   actual output cardinality, on seeded random databases (the
   estimator's central contract; everything else is heuristics).
   Without statistics the model certifies nothing: a finite ``upper``
   is then only ever a theorem about the plan (an unsatisfiable σ's 0).
2. **Equivalence** — cost-based plans (reordered joins included)
   compute exactly what the structural evaluator and the brute-force
   oracle compute.
3. **Choice** — the cost model makes the choices the paper's dichotomy
   demands (linear direct division, semijoins for projected joins) and
   improves on the structural planner where statistics matter (join
   ordering), deterministically on pinned workloads.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.ast import Join, Rel
from repro.algebra.conditions import Condition
from repro.algebra.parser import parse
from repro.algebra.reference import evaluate_reference
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import (
    CostModel,
    Executor,
    StatsCatalog,
    fractional_edge_cover,
    plan_expression,
)
from repro.engine.plan import (
    DivisionOp,
    GroupByOp,
    HashJoinOp,
    HashSemijoinOp,
    NestedLoopJoinOp,
    ProjectOp,
    ScanOp,
)
from repro.engine.stats import MCV_SIZE, relation_stats
from repro.errors import SchemaError
from repro.setjoins.division import classic_division_expr
from repro.workloads.generators import (
    crossproduct_division_family,
    division_database,
)
from tests.strategies import (
    TEST_SCHEMA,
    databases,
    dense_databases,
    engine_run,
    expressions,
    join_chains,
)
from tests.test_engine_caches import correlated_db

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALLER = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


class TestStatistics:
    def test_relation_stats_are_exact(self):
        rows = [(1, 7), (1, 8), (2, 7), (3, 7)]
        stats = relation_stats(rows, 2)
        assert stats.rows == 4
        assert stats.distinct(1) == 3 and stats.distinct(2) == 2
        assert stats.max_freq(1) == 2 and stats.max_freq(2) == 3
        assert stats.columns[1].mcv[0] == (7, 3)

    def test_catalog_is_lazy_and_cached(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(3,)])
        catalog = StatsCatalog(db)
        assert catalog.profiled() == ()
        first = catalog.relation("R")
        assert catalog.profiled() == ("R",)
        assert catalog.relation("R") is first  # cached, not re-profiled

    def test_catalog_reprofiles_swapped_contents(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(3,)])
        catalog = StatsCatalog(db)
        assert catalog.relation("R").rows == 1
        # A storage backend swapping the relation behind the handle.
        db._relations = {**db._relations, "R": frozenset({(1, 2), (3, 4)})}
        assert catalog.relation("R").rows == 2


# ----------------------------------------------------------------------
# Soundness: estimated upper bounds vs actual cardinalities
# ----------------------------------------------------------------------


def _assert_upper_bounds_hold(expr, db: Database) -> None:
    executor = Executor(db)
    plan = executor.plan(expr)
    executor.execute(plan)
    pairs = executor.stats.estimation_pairs()
    assert pairs, "execution should record estimates next to actuals"
    assert executor.cost_model.catalog is not None
    for node, actual, estimate in pairs:
        assert math.isfinite(estimate.upper), node.label()
        assert actual <= estimate.upper + 1e-9, (
            f"{node.label()}: actual {actual} exceeds claimed sound "
            f"upper bound {estimate.upper}"
        )


@SETTINGS
@given(expressions(max_depth=4), dense_databases())
def test_estimates_are_sound_upper_bounds(expr, db):
    _assert_upper_bounds_hold(expr, db)


@SMALLER
@given(join_chains(), dense_databases(max_rows=16))
def test_estimates_sound_on_reordered_join_chains(expr, db):
    _assert_upper_bounds_hold(expr, db)


def test_estimates_sound_on_division_workload():
    db = division_database(
        num_keys=40, divisor_size=6, hit_fraction=0.4, seed=7
    )
    _assert_upper_bounds_hold(classic_division_expr(), db)


@SMALLER
@given(expressions(max_depth=3), databases())
def test_zero_stats_estimates_certify_nothing(expr, db):
    """Without a catalog no estimate claims a bound from the default
    assumptions: they rank plans, they do not bound anything.  The only
    finite bound is 0, derived from σ_{i<i} — a theorem about the
    operator, not the data."""
    model = CostModel(None)
    for node, estimate in model.estimates(plan_expression(expr)).items():
        assert estimate.upper in (0.0, math.inf), node.label()
        assert not math.isnan(estimate.upper), node.label()
        estimate.render()  # never raises, even on ∞ bounds
        if isinstance(node, ScanOp):
            assert estimate.upper == math.inf


def test_zero_stats_join_over_unsatisfiable_filter_is_not_nan():
    """Regression: 0·∞ in the join bound (an unsatisfiable σ_{1<1}
    side, upper 0, joined against a bound-less zero-stats scan) must
    collapse to 0, not NaN — NaN crashed ``explain --costs``."""
    plan = plan_expression(parse("select[1<1](R) join[2=1] S", TEST_SCHEMA))
    estimate = CostModel(None).estimate(plan)
    assert estimate.upper == 0.0
    assert "ub=0" in estimate.render()


def test_zero_stats_division_and_grouping_claim_no_bound():
    """A division's key count and a grouping's group count are read
    off distinct counts, which without statistics are the default
    ``sqrt(DEFAULT_ROWS)``: a guess, so neither may print as a bound
    (both printed ``ub=31.6``).  With statistics both are exact."""
    from repro.extended.ast import Aggregate, GroupBy

    division = classic_division_expr()
    grouped = GroupBy(Rel("R", 2), (1,), (Aggregate("count", 2),))
    for expr, root in ((division, DivisionOp), (grouped, GroupByOp)):
        plan = plan_expression(expr)
        assert isinstance(plan, root)
        estimate = CostModel(None).estimate(plan)
        assert estimate.upper == math.inf
        assert "ub=?" in estimate.render()
    db = database({"R": 2, "S": 1}, R=[(1, 7), (1, 8), (2, 7)], S=[(7,)])
    model = CostModel(StatsCatalog(db))
    assert model.estimate(plan_expression(division)).upper == 2.0
    assert model.estimate(plan_expression(grouped)).upper == 2.0


# ----------------------------------------------------------------------
# Equivalence: cost-based plans compute the same relations
# ----------------------------------------------------------------------


@SMALLER
@given(join_chains(), dense_databases(max_rows=12))
def test_reordered_join_chains_preserve_semantics(expr, db):
    assert engine_run(expr, db) == evaluate_reference(expr, db)


# ----------------------------------------------------------------------
# AGM-style bound
# ----------------------------------------------------------------------


def _scan(name: str, db: Database) -> ScanOp:
    return ScanOp(Rel(name, db.schema[name]))


class TestAGMBound:
    def test_path_chain_bound_skips_the_big_middle(self):
        # A(a,b) ⋈ B(b,c) ⋈ C(c,d): the cover x=(1,0,1) gives |A|·|C|,
        # independent of the huge middle relation.
        schema = Schema({"A": 2, "B": 2, "C": 2})
        db = Database(
            schema,
            {
                "A": {(i, i) for i in range(4)},
                "B": {(i, j) for i in range(10) for j in range(10)},
                "C": {(i, i) for i in range(4)},
            },
        )
        catalog = StatsCatalog(db)
        j1 = HashJoinOp(
            _scan("A", db),
            _scan("B", db),
            Condition.of("2=1"),
            Join(Rel("A", 2), Rel("B", 2), "2=1"),
        )
        j2 = HashJoinOp(
            j1,
            _scan("C", db),
            Condition.of("4=1"),
            Join(j1.logical, Rel("C", 2), "4=1"),
        )
        model = CostModel(catalog)
        assert model._agm_bound(j2) == pytest.approx(16.0)
        assert model.estimate(j2).upper <= 16.0

    def test_triangle_bound_is_fractional(self):
        # The triangle query over a complete bipartite R needs the
        # half-integral cover: AGM gives |R|^{3/2}, strictly below
        # every pairwise/most-common-value bound (n² here).
        side = 4
        rows = {(a, side + b) for a in range(side) for b in range(side)}
        db = database({"R": 2, "S": 1, "T": 3}, R=rows)
        catalog = StatsCatalog(db)
        r = Rel("R", 2)
        j1 = HashJoinOp(
            _scan("R", db),
            _scan("R", db),
            Condition.of("2=1"),
            Join(r, r, "2=1"),
        )
        j2 = HashJoinOp(
            j1,
            _scan("R", db),
            Condition.of("4=1", "1=2"),
            Join(j1.logical, r, "4=1,1=2"),
        )
        model = CostModel(catalog)
        n = float(len(rows))
        assert model._agm_bound(j2) == pytest.approx(n**1.5)
        assert model.estimate(j2).upper <= n**1.5
        # Strictly better than the pairwise-with-MCV alternative.
        assert model.estimate(j2).upper < n**2

    def test_mcv_sketch_tightens_the_join_bound(self):
        # Probing with one rare value: the per-value sketch knows the
        # build side holds it once, so the bound is 1 — the plain
        # max_freq bound would be 50 (the skewed common value).
        db = database(
            {"R": 2, "S": 1, "T": 3},
            R=[(0, i) for i in range(50)] + [(9, 99)],
            S=[(9,)],
        )
        catalog = StatsCatalog(db)
        join = HashJoinOp(
            _scan("S", db),
            _scan("R", db),
            Condition.of("1=1"),
            Join(Rel("S", 1), Rel("R", 2), "1=1"),
        )
        estimate = CostModel(catalog).estimate(join)
        assert estimate.upper == pytest.approx(1.0)
        actual = Executor(db).execute(join)
        assert len(actual) == 1

    def test_non_scan_leaves_fall_back(self):
        db = database({"R": 2, "S": 1, "T": 3}, R=[(1, 2)])
        catalog = StatsCatalog(db)
        filtered = plan_expression(
            parse("select[1=2](R) join[2=1] R", TEST_SCHEMA)
        )
        assert CostModel(catalog)._agm_bound(filtered) is None


# ----------------------------------------------------------------------
# Skew-aware point estimate
# ----------------------------------------------------------------------


def _scan_join(db: Database, left: str, right: str, cond: str) -> HashJoinOp:
    return HashJoinOp(
        _scan(left, db),
        _scan(right, db),
        Condition.of(cond),
        Join(Rel(left, db.schema[left]), Rel(right, db.schema[right]), cond),
    )


@SMALLER
@given(databases(), st.data())
def test_complete_sketches_estimate_a_scan_join_exactly(db, data):
    """Both join columns fit their sketches (≤ 6 rows each), so the
    first equality atom is read off exact counts: no uniform rest."""
    left, right = (data.draw(st.sampled_from(sorted(db.schema))) for _ in "lr")
    i = data.draw(st.integers(1, db.schema[left]))
    j = data.draw(st.integers(1, db.schema[right]))
    catalog = StatsCatalog(db)
    assert catalog.relation(left).columns[i - 1].distinct <= MCV_SIZE
    assert catalog.relation(right).columns[j - 1].distinct <= MCV_SIZE
    join = _scan_join(db, left, right, f"{i}={j}")
    actual = sum(
        1 for l in db[left] for r in db[right] if l[i - 1] == r[j - 1]
    )
    assert CostModel(catalog).estimate(join).rows == actual


def test_a_shared_skewed_value_is_priced_as_its_counts():
    """Value 0 holds 11 of 20 rows on both sides: ``1/max(d)`` says
    40 rows, the sketches say 11·11 plus a uniform rest."""
    db = correlated_db()
    join = _scan_join(db, "A", "B", "2=1")
    estimate = CostModel(StatsCatalog(db)).estimate(join)
    actual = len(Executor(db).execute(join))
    assert actual == 130
    assert abs(estimate.rows - actual) <= 0.1 * actual
    assert estimate.rows <= estimate.upper


# ----------------------------------------------------------------------
# Deterministic plan-choice acceptance
# ----------------------------------------------------------------------


def _ordering_db() -> Database:
    """T is large, R multiplying, S a single highly selective row.

    Written as ``(T ⋈ R) ⋈ S`` the first intermediate is |T ⋈ R| = 200
    rows (5× fan-out on the shared key); joining S first leaves one R
    row, so only 5 T rows ever materialize.
    """
    return database(
        {"R": 2, "S": 1, "T": 3},
        T=[(i % 8, i, 0) for i in range(40)],
        R=[(i % 8, i) for i in range(40)],
        S=[(3,)],
    )


ORDERING_EXPR = "(T join[1=1] R) join[5=1] S"


class TestCostBasedChoice:
    def test_division_witness_routes_to_linear_division(self):
        db = crossproduct_division_family(96)
        executor = Executor(db)
        plan = executor.plan(classic_division_expr())
        assert isinstance(plan, DivisionOp)
        assert plan.label().startswith("Division[hash,")
        # And the executor confirms the linear peak at run time.
        result = executor.execute(plan)
        assert result == evaluate_reference(classic_division_expr(), db)
        assert executor.stats.max_intermediate() <= db.size()

    def test_projected_join_still_routes_to_semijoin(self):
        db = database(
            {"R": 2, "S": 1, "T": 3},
            R=[(i, i % 5) for i in range(30)],
            S=[(1,), (2,)],
        )
        executor = Executor(db)
        plan = executor.plan(parse("project[1](R join[2=1] S)", TEST_SCHEMA))
        assert isinstance(plan, ProjectOp)
        assert isinstance(plan.child, HashSemijoinOp)

    def test_join_ordering_beats_structural_on_estimates(self):
        db = _ordering_db()
        expr = parse(ORDERING_EXPR, TEST_SCHEMA)
        executor = Executor(db)
        costed = executor.plan(expr)
        structural = plan_expression(expr)
        assert costed != structural
        assert isinstance(costed, ProjectOp)
        assert "cost-based join order" in costed.note
        # The decision criterion: smaller estimated peak intermediate.
        model = CostModel(executor.catalog)

        def estimated_peak(plan):
            return max(
                model.estimate(node).rows
                for node in plan.nodes()
                if isinstance(node, (HashJoinOp, NestedLoopJoinOp))
            )

        assert estimated_peak(costed) < estimated_peak(structural)
        # The estimate is honest: actual peaks order the same way.
        first = executor.execute(costed)
        costed_peak = executor.stats.max_intermediate()
        fresh = Executor(db)
        second = fresh.execute(structural)
        structural_peak = fresh.stats.max_intermediate()
        assert first == second == evaluate_reference(expr, db)
        assert costed_peak < structural_peak

    def test_reordering_can_be_disabled(self):
        db = _ordering_db()
        expr = parse(ORDERING_EXPR, TEST_SCHEMA)
        executor = Executor(db)
        plan = plan_expression(expr)
        assert not isinstance(plan, ProjectOp)
        assert executor.execute(plan) == evaluate_reference(expr, db)

    def test_nested_loop_wins_for_tiny_inputs(self):
        # Building a hash index on a 1-row side costs more than one
        # nested-loop pass; the structural rule always hashes.
        db = database(
            {"R": 2, "S": 1, "T": 3}, R=[(1, 7), (2, 8)], S=[(7,)]
        )
        expr = parse("R join[2=1] S", TEST_SCHEMA)
        executor = Executor(db)
        assert isinstance(executor.plan(expr), NestedLoopJoinOp)
        assert isinstance(plan_expression(expr), HashJoinOp)
        assert executor.execute(executor.plan(expr)) == (
            evaluate_reference(expr, db)
        )


class TestPlanningScalability:
    def test_nested_division_patterns_plan_in_linear_time(self):
        """Pricing a division rewrite's alternative shares the planning
        memo; nesting the pattern 25 deep must not blow up (each level
        would double the work with a fresh sub-planner memo)."""
        db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 7)], S=[(7,)])
        expr = Rel("S", 1)
        for __ in range(25):
            expr = classic_division_expr(Rel("R", 2), expr)
        executor = Executor(db)
        costed = executor.plan(expr)  # hangs for hours if exponential
        assert isinstance(costed, DivisionOp)
        assert executor.execute(costed) == Executor(db).execute(
            plan_expression(expr)
        )

    def test_shared_subtrees_execute_once(self):
        """Doubling shapes (E − (E − E), k deep) stay tractable end to
        end: ``nodes()`` walks the plan DAG, not its unfolded tree."""
        from repro.algebra.ast import Difference

        db = database({"R": 2, "S": 1}, R=[(1, 2), (3, 4)])
        expr = Rel("R", 2)
        for __ in range(14):
            expr = Difference(expr, Difference(expr, expr))
        executor = Executor(db)
        plan = executor.plan(expr)
        assert len(list(plan.nodes())) <= 3 * 14 + 1
        assert executor.execute(plan) == db["R"]

    def test_plan_and_estimate_memos_are_bounded(self, monkeypatch):
        """Long-running processes plan many distinct expressions; the
        per-executor plan memo is LRU-bounded, not a leak."""
        from repro.algebra.ast import Projection

        monkeypatch.setattr(Executor, "PLAN_CACHE_SIZE", 8)
        db = database({"R": 2, "S": 1}, R=[(1, 7)], S=[(7,)])
        executor = Executor(db)
        expr = Rel("R", 2)
        for __ in range(20):
            expr = Projection(expr, (1, 1))
            executor.plan(expr)
        assert len(executor._plans) <= 8


# ----------------------------------------------------------------------
# Estimated-vs-actual bookkeeping
# ----------------------------------------------------------------------


class TestEstimateRecording:
    def test_execute_records_estimates_next_to_actuals(self):
        db = _ordering_db()
        expr = parse(ORDERING_EXPR, TEST_SCHEMA)
        executor = Executor(db)
        plan = executor.plan(expr)
        executor.execute(plan)
        recorded = dict(executor.stats.node_estimates)
        assert set(plan.nodes()) <= set(recorded)
        report = executor.stats.report()
        assert "~rows=" in report and "ub=" in report

    def test_estimation_pairs_expose_quality(self):
        db = division_database(
            num_keys=25, divisor_size=4, hit_fraction=0.5, seed=3
        )
        executor = Executor(db)
        plan = executor.plan(classic_division_expr())
        executor.execute(plan)
        assert executor.cost_model.catalog is not None
        for node, actual, estimate in executor.stats.estimation_pairs():
            assert math.isfinite(estimate.upper)
            assert actual <= estimate.upper


# ----------------------------------------------------------------------
# Fractional edge covers (the AGM bound on arbitrary hypergraphs)
# ----------------------------------------------------------------------


def _enumerated_half_integral_bound(edges, cards) -> float:
    """Oracle: best cover over weights {0, 1/2, 1} by brute force.

    On graphs (≤ binary hyperedges) some optimal fractional edge cover
    is half-integral, so this enumeration is exact there — the
    reference the LP solution is checked against.
    """
    from itertools import product

    variables = set().union(*edges)
    best = math.inf
    for weights in product((0.0, 0.5, 1.0), repeat=len(edges)):
        if all(
            sum(w for w, e in zip(weights, edges) if v in e) >= 1.0
            for v in variables
        ):
            price = math.prod(
                c**w for w, c in zip(weights, cards) if w > 0.0
            )
            best = min(best, price)
    return best


class TestFractionalEdgeCover:
    def test_triangle_bound_is_n_to_three_halves(self):
        """Regression: cyclic graphs are solved, not product-bounded.

        The historical chain-only bound silently fell back to the
        product ``n³`` on any cyclic join graph; the triangle's true
        AGM bound is ``n^{3/2}`` via the all-halves cover.
        """
        edges = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})]
        bound, cover = fractional_edge_cover(edges, [100.0] * 3)
        assert bound == pytest.approx(100.0**1.5)
        assert cover == pytest.approx((0.5, 0.5, 0.5))

    def test_four_cycle_bound_is_n_squared(self):
        edges = [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 0}),
        ]
        bound, __ = fractional_edge_cover(edges, [100.0] * 4)
        assert bound == pytest.approx(100.0**2)

    def test_chain_skips_the_selective_middle(self):
        # Path a-b-c-d: covering a and d forces the outer edges, which
        # already cover b and c — the middle relation prices at 0.
        edges = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
        bound, cover = fractional_edge_cover(edges, [10.0, 1000.0, 10.0])
        assert bound == pytest.approx(100.0)
        assert cover == pytest.approx((1.0, 0.0, 1.0))

    def test_zero_cardinality_zeroes_the_bound(self):
        edges = [frozenset({0, 1}), frozenset({1, 0})]
        bound, __ = fractional_edge_cover(edges, [0.0, 50.0])
        assert bound == 0.0

    def test_asymmetric_triangle_prefers_cheap_edges(self):
        edges = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})]
        bound, __ = fractional_edge_cover(edges, [4.0, 100.0, 100.0])
        oracle = _enumerated_half_integral_bound(edges, [4.0, 100.0, 100.0])
        assert bound == pytest.approx(oracle)

    def test_malformed_inputs_raise(self):
        good = [frozenset({0})]
        with pytest.raises(SchemaError):
            fractional_edge_cover([], [])
        with pytest.raises(SchemaError):
            fractional_edge_cover([frozenset()], [3.0])
        with pytest.raises(SchemaError):
            fractional_edge_cover(good, [])
        with pytest.raises(SchemaError):
            fractional_edge_cover(good, [-1.0])
        with pytest.raises(SchemaError):
            fractional_edge_cover(good, [math.nan])
        with pytest.raises(SchemaError):
            fractional_edge_cover(good, [math.inf])

    @SMALLER
    @given(
        st.lists(
            st.frozensets(st.integers(0, 4), min_size=1, max_size=2),
            min_size=1,
            max_size=5,
        ),
        st.data(),
    )
    def test_lp_matches_half_integral_oracle_on_graphs(self, edges, data):
        """On graphs the LP must be exact (≤ *and* ≥ the oracle).

        ≤ because half-integral covers are feasible LP points; ≥
        because the returned cover is verified feasible before pricing,
        so it can never undercut the true optimum.
        """
        cards = [
            float(data.draw(st.integers(1, 200), label=f"card{i}"))
            for i in range(len(edges))
        ]
        bound, cover = fractional_edge_cover(edges, cards)
        oracle = _enumerated_half_integral_bound(edges, cards)
        assert bound == pytest.approx(oracle)
        # Returned cover is feasible: every variable covered ≥ 1.
        for v in set().union(*edges):
            coverage = sum(
                w for w, e in zip(cover, edges) if v in e
            )
            assert coverage >= 1.0 - 1e-9
