"""The estimator feedback loop: ledger, re-planning, and freshness.

Covers the adaptive re-optimization machinery of
``docs/engine.md`` § Adaptive feedback:

* :class:`~repro.engine.stats.FeedbackLedger` unit behaviour —
  smoothing, revisions, reports;
* the stats-freshness bugfix — :class:`~repro.engine.stats.
  StatsCatalog` keys its cache by *version token*, so per-read-decode
  backends (mmap returns a fresh frozenset per read) profile once, not
  once per access;
* the explain-freshness bugfix — every explain entry point re-checks
  the version token before rendering costs, so a mutation is never
  shown with pre-mutation statistics;
* the cache contract — result-cache hits execute zero operators and
  leave the ledger untouched;
* the threshold gate — a threshold-free run never feeds the ledger;
* threshold-driven re-planning — observed estimator error past
  ``replan_threshold`` drops the memoized plan, re-prices with
  corrected estimates, and then *stops* re-planning once the plan's
  snapshot reflects the learned factors;
* Hypothesis properties — feedback-corrected runs (partitioned ones
  included) agree with the structural-evaluator oracle, and corrected
  point estimates never exceed the sound upper bound.
"""

from hypothesis import HealthCheck, given, settings

from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import FeedbackLedger, PlannerOptions, feedback_key
from repro.engine.stats import FEEDBACK_SMOOTHING, StatsCatalog
from repro.session import Session
from repro.storage.backend import open_backend
from tests.strategies import dense_databases, join_chains

FEEDBACK_PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def correlated_db() -> Database:
    """A two-relation database whose join defeats ``1/max(d)``.

    ``A``'s second column and ``B``'s first column both put value 0 on
    11 of 20 rows (and values 1–9 on one row each), so the uniformity
    assumption underestimates the equijoin: estimated
    ``20·20/10 = 40`` rows against ``11·11 + 9 = 130`` actual — an
    error ratio > 3, comfortably past a threshold of 2.
    """
    schema = Schema({"A": 2, "B": 2})
    a = frozenset((i, 0) for i in range(10)) | frozenset(
        (10 + i, i) for i in range(10)
    )
    b = frozenset((0, i) for i in range(10)) | frozenset(
        (i, 10 + i) for i in range(10)
    )
    return Database(schema, {"A": a, "B": b})


# ----------------------------------------------------------------------
# Ledger unit behaviour
# ----------------------------------------------------------------------


class TestFeedbackLedger:
    def test_first_observation_adopts_target(self):
        ledger = FeedbackLedger()
        ledger.record(("key",), estimated=9.0, actual=99)
        assert ledger.factor(("key",)) == (99 + 1.0) / (9.0 + 1.0)
        assert ledger.revision == 1

    def test_smoothing_moves_geometrically(self):
        ledger = FeedbackLedger()
        ledger.record(("key",), estimated=9.0, actual=9)  # target 1.0
        ledger.record(("key",), estimated=9.0, actual=39)  # target 4.0
        expected = 1.0 ** (1 - FEEDBACK_SMOOTHING) * 4.0**FEEDBACK_SMOOTHING
        assert abs(ledger.factor(("key",)) - expected) < 1e-12
        assert ledger.revision == 2

    def test_error_is_symmetric(self):
        ledger = FeedbackLedger()
        ledger.record(("over",), estimated=99.0, actual=0)
        ledger.record(("under",), estimated=0.0, actual=99)
        assert ledger.error(("over",)) == ledger.error(("under",)) == 100.0
        assert ledger.error(("unknown",)) == 1.0

    def test_report_lists_entries_worst_first(self):
        ledger = FeedbackLedger()
        assert "empty" in ledger.report()
        ledger.record((("A",), "shape-mild"), estimated=10.0, actual=19)
        ledger.record((("A", "B"), "shape-bad"), estimated=10.0, actual=999)
        report = ledger.report()
        assert report.index("shape-bad") < report.index("shape-mild")
        assert "A,B" in report

    def test_run_feeds_ledger_with_join_key(self):
        db = correlated_db()
        session = Session(
            db,
            options=PlannerOptions(replan_threshold=2.0),
            cache_results=False,
        )
        session.run("A join[2=1] B")
        entries = session.feedback.entries()
        assert len(entries) == 1
        ((relations, shape), entry) = next(iter(entries.items()))
        assert relations == ("A", "B")
        assert shape.startswith("HashJoin")
        assert entry.last_actual == 130
        assert 2.0 < entry.factor < 4.0


# ----------------------------------------------------------------------
# Bugfix: token-keyed statistics cache (per-read-decode backends)
# ----------------------------------------------------------------------


class TestStatsFreshness:
    def test_mmap_reads_decode_fresh_objects(self):
        db = correlated_db()
        with open_backend(db, "mmap") as backend:
            first, second = backend.rows("A"), backend.rows("A")
            assert first == second
            # The premise of the bugfix: identity-keyed caching cannot
            # work when every read decodes a fresh (equal) frozenset.
            assert first is not second

    def test_mmap_catalog_profiles_once_across_reads(self):
        db = correlated_db()
        with open_backend(db, "mmap") as backend:
            catalog = StatsCatalog(db, backend=backend)
            stats = catalog.relation("A")
            assert catalog.relation("A") is stats
            assert catalog.relation("A") is stats
            assert catalog.profiles == 1

    def test_mmap_session_profiles_once_across_queries(self):
        db = correlated_db()
        with Session(db, backend="mmap") as session:
            session.run("A join[2=1] B")
            session.run("A join[2=1] B")
            session.run("project[1](A)")
            assert session.executor.catalog.profiles == len(db.schema)


# ----------------------------------------------------------------------
# Bugfix: explain freshness after mutation
# ----------------------------------------------------------------------


class TestExplainFreshness:
    def test_explain_reprices_after_mutation(self):
        db = correlated_db()
        session = Session(db)
        prepared = session.query("A join[2=1] B")
        prepared.run()
        before = prepared.explain(costs=True)
        assert "~rows=40" in before  # 20·20 / max-distinct 10
        # Contents swap behind the same handle: shrink A to one row.
        db._relations = {**db._relations, "A": frozenset({(0, 0)})}
        after = prepared.explain(costs=True)
        assert "~rows=40" not in after
        assert prepared.run() == session.oracle("A join[2=1] B")

    def test_explain_feedback_renders_ledger(self):
        db = correlated_db()
        session = Session(
            db,
            options=PlannerOptions(replan_threshold=2.0),
            cache_results=False,
        )
        prepared = session.query("A join[2=1] B")
        assert "empty" in prepared.explain(feedback=True)
        prepared.run()
        assert "HashJoin" in prepared.explain(feedback=True)


# ----------------------------------------------------------------------
# The cache contract: hits feed nothing
# ----------------------------------------------------------------------


class TestCacheHitContract:
    def test_cache_hit_leaves_ledger_untouched(self):
        db = correlated_db()
        session = Session(
            db, options=PlannerOptions(replan_threshold=2.0)
        )
        prepared = session.query("A join[2=1] B")
        prepared.run()
        assert not prepared.last_report.cached
        revision = session.feedback.revision
        assert revision > 0
        prepared.run()
        assert prepared.last_report.cached
        assert prepared.last_report.operators_executed() == 0
        assert session.feedback.revision == revision


# ----------------------------------------------------------------------
# The threshold gate: only runs with a threshold feed the ledger
# ----------------------------------------------------------------------


class TestThresholdGate:
    def test_threshold_free_run_never_touches_the_ledger(self, monkeypatch):
        import repro.engine.stats as stats_module

        keyed = []
        real_key = stats_module.feedback_key

        def counting_key(node):
            keyed.append(node)
            return real_key(node)

        monkeypatch.setattr(stats_module, "feedback_key", counting_key)
        frozen = Session(correlated_db(), cache_results=False)
        frozen.run("A join[2=1] B")
        assert frozen.feedback.revision == 0
        assert keyed == []
        assert "replan_threshold" in frozen.feedback.report()

        adaptive = Session(
            correlated_db(),
            options=PlannerOptions(replan_threshold=2.0),
            cache_results=False,
        )
        adaptive.run("A join[2=1] B")
        assert adaptive.feedback.revision > 0
        assert keyed


# ----------------------------------------------------------------------
# Threshold-driven re-planning
# ----------------------------------------------------------------------


class TestReplanning:
    def test_error_past_threshold_replans_once_then_stabilizes(self):
        db = correlated_db()
        session = Session(
            db,
            options=PlannerOptions(replan_threshold=2.0),
            cache_results=False,
        )
        prepared = session.query("A join[2=1] B")
        oracle = session.oracle("A join[2=1] B")
        assert prepared.run() == oracle
        assert not prepared.last_report.replanned
        executor = session.executor
        assert executor.feedback_replans == 0
        # Run 1 learned a >2× error for the join; the memoized plan was
        # priced against factor 1.0, so the next plan() drops it.
        assert prepared.run() == oracle
        assert prepared.last_report.replanned
        assert executor.feedback_replans == 1
        # The re-planned plan's snapshot carries the learned factors;
        # further runs see no fresh drift and keep the plan.
        assert prepared.run() == oracle
        assert not prepared.last_report.replanned
        assert executor.feedback_replans == 1

    def test_no_threshold_never_replans(self):
        db = correlated_db()
        session = Session(db, cache_results=False)
        prepared = session.query("A join[2=1] B")
        for _ in range(3):
            prepared.run()
            assert not prepared.last_report.replanned
        assert session.executor.feedback_replans == 0

    def test_corrected_estimates_respect_sound_upper_bound(self):
        db = correlated_db()
        session = Session(
            db,
            options=PlannerOptions(replan_threshold=2.0),
            cache_results=False,
        )
        prepared = session.query("A join[2=1] B")
        for _ in range(3):
            prepared.run()
            for node, estimate in (
                prepared.last_report.stats.node_estimates.items()
            ):
                if estimate.sound:
                    assert estimate.rows <= estimate.upper
                if estimate.raw_rows is not None:
                    # A correction applied: the raw estimate is what the
                    # ledger is fed, and it differs from the shown rows.
                    assert feedback_key(node) is not None

    def test_threshold_validation(self):
        import pytest

        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            PlannerOptions(replan_threshold=1.0)
        with pytest.raises(SchemaError):
            PlannerOptions(replan_threshold=2.0, use_costs=False)


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@FEEDBACK_PROPERTY
@given(join_chains(), dense_databases())
def test_feedback_corrected_runs_match_oracle(expr, db):
    """Re-planned (and re-run) queries agree with the oracle.

    Each expression runs three times under an aggressive threshold —
    enough for the ledger to learn, trigger re-plans, and stabilize —
    and every result must equal the structural evaluator's.
    """
    oracle = evaluate(expr, db)
    session = Session(
        db,
        options=PlannerOptions(replan_threshold=1.5),
        cache_results=False,
    )
    for _ in range(3):
        assert session.run(expr) == oracle
        for estimate in (
            session.last_report.stats.node_estimates.values()
        ):
            if estimate.sound:
                assert estimate.rows <= estimate.upper


@FEEDBACK_PROPERTY
@given(join_chains(), dense_databases())
def test_partitioned_feedback_runs_match_oracle(expr, db):
    """Feedback-corrected plans under a tiny budget, which forces
    partitioned execution, agree with the oracle on every re-run."""
    oracle = evaluate(expr, db)
    session = Session(
        db,
        options=PlannerOptions(
            partition_budget=6, replan_threshold=1.5
        ),
        cache_results=False,
    )
    for _ in range(2):
        assert session.run(expr) == oracle
