"""Differential testing of the engine against the evaluator zoo.

Three independent implementations must agree on every expression and
database: the cost-aware engine (plan → execute, with its division and
semijoin rewrites — run both with statistics present and absent, since
cost-based and structural planning choose different operators), the
memoizing structural evaluator, and the brute-force oracle of
:mod:`repro.algebra.reference`.  Hypothesis is run derandomized
(seeded), so every CI run replays the same ≥ 200 random cases per
property with zero tolerance for disagreement.
"""

from hypothesis import HealthCheck, given, settings

from repro.algebra.evaluator import evaluate
from repro.algebra.reference import evaluate_reference
from repro.engine import Executor, PlannerOptions, plan_expression
from tests.strategies import (
    databases,
    engine_run,
    expressions,
    sa_eq_expressions,
)

#: ≥ 200 seeded random cases, as the harness's acceptance bar demands.
DIFFERENTIAL = settings(
    max_examples=220,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALLER = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@DIFFERENTIAL
@given(expressions(max_depth=4), databases())
def test_engine_evaluator_and_oracle_agree(expr, db):
    engine = engine_run(expr, db)  # cost-based: plans with statistics
    memoized = evaluate(expr, db, memo={})
    oracle = evaluate_reference(expr, db)
    assert engine == memoized == oracle


@SMALLER
@given(expressions(max_depth=4), databases())
def test_stats_present_and_absent_plans_agree(expr, db):
    """The same query, planned with statistics (executor catalog) and
    without (structural ``plan_expression``), computes one relation."""
    executor = Executor(db)
    with_stats = executor.execute(executor.plan(expr))
    without_stats = Executor(db).execute(plan_expression(expr))
    assert with_stats == without_stats == evaluate_reference(expr, db)


@SMALLER
@given(sa_eq_expressions(max_depth=4), databases())
def test_agreement_on_sa_eq_fragment(expr, db):
    assert engine_run(expr, db) == evaluate_reference(expr, db)


@SMALLER
@given(expressions(max_depth=3), databases())
def test_rewrites_do_not_change_semantics(expr, db):
    """Each planner rewrite, toggled off, yields the same relation."""
    baseline = evaluate_reference(expr, db)
    for options in (
        PlannerOptions(),
        PlannerOptions(push_selections=False),
        PlannerOptions(introduce_semijoins=False),
        PlannerOptions(rewrite_divisions=False),
        PlannerOptions(use_costs=False),
        PlannerOptions(reorder_joins=False),
        PlannerOptions(
            push_selections=False,
            introduce_semijoins=False,
            rewrite_divisions=False,
            use_costs=False,
        ),
    ):
        assert engine_run(expr, db, options) == baseline


@SMALLER
@given(expressions(max_depth=3), databases())
def test_executor_reuse_is_pure(expr, db):
    """A shared executor (warm caches) returns the same relations."""
    executor = Executor(db)
    plan = plan_expression(expr)
    first = executor.execute(plan)
    second = executor.execute(plan)
    assert first == second == engine_run(expr, db)
