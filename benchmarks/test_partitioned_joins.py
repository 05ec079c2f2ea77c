"""PARTITION — budgeted batch execution keeps peak rows-in-flight bounded.

The paper's dichotomy is about how much intermediate data a plan
materializes; partitioned execution is the engine's answer when even
the *linear* operators' working sets outgrow memory.  On the fig1-style
set-join shoot-out (a scaled Zipf medical workload: patients' symptom
sets joined against diseases' symptom sets) and on the Proposition 26
division witness family, these tests check that

* the partitioned engine's peak rows-in-flight stays within the
  configured ``partition_budget`` (asserted per batch), while the
  unpartitioned engine's peak grows with the instance;
* results are identical three ways: partitioned ≡ unpartitioned ≡
  the structural oracle (``evaluate`` or ``divide_reference``);
* the planner's predicted batch count and the executor's exact packing
  are both recorded (estimated vs actual per partition).

Each partitioned query runs twice, on two fresh executors, and both runs
are checked.

Sizes follow the suite convention: large enough that the bounded-vs-
growing separation is unambiguous, small enough for CI.
"""

import pytest

from repro.algebra.ast import Rel
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import Executor, PlannerOptions
from repro.setjoins.division import classic_division_expr, divide_reference
from repro.workloads.generators import (
    crossproduct_division_family,
    zipf_set_relation,
)

MEDICAL_SCHEMA = Schema({"Person": 2, "Disease": 2, "Symptoms": 1})


def medical_database(patients: int = 240, diseases: int = 40) -> Database:
    """The fig1 shape at shoot-out scale: Zipf symptom popularity.

    ``Symptoms`` holds the three most popular symptoms, so the division
    query has a non-trivial quotient.
    """
    persons = zipf_set_relation(
        num_sets=patients, min_size=2, max_size=6, universe_size=60,
        skew=0.5, seed=7,
    )
    conditions = zipf_set_relation(
        num_sets=diseases, min_size=2, max_size=5, universe_size=60,
        skew=0.5, seed=8, key_offset=10**6,
    )
    person_rows = persons.to_binary()
    counts: dict = {}
    for __, symptom in person_rows:
        counts[symptom] = counts.get(symptom, 0) + 1
    hot = sorted(counts, key=lambda s: (-counts[s], s))[:3]
    return Database(
        MEDICAL_SCHEMA,
        {
            "Person": person_rows,
            "Disease": conditions.to_binary(),
            "Symptoms": {(s,) for s in hot},
        },
    )


def partition_run(executor: Executor):
    """The single PartitionRun an execution recorded."""
    runs = list(executor.stats.partition_runs.values())
    assert len(runs) == 1, "expected exactly one partitioned operator"
    return runs[0]


def partitioned(db: Database, expr, budget: int):
    """``(rows, executor)`` of one fresh executor's budgeted run."""
    executor = Executor(db)
    options = PlannerOptions(partition_budget=budget)
    return executor.execute(executor.plan(expr, options)), executor


@pytest.mark.parametrize("budget", [800, 1200])
def test_fig1_shootout_join_bounded(budget):
    """Symptom equi-join of the shoot-out, peak bounded by the budget."""
    db = medical_database()
    expr = parse("Person join[2=2] Disease", db.schema)
    baseline = Executor(db)
    unpartitioned = baseline.execute(baseline.plan(expr))
    assert unpartitioned == evaluate(expr, db)
    # The unpartitioned engine's peak working set spikes well past the
    # budget on the same query — the figure partitioning bounds (3812
    # rows on this instance, vs budgets of 800/1200).
    assert baseline.stats.max_in_flight() > 2 * budget

    for __ in range(2):
        result, executor = partitioned(db, expr, budget)
        assert result == unpartitioned
        run = partition_run(executor)
        assert run.within_budget()
        assert run.peak_in_flight() <= budget
        assert executor.stats.max_in_flight() <= budget


def test_fig1_division_bounded():
    """Person ÷ Symptoms at shoot-out scale, dividend batched."""
    db = medical_database()
    expr = classic_division_expr(Rel("Person", 2), Rel("Symptoms", 1))
    budget = 120
    expected = divide_reference(db["Person"], [s for (s,) in db["Symptoms"]])
    assert expected  # the hot symptoms make a non-trivial quotient
    baseline = Executor(db)
    assert {a for (a,) in baseline.execute(baseline.plan(expr))} == expected
    assert baseline.stats.max_in_flight() > 5 * budget

    for __ in range(2):
        result, executor = partitioned(db, expr, budget)
        assert {a for (a,) in result} == expected
        run = partition_run(executor)
        assert run.peak_in_flight() <= budget
        assert run.within_budget()


@pytest.mark.parametrize("n", [128, 256])
def test_prop26_witness_bounded(n):
    """The division witness family: budget-bounded at growing n.

    The budget must cover the replicated divisor (|S| = n/2) plus one
    atomic candidate group; everything beyond that is headroom the
    packer fills.  The unpartitioned engine's peak grows like n
    (|R| + |S| = n/2 + n/2), the classic RA plan's like n²/4.
    """
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    budget = n // 2 + 40
    baseline = Executor(db)
    one_shot = baseline.execute(baseline.plan(expr))
    assert {a for (a,) in one_shot} == divide_reference(db["R"], db["S"])
    # n-ish one-shot working set (|R| + |S|) vs the n/2 + 40 budget.
    assert baseline.stats.max_in_flight() >= n - 2
    assert baseline.stats.max_in_flight() > budget

    for __ in range(2):
        result, executor = partitioned(db, expr, budget)
        assert result == one_shot
        run = partition_run(executor)
        assert run.peak_in_flight() <= budget
        assert run.within_budget()
        assert run.planned >= 2 and run.actual() >= 2  # estimated vs actual


def test_prop26_partitioned_vs_quadratic_plan_intermediates():
    """Three tiers on one instance: classic RA ≫ one-shot engine > batches.

    The classic plan materializes Θ(n²) (Prop. 26); the engine's direct
    division holds Θ(n) in flight; partitioned execution holds only the
    budget.  All three compute the same quotient.
    """
    from repro.algebra.trace import trace

    n = 96
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    budget = n // 2 + 24

    quadratic = trace(expr, db).max_intermediate()

    one_shot = Executor(db)
    one_shot_result = one_shot.execute(one_shot.plan(expr))
    batched_result, batched = partitioned(db, expr, budget)

    assert one_shot_result == batched_result
    assert {a for (a,) in batched_result} == divide_reference(
        db["R"], db["S"]
    )
    peak = partition_run(batched).peak_in_flight()
    assert peak <= budget
    assert peak < one_shot.stats.max_in_flight() < quadratic
