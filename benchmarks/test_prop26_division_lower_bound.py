"""PROP26 — division needs quadratic RA expressions (Proposition 26).

Paper claim: the classic RA plan's intermediate is Ω(n²) while the §5
grouping plan and the direct algorithms stay linear.

The headline comparison of the reproduction, on the same growing
instance.  ``test_classic_ra_plan`` and ``test_grouping_plan`` use the
structural evaluator (``evaluate`` / ``evaluate_extended`` — the
expression as written); ``test_engine_rewritten_plan`` uses the engine
through a ``Session``; ``test_direct_division`` calls the hash and
counting algorithms.
"""

import pytest

from benchmarks.work import division_work
from repro.algebra.evaluator import evaluate
from repro.algebra.trace import trace
from repro.core.classify import Verdict, classify
from repro.core.growth import measure_growth
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.universe import INTEGERS
from repro.extended.division_plan import (
    containment_division_plan,
    plan_intermediate_bound,
)
from repro.extended.evaluator import evaluate_extended, trace_extended
from repro.session import Session
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    classic_division_expr,
    divide_counting,
    divide_hash,
    divide_reference,
)
from repro.workloads.generators import (
    crossproduct_division_family,
    division_workload,
    sparse_division_workload,
)


def test_classifier_certifies_the_classic_plan_quadratic():
    schema = Schema({"R": 2, "S": 1})
    verdict = classify(classic_division_expr(), schema, INTEGERS).verdict
    assert verdict is Verdict.QUADRATIC


def test_classic_plan_grows_quadratically_and_the_grouping_plan_linearly():
    plan = classic_division_expr()
    sizes = (8, 16, 32, 64)
    report = measure_growth(plan, crossproduct_division_family, sizes)
    assert report.is_empirically_quadratic()
    ratios = []
    for n in sizes:
        db = crossproduct_division_family(n)
        ra_peak = trace(plan, db).max_intermediate()
        gamma = trace_extended(containment_division_plan(), db)
        gamma_peak = gamma.max_intermediate()
        bound = plan_intermediate_bound(len(db["R"]), len(db["S"]))
        assert gamma_peak <= bound
        assert ra_peak > gamma_peak
        ratios.append(ra_peak / max(gamma_peak, 1))
    assert ratios[-1] > ratios[0]


def test_every_strategy_agrees_on_a_division_workload():
    rows, divisor = division_workload(
        num_keys=40, divisor_size=6, hit_fraction=0.4, seed=7
    )
    expected = divide_reference(rows, divisor)
    db = database({"R": 2, "S": 1}, R=rows, S=[(b,) for b in divisor])
    as_rows = frozenset((a,) for a in expected)
    assert evaluate(classic_division_expr(), db) == as_rows
    assert evaluate_extended(containment_division_plan(), db) == as_rows
    for name, algorithm in DIVISION_ALGORITHMS.items():
        assert algorithm(rows, divisor) == expected, name


def test_hash_division_does_the_least_work():
    """Hash/counting division does the least work, the quadratic
    strategies (probing, the RA cross product) the most."""
    rows, divisor = sparse_division_workload(
        num_keys=200, divisor_size=100, seed=3
    )
    work = division_work(rows, divisor)
    assert (
        work.hash_operations
        < work.sort_merge_comparisons
        < work.nested_loop_probes
    )
    assert work.hash_operations < work.ra_plan_max_intermediate


@pytest.mark.parametrize("n", [32, 128])
def test_classic_ra_plan(n):
    # Structural evaluator: the classic quadratic plan *as written*.
    db = crossproduct_division_family(n)
    result = evaluate(classic_division_expr(), db)
    assert {a for (a,) in result} == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("n", [32, 128])
def test_engine_rewritten_plan(n):
    """The same expression through the engine (routed to hash division).

    One ``Session`` with result caching off, run twice: the second run
    plans from the memo and executes the ``DivisionOp`` for real again.
    """
    db = crossproduct_division_family(n)
    plan = classic_division_expr()
    session = Session(db, cache_results=False)
    expected = divide_reference(db["R"], db["S"])
    for __ in range(2):
        result = session.run(plan)
        assert {a for (a,) in result} == expected


@pytest.mark.parametrize("n", [32, 128])
def test_grouping_plan(n):
    db = crossproduct_division_family(n)
    result = evaluate_extended(containment_division_plan(), db)
    assert {a for (a,) in result} == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("divide", [divide_hash, divide_counting])
@pytest.mark.parametrize("n", [32, 128])
def test_direct_division(divide, n):
    db = crossproduct_division_family(n)
    divisor = [b for (b,) in db["S"]]
    assert divide(db["R"], divisor) == divide_reference(db["R"], db["S"])


def test_quadratic_intermediate_is_real():
    """The RA plan's cross product materializes Θ(n²) tuples."""
    t = trace(classic_division_expr(), crossproduct_division_family(64))
    assert t.max_intermediate() >= (64 // 2) ** 2
