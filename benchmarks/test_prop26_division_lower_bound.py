"""PROP26 — division: the quadratic RA plan vs the linear alternatives.

The headline comparison of the reproduction: on the same growing
instance, the classic RA plan (forced quadratic by Proposition 26) falls
behind the Section 5 grouping plan and the direct algorithms.

Which evaluator each arm times: ``test_classic_ra_plan`` and
``test_grouping_plan`` use the structural evaluator (``evaluate`` /
``evaluate_extended`` — the expression as written);
``test_engine_rewritten_plan`` uses the engine through a ``Session``;
``test_hash_division`` calls the direct algorithm.
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.trace import trace
from repro.extended.division_plan import containment_division_plan
from repro.extended.evaluator import evaluate_extended
from repro.session import Session
from repro.setjoins.division import (
    classic_division_expr,
    divide_counting,
    divide_hash,
    divide_reference,
)
from repro.workloads.generators import crossproduct_division_family


@pytest.mark.parametrize("n", [32, 128])
def test_classic_ra_plan(benchmark, n):
    # Structural evaluator: the classic quadratic plan *as written*.
    db = crossproduct_division_family(n)
    plan = classic_division_expr()
    benchmark.group = f"prop26-n{n}"
    result = benchmark(evaluate, plan, db)
    assert {a for (a,) in result} == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("n", [32, 128])
def test_engine_rewritten_plan(benchmark, n):
    """The same expression through the engine (routed to hash division).

    One warm ``Session`` with result caching off: every round plans
    from the memo and executes the ``DivisionOp`` for real.
    """
    db = crossproduct_division_family(n)
    plan = classic_division_expr()
    session = Session(db, cache_results=False)
    benchmark.group = f"prop26-n{n}"
    result = benchmark(session.run, plan)
    assert {a for (a,) in result} == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("n", [32, 128])
def test_grouping_plan(benchmark, n):
    db = crossproduct_division_family(n)
    plan = containment_division_plan()
    benchmark.group = f"prop26-n{n}"
    result = benchmark(evaluate_extended, plan, db)
    assert {a for (a,) in result} == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("n", [32, 128])
def test_hash_division(benchmark, n):
    db = crossproduct_division_family(n)
    divisor = [b for (b,) in db["S"]]
    benchmark.group = f"prop26-n{n}"
    result = benchmark(divide_hash, db["R"], divisor)
    assert result == divide_reference(db["R"], db["S"])


@pytest.mark.parametrize("n", [32, 128])
def test_counting_division(benchmark, n):
    db = crossproduct_division_family(n)
    divisor = [b for (b,) in db["S"]]
    benchmark.group = f"prop26-n{n}"
    result = benchmark(divide_counting, db["R"], divisor)
    assert result == divide_reference(db["R"], db["S"])


def test_quadratic_intermediate_is_real(benchmark):
    """The RA plan's cross product materializes Θ(n²) tuples."""
    db = crossproduct_division_family(64)
    t = benchmark(trace, classic_division_expr(), db)
    assert t.max_intermediate() >= (64 // 2) ** 2
