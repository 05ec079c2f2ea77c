"""FIG5 — the division-inexpressibility witness pair.

Also home to the engine-vs-classic-plan shoot-out on this workload
family: the scaled witness databases and the Prop. 26 cross-product
family are exactly where the classic RA division plan goes quadratic,
and the engine's rewrite to direct hash division must beat it by ≥5×
at the largest seeded size (asserted deterministically on peak
intermediate sizes; wall-clock measured by the benchmarks).
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.trace import trace
from repro.bench.figures import fig5_bisimulation, fig5_databases
from repro.bisim.bisimulation import (
    are_bisimilar,
    is_guarded_bisimulation,
)
from repro.engine import Executor, plan_expression
from repro.session import Session
from repro.setjoins.division import classic_division_expr, divide_reference
from repro.workloads.generators import (
    crossproduct_division_family,
    fig5_scaled_pair,
)


def test_fig5_division_differs(benchmark):
    a, b = fig5_databases()

    def both():
        return (
            divide_reference(a["R"], a["S"]),
            divide_reference(b["R"], b["S"]),
        )

    quotient_a, quotient_b = benchmark(both)
    assert quotient_a == {1, 2}
    assert quotient_b == frozenset()


def test_fig5_verify_paper_bisimulation(benchmark):
    a, b = fig5_databases()
    assert benchmark(is_guarded_bisimulation, fig5_bisimulation(), a, b)


def test_fig5_bisimilarity_decision(benchmark):
    a, b = fig5_databases()
    verdict = benchmark(are_bisimilar, a, (1,), b, (1,))
    assert verdict.bisimilar


@pytest.mark.parametrize("width", [3, 6])
def test_fig5_scaled_bisimilarity(benchmark, width):
    a, b = fig5_scaled_pair(width)
    benchmark.group = f"fig5-scaled-{width}"
    verdict = benchmark(are_bisimilar, a, (100,), b, (100,))
    assert verdict.bisimilar
    assert divide_reference(a["R"], a["S"])
    assert not divide_reference(b["R"], b["S"])


#: The seeded sizes of the quadratic division witness family.
WITNESS_SIZES = (16, 64, 128)


@pytest.mark.parametrize("n", WITNESS_SIZES)
def test_fig5_witness_classic_plan(benchmark, n):
    """Baseline: the classic quadratic RA plan, structurally evaluated."""
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    benchmark.group = f"fig5-witness-division-{n}"
    result = benchmark(evaluate, expr, db)
    assert result == evaluate(expr, db)


@pytest.mark.parametrize("n", WITNESS_SIZES)
def test_fig5_witness_engine_plan(benchmark, n):
    """The engine-selected plan (hash division) on the same workload."""
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    plan = plan_expression(expr)

    def engine_run():
        return Executor(db).execute(plan)

    benchmark.group = f"fig5-witness-division-{n}"
    result = benchmark(engine_run)
    assert result == evaluate(expr, db)


def test_fig5_witness_engine_beats_classic_5x():
    """Acceptance: ≥5× at the largest seeded size, deterministically.

    Peak intermediate cardinality is the dichotomy's own work measure
    (Definition 16); wall-clock for the same pair of plans is recorded
    by the two benchmarks above.
    """
    n = WITNESS_SIZES[-1]
    db = crossproduct_division_family(n)
    expr = classic_division_expr()
    classic_peak = trace(expr, db).max_intermediate()
    executor = Executor(db)
    engine_result = executor.execute(plan_expression(expr))
    assert engine_result == evaluate(expr, db)
    assert classic_peak >= 5 * executor.stats.max_intermediate()


def test_fig5_scaled_pair_division_via_engine():
    """The engine answers division on the scaled witness pair itself."""
    a, b = fig5_scaled_pair(16)
    expr = classic_division_expr()
    quotient_a = {key for (key,) in Session(a).run(expr)}
    assert quotient_a == divide_reference(a["R"], a["S"])
    assert Session(b).run(expr) == frozenset()
