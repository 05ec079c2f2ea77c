"""COST — the cost-model path: cost-based join ordering vs written order.

On a chain ``(T ⋈ R) ⋈ S`` whose written order materializes a large
multiplying intermediate before the selective single-row S ever
filters it, cost-based ordering (join S first) does strictly less
work: the chosen order keeps the peak intermediate small, and both
orders give the same rows.
"""

import math

import pytest

from repro.algebra.parser import parse
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import Executor, plan_expression
from repro.session import Session

SCHEMA = Schema({"R": 2, "S": 1, "T": 3})

CHAIN = "(T join[1=1] R) join[5=1] S"

def _chain_db(n: int, keys: int = 24) -> Database:
    """|T| = |R| = n with an n/keys fan-out on the shared join key."""
    return database(
        {"R": 2, "S": 1, "T": 3},
        T=[(i % keys, i, 0) for i in range(n)],
        R=[(i % keys, i) for i in range(n)],
        S=[(3,)],
    )


@pytest.fixture(scope="module")
def chain_db() -> Database:
    return _chain_db(600)


def test_cost_ordered_chain(chain_db):
    expr = parse(CHAIN, SCHEMA)
    session = Session(chain_db, cache_results=False)
    # The structural plan (no statistics) on the same executor: the
    # comparison is cost-based ordering vs the same engine without it,
    # not vs another evaluator.
    expected = session.executor.execute(plan_expression(expr))
    assert session.run(expr) == expected
    assert session.run(expr) == expected


def test_cost_ordering_shrinks_intermediates(chain_db):
    """The cost-based plan's peak intermediate stays far below the
    written order's |T ⋈ R|."""
    expr = parse(CHAIN, SCHEMA)
    costed = Executor(chain_db)
    first = costed.execute(costed.plan(expr))
    structural = Executor(chain_db)
    second = structural.execute(plan_expression(expr))
    assert first == second
    assert costed.stats.max_intermediate() <= chain_db.size()
    assert structural.stats.max_intermediate() >= (
        5 * costed.stats.max_intermediate()
    )


def test_cost_estimates_recorded_on_benchmark_workload(chain_db):
    """The executor exposes estimated-vs-actual rows for every node,
    and every estimate's sound upper bound holds."""
    executor = Executor(chain_db)
    executor.execute(executor.plan(parse(CHAIN, SCHEMA)))
    pairs = executor.stats.estimation_pairs()
    assert pairs
    for __, actual, estimate in pairs:
        assert math.isfinite(estimate.upper)
        assert actual <= estimate.upper
