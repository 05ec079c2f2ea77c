"""Ablation: the semijoin-introduction optimizer on SA=-shaped queries.

Corollary 19 in practice: a query whose answer only needs one join
operand is an SA= query; the optimizer rewrites its quadratic join plan
into a linear semijoin plan.  This measures the before/after cost.
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.optimize import optimize
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.data.database import database
from repro.data.schema import Schema

SCHEMA = Schema({"R": 2, "S": 1})

#: π[1,2](R ⋈[1=1] R): a filter query written with a join.
FILTER_QUERY = "project[1,2](R join[1=1] R)"


def hub_database(n: int):
    """One hub joined to n spokes — the join output is n²."""
    return database(SCHEMA, R=[(1, i) for i in range(n)])


@pytest.mark.parametrize("n", [32, 128])
def test_unoptimized_plan(benchmark, n):
    # Structural evaluator, not a Session: the engine performs the
    # semijoin rewrite itself, which would erase this ablation.
    expr = parse(FILTER_QUERY, SCHEMA)
    db = hub_database(n)
    benchmark.group = f"ablation-optimizer-n{n}"
    result = benchmark(evaluate, expr, db)
    assert len(result) == n


@pytest.mark.parametrize("n", [32, 128])
def test_optimized_plan(benchmark, n):
    expr = optimize(parse(FILTER_QUERY, SCHEMA))
    db = hub_database(n)
    benchmark.group = f"ablation-optimizer-n{n}"
    result = benchmark(evaluate, expr, db)
    assert len(result) == n


def test_intermediate_size_reduction(benchmark):
    db = hub_database(64)
    before = parse(FILTER_QUERY, SCHEMA)
    after = optimize(before)

    def both():
        return (
            trace(before, db).max_intermediate(),
            trace(after, db).max_intermediate(),
        )

    big, small = benchmark(both)
    assert big == 64 * 64
    assert small == 64
