"""CACHE — the session result cache on a repeat-query workload.

The Session front door's headline claim: a repeated identical query
against unchanged contents is served from the cross-query result cache
with **zero** physical operator executions, and the hit is at least an
order of magnitude faster than the cold run (measured with
``perf_counter`` over a batch of hits).
"""

import time

import pytest

from repro.data.database import Database
from repro.session import Session
from repro.workloads.generators import division_database

#: One non-trivial query: division + a join, so a cold run builds
#: indexes, prices a plan, and materializes intermediates.
QUERY = (
    "(project[1](R) minus project[1]((project[1](R) join[] S) minus R))"
    " join[1=1] R"
)


@pytest.fixture(scope="module")
def workload() -> Database:
    return division_database(
        num_keys=400, divisor_size=8, extra_per_key=6, seed=13
    )


def test_cached_run(workload):
    session = Session(workload)
    expected = session.run(QUERY)  # warm the cache once
    for __ in range(2):
        assert session.run(QUERY) == expected
        assert session.last_report.cached


def test_cache_hit_executes_zero_operators(workload):
    session = Session(workload)
    prepared = session.query(QUERY)
    cold = prepared.run()
    assert prepared.last_report.operators_executed() > 0
    warm = prepared.run()
    assert warm == cold
    assert prepared.last_report.cached
    assert prepared.last_report.operators_executed() == 0
    assert prepared.last_report.stats.node_rows == {}
    assert session.result_cache.hits == 1


def test_cached_run_is_10x_faster_than_cold(workload):
    """The smoke claim: averaged over a batch, a hit beats the cold
    run by ≥10×.  The cold figure excludes session construction (plan
    pricing + execution only), so the comparison is execution work vs
    cache lookup, not object setup."""
    session = Session(workload)
    prepared = session.query(QUERY)
    start = time.perf_counter()
    cold_result = prepared.run()
    cold_elapsed = time.perf_counter() - start

    repeats = 50
    start = time.perf_counter()
    for _ in range(repeats):
        warm_result = prepared.run()
    warm_elapsed = (time.perf_counter() - start) / repeats

    assert warm_result == cold_result
    assert session.result_cache.hits == repeats
    assert cold_elapsed >= 10 * warm_elapsed, (
        f"cold {cold_elapsed * 1e3:.2f}ms vs warm "
        f"{warm_elapsed * 1e3:.4f}ms"
    )
