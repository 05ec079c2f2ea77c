"""Tests for the closed-loop serving scenarios of ``tests/serving_lab.py``.

Scenarios run tiny (a few reads per stream) and inline (``workers=0``)
so the suite stays fast and deterministic; every run here ends in the
oracle audit, the scenarios' strongest claim — admitted reads match
the serial replay at their pinned generation even under the
mutation-heavy mix.
"""

from __future__ import annotations

import pytest

import repro.serve.server as serve_server
from repro.algebra.parser import parse
from repro.errors import SchemaError
from repro.workloads.serving import (
    DATABASE_BUILDERS,
    MUTATION_WRITES,
    build_database,
)
from tests.serving_lab import (
    SCENARIOS,
    ScenarioSpec,
    StreamSpec,
    audit_oracle,
    run_scenario,
)


@pytest.fixture(autouse=True)
def fresh_snapshot_cache():
    yield
    for session in serve_server._SNAPSHOT_SESSIONS.values():
        session.close()
    serve_server._SNAPSHOT_SESSIONS.clear()


def test_stream_spec_validation():
    with pytest.raises(SchemaError):
        StreamSpec(tenant="t", queries=())
    with pytest.raises(SchemaError):
        StreamSpec(tenant="t", queries=("R",), write_every=2)
    with pytest.raises(SchemaError):
        ScenarioSpec(database="division", streams=())


def test_unknown_database_name():
    with pytest.raises(SchemaError, match="unknown scenario database"):
        build_database("nope")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_named_scenarios_run_clean_with_oracle(name):
    result = run_scenario(SCENARIOS[name](reads=4))
    assert result.failed == 0
    assert audit_oracle(result) == result.completed > 0
    assert result.throughput > 0
    assert result.latency_p99 >= result.latency_p50 >= 0


def test_mutation_heavy_applies_writes_and_stays_oracle_clean():
    result = run_scenario(SCENARIOS["mutation_heavy"](reads=6))
    assert result.writes > 0
    assert audit_oracle(result) == result.completed > 0
    assert result.failed == 0


@pytest.mark.parametrize("backend", ["memory", "shm", "mmap"])
def test_scenario_runs_on_every_backend(backend):
    result = run_scenario(SCENARIOS["semijoin_only"](reads=3), backend=backend)
    assert result.metrics.backend == backend
    assert audit_oracle(result) == result.completed > 0
    assert result.failed == 0


def test_budget_pressure_rejects_and_reports():
    # A budget below the mix's cheapest certified bound rejects
    # everything; the run must survive and report the rate.
    result = run_scenario(SCENARIOS["division_heavy"](reads=3), budget=3.0)
    assert result.completed == 0
    assert result.rejected > 0
    assert result.rejection_rate == 1.0
    assert audit_oracle(result) == 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_queries_type_check_against_their_database(name):
    spec = SCENARIOS[name](reads=4)
    assert spec.database in DATABASE_BUILDERS
    schema = build_database(spec.database).schema
    for stream in spec.streams:
        for text in stream.queries:
            parse(text, schema)
        for additions, removals in stream.writes:
            for relation, rows in (*additions.items(), *removals.items()):
                assert all(len(row) == schema[relation] for row in rows)
    tenants = [stream.tenant for stream in spec.streams]
    assert len(set(tenants)) == len(tenants)


def test_cache_hostile_streams_never_repeat_a_query():
    spec = SCENARIOS["cache_hostile"](reads=5, tenants=3)
    texts = [text for stream in spec.streams for text in stream.queries]
    assert len(texts) == 15
    assert len(set(texts)) == len(texts)


def test_audit_oracle_catches_a_diverged_read():
    result = run_scenario(SCENARIOS["semijoin_only"](reads=2))
    assert audit_oracle(result) == result.completed > 0
    ticket = result.tickets[0]
    ticket.rows = ticket.rows | {(-1,) * ticket.expr.arity}
    with pytest.raises(AssertionError, match="diverged from generation 0"):
        audit_oracle(result)


def test_one_stream_reads_between_its_writes_at_each_generation():
    # read, write, read, write, read, write: each read is pinned to the
    # generation the previous write left, and the writes flip-flop R.
    stream = StreamSpec(
        tenant="w",
        queries=("R",),
        count=6,
        write_every=2,
        writes=MUTATION_WRITES,
    )
    result = run_scenario(ScenarioSpec(database="mixed", streams=(stream,)))
    assert result.writes == 3
    assert [t.pinned_generation for t in result.tickets] == [0, 1, 2]
    assert audit_oracle(result) == 3
    base, grown, shrunk = (t.rows for t in result.tickets)
    assert grown == base | {(900_001, 1_000_000), (900_002, 1_000_001)}
    assert shrunk == base


def test_run_scenario_serves_the_given_database():
    db = build_database("division", num_keys=30)
    result = run_scenario(SCENARIOS["semijoin_only"](reads=2), db=db)
    assert result.server.database_at(0) == db
    assert audit_oracle(result) == result.completed > 0
    assert result.failed == 0
