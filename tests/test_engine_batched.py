"""One batched-execution driver: every runner runs the same batches.

``PartitionedOp`` and ``ParallelOp`` share one pipeline (scatter →
pack → runner → record; ``docs/engine.md`` § Partitioned execution)
and differ only in *where* a batch runs.  The contract under test:

* for each operator kind, budget and storage backend, the serial
  loop, a ``workers=1`` ``ParallelOp``, real two- and three-worker
  pools and a pool that breaks mid-run return the one-shot rows
  **and**, under a budget, record-for-record the batches a serial run
  on the memory backend records — neither the runner, the pool's width
  nor the transport that ships fragments to the pool changes a batch,
  a budget that holds the whole input runs one batch that never
  reaches the pool, and nothing is leaked;
* the rungs of the degradation ladder that need a sick environment —
  a pool that cannot be created, shipment storage that cannot be
  allocated — end in the serial loop with the reason recorded and
  nothing leaked.
"""

import errno
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.engine.parallel as parallel_module
import repro.storage.shm as shm_module
from repro.algebra.parser import parse
from repro.algebra.reference import evaluate_reference
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import (
    Executor,
    ParallelOp,
    ParallelRun,
    PartitionedOp,
)
from repro.extended.division_plan import division_plan
from repro.setjoins.division import classic_division_expr
from repro.storage.ship import ShipmentWriter

SCHEMA = Schema({"L": 2, "M": 2, "R": 2, "S": 1})


def mixed_db() -> Database:
    """Several key groups of uneven size for every operator kind."""
    return Database(
        SCHEMA,
        {
            "L": {(i, i % 7) for i in range(40)},
            "M": {(15 + j, j % 9) for j in range(30)},
            "R": {
                (a, b)
                for a in range(12)
                for b in range(6)
                if (a + b) % 4 or a % 3 == 0
            }
            | {(a, b) for a in (20, 21) for b in (0, 2, 4)},
            "S": {(b,) for b in range(0, 6, 2)},
        },
    )


def selective_partition_db() -> Database:
    """A join whose worst-case batch pricing is wildly pessimistic.

    Every ``L`` row key-matches every ``R`` row on column 2, but the
    ``1>1`` rest-atom keeps almost all pairs out of the output: each
    4×4 key group is priced ``4+4+16 = 24`` rows in flight and emits
    nothing (three rows, for the last key).
    """
    schema = Schema({"L": 2, "R": 2})
    left = frozenset((i, k) for k in range(20) for i in range(4))
    right = frozenset(
        (0 if k == 19 else 9 + i, k) for k in range(20) for i in range(4)
    )
    return Database(schema, {"L": left, "R": right})


#: kind → (database, expression, tight budget, degenerate budget).  The
#: degenerate budget is the replicated side's row count where there is
#: one (θ-semijoin's right side, the divisor: the one-shot fallback)
#: and 1 for the keyed operators (every group an oversized singleton).
KINDS = {
    "hash-join": (mixed_db, parse("L join[2=2,1<1] M", SCHEMA), 40, 1),
    "hash-semijoin": (mixed_db, parse("L semijoin[2=2] M", SCHEMA), 25, 1),
    "theta-semijoin": (mixed_db, parse("L semijoin[1>1] M", SCHEMA), 36, 30),
    "division-contains": (mixed_db, classic_division_expr(), 12, 3),
    "division-eq": (mixed_db, division_plan(eq=True), 12, 3),
    "selective-join": (
        selective_partition_db,
        parse("L join[2=2,1>1] R", SCHEMA),
        24,
        1,
    ),
}

RUNNERS = ("partitioned", "workers=1", "pool", "pool-3", "broken-pool")

#: runner → the ``workers`` of its ``ParallelOp`` (``partitioned`` has none)
WORKERS = {"workers=1": 1, "pool": 2, "pool-3": 3, "broken-pool": 2}

#: a budget no kind's input comes near: every kind packs one batch
AMPLE = 10**6

#: backend → how a healthy pool run ships its fragments
TRANSPORTS = {"memory": None, "shm": "shm"}


class BrokenFuture:
    def result(self):
        raise BrokenProcessPool("worker died")

    def cancel(self):
        return True


class BrokenPool:
    def submit(self, fn, *args):
        return BrokenFuture()

    def shutdown(self, **kwargs):
        pass


def wrap(inner, budget, runner):
    """``inner`` under the wrapper ``runner`` names (bare if it can't)."""
    if runner == "partitioned":
        return inner if budget is None else PartitionedOp(inner, 1, budget)
    return ParallelOp(inner, 1, budget, WORKERS[runner])


def execute(db, expr, budget, runner, backend="memory"):
    executor = Executor(db, backend=backend)
    try:
        plan = wrap(executor.plan(expr), budget, runner)
        rows = executor.execute(plan)
        return rows, executor.stats.partition_runs.get(plan)
    finally:
        executor.close()


def shape(run):
    return [
        (b.groups, b.input_rows, b.output_rows, b.in_flight, b.fallback)
        for b in run.batches
    ]


# ----------------------------------------------------------------------
# (a) kind × budget × backend × runner: same rows, same batches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("backend", sorted(TRANSPORTS))
@pytest.mark.parametrize(
    "budget_case", ["tight", "degenerate", "ample", None]
)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_runner_runs_the_same_batches(
    kind, budget_case, backend, runner, monkeypatch
):
    make_db, expr, tight, degenerate = KINDS[kind]
    budget = {
        "tight": tight,
        "degenerate": degenerate,
        "ample": AMPLE,
        None: None,
    }[budget_case]
    db = make_db()
    one_shot, _ = execute(db, expr, None, "partitioned")
    assert one_shot  # every kind's workload has a non-empty answer
    if runner == "broken-pool":
        monkeypatch.setattr(
            parallel_module, "_pool_for", lambda workers: BrokenPool()
        )

    segments = shm_module.live_segment_names()
    rows, run = execute(db, expr, budget, runner, backend=backend)
    assert rows == one_shot
    assert shm_module.live_segment_names() == segments

    if runner != "partitioned":
        assert isinstance(run, ParallelRun)
        assert len(run.timings) == run.actual()
        if run.actual() > 1:
            expected = {
                "workers=1": None,
                "pool": None,
                "pool-3": None,
                "broken-pool": "worker pool broke (worker died)",
            }[runner]
            assert run.pool_fallback == expected
            shipped = runner.startswith("pool") and run.pool_fallback is None
            assert run.transport == (
                TRANSPORTS[backend] if shipped else None
            )
        else:
            # One batch never reaches the pool, healthy or broken.
            assert run.pool_fallback == (
                "single batch" if WORKERS[runner] > 1 else None
            )
            assert run.transport is None
    if budget is None:
        return
    assert run.within_budget()
    _, serial = execute(db, expr, budget, "partitioned")
    assert not hasattr(serial, "timings")
    assert shape(run) == shape(serial)
    assert run.fallback == serial.fallback
    assert run.replicated_rows == serial.replicated_rows
    if budget_case == "tight":
        assert run.actual() > 1 and run.fallback is None
    elif budget_case == "ample":
        assert run.actual() == 1 and run.fallback is None
    elif kind in ("hash-join", "hash-semijoin", "selective-join"):
        assert all(b.groups == 1 for b in run.batches)
    else:
        assert run.actual() == 1 and "one-shot" in run.render()


# ----------------------------------------------------------------------
# (b) the ladder rungs that need a sick environment
# ----------------------------------------------------------------------


class UnusedPool:
    def submit(self, fn, *args):  # pragma: no cover - the assertion
        raise AssertionError("nothing may be dispatched")


def assert_degraded(kind, monkeypatch, reason_prefix):
    make_db, expr, tight, _ = KINDS["theta-semijoin"]
    db = make_db()
    segments = shm_module.live_segment_names()
    rows, run = execute(db, expr, tight, "pool", backend=kind)
    assert rows == evaluate_reference(expr, db)
    assert run.pool_fallback.startswith(reason_prefix)
    assert run.transport is None
    assert run.actual() > 1 and run.within_budget()
    assert f"[ran inline: {reason_prefix}" in run.render()
    _, serial = execute(db, expr, tight, "partitioned")
    assert shape(run) == shape(serial)
    assert shm_module.live_segment_names() == segments


@pytest.mark.parametrize("kind", ["memory", "shm"])
def test_pool_that_cannot_be_created_degrades_inline(kind, monkeypatch):
    def no_pool(workers):
        raise OSError(errno.ENOSPC, "no semaphores left")

    monkeypatch.setattr(parallel_module, "_pool_for", no_pool)
    assert_degraded(kind, monkeypatch, "pool unavailable (")


@pytest.mark.parametrize("kind", ["shm"])
def test_shipment_storage_failure_degrades_inline(kind, monkeypatch):
    def full(self):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(
        parallel_module, "_pool_for", lambda workers: UnusedPool()
    )
    monkeypatch.setattr(ShipmentWriter, "seal", full)
    assert_degraded(kind, monkeypatch, "shipment storage unavailable (")

