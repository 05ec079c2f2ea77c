"""Storage backends: protocol, differential equivalence, lifecycle.

The contract under test (see ``docs/storage.md``):

* every :data:`~repro.storage.backend.BACKEND_KINDS` implementation
  serves exactly the relation the source database holds — a
  differential property across the random expression/database zoo,
  with the in-memory dict backend as the oracle;
* staleness is uniform: a mutation between encode and read raises
  :class:`~repro.errors.StaleDataError` on every snapshotting backend,
  a mutation *mid-query* surfaces identically no matter which backend
  the executor reads from, and :meth:`~repro.storage.backend.Backend.
  refresh` (driven by the executor's version-token check) re-encodes;
* the parallel layer ships attached-backend fragments as descriptors
  into one shared segment / spill file per run, results stay equal,
  and broken pools degrade to inline with locally resolved blocks;
* closing a backend (or the owning :class:`~repro.session.Session`)
  releases every shared-memory segment and spill file this process
  created — the leak check reads the live registries directly;
* a snapshot descriptor of any kind attaches back to exactly the source
  relations; the memory backend's by-value image is encoded once per
  content version, survives later writes, and a damaged image is a
  :class:`~repro.errors.SchemaError`, never a silently short relation.
"""

import os
import pickle
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.partition as partition_module
import repro.storage.backend as backend_module
import repro.storage.mmapio as mmapio_module
import repro.storage.shm as shm_module
from repro.algebra.parser import parse
from repro.algebra.reference import evaluate_reference
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine.executor import Executor
from repro.engine.planner import PlannerOptions
from repro.errors import SchemaError, StaleDataError
from repro.session import Session
from repro.setjoins.division import classic_division_expr, divide_hash
from repro.storage import (
    BACKEND_KINDS,
    Backend,
    MemoryBackend,
    MmapBackend,
    SharedMemoryBackend,
    attach_snapshot,
    open_backend,
)
from repro.workloads.generators import division_database
from tests.strategies import databases, expressions
from tests.test_engine_parallel import force_parallel, parallel_runs

SCHEMA = Schema({"R": 2, "S": 1})

SNAPSHOT_KINDS = ("shm", "mmap")

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def small_db():
    return Database(
        SCHEMA, {"R": {(1, 2), (3, 4), (5, 2)}, "S": {(2,), (9,)}}
    )


def mixed_db():
    """Every columnar encoding path: int64, oversized int, str, Fraction."""
    return Database(
        Schema({"M": 2, "E": 1}),
        {
            "M": {
                (1, "ale"),
                (2**70, "stout"),
                (Fraction(1, 3), "porter"),
                (-5, "ale"),
            },
            "E": frozenset(),
        },
    )


def no_leaks():
    return (
        not shm_module.live_segment_names()
        and not mmapio_module.live_spill_paths()
    )


def spill_files():
    """This process's spill files actually present on disk."""
    return sorted(
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith(mmapio_module.SPILL_PREFIX)
    )


# ----------------------------------------------------------------------
# Protocol basics
# ----------------------------------------------------------------------


class TestBackendProtocol:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_open_backend_kinds(self, kind):
        expected = {
            "memory": MemoryBackend,
            "shm": SharedMemoryBackend,
            "mmap": MmapBackend,
        }[kind]
        with open_backend(small_db(), kind) as backend:
            assert type(backend) is expected
            assert backend.kind == kind
            assert backend.attached == (kind != "memory")
            assert backend.schema["R"] == 2

    def test_open_backend_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown storage backend"):
            open_backend(small_db(), "tape")

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_rows_match_source(self, kind):
        db = small_db()
        with open_backend(db, kind) as backend:
            assert backend.rows("R") == db["R"]
            assert backend.rows("S") == db["S"]

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_mixed_types_and_empty_relations_roundtrip(self, kind):
        db = mixed_db()
        with open_backend(db, kind) as backend:
            assert backend.rows("M") == db["M"]
            assert backend.rows("E") == frozenset()

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_unknown_relation_raises_schema_error(self, kind):
        with open_backend(small_db(), kind) as backend:
            with pytest.raises(SchemaError):
                backend.rows("Nope")

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_close_is_idempotent_and_read_after_close_raises(self, kind):
        backend = open_backend(small_db(), kind)
        backend.close()
        backend.close()
        assert backend.closed
        with pytest.raises(SchemaError, match="closed"):
            backend.rows("R")
        with pytest.raises(SchemaError, match="closed"):
            backend.version_token()
        assert no_leaks()

    def test_storage_bytes(self):
        db = small_db()
        with open_backend(db, "memory") as backend:
            assert backend.storage_bytes() == 0
        for kind in SNAPSHOT_KINDS:
            with open_backend(db, kind) as backend:
                assert backend.storage_bytes() > 0

    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_stale_snapshot_read_raises_and_refresh_reencodes(self, kind):
        db = small_db()
        with open_backend(db, kind) as backend:
            assert backend.rows("S") == {(2,), (9,)}
            db._relations = {**db._relations, "S": frozenset({(7,)})}
            with pytest.raises(StaleDataError):
                backend.rows("S")
            backend.refresh()
            assert backend.rows("S") == {(7,)}


# ----------------------------------------------------------------------
# Snapshot descriptors
# ----------------------------------------------------------------------


class TestSnapshots:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_descriptor_attaches_back_to_the_source(self, kind):
        for db in (small_db(), mixed_db()):
            with open_backend(db, kind) as backend:
                descriptor = backend.export_snapshot()
                assert descriptor[0] == ("rows" if kind == "memory" else kind)
                assert attach_snapshot(descriptor) == db.relations()
        assert no_leaks()

    def test_memory_image_is_encoded_once_per_version(self, monkeypatch):
        encodes = []
        real = backend_module.encode_relations

        def counting(db):
            encodes.append(db.version_token())
            return real(db)

        monkeypatch.setattr(backend_module, "encode_relations", counting)
        db = small_db()
        with open_backend(db, "memory") as backend:
            first = backend.export_snapshot()
            assert all(backend.export_snapshot() is first for _ in range(5))
            assert len(encodes) == 1
            kind, image, layout = first
            assert kind == "rows" and type(image) is bytes
            assert set(layout) == {"R", "S"}
            # Shipping it is one buffer copy plus a small layout table.
            assert len(pickle.dumps(first)) < len(image) + 512
            db._relations = {**db._relations, "S": frozenset({(7,)})}
            second = backend.export_snapshot()
            assert second is not first and backend.export_snapshot() is second
            assert len(encodes) == 2
            assert attach_snapshot(second)["S"] == {(7,)}

    def test_by_value_snapshot_outlives_writes_and_the_backend(self):
        db = small_db()
        before = db.relations()
        with open_backend(db, "memory") as backend:
            pinned = backend.export_snapshot()
            db._relations = {**db._relations, "S": frozenset({(7,)})}
            assert attach_snapshot(pinned) == before
        assert attach_snapshot(pinned) == before  # closed backend too

    def test_closed_backend_refuses_to_export(self):
        backend = open_backend(small_db(), "memory")
        backend.export_snapshot()
        backend.close()
        with pytest.raises(SchemaError, match="closed"):
            backend.export_snapshot()

    @pytest.mark.parametrize("make_db", [small_db, mixed_db])
    def test_damaged_image_is_a_schema_error(self, make_db):
        db = make_db()
        with open_backend(db, "memory") as backend:
            kind, image, layout = backend.export_snapshot()
        for cut in sorted({0, 1, 8, len(image) // 2, len(image) - 8,
                           len(image) - 1}):
            with pytest.raises(SchemaError):
                attach_snapshot((kind, image[:cut], layout))
        for locator, table in (
            (None, layout),
            ("not-bytes", layout),
            (image, None),
            (image, {"R": "nonsense"}),
            (image, {"R": (0, (3, 2, (("q", 0, 24), ("z", 24, 24))))}),
        ):
            with pytest.raises(SchemaError):
                attach_snapshot((kind, locator, table))
        with pytest.raises(SchemaError, match="malformed"):
            attach_snapshot((kind, image))
        with pytest.raises(SchemaError, match="unknown"):
            attach_snapshot(("tape", image, layout))


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------


class TestExecutorIntegration:
    def test_executor_accepts_kind_and_backend_object(self):
        db = small_db()
        assert Executor(db).backend.kind == "memory"
        executor = Executor(db, backend="shm")
        assert executor.backend.kind == "shm"
        executor.close()
        with open_backend(db, "mmap") as backend:
            assert Executor(db, backend=backend).backend is backend
        assert no_leaks()

    def test_executor_rejects_foreign_backend_and_junk(self):
        db = small_db()
        with open_backend(small_db(), "memory") as other:
            with pytest.raises(SchemaError, match="different database"):
                Executor(db, backend=other)
        with pytest.raises(SchemaError):
            Executor(db, backend=object())

    def test_cost_model_prices_the_executor_backend(self):
        db = small_db()
        assert Executor(db).cost_model.backend == "memory"
        executor = Executor(db, backend="shm")
        assert executor.cost_model.backend == "shm"
        executor.close()

    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_mutation_between_runs_refreshes_snapshot(self, kind):
        db = small_db()
        executor = Executor(db, backend=kind)
        expr = parse("R semijoin[2=1] S", SCHEMA)
        assert executor.execute(executor.plan(expr)) == {(1, 2), (5, 2)}
        db._relations = {**db._relations, "S": frozenset({(4,)})}
        # Planning detects the token movement and refreshes the
        # snapshot; no StaleDataError escapes to the caller.
        assert executor.execute(executor.plan(expr)) == {(3, 4)}
        executor.close()

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_mid_query_mutation_raises_stale_data_identically(
        self, kind, monkeypatch
    ):
        """The partition layer's staleness check is backend-uniform."""
        db = division_database(
            num_keys=40, divisor_size=5, extra_per_key=3, seed=3
        )
        executor = Executor(db, backend=kind)
        plan = executor.plan(
            classic_division_expr(), PlannerOptions(partition_budget=60)
        )
        calls = {"count": 0}

        def mutating_divide(rows, divisor):
            calls["count"] += 1
            if calls["count"] == 1:
                db._relations = {
                    **db._relations, "S": frozenset({(999,)})
                }
            return divide_hash(rows, divisor)

        monkeypatch.setitem(
            partition_module.DIVISION_ALGORITHMS, "hash", mutating_divide
        )
        with pytest.raises(StaleDataError):
            executor.execute(plan)
        assert calls["count"] == 1
        executor.close()
        assert no_leaks()


# ----------------------------------------------------------------------
# Parallel shipment
# ----------------------------------------------------------------------


class TestParallelShipment:
    def run_forced(self, db, expr, kind, workers=3):
        executor = Executor(db, backend=kind)
        plan = force_parallel(executor.plan(expr), workers)
        result = executor.execute(plan)
        runs = parallel_runs(executor)
        executor.close()
        return result, runs

    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_forced_parallel_matches_oracle_and_records_transport(
        self, kind
    ):
        db = Database(
            Schema({"Person": 2, "Disease": 2}),
            {
                "Person": {(i, i % 8) for i in range(600)},
                "Disease": {(10**6 + j, j % 8) for j in range(150)},
            },
        )
        expr = parse("Person semijoin[2=2,1>1] Disease", db.schema)
        result, runs = self.run_forced(db, expr, kind)
        assert result == evaluate_reference(expr, db)
        (run,) = runs
        assert run.pool_fallback is None
        if kind == "memory":
            assert run.transport is None
        else:
            assert run.transport == ("file" if kind == "mmap" else "shm")
        assert no_leaks()

    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_shipped_division_with_strings_matches_oracle(self, kind):
        """Replicated divisor + pickled-column values cross intact."""
        db = Database(
            Schema({"R": 2, "S": 1}),
            {
                "R": {
                    (f"student-{i}", f"course-{j}")
                    for i in range(40)
                    for j in range(i % 12)
                },
                "S": {(f"course-{j}",) for j in range(8)},
            },
        )
        expr = classic_division_expr()
        executor = Executor(db, backend=kind)
        plan = force_parallel(
            executor.plan(expr, PlannerOptions(partition_budget=60)), 2
        )
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        executor.close()
        assert no_leaks()

    @pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
    def test_broken_pool_degrades_to_inline_with_local_blocks(
        self, kind, monkeypatch
    ):
        from concurrent.futures.process import BrokenProcessPool

        import repro.engine.parallel as parallel_module

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

        monkeypatch.setattr(
            parallel_module, "_pool_for", lambda workers: BrokenPool()
        )
        db = division_database(
            num_keys=30, divisor_size=4, extra_per_key=2, seed=5
        )
        expr = classic_division_expr()
        executor = Executor(db, backend=kind)
        plan = force_parallel(
            executor.plan(expr, PlannerOptions(partition_budget=40)), 2
        )
        result = executor.execute(plan)
        assert result == evaluate_reference(expr, db)
        (run,) = parallel_runs(executor)
        assert run.pool_fallback.startswith("worker pool broke")
        assert run.transport is None
        executor.close()
        assert no_leaks()


# ----------------------------------------------------------------------
# Spill files: ``os.write`` may accept fewer bytes than it is offered
# ----------------------------------------------------------------------


class TestSpillFileShortWrites:
    def test_short_writes_are_completed(self, monkeypatch):
        real_write = os.write
        offered = []

        def at_most_five(fd, data):
            offered.append(len(data))
            return real_write(fd, bytes(data[:5]))

        monkeypatch.setattr(mmapio_module.os, "write", at_most_five)
        db = mixed_db()
        with open_backend(db, "mmap") as backend:
            assert backend.rows("M") == db["M"]
            assert backend.rows("E") == frozenset()
        assert max(offered) > 5  # some part really needed several calls
        assert no_leaks()

    def test_shipped_fragments_survive_short_writes(self, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(
            mmapio_module.os,
            "write",
            lambda fd, data: real_write(fd, bytes(data[:64])),
        )
        db = division_database(
            num_keys=30, divisor_size=4, extra_per_key=2, seed=5
        )
        expr = classic_division_expr()
        executor = Executor(db, backend="mmap")
        plan = force_parallel(
            executor.plan(expr, PlannerOptions(partition_budget=40)), 2
        )
        assert executor.execute(plan) == evaluate_reference(expr, db)
        (run,) = parallel_runs(executor)
        assert run.transport == "file" and run.pool_fallback is None
        executor.close()
        assert no_leaks()

    def test_a_write_that_accepts_nothing_raises_and_leaves_nothing(
        self, monkeypatch
    ):
        files, live = spill_files(), dict(mmapio_module._live)
        monkeypatch.setattr(mmapio_module.os, "write", lambda fd, data: 0)
        with pytest.raises(OSError, match="short write"):
            mmapio_module.create_spill_file([b"abc", b"defgh"])
        assert mmapio_module._live == live
        assert spill_files() == files


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------


class TestSessionLifecycle:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    def test_session_backend_selection_and_close(self, kind):
        with Session(small_db(), backend=kind) as session:
            assert session.executor.backend.kind == kind
            assert session.options.backend == kind
            assert session.run("R semijoin[2=1] S") == {(1, 2), (5, 2)}
        assert session.closed
        with pytest.raises(SchemaError, match="closed"):
            session.run("R semijoin[2=1] S")
        assert no_leaks()

    def test_options_backend_opens_that_backend(self):
        with Session(
            small_db(), options=PlannerOptions(backend="mmap")
        ) as session:
            assert session.executor.backend.kind == "mmap"

    def test_per_query_backend_mismatch_is_coerced(self):
        with Session(small_db(), backend="shm") as session:
            prepared = session.query(
                "R semijoin[2=1] S", PlannerOptions(backend="memory")
            )
            assert prepared.options.backend == "shm"
            assert prepared.run() == {(1, 2), (5, 2)}

    def test_planner_options_reject_unknown_backend(self):
        with pytest.raises(SchemaError, match="unknown storage backend"):
            PlannerOptions(backend="tape")


# ----------------------------------------------------------------------
# Properties: every backend ≡ the dict oracle
# ----------------------------------------------------------------------


@PROPERTY
@given(expressions(max_depth=3), databases())
def test_backends_match_oracle(expr, db):
    oracle = evaluate_reference(expr, db)
    for kind in BACKEND_KINDS:
        executor = Executor(db, backend=kind)
        assert executor.execute(executor.plan(expr)) == oracle
        executor.close()
    assert no_leaks()


@PROPERTY
@given(databases(max_rows=12))
def test_snapshot_backends_roundtrip_every_relation(db):
    for kind in SNAPSHOT_KINDS:
        with open_backend(db, kind) as backend:
            for name in db.schema.names():
                assert backend.rows(name) == db[name]
    assert no_leaks()


_INT64_EDGE = st.sampled_from(
    [-(2**63) - 1, -(2**63), -1, 0, 1, 2**63 - 1, 2**63, 2**70]
)
_SNAPSHOT_VALUES = st.one_of(
    st.integers(-3, 3),
    _INT64_EDGE,
    st.sampled_from(["", "ale", "stout"]),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def _snapshot_databases(draw):
    """Databases hitting every column encoding, empty relations included."""
    schema = Schema({"A": 1, "B": 2, "C": 3})
    # Per-column value strategies: an all-int column packs as int64, a
    # mixed / str / Fraction / beyond-64-bit one falls back to pickle.
    relations = {}
    for name in schema:
        columns = [
            draw(st.sampled_from(
                [st.integers(-3, 3), _INT64_EDGE, _SNAPSHOT_VALUES]
            ))
            for _ in range(schema[name])
        ]
        relations[name] = draw(
            st.frozensets(st.tuples(*columns), max_size=6)
        )
    return Database(schema, relations)


@PROPERTY
@given(_snapshot_databases())
def test_snapshot_descriptors_roundtrip_every_kind(db):
    for kind in BACKEND_KINDS:
        with open_backend(db, kind) as backend:
            attached = attach_snapshot(backend.export_snapshot())
        assert attached == db.relations()
        for name, rows in attached.items():
            # Equal *and* same types: 1 must not come back as Fraction(1).
            assert {tuple(map(type, r)) for r in rows} == {
                tuple(map(type, r)) for r in db[name]
            }
    assert no_leaks()
