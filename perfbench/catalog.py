"""Names, units, bounds and intent of every metric and workload.

The names are normative: later issues cite them verbatim, and
``BENCHMARK.json`` at the repository root is :func:`manifest` of this
module (the smoke test keeps the two equal).  ``BENCHMARK.json`` has a
fixed schema with no room for a metric's layer, the end-to-end metric
it should move, the workloads it should move on, or whether its value
must repeat exactly — those live here and in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BASE_OPS",
    "END_TO_END",
    "FAILED_RATIO",
    "MIN_OPS",
    "PER_LAYER",
    "RUN_SECONDS",
    "SETUP_REPEATS",
    "WORKLOADS",
    "EndToEnd",
    "Layer",
    "WorkloadInfo",
    "manifest",
]

#: Nominal length of one timed phase; ``--seconds`` scales op counts
#: linearly from the ``base_ops`` measured at this length.
RUN_SECONDS = 12
#: Set-ups per untraced run; ``setup_s`` is their median (plus import).
SETUP_REPEATS = 5
#: Fewest timed ops in a full run, so p95 has ≥ 10 samples beyond it.
MIN_OPS = 200


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Relative worsening of the median that counts as a regression.
    #: At least twice the widest run-to-run spread (interquartile range
    #: ÷ median over ten seeds) seen on any workload on the reference
    #: host, whose noise floor sits above the 0.10/0.15 first asked for.
    bound: float
    definition: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "engine import + median over the run's five set-ups of: input "
        "generation, Session/Server/backend open, pool spawn, warm-up "
        "(first-touch stats, plans, indexes, tries); nominal speed",
    ),
    EndToEnd(
        "op_p50_ms", "ms", "lower", 0.15,
        "median latency of one timed operation, call -> last row "
        "(Session.run/divide, ClientHandle submit -> Ticket finish; "
        "writes are operations too); nominal speed",
    ),
    EndToEnd(
        "op_p95_ms", "ms", "lower", 0.25,
        "95th percentile of the same samples",
    ),
    EndToEnd(
        "throughput_ops_s", "ops/s", "higher", 0.20,
        "timed ops completed / timed-phase busy time (sum of op times "
        "with one client, wall-clock with two) at the stated input size "
        "and client count; nominal speed",
    ),
    EndToEnd(
        "cpu_s", "s", "lower", 0.15,
        "user+sys CPU of the workload process (all threads) plus its "
        "reaped pool children, from the start of the last set-up to "
        "the close after the timed phase; nominal speed",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.15,
        "ru_maxrss of the workload process after the timed phase, "
        "before the oracle audit",
    ),
)

#: Reported by ``run``/``compare`` beside the bounded metrics; absent
#: from ``BENCHMARK.json`` because its healthy value is exactly 0 (the
#: contract carries failures as ``failed``/``attempted`` instead).
FAILED_RATIO = "failed_ratio"


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    why: str  #: one line, for BENCHMARK.json
    #: Timed ops at :data:`RUN_SECONDS` on the 2-CPU reference host.
    base_ops: int
    clients: str
    inputs: str
    serves: str  #: the ROADMAP item expected to use it


WORKLOADS: tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "division_warm",
        "The paper's own operators on a warm Session: executor operator "
        "loops are >80% of each op, parse/plan are memo hits, storage "
        "and serving absent; front-end or serving changes must leave "
        "it flat.",
        960, "1 thread",
        "division_database(600, 12, extra_per_key=3, hit_fraction=0.4)"
        " ~8.6k rows, memory backend, result cache off",
        "items 5 (streaming semijoin pipeline) and 3(b)",
    ),
    WorkloadInfo(
        "hot_semijoin_shm",
        "Fig. 1 quadratic semijoin on the shm backend, 3 in 4 ops via "
        "the cost-gated ParallelOp and 1 in 4 via PartitionedOp: "
        "packing, pool dispatch, shipment seal, attach/decode and "
        "merge are the work.",
        400, "1 thread, pool of min(2, cpus) workers",
        "Person=1200, Disease=400, 8 hot groups, partition_budget=800",
        "item 3(a) (fold PartitionedOp/ParallelOp) and transports",
    ),
    WorkloadInfo(
        "triangle_wcoj",
        "Zipf hub triangles through the generic join: p50 is the warm "
        "intersect loop, p95 sits in the every-8th cold Session (stats, "
        "plan, LP, tries), so kernel and cold-start gains are told "
        "apart.",
        432, "1 thread",
        "zipf_triangle_db(640, tail=1280, skew=1.1) ~6.6k rows",
        "item 6 (generic-join kernels) and cold-start work",
    ),
    WorkloadInfo(
        "adhoc_tiny",
        "Thousands of distinct small queries on ~400 rows, 75% never "
        "seen before: parse + plan + cost are about half of each ~1 ms "
        "op and the result cache evicts; the opposite of "
        "division_warm.",
        14000, "1 thread",
        "build_database('mixed', num_keys=24, extra_rows=48) ~400 "
        "rows, Session(cache_bytes=128 KiB)",
        "item 1 (span overhead), item 3(b) (shim removal), plan memo",
    ),
    WorkloadInfo(
        "serve_read_memory",
        "Read-only serving with admission off: p50 is pure serving "
        "overhead (parse/plan/price under the lock, by-value snapshot "
        "pickled per task, IPC, cache lookup), p95 is real execution "
        "in a worker.",
        2400, "2 client threads, pool of min(2, cpus) workers",
        "build_database('mixed', num_keys=300, extra_rows=1200) ~5.7k"
        " rows, Server(budget=None, backend='memory')",
        "item 1 (the serving p50-vs-p99 question)",
    ),
    WorkloadInfo(
        "serve_rw_shm",
        "Writes beside reads under a binding 70000-row budget on shm: "
        "backend re-encode per write, stats/plan invalidation, "
        "stale-pin retry and FairQueue waits; a read-path gain that "
        "costs writes shows here.",
        3200, "1 windowed reader (4 outstanding) + 1 writer thread "
        "(1 write : 3 reads), pool of min(2, cpus) workers",
        "same database, Server(budget=70000, backend='shm')",
        "item 4 (immutable snapshots) and tighter admission bounds",
    ),
)

BASE_OPS = {info.name: info.base_ops for info in WORKLOADS}

_ALL = tuple(info.name for info in WORKLOADS)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    source: str  #: the public callable or record it is read from
    moves: str  #: the end-to-end metric it should move
    on: tuple[str, ...]  #: workloads where it must be produced and move
    flat_on: tuple[str, ...] = ()  #: workloads where it must stay ~0/flat
    exact: bool = False  #: must repeat exactly on single-thread workloads

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_W1, _W2, _W3, _W4, _W5, _W6 = _ALL
_SESSION = (_W1, _W2, _W3, _W4)
_SERVE = (_W5, _W6)

PER_LAYER: tuple[Layer, ...] = (
    Layer("parser.parse_ms_per_op", "ms", "lower",
          "repro.algebra.parser.parse", "op_p50_ms", (_W4,), (_W1, _W2, _W3)),
    Layer("session.run_self_ms_per_op", "ms", "lower",
          "Session.run/divide minus children", "op_p50_ms",
          (_W4,), (_W1, _W2, _W3)),
    Layer("executor.plan_ms_per_op", "ms", "lower", "Executor.plan",
          "op_p50_ms; throughput_ops_s on 5, 6 (runs under the server lock)",
          (_W4, _W5, _W6), (_W1, _W2)),
    Layer("executor.plan_memo_hit_ratio", "ratio", "higher",
          "Executor.plan spans with no Planner.plan child", "op_p50_ms",
          (_W4,)),
    Layer("planner.plan_self_ms_per_op", "ms", "lower", "Planner.plan self",
          "op_p50_ms", (_W4, _W3), (_W1, _W2)),
    Layer("cost.estimate_ms_per_op", "ms", "lower",
          "CostModel.estimate/estimates, parallel_cost_split", "op_p50_ms",
          (_W4,), (_W1,)),
    Layer("cost.edge_cover_calls_per_op", "count", "lower",
          "fractional_edge_cover", "op_p95_ms (cold ops)",
          (_W3,), (_W1, _W2), exact=True),
    Layer("stats.relation_ms_per_op", "ms", "lower", "StatsCatalog.relation",
          "setup_s; op_p95_ms", (_W6, _W3), (_W1, _W2, _W4)),
    Layer("stats.profiles_per_op", "count", "lower", "relation_stats calls",
          "setup_s; op_p95_ms", (_W6, _W3), exact=True),
    Layer("executor.execute_ms_per_op", "ms", "lower", "Executor.execute",
          "op_p50_ms, cpu_s", (_W1, _W2, _W3), (_W4,)),
    Layer("executor.execute_self_ms_per_op", "ms", "lower",
          "Executor.execute minus partition/parallel/wcoj/index/storage "
          "children", "op_p50_ms, throughput_ops_s", (_W1,), (_W2, _W3)),
    Layer("executor.rows_per_op", "rows", "lower",
          "ExecutionStats.total_rows()", "op_p50_ms", (_W1,), exact=True),
    Layer("executor.max_in_flight_rows", "rows", "lower",
          "ExecutionStats.max_in_flight(), max over ops", "peak_rss_mb",
          (_W1, _W2), exact=True),
    Layer("executor.index_build_ms_per_op", "ms", "lower",
          "IndexCache.index_for self", "op_p50_ms", (_W1,), (_W4,)),
    Layer("executor.index_reuse_ratio", "ratio", "higher",
          "IndexCache reuses / (builds + reuses)", "op_p50_ms",
          (_W1, _W2), exact=True),
    Layer("result_cache.hit_ratio", "ratio", "higher",
          "Session.result_cache hits / (hits + misses)", "op_p50_ms",
          (_W4,), (_W1, _W2, _W3), exact=True),
    Layer("result_cache.evictions", "count", "lower", "ResultCache.evictions",
          "op_p50_ms", (_W4,), exact=True),
    Layer("result_cache.get_put_ms_per_op", "ms", "lower",
          "ResultCache.get/put", "op_p50_ms", (_W4,), (_W1, _W2, _W3)),
    Layer("partition.run_ms_per_op", "ms", "lower", "run_partitioned",
          "op_p95_ms (the 1-in-4 serial ops)", (_W2,), (_W1, _W3, _W4)),
    Layer("partition.pack_ms_per_op", "ms", "lower",
          "pack_groups/packed_or_fallback", "op_p50_ms", (_W2,)),
    Layer("partition.batches_per_op", "count", "lower",
          "PartitionRun.actual()", "op_p50_ms", (_W2,), exact=True),
    Layer("partition.peak_in_flight_rows", "rows", "lower",
          "PartitionRun.peak_in_flight()", "peak_rss_mb", (_W2,), exact=True),
    Layer("partition.within_budget_ratio", "ratio", "higher",
          "PartitionRun.within_budget(); must be 1", "failed ops (guard)",
          (_W2,)),
    Layer("parallel.run_ms_per_op", "ms", "lower", "run_parallel",
          "op_p50_ms, throughput_ops_s", (_W2,)),
    Layer("parallel.worker_busy_ms_per_op", "ms", "lower",
          "sum of ParallelRun.timings", "cpu_s", (_W2,)),
    Layer("parallel.dispatch_overhead_ms_per_op", "ms", "lower",
          "run_parallel span minus the slowest worker's busy time",
          "op_p50_ms", (_W2,)),
    Layer("parallel.worker_balance", "ratio", "higher",
          "mean / max worker busy time", "op_p95_ms (slowest part sets "
          "the op)", (_W2,)),
    Layer("parallel.pool_fallbacks", "count", "lower",
          "ParallelRun.pool_fallback set", "failed ops (guard)", (_W2,)),
    Layer("parallel.worker_peak_rss_mb", "MiB", "lower",
          "RUSAGE_CHILDREN ru_maxrss", "peak_rss_mb (companion)",
          (_W2, _W5, _W6)),
    Layer("ship.encode_seal_ms_per_op", "ms", "lower",
          "ShipmentWriter.rows/values/seal", "op_p50_ms", (_W2,)),
    Layer("columnar.encode_ms_per_krow", "ms/krow", "lower",
          "encode_rows/encode_values, per 1000 rows",
          "setup_s (backend open); op_p95_ms", (_W2, _W6),
          (_W1, _W3, _W4, _W5)),
    Layer("columnar.decode_ms_per_krow", "ms/krow", "lower",
          "decode_rows/decode_values, per 1000 rows", "op_p50_ms",
          (_W2, _W6), (_W1, _W3, _W4, _W5)),
    Layer("backend.open_ms", "ms", "lower", "open_backend", "setup_s",
          (_W2, _W6)),
    Layer("backend.rows_ms_per_op", "ms", "lower", "Backend.rows",
          "op_p50_ms", (_W2,), (_W1, _W3, _W4)),
    Layer("backend.refresh_ms_per_write", "ms", "lower",
          "ColumnarBackend.refresh", "op_p95_ms, serve.write_ms_p50",
          (_W6,), (_W5,)),
    Layer("backend.storage_bytes", "bytes", "lower",
          "Backend.storage_bytes()", "peak_rss_mb", (_W2, _W6), exact=True),
    Layer("snapshot.export_ms", "ms", "lower", "Backend.export_snapshot",
          "throughput_ops_s (under the lock)", (_W6, _W5)),
    Layer("snapshot.attach_ms", "ms", "lower",
          "probe: median of 5 attach_snapshot(descriptor)",
          "op_p95_ms, setup_s", (_W5, _W6)),
    Layer("snapshot.descriptor_pickle_bytes", "bytes", "lower",
          "len(pickle.dumps(descriptor))", "op_p50_ms (payload per task)",
          (_W5,), (_W6,)),
    Layer("wcoj.run_ms_per_op", "ms", "lower", "run_multiway",
          "op_p50_ms, throughput_ops_s", (_W3,)),
    Layer("wcoj.join_ms_per_op", "ms", "lower", "generic_join",
          "op_p50_ms", (_W3,)),
    Layer("wcoj.trie_build_ms_per_op", "ms", "lower",
          "build_trie / IndexCache.trie_for", "op_p95_ms, setup_s", (_W3,)),
    Layer("wcoj.probes_per_op", "count", "lower", "WcojRun.probes",
          "op_p50_ms", (_W3,), exact=True),
    Layer("wcoj.candidates_per_op", "count", "lower", "WcojRun.candidates",
          "op_p50_ms", (_W3,), exact=True),
    Layer("wcoj.output_rows_per_op", "count", "lower", "WcojRun.output_rows",
          "op_p50_ms", (_W3,), exact=True),
    Layer("wcoj.ns_per_probe", "ns", "lower", "generic_join time / probes",
          "op_p50_ms", (_W3,)),
    Layer("wcoj.agm_utilization", "ratio", "higher",
          "WcojRun.output_rows / agm", "admission.utilization", (_W3,),
          exact=True),
    Layer("serve.pool_spawn_s", "s", "lower",
          "Server(...) -> first warm-up ticket done", "setup_s", _SERVE),
    Layer("serve.submit_ms_p50", "ms", "lower",
          "ClientHandle.submit (parse+plan+price+pin+admit+dispatch)",
          "throughput_ops_s (one scheduler lock caps ops/s at 1/this)",
          _SERVE, _SESSION),
    Layer("serve.price_ms_per_op", "ms", "lower", "price_plan",
          "throughput_ops_s", _SERVE),
    Layer("serve.queue_ms_p50", "ms", "lower", "Ticket.queue_seconds",
          "op_p95_ms", (_W6,), (_W5,)),
    Layer("serve.queue_ms_p95", "ms", "lower", "Ticket.queue_seconds",
          "op_p95_ms (rises before throughput flattens)", (_W6,), (_W5,)),
    Layer("serve.run_ms_p50", "ms", "lower",
          "Ticket.run_seconds (dispatch -> completion)", "op_p50_ms",
          (_W5,)),
    Layer("serve.cached_ratio", "ratio", "higher", "Ticket.cached",
          "op_p50_ms", (_W5,)),
    Layer("serve.queued_ratio", "ratio", "lower",
          "tenant queued / submitted", "op_p95_ms", (_W6,), (_W5,)),
    Layer("serve.retried", "count", "lower", "Server.metrics()",
          "op_p95_ms", (_W6,), (_W5,)),
    Layer("serve.rejected", "count", "lower", "Server.metrics()",
          "failed ops", (_W6,), (_W5,)),
    Layer("serve.failed", "count", "lower", "Server.metrics()",
          "failed ops", (_W6,), (_W5,)),
    Layer("serve.write_ms_p50", "ms", "lower", "ClientHandle.write",
          "op_p95_ms, throughput_ops_s", (_W6,)),
    Layer("serve.write_ms_p95", "ms", "lower", "ClientHandle.write",
          "op_p95_ms, throughput_ops_s", (_W6,)),
    Layer("admission.submit_release_ms_per_op", "ms", "lower",
          "AdmissionController.submit/release", "throughput_ops_s",
          (_W6,), (_W5,)),
    Layer("admission.utilization", "ratio", "higher",
          "totals().utilization(): sum actual / sum bound",
          "serve.queue_ms_p95 -> op_p95_ms", (_W6,), (_W5,)),
    Layer("admission.in_flight_peak_ratio", "ratio", "lower",
          "in_flight_peak / budget; must stay <= 1", "failed ops (guard)",
          (_W6,)),
    Layer("workloads.build_db_s", "s", "lower", "generator calls",
          "setup_s", _ALL),
    Layer("trace.overhead_ratio", "ratio", "lower",
          "traced op_p50_ms / untraced op_p50_ms, same ops, same process",
          "none (info)", _ALL),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench", "measure"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": info.name, "why": info.why} for info in WORKLOADS
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }
