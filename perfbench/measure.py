"""One workload, one process: set up, time, audit, report.

This is the protocol ``BENCHMARK.json`` names.  Order inside the
process (fixed, so runs compare):

**untraced** (``--trace 0``, the end-to-end metrics) — ``SETUP_REPEATS``
times: build inputs from the seed → open Session/Server → warm-up,
closing all but the last; then ``gc.collect()`` (GC otherwise left on,
as users run it) → timed phase with a fixed op count → close servers
and pools, reap their processes → read CPU and RSS → oracle audit.
Throughout, a yardstick paces the host; every time is reported at
nominal host speed (:mod:`perfbench.yardstick` says why and how).

**traced** (``--trace 1``, the per-layer metrics) — a *reference* pass
(fresh set-up, first half of the same op list, no wrappers installed),
then the *traced* pass (wrappers installed, fresh set-up, the same
ops).  Per-layer values come from the traced pass;
``trace.overhead_ratio`` is traced ÷ reference ``op_p50_ms``.

The oracle audit runs after the counters are read; its time is the
benchmark's own cost (``oracle_s``) and is in no metric.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import pickle
import resource
import statistics
import threading
import time

from perfbench.catalog import (
    BASE_OPS,
    END_TO_END,
    MIN_OPS,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_REPEATS,
)
from perfbench.tracer import OP, SpanTable, Tracer
from perfbench.workloads import OP_TIMEOUT, WORKLOAD_CLASSES, Sample
from perfbench.yardstick import HostSampler, Warp, Yardstick

__all__ = ["Harness", "measure", "op_count", "p95"]

_E2E_UNITS = {metric.name: metric.unit for metric in END_TO_END}
_LAYER_UNITS = {layer.name: layer.unit for layer in PER_LAYER}

#: Dominance shares that justify each workload's place in the set:
#: ``(span names, minimum share of op time, warm ops only)``.
DOMINANCE = {
    "division_warm": (("executor.Executor.execute",), 0.8, False),
    "adhoc_tiny": (
        (
            "parser.parse",
            "executor.Executor.plan",
            "cost.CostModel.estimate",
            "cost.CostModel.estimates",
            "cost.parallel_cost_split",
        ),
        0.4,
        False,
    ),
    "hot_semijoin_shm": (
        ("parallel.run_parallel", "partition.run_partitioned"),
        0.8,
        False,
    ),
    "triangle_wcoj": (("wcoj.run_multiway",), 0.6, True),
}
OVERHEAD_FLAG = 1.25


def op_count(workload: str, seconds: float) -> int:
    """Timed ops for ``--seconds``: linear in it, whole cycles, ≥ 200."""
    cycle = WORKLOAD_CLASSES[workload].cycle
    wanted = max(MIN_OPS, BASE_OPS[workload] * seconds / RUN_SECONDS)
    return int(math.ceil(wanted / cycle)) * cycle


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# The harness workloads call for every timed operation
# ----------------------------------------------------------------------


class Harness:
    """Times one operation, records a :class:`Sample`, keeps what the
    audit will need.

    A digest of the full result is kept for the first and every 16th
    occurrence of a repeating query and for 1 in 8 never-repeated ones;
    every other op keeps only its row count.
    """

    def __init__(
        self,
        yard: Yardstick | HostSampler,
        tracer: Tracer | None = None,
    ) -> None:
        self.tracer = tracer
        #: Told about every synchronous op; an in-thread yardstick reads
        #: between ops when enough work piled up, never inside one.
        self.yard = yard
        self.samples: list[Sample] = []
        self._lock = threading.Lock()
        self._occurrences: dict[str, int] = {}
        self._once = 0

    def _keep(self, key: str, once: bool) -> bool:
        with self._lock:
            seen = self._occurrences.get(key, 0)
            self._occurrences[key] = seen + 1
            if once and seen == 0:
                self._once += 1
                return self._once % 8 == 1
            return seen % 16 == 0

    def _record(self, sample: Sample, result, once: bool) -> None:
        if result is not None:
            sample.rows = len(result)
            if self._keep(sample.key, once):
                sample.digest = hash(frozenset(result))
        self.samples.append(sample)

    def single(self, op, key: str, once: bool, call, stats) -> None:
        """A synchronous in-process call (``Session.run``/``divide``)."""
        tracer = self.tracer
        result = error = None
        if tracer is not None:
            tracer.begin_op(op)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as failure:  # noqa: BLE001 - a failed op, counted
            error = repr(failure)
        latency = time.perf_counter() - start
        sample = Sample(key, start, latency, error=error, once=once)
        if tracer is not None:
            tracer.end_op()
            sample.stats = stats()
        self._record(sample, result, once)
        self.yard.after(latency)

    def read(self, op, handle, text: str, once: bool, window) -> None:
        """Submit a server read; wait now, or park it in ``window``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op)
        start = time.perf_counter()
        try:
            ticket = handle.submit(text)
        except Exception as failure:  # noqa: BLE001 - AdmissionError etc.
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            self.samples.append(
                Sample(text, start, latency, error=repr(failure), once=once)
            )
            return
        pending = (text, once, start, ticket, window is not None)
        if window is None:
            self.finish(pending)
        if tracer is not None:
            tracer.end_op()
        if window is not None:
            window.append(pending)

    def finish(self, pending) -> None:
        text, once, start, ticket, windowed = pending
        result = error = None
        try:
            result = ticket.result(OP_TIMEOUT)
        except Exception as failure:  # noqa: BLE001 - a failed op, counted
            error = repr(failure)
        # A windowed read is done when the server finished it, not when
        # this thread got round to looking.
        end = time.perf_counter()
        if windowed and ticket.finished_at is not None:
            end = ticket.finished_at
        sample = Sample(
            text,
            start,
            end - start,
            error=error,
            once=once,
            generation=ticket.pinned_generation,
            served=(
                ticket.queue_seconds, ticket.run_seconds, ticket.cached,
                ticket.actual_rows, ticket.max_in_flight,
            ),
        )
        self._record(sample, result, once)

    def write(self, op, handle, additions, removals) -> None:
        tracer = self.tracer
        error = None
        if tracer is not None:
            tracer.begin_op(op)
        start = time.perf_counter()
        try:
            handle.write(additions=additions, removals=removals)
        except Exception as failure:  # noqa: BLE001 - a failed op, counted
            error = repr(failure)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.samples.append(
            Sample("write", start, latency, error=error, write=True)
        )


# ----------------------------------------------------------------------
# Process counters
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def _reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool process this run started has ended.

    ``active_children()`` joins finished processes as a side effect, so
    their CPU lands in ``RUSAGE_CHILDREN`` before it is read.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
            raise RuntimeError("pool processes did not exit after close()")
        time.sleep(0.005)


def _close(workload) -> None:
    workload.close()
    _reap_children()


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------


def audit(workload, samples: list[Sample]) -> tuple[int, list[str]]:
    """Failed ops among ``samples`` and the first few reasons."""
    failed = 0
    reasons: list[str] = []

    def fail(sample: Sample, why: str) -> None:
        nonlocal failed
        failed += 1
        if len(reasons) < 5:
            reasons.append(f"{sample.key}: {why}")

    for sample in samples:
        if sample.error is not None:
            fail(sample, sample.error)
            continue
        if sample.write or (sample.once and sample.digest is None):
            continue
        expected = workload.expected(sample)
        if sample.rows != len(expected):
            fail(sample, f"{sample.rows} rows, oracle has {len(expected)}")
        elif sample.digest not in (None, hash(frozenset(expected))):
            fail(sample, "rows differ from the oracle's")
    return failed, reasons


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------


def _pace(cls) -> Yardstick | HostSampler:
    """What reads the yardstick for ``cls`` (see perfbench.yardstick)."""
    return Yardstick() if cls.single_thread else HostSampler()


def _set_up(cls, seed: int, yard):
    """A fresh workload, set up; returns it and the set-up's window."""
    start = time.perf_counter()
    workload = cls(seed)
    workload.setup()
    end = time.perf_counter()
    yard.read()
    return workload, (start, end)


def _nominal(samples, warp: Warp) -> list[float]:
    """Each sample's latency in seconds at nominal host speed."""
    return [
        warp.duration(sample.start, sample.start + sample.latency)
        for sample in samples
    ]


def _run_untraced(cls, seed: int, count: int, imported, setups: int):
    yard = _pace(cls)
    try:
        yard.read()  # paces the import that has just finished
        windows = []
        workload = None
        cpu_before = yard_before = 0.0
        for _ in range(setups):
            if workload is not None:
                _close(workload)
            cpu_before = _cpu_seconds()
            yard_before = yard.cpu_seconds()
            workload, window = _set_up(cls, seed, yard)
            windows.append(window)
        gc.collect()
        harness = Harness(yard)
        try:
            phase = workload.run(count, harness)
        finally:
            _close(workload)
        # Take the readings' own CPU out of the process's.
        cpu_s = _cpu_seconds() - cpu_before - (
            yard.cpu_seconds() - yard_before
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        warp = yard.close()

    samples = harness.samples
    latencies = _nominal(samples, warp)
    raw = sum(sample.latency for sample in samples)
    setup_seconds = [warp.duration(*window) for window in windows]
    import_s = warp.duration(*imported)
    # One closed-loop client is inside an op whenever it is not doing
    # the harness's own bookkeeping, so its busy time is the op time.
    busy = sum(latencies) if cls.clients == 1 else warp.duration(*phase)
    milliseconds = [latency * 1e3 for latency in latencies]
    metrics = {
        "setup_s": import_s + statistics.median(setup_seconds),
        "op_p50_ms": statistics.median(milliseconds),
        "op_p95_ms": p95(milliseconds),
        "throughput_ops_s": len(samples) / busy,
        # CPU seconds at nominal speed, by the timed phase's overall pace.
        "cpu_s": cpu_s * sum(latencies) / raw,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "setups_s": setup_seconds,
        "import_s": import_s,
        "timed_wall_s": phase[1] - phase[0],
        "host_pace": raw / sum(latencies),
    }
    return workload, samples, metrics, info


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _probe_snapshot(workload, yard) -> dict:
    """Direct calls into the storage layer, after the timed phase."""
    from repro.storage import attach_snapshot, open_backend

    with open_backend(workload.db, workload.backend) as backend:
        descriptor = backend.export_snapshot()
        attach = []
        for _ in range(5):
            start = time.perf_counter()
            attach_snapshot(descriptor)
            attach.append((start, time.perf_counter()))
        yard.read()
        return {
            "attach_windows": attach,
            "pickle_bytes": len(pickle.dumps(descriptor)),
            "storage_bytes": backend.storage_bytes(),
        }


def _tenant_sum(metrics, field: str) -> float:
    if metrics is None:
        return 0.0
    return sum(
        getattr(tenant, field)
        for name, tenant in metrics.tenants.items()
        if name != "warmup"
    )


def _per_layer(
    workload, samples, setup: SpanTable, timed: SpanTable,
    whole: SpanTable, probe: dict, overhead: float, warp: Warp,
) -> dict:
    ops = len(samples)
    latencies = _nominal(samples, warp)
    reads = [s for s in samples if not s.write]
    writes = [s for s in samples if s.write]
    write_ms = [
        latency * 1e3
        for sample, latency in zip(samples, latencies) if sample.write
    ]
    # Seconds that other processes report (worker busy time, ticket
    # queue/run time) are real seconds; the op they belong to says how
    # real and nominal time related while it ran.
    pace = {
        id(sample): latency / sample.latency if sample.latency else 1.0
        for sample, latency in zip(samples, latencies)
    }
    served = [
        (queue * pace[id(s)], run * pace[id(s)], *rest)
        for s in reads if s.served is not None
        for queue, run, *rest in (s.served,)
    ]
    queue_ms = [queue * 1e3 for queue, *_ in served]

    def per_op(seconds: float) -> float:
        return seconds * 1e3 / ops

    def ratio(part: float, whole_: float) -> float:
        return part / whole_ if whole_ else 0.0

    def ms_per_krow(names) -> float:
        rows = whole.work(names)
        return whole.total(names) * 1e3 / (rows / 1000) if rows else 0.0

    # Executor / partition / wcoj records the engine already returns.
    stats = [s.stats for s in samples if s.stats is not None]
    runs = [run for st in stats for run in st.partition_runs.values()]
    wcoj = [run for st in stats for run in st.wcoj_runs.values()]
    #: Per parallel run, each worker's busy seconds at nominal speed.
    parallel = [
        (run, [piece.seconds * pace[id(s)] for piece in run.worker_slices()])
        for s in samples if s.stats is not None
        for run in s.stats.partition_runs.values()
        if hasattr(run, "timings")
    ]
    if served:
        total_rows = sum(actual for *_, actual, _ in served)
        max_in_flight = max(in_flight for *_, in_flight in served)
    else:
        total_rows = sum(st.total_rows() for st in stats)
        max_in_flight = max((st.max_in_flight() for st in stats), default=0)
    slowest = balance = 0.0
    for _, busy in parallel:
        if busy:
            slowest += max(busy)
            balance += ratio(statistics.fmean(busy), max(busy))

    plans = timed.named("executor.Executor.plan")
    planned = {s["parent"] for s in timed.named("planner.Planner.plan")}
    cache = workload.cache_delta
    builds, reuses = workload.index_builds, workload.index_reuses
    exports = whole.named(
        ("backend.Backend.export_snapshot",
         "backend.ColumnarBackend.export_snapshot")
    )
    join_s = timed.total("wcoj.generic_join")
    probes = sum(run.probes for run in wcoj)
    metrics, budget = workload.metrics, workload.budget
    encode = ("columnar.encode_rows", "columnar.encode_values")
    decode = ("columnar.decode_rows", "columnar.decode_values")

    values = {
        "parser.parse_ms_per_op": per_op(timed.total("parser.parse")),
        "session.run_self_ms_per_op": per_op(timed.self_time(
            ("session.Session.run", "session.Session.divide"))),
        "executor.plan_ms_per_op": per_op(
            timed.total("executor.Executor.plan")),
        "executor.plan_memo_hit_ratio": ratio(
            sum(1 for s in plans if s["id"] not in planned), len(plans)),
        "planner.plan_self_ms_per_op": per_op(
            timed.self_time("planner.Planner.plan")),
        "cost.estimate_ms_per_op": per_op(timed.total(
            ("cost.CostModel.estimate", "cost.CostModel.estimates",
             "cost.parallel_cost_split"))),
        "cost.edge_cover_calls_per_op": ratio(
            timed.count("cost.fractional_edge_cover"), ops),
        "stats.relation_ms_per_op": per_op(
            timed.total("stats.StatsCatalog.relation")),
        "stats.profiles_per_op": ratio(
            timed.count("stats.relation_stats"), ops),
        "executor.execute_ms_per_op": per_op(
            timed.total("executor.Executor.execute")),
        "executor.execute_self_ms_per_op": per_op(
            timed.self_time("executor.Executor.execute")),
        "executor.rows_per_op": ratio(total_rows, ops),
        "executor.max_in_flight_rows": max_in_flight,
        "executor.index_build_ms_per_op": per_op(
            timed.self_time("executor.IndexCache.index_for")),
        "executor.index_reuse_ratio": ratio(reuses, builds + reuses),
        "result_cache.hit_ratio": ratio(cache[0], cache[0] + cache[1]),
        "result_cache.evictions": cache[2],
        "result_cache.get_put_ms_per_op": per_op(timed.total(
            ("executor.ResultCache.get", "executor.ResultCache.put"))),
        "partition.run_ms_per_op": per_op(
            timed.total("partition.run_partitioned")),
        "partition.pack_ms_per_op": per_op(timed.total(
            ("partition.pack_groups", "partition.packed_or_fallback"))),
        "partition.batches_per_op": ratio(
            sum(run.actual() for run in runs), ops),
        "partition.peak_in_flight_rows": max(
            (run.peak_in_flight() for run in runs), default=0),
        "partition.within_budget_ratio": ratio(
            sum(1 for run in runs if run.within_budget()), len(runs))
        if runs else 1.0,
        "parallel.run_ms_per_op": per_op(
            timed.total("parallel.run_parallel")),
        "parallel.worker_busy_ms_per_op": per_op(sum(
            seconds for _, busy in parallel for seconds in busy)),
        "parallel.dispatch_overhead_ms_per_op": per_op(
            timed.total("parallel.run_parallel") - slowest)
        if parallel else 0.0,
        "parallel.worker_balance": ratio(balance, len(parallel)),
        "parallel.pool_fallbacks": sum(
            1 for run, _ in parallel if run.pool_fallback),
        "parallel.worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ship.encode_seal_ms_per_op": per_op(timed.total(
            ("ship.ShipmentWriter.rows", "ship.ShipmentWriter.values",
             "ship.ShipmentWriter.seal"))),
        "columnar.encode_ms_per_krow": ms_per_krow(encode),
        "columnar.decode_ms_per_krow": ms_per_krow(decode),
        "backend.open_ms": setup.total("backend.open_backend") * 1e3,
        "backend.rows_ms_per_op": per_op(timed.total(
            ("backend.MemoryBackend.rows", "backend.ColumnarBackend.rows"))),
        "backend.refresh_ms_per_write": ratio(
            timed.total("backend.ColumnarBackend.refresh") * 1e3,
            len(writes)),
        "backend.storage_bytes": probe["storage_bytes"],
        "snapshot.export_ms": ratio(
            sum(s["end"] - s["start"] for s in exports) * 1e3, len(exports)),
        "snapshot.attach_ms": _median(
            warp.duration(*window) * 1e3
            for window in probe["attach_windows"]),
        "snapshot.descriptor_pickle_bytes": probe["pickle_bytes"],
        "wcoj.run_ms_per_op": per_op(timed.total("wcoj.run_multiway")),
        "wcoj.join_ms_per_op": per_op(join_s),
        "wcoj.trie_build_ms_per_op": per_op(timed.total(
            ("wcoj.build_trie", "executor.IndexCache.trie_for"))),
        "wcoj.probes_per_op": ratio(probes, ops),
        "wcoj.candidates_per_op": ratio(
            sum(run.candidates for run in wcoj), ops),
        "wcoj.output_rows_per_op": ratio(
            sum(run.output_rows for run in wcoj), ops),
        "wcoj.ns_per_probe": ratio(join_s * 1e9, probes),
        "wcoj.agm_utilization": ratio(
            sum(run.output_rows for run in wcoj),
            sum(run.agm for run in wcoj)),
        "serve.pool_spawn_s": warp.duration(*workload.spawn_window),
        "serve.submit_ms_p50": _median(
            (s["end"] - s["start"]) * 1e3
            for s in timed.named("serve.ClientHandle.submit")),
        "serve.price_ms_per_op": per_op(
            timed.total("admission.price_plan")),
        "serve.queue_ms_p50": _median(queue_ms),
        "serve.queue_ms_p95": p95(queue_ms) if queue_ms else 0.0,
        "serve.run_ms_p50": _median(run * 1e3 for _, run, *_ in served),
        "serve.cached_ratio": ratio(
            sum(1 for _, _, cached, *_ in served if cached), len(served)),
        "serve.queued_ratio": ratio(
            _tenant_sum(metrics, "queued"),
            _tenant_sum(metrics, "submitted")),
        "serve.retried": _tenant_sum(metrics, "retried"),
        "serve.rejected": _tenant_sum(metrics, "rejected"),
        "serve.failed": _tenant_sum(metrics, "failed"),
        "serve.write_ms_p50": _median(write_ms),
        "serve.write_ms_p95": p95(write_ms) if write_ms else 0.0,
        "admission.submit_release_ms_per_op": per_op(timed.total(
            ("admission.AdmissionController.submit",
             "admission.AdmissionController.release"))),
        "admission.utilization": ratio(
            _tenant_sum(metrics, "actual_rows"),
            _tenant_sum(metrics, "bound_rows")),
        "admission.in_flight_peak_ratio": ratio(
            metrics.in_flight_peak, budget) if metrics and budget else 0.0,
        "workloads.build_db_s": warp.duration(*workload.build_window),
        "trace.overhead_ratio": overhead,
    }
    return {name: float(value) for name, value in values.items()}


def _trace_checks(timed: SpanTable) -> dict[str, bool]:
    """Structural integrity of the trace; every entry must hold."""
    checks = timed.integrity()
    under_root: dict[int, float] = {}
    for span in timed.spans:
        if span["parent"] >= 0:
            under_root[span["parent"]] = under_root.get(
                span["parent"], 0.0
            ) + (span["end"] - span["start"])
    checks["op_children_within_op"] = all(
        under_root.get(root["id"], 0.0)
        <= (root["end"] - root["start"]) + 1e-6
        for root in timed.named(OP)
    )
    return checks


def _dominance(name: str, samples, latencies, timed: SpanTable):
    """The share of op time that justifies the workload's place."""
    rule = DOMINANCE.get(name)
    if rule is None:
        return None
    names, floor, warm_only = rule
    chosen = {
        index: latency
        for index, (sample, latency) in enumerate(zip(samples, latencies))
        if not (warm_only and sample.key.endswith("fresh Session"))
    }
    covered = SpanTable(
        [span for span in timed.spans if span["op"] in chosen]
    ).total(names)
    share = covered / sum(chosen.values())
    return {
        "spans": list(names),
        "share": share,
        "floor": floor,
        "ok": share >= floor,
    }


def _run_traced(cls, seed: int, count: int):
    half = max(cls.cycle, (count // 2) // cls.cycle * cls.cycle)
    yard = _pace(cls)
    tracer = Tracer()
    try:
        # Reference pass: the same ops, no wrapper installed anywhere.
        reference, _ = _set_up(cls, seed, yard)
        gc.collect()
        plain = Harness(yard)
        try:
            reference.run(half, plain)
        finally:
            _close(reference)

        tracer.install()
        workload, (setup_start, _) = _set_up(cls, seed, yard)
        gc.collect()
        timed_start = time.perf_counter()
        harness = Harness(yard, tracer)
        try:
            workload.run(half, harness)
            timed_end = time.perf_counter()
            probe = _probe_snapshot(workload, yard)
        finally:
            _close(workload)
    finally:
        tracer.uninstall()
        warp = yard.close()

    # Everything below is read off the nominal-speed clock.
    samples = harness.samples
    latencies = _nominal(samples, warp)
    spans = tracer.spans()
    for span in spans:
        span["start"], span["end"] = warp(span["start"]), warp(span["end"])
    whole = SpanTable(spans)
    setup = whole.window(warp(setup_start), warp(timed_start))
    timed = whole.window(warp(timed_start), warp(timed_end))
    overhead = statistics.median(latencies) / statistics.median(
        _nominal(plain.samples, warp)
    )
    layers = _per_layer(
        workload, samples, setup, timed, whole, probe, overhead, warp
    )
    info = {
        "checks": _trace_checks(timed),
        "dominance": _dominance(cls.name, samples, latencies, timed),
        "overhead_flagged": overhead > OVERHEAD_FLAG,
        "wrapped": tracer.installed,
        "spans_produced": sorted({span["name"] for span in spans}),
        "traced_ops": len(samples),
    }
    return (
        workload, samples, layers, info, spans, (reference, plain.samples)
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    imported: tuple[float, float] = (0.0, 0.0),
    ops: int | None = None,
    setups: int = SETUP_REPEATS,
) -> tuple[dict, dict]:
    """Run workload ``name`` once; returns ``(result line, detail)``.

    ``imported`` is the ``perf_counter`` window in which the caller
    imported the engine.  The result line is the contract's JSON
    object.  ``detail`` adds
    what ``run`` and the smoke test read: op counts, input sizes,
    audit reasons, trace checks and — for a traced run — the spans.
    """
    cls = WORKLOAD_CLASSES[name]
    count = ops if ops is not None else op_count(name, seconds)
    count = max(cls.cycle, count // cls.cycle * cls.cycle)
    spans: list[dict] = []
    passes = []
    if trace:
        workload, samples, values, info, spans, reference = _run_traced(
            cls, seed, count
        )
        units = _LAYER_UNITS
        reference[0].share_oracle(workload)
        passes.append(reference)
        structural = all(info["checks"].values())
    else:
        workload, samples, values, info = _run_untraced(
            cls, seed, count, imported, setups
        )
        units = _E2E_UNITS
        structural = True
    passes.append((workload, samples))
    oracle_start = time.perf_counter()
    attempted = failed = 0
    reasons: list[str] = []
    for audited, its_samples in passes:
        its_failed, its_reasons = audit(audited, its_samples)
        attempted += len(its_samples)
        failed += its_failed
        reasons += its_reasons
    info["oracle_s"] = time.perf_counter() - oracle_start
    line = {
        "correct": failed == 0 and structural,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "ops": count,
        "input_rows": workload.input_rows,
        "failed_reasons": reasons[:5],
        "info": info,
        "line": line,
        "spans": spans,
    }
    return line, detail
