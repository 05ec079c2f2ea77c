"""Spans around the repo's public callables, recorded from the outside.

The traced pass replaces each callable in :data:`TARGETS` with a timing
wrapper — class attributes on the class, module-level functions in
their defining module *and* in every loaded ``repro.*`` module that
holds the same object (``from x import f`` copies the reference) — and
keeps the spans in memory until the pass ends.  Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent, op, n]``: ``parent`` indexes the
enclosing span of the same thread (``-1`` for none), ``op`` is the id
of the benchmark operation the thread was serving, ``n`` an optional
work count (rows encoded, rows decoded).  Re-entering a callable that
is already open on the thread opens no new span, so recursive
functions (``CostModel.estimate``) cost one span per outermost call.

Self time of a span is its duration minus the durations of its direct
children; children of one parent run sequentially on one thread, so
they never overlap.  Pool workers are separate processes: spawn
workers never see the wrappers, forked ones inherit them switched off.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["OP", "TARGETS", "SpanTable", "Target", "Tracer"]

#: Name of the root span the harness opens around each operation.
OP = "op"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: where it lives and what to count."""

    span: str  #: span name, ``<layer>.<callable>``
    module: str  #: defining module
    qualname: str  #: ``function`` or ``Class.method``
    #: The workload whose traced pass must produce this span (the smoke
    #: test fails otherwise, so a rename is loud).  None: wrapped because
    #: a metric names it as a source, but no workload reaches it today.
    on: str | None
    #: True when the span needs a worker pool (``available_cpus() >= 2``).
    pool: bool = False
    #: ``(args, result) -> int`` work count stored in the span, or None.
    count: object = None


def _rows_in(args, result) -> int:
    return len(args[0])


def _rows_out(args, result) -> int:
    return len(result)


_DIV, _HOT, _TRI, _ADHOC, _READ, _RW = (
    "division_warm", "hot_semijoin_shm", "triangle_wcoj", "adhoc_tiny",
    "serve_read_memory", "serve_rw_shm",
)
_ENGINE = "repro.engine."
_STORAGE = "repro.storage."

TARGETS: tuple[Target, ...] = (
    Target("parser.parse", "repro.algebra.parser", "parse", _ADHOC),
    Target("session.Session.run", "repro.session", "Session.run", _ADHOC),
    Target("session.Session.divide", "repro.session", "Session.divide", _DIV),
    Target("executor.Executor.plan", _ENGINE + "executor", "Executor.plan", _ADHOC),
    Target("executor.Executor.execute", _ENGINE + "executor", "Executor.execute", _DIV),
    Target("executor.IndexCache.index_for", _ENGINE + "executor", "IndexCache.index_for", _DIV),
    Target("executor.IndexCache.trie_for", _ENGINE + "executor", "IndexCache.trie_for", _TRI),
    Target("executor.ResultCache.get", _ENGINE + "executor", "ResultCache.get", _ADHOC),
    Target("executor.ResultCache.put", _ENGINE + "executor", "ResultCache.put", _ADHOC),
    Target("planner.Planner.plan", _ENGINE + "planner", "Planner.plan", _ADHOC),
    Target("cost.CostModel.estimate", _ENGINE + "cost", "CostModel.estimate", _ADHOC),
    Target("cost.CostModel.estimates", _ENGINE + "cost", "CostModel.estimates", _ADHOC),
    Target("cost.parallel_cost_split", _ENGINE + "cost", "parallel_cost_split", _HOT, pool=True),
    Target("cost.fractional_edge_cover", _ENGINE + "cost", "fractional_edge_cover", _TRI),
    Target("stats.StatsCatalog.relation", _ENGINE + "stats", "StatsCatalog.relation", _TRI),
    Target("stats.relation_stats", _ENGINE + "stats", "relation_stats", _TRI),
    Target("partition.run_partitioned", _ENGINE + "partition", "run_partitioned", _HOT),
    Target("partition.pack_groups", _ENGINE + "partition", "pack_groups", _HOT),
    Target("partition.packed_or_fallback", _ENGINE + "partition", "packed_or_fallback", None),
    Target("parallel.run_parallel", _ENGINE + "parallel", "run_parallel", _HOT, pool=True),
    Target("wcoj.run_multiway", _ENGINE + "wcoj", "run_multiway", _TRI),
    Target("wcoj.generic_join", _ENGINE + "wcoj", "generic_join", _TRI),
    Target("wcoj.build_trie", _ENGINE + "wcoj", "build_trie", _TRI),
    Target("ship.ShipmentWriter.rows", _STORAGE + "ship", "ShipmentWriter.rows", _HOT, pool=True),
    Target("ship.ShipmentWriter.values", _STORAGE + "ship", "ShipmentWriter.values", None),
    Target("ship.ShipmentWriter.seal", _STORAGE + "ship", "ShipmentWriter.seal", _HOT, pool=True),
    Target("columnar.encode_rows", _STORAGE + "columnar", "encode_rows", _HOT, count=_rows_in),
    Target("columnar.encode_values", _STORAGE + "columnar", "encode_values", None, count=_rows_in),
    Target("columnar.decode_rows", _STORAGE + "columnar", "decode_rows", _HOT, count=_rows_out),
    Target("columnar.decode_values", _STORAGE + "columnar", "decode_values", None, count=_rows_out),
    Target("backend.open_backend", _STORAGE + "backend", "open_backend", _HOT),
    Target("backend.MemoryBackend.rows", _STORAGE + "backend", "MemoryBackend.rows", _DIV),
    Target("backend.ColumnarBackend.rows", _STORAGE + "backend", "ColumnarBackend.rows", _HOT),
    Target("backend.ColumnarBackend.refresh", _STORAGE + "backend", "ColumnarBackend.refresh", _RW),
    Target("backend.Backend.export_snapshot", _STORAGE + "backend", "Backend.export_snapshot", _READ),
    Target("backend.ColumnarBackend.export_snapshot", _STORAGE + "backend", "ColumnarBackend.export_snapshot", _RW),
    Target("snapshot.attach_snapshot", _STORAGE + "snapshot", "attach_snapshot", _READ),
    Target("serve.ClientHandle.submit", "repro.serve.server", "ClientHandle.submit", _READ),
    Target("serve.ClientHandle.write", "repro.serve.server", "ClientHandle.write", _RW),
    Target("admission.price_plan", "repro.serve.admission", "price_plan", _RW),
    Target("admission.AdmissionController.submit", "repro.serve.admission", "AdmissionController.submit", _RW),
    Target("admission.AdmissionController.release", "repro.serve.admission", "AdmissionController.release", _RW),
)

#: Modules that copy a wrapped function into their own namespace with
#: ``from x import f``.  Loaded before :meth:`Tracer.install` walks
#: ``sys.modules``, so the copy is found and replaced too.
_HOLDERS = (
    "repro.session",
    "repro.storage",
    "repro.storage.shm",
    "repro.storage.mmapio",
    "repro.engine",
    "repro.serve.server",
)


class _ThreadState:
    __slots__ = ("spans", "open", "top", "op", "thread")

    def __init__(self, thread: str) -> None:
        self.spans: list[list] = []
        self.open: set[str] = set()
        self.top = -1
        self.op = None
        self.thread = thread


class Tracer:
    """Installs the wrappers, owns the spans, restores the originals."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: ``(owner, attribute, original)`` for :meth:`uninstall`.
        self._patched: list[tuple[object, str, object]] = []
        #: span name → places the wrapper was put (``module:attr``).
        self.installed: dict[str, list[str]] = {}
        self._fork_hook = False

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if one no longer resolves.

        A renamed or removed callable is an error here, not a silently
        missing metric.
        """
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name in _HOLDERS:
            importlib.import_module(name)
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._put(target, owner, attr, original)
                continue
            original = getattr(module, attr)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for held, value in list(vars(loaded).items()):
                    if value is original:
                        self._put(target, loaded, held, original)
        if not self._fork_hook:
            # Forked pool workers inherit the wrappers; their spans
            # could never be read back, so they run the originals.
            os.register_at_fork(after_in_child=self._disable)
            self._fork_hook = True
        self.enabled = True

    def _put(self, target: Target, owner, attr: str, original) -> None:
        setattr(owner, attr, self._wrap(target, original))
        self._patched.append((owner, attr, original))
        where = getattr(owner, "__module__", None)
        label = (
            f"{owner.__name__}:{attr}"
            if where is None
            else f"{where}:{owner.__name__}.{attr}"
        )
        self.installed.setdefault(target.span, []).append(label)

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.span
        count = target.count
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            if name in state.open:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, state.top, state.op, 0]
            outer = state.top
            state.top = len(state.spans)
            state.spans.append(span)
            state.open.add(name)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, result)
                return result
            finally:
                span[2] = clock()
                state.top = outer
                state.open.discard(name)

        return wrapper

    def begin_op(self, op) -> None:
        """Open the root span of operation ``op`` on this thread."""
        state = self._state()
        state.op = op
        state.top = len(state.spans)
        state.spans.append([OP, time.perf_counter(), 0.0, -1, op, 0])

    def end_op(self) -> None:
        state = self._state()
        state.spans[state.top][2] = time.perf_counter()
        state.top = -1
        state.op = None

    def spans(self) -> list[dict]:
        """Every finished span of every thread, ids made global."""
        merged: list[dict] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            base = len(merged)
            for name, start, end, parent, op, n in state.spans:
                if end == 0.0:
                    continue  # still open when the pass ended
                merged.append(
                    {
                        "id": len(merged),
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": base + parent if parent >= 0 else -1,
                        "op": op,
                        "thread": state.thread,
                        "n": n,
                    }
                )
        return merged


class SpanTable:
    """Read-only arithmetic over a span list (see module docstring)."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self._by_id = {span["id"]: span for span in spans}
        self._by_name: dict[str, list[dict]] = {}
        self._child_time: dict[int, float] = {}
        for span in spans:
            self._by_name.setdefault(span["name"], []).append(span)
            parent = span["parent"]
            if parent >= 0:
                self._child_time[parent] = self._child_time.get(
                    parent, 0.0
                ) + (span["end"] - span["start"])

    def window(self, start: float, end: float) -> "SpanTable":
        """The spans that started inside ``[start, end]``."""
        return SpanTable(
            [s for s in self.spans if start <= s["start"] <= end]
        )

    def named(self, names) -> list[dict]:
        if isinstance(names, str):
            return self._by_name.get(names, [])
        return [s for name in names for s in self._by_name.get(name, [])]

    def count(self, names) -> int:
        return len(self.named(names))

    def work(self, names) -> int:
        return sum(s["n"] for s in self.named(names))

    def self_seconds(self, span: dict) -> float:
        return (span["end"] - span["start"]) - self._child_time.get(
            span["id"], 0.0
        )

    def self_time(self, names) -> float:
        return sum(self.self_seconds(s) for s in self.named(names))

    def _inside(self, span: dict, names) -> bool:
        parent = self._by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = self._by_id.get(parent["parent"])
        return False

    def total(self, names) -> float:
        """Time covered by ``names``: nested group members count once."""
        names = (names,) if isinstance(names, str) else tuple(names)
        return sum(
            s["end"] - s["start"]
            for s in self.named(names)
            if not self._inside(s, names)
        )

    def integrity(self) -> dict[str, bool]:
        """The structural checks every trace must pass."""
        slack = 1e-6
        nested = True
        for span in self.spans:
            parent = self._by_id.get(span["parent"])
            if parent is not None and (
                span["start"] < parent["start"] - slack
                or span["end"] > parent["end"] + slack
            ):
                nested = False
                break
        return {
            "self_times_nonnegative": all(
                self.self_seconds(s) >= -slack for s in self.spans
            ),
            "children_nested_in_parents": nested,
        }
