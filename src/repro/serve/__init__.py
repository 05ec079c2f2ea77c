"""The serving layer: concurrent multi-tenant access to one engine.

:mod:`repro.serve.server` is the core (snapshot-pinned reads,
serialized writes, process-pool execution), :mod:`repro.serve.
workers` that pool, :mod:`repro.serve.admission` the cost-model-priced
concurrency gate, :mod:`repro.serve.metrics` the per-tenant counters,
and :mod:`repro.serve.lab` the
declarative workload harness behind ``repro serve`` and
``BENCH_serving.json``.  ``docs/serving.md`` is the narrative tour.
"""

from repro.serve.admission import (
    AdmissionController,
    FairQueue,
    Price,
    price_plan,
)
from repro.serve.lab import (
    LabResult,
    ScenarioSpec,
    StreamSpec,
    load_spec,
    run_scenario,
)
from repro.serve.metrics import MetricsRegistry, ServerMetrics, TenantMetrics
from repro.serve.server import ClientHandle, Server, Ticket

__all__ = [
    "AdmissionController",
    "ClientHandle",
    "FairQueue",
    "LabResult",
    "MetricsRegistry",
    "Price",
    "ScenarioSpec",
    "Server",
    "ServerMetrics",
    "StreamSpec",
    "TenantMetrics",
    "Ticket",
    "load_spec",
    "price_plan",
    "run_scenario",
]
