"""The serving layer: concurrent multi-tenant access to one engine.

:mod:`repro.serve.server` is the core (snapshot-pinned reads,
serialized writes, process-pool execution), :mod:`repro.serve.
workers` that pool, :mod:`repro.serve.admission` the cost-model-priced
concurrency gate, and :mod:`repro.serve.metrics` the per-tenant
counters.  ``docs/serving.md`` is the narrative tour.
"""

from repro.serve.admission import (
    AdmissionController,
    FairQueue,
    Price,
    price_plan,
)
from repro.serve.metrics import MetricsRegistry, ServerMetrics, TenantMetrics
from repro.serve.server import ClientHandle, Server, Ticket

__all__ = [
    "AdmissionController",
    "ClientHandle",
    "FairQueue",
    "MetricsRegistry",
    "Price",
    "Server",
    "ServerMetrics",
    "TenantMetrics",
    "Ticket",
    "price_plan",
]
