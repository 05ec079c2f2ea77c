"""Storage backends: where the engine's relation bytes live.

See :mod:`repro.storage.backend` for the protocol, the two
implementations and the design rationale, :mod:`repro.storage.image`
for where encoded bytes live and who frees them (over the segment
primitives in :mod:`repro.storage.shm`), and :mod:`repro.storage.ship`
for the descriptor-based batch transport the parallel path uses over
the attached backend.  ``docs/storage.md`` is the narrative tour.
"""

from repro.storage.backend import (
    BACKEND_KINDS,
    Backend,
    ColumnarBackend,
    MemoryBackend,
    open_backend,
)
from repro.storage.ship import BlockRef, Shipment, ShipmentWriter
from repro.storage.snapshot import attach_snapshot

__all__ = [
    "BACKEND_KINDS",
    "Backend",
    "BlockRef",
    "ColumnarBackend",
    "MemoryBackend",
    "Shipment",
    "ShipmentWriter",
    "attach_snapshot",
    "open_backend",
]
