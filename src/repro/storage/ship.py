"""Batch shipments: descriptor-based transport for parallel workers.

Before this module, every parallel batch crossed the process boundary
as pickled row fragments — the honest :data:`~repro.engine.cost.
PARALLEL_IPC_ROW_COST` surcharge that kept the fig1 speedup at ~1×.
With an *attached* backend the scatter writes each distinct fragment
**once** into a single shared buffer per run and ships only
descriptors:

* during scatter, :meth:`ShipmentWriter.rows` /
  :meth:`ShipmentWriter.values` swap a fragment list for a tiny
  picklable :class:`BlockRef`; fragments are deduplicated by object
  identity, so a side replicated into every batch (a θ-semijoin's
  right side, a division's divisor) is encoded exactly once no matter
  how many tasks reference it;
* :meth:`ShipmentWriter.seal` encodes all referenced fragments
  (:mod:`repro.storage.columnar`) into one shared-memory
  :class:`~repro.storage.image.Image` (the ``"shm"`` transport) and
  returns the :class:`Shipment` descriptor: locator plus per-block
  ``(kind, base offset, block meta)`` table;
* :func:`run_shipped_task` is the worker body: attach the image,
  decode exactly the blocks this task references into plain row
  tuples (decodes are cached per task; int64 columns are read straight
  out of the mapping, with no intermediate byte copy), substitute them
  into the kernel arguments, run the *unchanged* serial kernel.

The parallel layer's fallbacks stay cheap: nothing is encoded before
:meth:`ShipmentWriter.seal`, and when the pool is skipped or breaks
mid-run the batches are rebuilt from the original fragments and run
inline (:func:`repro.engine.partition.run_batches`), no shipment
involved.  The creator closes the shipment after the gather; POSIX
keeps the unlinked segment readable for any worker still holding it
open.
"""

from __future__ import annotations

import os
import time

from repro.data.database import Row
from repro.storage.columnar import (
    decode_rows,
    decode_values,
    encode_rows,
    encode_values,
)
from repro.storage.image import Image, attached


class BlockRef:
    """A picklable placeholder for one shipped block (index into the
    shipment's block table).  A plain class rather than a tuple so the
    argument-resolution walk can never mistake a row for a reference.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __getstate__(self) -> int:
        return self.index

    def __setstate__(self, state: int) -> None:
        self.index = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockRef({self.index})"


def _substitute(args, lookup):
    """Rebuild ``args`` with every :class:`BlockRef` resolved.

    Recurses into plain lists/tuples only (kernel argument shapes are
    built from those); anything else — conditions, strings, numbers —
    passes through untouched.
    """
    if isinstance(args, BlockRef):
        return lookup(args.index)
    if type(args) is tuple:
        return tuple(_substitute(item, lookup) for item in args)
    if type(args) is list:
        return [_substitute(item, lookup) for item in args]
    return args


class Shipment:
    """One sealed, attachable shipment (the parent-side handle)."""

    def __init__(self, image: Image, blocks: tuple) -> None:
        self._image = image
        #: ``("shm", segment name)`` — what a worker hands to
        #: :func:`~repro.storage.image.attached`.
        self.locator = (image.placement, image.locator)
        #: Per-block ``(kind, base, meta)``; kind is "rows"/"values".
        self.blocks = blocks

    def close(self) -> None:
        """Release the backing storage (idempotent; creator calls)."""
        self._image.release()


class ShipmentWriter:
    """Collects fragments during scatter; seals them into a shipment."""

    #: Where the sealed image goes: only an attached backend ships, and
    #: it ships through shared memory.
    transport = "shm"

    def __init__(self) -> None:
        self._payloads: list[tuple[str, list]] = []
        self._by_id: dict[int, BlockRef] = {}

    def _add(self, kind: str, payload: list) -> BlockRef:
        ref = self._by_id.get(id(payload))
        if ref is None:
            ref = BlockRef(len(self._payloads))
            self._payloads.append((kind, payload))
            self._by_id[id(payload)] = ref
        return ref

    def rows(self, rows: list[Row]) -> BlockRef:
        """Register a row-fragment list; identical lists share a block."""
        return self._add("rows", rows)

    def values(self, values: list) -> BlockRef:
        """Register a flat scalar list (e.g. a division's divisor)."""
        return self._add("values", values)

    def seal(self) -> Shipment:
        """Encode every registered fragment into one shared buffer."""
        parts: list[bytes] = []
        blocks: list[tuple[str, int, tuple]] = []
        offset = 0
        for kind, payload in self._payloads:
            encode = encode_rows if kind == "rows" else encode_values
            meta, payload_parts = encode(payload)
            blocks.append((kind, offset, meta))
            parts.extend(payload_parts)
            offset += sum(len(p) for p in payload_parts)
        return Shipment(Image(self.transport, parts, offset), tuple(blocks))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def run_shipped_task(
    locator, blocks, kernel, args
) -> tuple[list[Row], float, int]:
    """Worker-side batch body for descriptor-based dispatch.

    The shipped-transport analogue of
    :func:`repro.engine.partition.run_task` with the same return
    contract ``(rows, in-worker seconds, pid)``; the clock includes
    attach + decode, so per-worker report timings stay honest about
    the transport's real cost.
    """
    start = time.perf_counter()
    with attached(*locator) as buffer:
        decoded: dict[int, list] = {}

        def lookup(index: int) -> list:
            block = decoded.get(index)
            if block is None:
                kind, base, meta = blocks[index]
                decode = decode_rows if kind == "rows" else decode_values
                block = decode(buffer, base, meta)
                decoded[index] = block
            return block

        rows = kernel(*_substitute(args, lookup))
    return rows, time.perf_counter() - start, os.getpid()
