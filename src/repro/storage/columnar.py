"""Columnar row-block encoding behind every storage image.

One *block* is a list of rows (or a list of scalar values) laid out
column-by-column in a flat byte buffer.  Each column is encoded in one
of two ways, chosen per column, not per block:

* ``"q"`` — a packed ``int64`` array, used whenever every value in the
  column is an ``int`` that fits 64 bits.  Decoding is a zero-copy
  ``memoryview.cast("q")`` over the buffer; rows materialize as tuples
  only when iterated.
* ``"p"`` — the pickled column list, the exact-round-trip fallback for
  everything else (``Fraction``, ``str``, oversized ints, mixed
  columns).

The block *metadata* — row count, arity, per-column ``(tag, offset,
nbytes)`` triples — is tiny and travels out-of-band (pickled through
normal IPC, or in the backend's in-process layout table); only the bulk
column bytes live in the shared buffer.  That split is what makes batch
descriptors cheap: a worker receives offsets, attaches the segment, and
decodes in place.

Values are :data:`repro.data.universe.Value` (``int | Fraction | str``
in practice); the encoding is exact for anything picklable, the int64
fast path is just the common case the set-join workloads hit.
"""

from __future__ import annotations

import pickle
from array import array
from operator import itemgetter

from repro.data.database import Row

#: Column tags: packed int64 array / pickled column list.
INT64_TAG = "q"
PICKLE_TAG = "p"

#: ``(tag, offset, nbytes)`` per column; offsets relative to the block
#: base so a block relocates by changing one base, not every column.
ColumnMeta = tuple[str, int, int]

#: ``(n_rows, arity, columns)`` — everything needed to decode a block
#: given its buffer and base offset.
BlockMeta = tuple[int, int, tuple[ColumnMeta, ...]]


def _encode_column(column: list) -> tuple[str, bytes]:
    # ``array`` itself is the int64 type check: one C-level pass that
    # rejects mixed/str/Fraction columns (TypeError) and beyond-64-bit
    # ints (OverflowError).  ``bool`` slips through as 0/1, which is
    # exactly Python's own equality semantics (``True == 1``) and bool
    # is outside the Value domain anyway.
    try:
        return INT64_TAG, array(INT64_TAG, column).tobytes()
    except (TypeError, OverflowError):
        return PICKLE_TAG, pickle.dumps(
            column, protocol=pickle.HIGHEST_PROTOCOL
        )


def encode_rows(rows: list[Row]) -> tuple[BlockMeta, list[bytes]]:
    """Encode ``rows`` column-wise; returns ``(meta, byte parts)``.

    The parts concatenate to the block's buffer contents; the caller
    owns placement (a shared-memory segment, an inline ``bytes``) and
    records the base offset next to the returned meta.  Column
    extraction is a C-level ``map(itemgetter, ...)`` pass per column,
    keeping the per-row Python overhead at the pickle fast path it
    replaces.
    """
    n = len(rows)
    arity = len(rows[0]) if rows else 0
    parts: list[bytes] = []
    columns: list[ColumnMeta] = []
    offset = 0
    for c in range(arity):
        tag, data = _encode_column(list(map(itemgetter(c), rows)))
        columns.append((tag, offset, len(data)))
        parts.append(data)
        offset += len(data)
    return (n, arity, tuple(columns)), parts


def encode_values(values: list) -> tuple[BlockMeta, list[bytes]]:
    """Encode a flat scalar list as a one-column block.

    Whether a block holds rows or scalars is the *caller's* bookkeeping
    (the shipment block table and backend layouts carry a kind tag);
    the wire format is identical to a one-column row block.
    """
    return encode_rows([(v,) for v in values])


def _decode_columns(
    buf, base: int, columns: tuple[ColumnMeta, ...]
) -> list:
    decoded = []
    for tag, offset, nbytes in columns:
        view = buf[base + offset : base + offset + nbytes]
        if tag == INT64_TAG:
            decoded.append(view.cast(INT64_TAG))
        else:
            decoded.append(pickle.loads(view))
    return decoded


def decode_rows(buf, base: int, meta: BlockMeta) -> list[Row]:
    """Decode a row block from ``buf`` at ``base`` back to row tuples.

    ``buf`` must be a :class:`memoryview` (slicing stays zero-copy and
    ``pickle.loads`` accepts it directly).  Int64 columns are iterated
    straight out of the buffer; no intermediate byte copies are made.
    """
    n, arity, columns = meta
    if arity == 0:
        return [() for _ in range(n)]
    decoded = _decode_columns(buf, base, columns)
    return list(zip(*decoded))


def decode_values(buf, base: int, meta: BlockMeta) -> list:
    """Decode a value block (see :func:`encode_values`) to a flat list."""
    n, _, columns = meta
    if n == 0:
        return []
    (column,) = _decode_columns(buf, base, columns)
    return list(column)
