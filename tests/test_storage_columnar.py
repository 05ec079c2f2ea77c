"""The columnar block encoding behind every storage image.

The contract under test (:mod:`repro.storage.columnar`):

* each column picks its own tag: ``"q"`` (packed int64) exactly when
  every value is an ``int`` that fits 64 bits, ``"p"`` (the pickled
  column) for everything else — strings, ``Fraction``, oversized ints,
  mixed columns;
* either tag round-trips exactly, value types included, so a relation
  decoded from an image equals the one that was encoded;
* offsets are relative to the block base: a block decodes the same at
  any base, after other bytes;
* empty blocks, zero-arity rows and value blocks round-trip too.
"""

from fractions import Fraction

import pytest

from repro.storage.columnar import (
    INT64_TAG,
    PICKLE_TAG,
    decode_rows,
    decode_values,
    encode_rows,
    encode_values,
)

#: case → (one column's values, the tag it must be stored under)
COLUMNS = {
    "small-ints": ([0, 1, -1, 42], INT64_TAG),
    "int64-bounds": ([2**63 - 1, -(2**63)], INT64_TAG),
    "past-int64-max": ([2**63 - 1, 2**63], PICKLE_TAG),
    "past-int64-min": ([-(2**63) - 1, 0], PICKLE_TAG),
    "strings": (["ale", "", "stout"], PICKLE_TAG),
    "fractions": ([Fraction(1, 3), Fraction(2, 1)], PICKLE_TAG),
    "ints-and-strings": ([1, "1"], PICKLE_TAG),
    "ints-and-fractions": ([1, Fraction(1, 2)], PICKLE_TAG),
}


def joined(parts):
    return memoryview(b"".join(parts))


def typed(rows):
    """Rows with each value's type, so ``2 == Fraction(2)`` can't pass."""
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.mark.parametrize("case", sorted(COLUMNS))
def test_a_column_round_trips_exactly_under_its_tag(case):
    values, tag = COLUMNS[case]
    rows = [(v,) for v in values]
    meta, parts = encode_rows(rows)
    n, arity, columns = meta
    assert (n, arity) == (len(rows), 1)
    assert [c[0] for c in columns] == [tag]
    decoded = decode_rows(joined(parts), 0, meta)
    assert typed(decoded) == typed(rows)


def test_tags_are_chosen_per_column_not_per_block():
    rows = [(1, "a", 2**70), (2, "b", 3)]
    meta, parts = encode_rows(rows)
    assert [c[0] for c in meta[2]] == [INT64_TAG, PICKLE_TAG, PICKLE_TAG]
    assert decode_rows(joined(parts), 0, meta) == rows


@pytest.mark.parametrize("base", [0, 1, 8, 13])
def test_a_block_decodes_the_same_at_any_base(base):
    rows = [(i, str(i), Fraction(i, 7)) for i in range(5)]
    meta, parts = encode_rows(rows)
    buffer = joined([b"\xff" * base, *parts, b"\xee" * 3])
    assert decode_rows(buffer, base, meta) == rows


def test_an_empty_block_encodes_no_bytes():
    meta, parts = encode_rows([])
    assert meta == (0, 0, ())
    assert b"".join(parts) == b""
    assert decode_rows(joined(parts), 0, meta) == []


def test_zero_arity_rows_keep_their_count():
    meta, parts = encode_rows([(), ()])
    assert meta == (2, 0, ())
    assert decode_rows(joined(parts), 0, meta) == [(), ()]


@pytest.mark.parametrize(
    "values",
    [[], [3, -4, 5], ["x", Fraction(5, 2), 2**64]],
    ids=["empty", "ints", "mixed"],
)
def test_a_value_block_is_a_one_column_row_block(values):
    meta, parts = encode_values(values)
    assert (meta, parts) == encode_rows([(v,) for v in values])
    decoded = decode_values(joined(parts), 0, meta)
    assert [(type(v), v) for v in decoded] == [(type(v), v) for v in values]
