"""Bit-signatures for set-join pruning (Helmer & Moerkotte [13]).

A *signature* of a set is a fixed-width bit vector with one or more bits
set per element (a Bloom-filter style superset summary).  For sets
``X ⊇ Y`` it holds that ``sig(Y) & ~sig(X) == 0``; the converse can fail
(false positives), so signature algorithms prune with signatures and
verify with the real sets.
"""

from __future__ import annotations

from typing import Iterable

from repro.data.universe import Value

#: Default signature width in bits.
DEFAULT_BITS = 64

#: A large odd multiplier for cheap deterministic hashing.
_MIX = 0x9E3779B97F4A7C15


def element_bit(value: Value, bits: int = DEFAULT_BITS, seed: int = 0) -> int:
    """The bit index assigned to one element (deterministic)."""
    h = hash((seed, value)) * _MIX
    return (h ^ (h >> 29)) % bits


def make_signature(
    values: Iterable[Value], bits: int = DEFAULT_BITS, seed: int = 0
) -> int:
    """The OR of the element bits of ``values``."""
    signature = 0
    for value in values:
        signature |= 1 << element_bit(value, bits, seed)
    return signature


def maybe_superset(big_sig: int, small_sig: int) -> bool:
    """Necessary condition for ``big ⊇ small`` on signatures."""
    return small_sig & ~big_sig == 0


def maybe_equal(sig_a: int, sig_b: int) -> bool:
    """Necessary condition for set equality on signatures."""
    return sig_a == sig_b
