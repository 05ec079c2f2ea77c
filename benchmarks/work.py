"""Deterministic work metrics for the set-join algorithm comparisons.

Wall-clock comparisons are noisy, so the claims modules' "who wins"
asserts count *work*: how many candidate pairs each strategy must
verify, how many postings it scans — quantities fully determined by
the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algebra.trace import trace
from repro.data.database import Database
from repro.data.schema import Schema
from repro.setjoins.division import classic_division_expr
from repro.setjoins.setrel import SetRelation
from repro.setjoins.signatures import DEFAULT_BITS, make_signature, maybe_superset


@dataclass(frozen=True)
class ContainmentWork:
    """Verification work per containment-join strategy on one input."""

    nested_loop_pairs: int
    signature_survivors: int
    partition_pairs: int
    inverted_postings: int


def containment_work(
    left: SetRelation,
    right: SetRelation,
    partitions: int = 8,
    bits: int = DEFAULT_BITS,
) -> ContainmentWork:
    """Work metrics for all four containment-join strategies."""
    nested = len(left) * len(right)

    left_sigs = {key: make_signature(left[key], bits) for key in left.keys()}
    right_sigs = {
        key: make_signature(right[key], bits) for key in right.keys()
    }
    survivors = sum(
        1
        for __, big_sig in left_sigs.items()
        for __, small_sig in right_sigs.items()
        if maybe_superset(big_sig, small_sig)
    )

    buckets_right: dict[int, int] = {}
    for key in right.keys():
        values = right[key]
        if not values:
            continue
        designated = min(values, key=lambda v: (hash(v), repr(v)))
        bucket = hash(designated) % partitions
        buckets_right[bucket] = buckets_right.get(bucket, 0) + 1
    partition_pairs = 0
    for key in left.keys():
        buckets = {hash(element) % partitions for element in left[key]}
        partition_pairs += sum(
            buckets_right.get(bucket, 0) for bucket in buckets
        )

    postings: dict[object, int] = {}
    for key in left.keys():
        for element in left[key]:
            postings[element] = postings.get(element, 0) + 1
    inverted = sum(
        postings.get(element, 0)
        for key in right.keys()
        for element in right[key]
    )

    return ContainmentWork(
        nested_loop_pairs=nested,
        signature_survivors=survivors,
        partition_pairs=partition_pairs,
        inverted_postings=inverted,
    )


@dataclass(frozen=True)
class DivisionWork:
    """Probe/operation counts per division strategy on one input."""

    nested_loop_probes: int       # |π_A(R)| · |S|
    sort_merge_comparisons: int   # ~ |R| log |R| (sorting dominated)
    hash_operations: int          # |R| + |S|
    ra_plan_max_intermediate: int  # the quadratic cross product


def division_work(rows, divisor) -> DivisionWork:
    """Work metrics for the division strategies (deterministic)."""
    pairs = frozenset(rows)
    divisor = frozenset(divisor)
    candidates = {a for a, __ in pairs}
    db = Database(
        Schema({"R": 2, "S": 1}),
        {"R": pairs, "S": {(b,) for b in divisor}},
    )
    ra_trace = trace(classic_division_expr(), db)
    size = len(pairs)
    return DivisionWork(
        nested_loop_probes=len(candidates) * len(divisor),
        sort_merge_comparisons=int(size * max(1, math.log2(max(size, 2)))),
        hash_operations=size + len(divisor),
        ra_plan_max_intermediate=ra_trace.max_intermediate(),
    )
