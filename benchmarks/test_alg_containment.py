"""ALG-SCJ — set-containment join shoot-out ([13, 15, 16]).

Paper claim: all strategies agree; signature/partition/inverted prune
most of the nested loop's candidate pairs (no better than quadratic
worst-case is known).
"""

import pytest

from benchmarks.work import containment_work
from repro.setjoins.containment import (
    CONTAINMENT_ALGORITHMS,
    scj_nested_loop,
)
from repro.setjoins.setrel import SetRelation
from repro.setjoins.signatures import make_signature
from repro.workloads.generators import (
    containment_biased_pair,
    zipf_set_relation,
)


@pytest.mark.parametrize("name", sorted(CONTAINMENT_ALGORITHMS))
def test_containment_join(name, containment_instance):
    left, right = containment_instance
    result = CONTAINMENT_ALGORITHMS[name](left, right)
    assert result == scj_nested_loop(left, right)


def test_signatures_and_partitions_prune_the_nested_loop():
    left, right = containment_biased_pair(
        num_left=60, num_right=60, universe_size=48,
        containment_fraction=0.25, seed=11,
    )
    work = containment_work(left, right)
    assert work.signature_survivors < work.nested_loop_pairs
    assert work.partition_pairs < work.nested_loop_pairs


@pytest.mark.parametrize("skew", [0.2, 1.2])
def test_skew_sensitivity_signature(skew):
    """Signature pruning degrades as hot elements saturate signatures."""
    left = zipf_set_relation(80, 6, 14, 48, skew=skew, seed=21)
    right = zipf_set_relation(
        80, 2, 5, 48, skew=skew, seed=22, key_offset=10**6
    )
    result = CONTAINMENT_ALGORITHMS["signature"](left, right)
    assert result == scj_nested_loop(left, right)


def test_signature_construction(containment_instance):
    left, __ = containment_instance
    sigs = [make_signature(left[key]) for key in left.keys()]
    assert len(sigs) == len(left)


def test_containment_work_shapes():
    left = SetRelation.from_mapping({1: {1, 2}, 2: {3}})
    right = SetRelation.from_mapping({10: {1}, 11: {9}})
    work = containment_work(left, right)
    assert work.nested_loop_pairs == 4
    assert 0 <= work.signature_survivors <= 4
    assert work.partition_pairs <= work.nested_loop_pairs * 2
    assert work.inverted_postings >= 1
