"""Ablation: signature width vs pruning power.

The signature width is a design choice: narrow signatures are cheap but
admit false positives (wasted verifications), wide ones prune almost
perfectly.  Every width gives the nested loop's result.
"""

import pytest

from repro.setjoins.containment import scj_nested_loop, scj_signature
from repro.setjoins.signatures import make_signature, maybe_superset
from repro.workloads.generators import containment_biased_pair


@pytest.fixture(scope="module")
def workload():
    return containment_biased_pair(
        num_left=100, num_right=100, universe_size=64,
        containment_fraction=0.2, seed=13,
    )


@pytest.mark.parametrize("bits", [8, 32, 128])
def test_signature_width(bits, workload):
    left, right = workload
    result = scj_signature(left, right, bits)
    assert result == scj_nested_loop(left, right)


def test_signature_width_pruning_power(workload):
    """Wider signatures admit (weakly) fewer false-positive candidates."""
    left, right = workload
    survivors = {}
    for bits in (8, 32, 128):
        left_sigs = [make_signature(left[k], bits) for k in left.keys()]
        right_sigs = [make_signature(right[k], bits) for k in right.keys()]
        survivors[bits] = sum(
            1
            for big in left_sigs
            for small in right_sigs
            if maybe_superset(big, small)
        )
    true_pairs = len(scj_nested_loop(left, right))
    assert survivors[128] <= survivors[32] <= survivors[8]
    assert survivors[128] >= true_pairs  # never below the truth
