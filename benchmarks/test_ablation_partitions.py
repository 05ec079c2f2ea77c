"""Ablation: PSJ partition count vs replication.

More partitions mean smaller per-partition nested loops but more
replication of provider sets (each goes to one partition per element);
the sweet spot depends on set sizes.
"""

import pytest

from benchmarks.work import containment_work
from repro.setjoins.containment import scj_nested_loop, scj_partition
from repro.workloads.generators import containment_biased_pair


@pytest.fixture(scope="module")
def workload():
    return containment_biased_pair(
        num_left=100, num_right=100, universe_size=64,
        containment_fraction=0.2, seed=17,
    )


@pytest.mark.parametrize("partitions", [2, 8, 32])
def test_partition_count(partitions, workload):
    left, right = workload
    result = scj_partition(left, right, partitions)
    assert result == scj_nested_loop(left, right)


def test_partition_pairs_shrink_then_replication_dominates(workload):
    left, right = workload
    pairs = {
        partitions: containment_work(
            left, right, partitions=partitions
        ).partition_pairs
        for partitions in (1, 2, 8, 32)
    }
    # One partition = the full nested loop; more partitions cut it.
    assert pairs[1] == len(left) * len(right)
    assert pairs[8] < pairs[1]
