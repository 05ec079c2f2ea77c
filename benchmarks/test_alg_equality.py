"""ALG-SEJ — set-equality join (footnote 1).

Paper claim: sort/hash run in O(n log n) plus output, and the output
alone can be quadratic.
"""

import pytest

from repro.core.growth import fit_loglog_slope
from repro.setjoins.equality import (
    EQUALITY_ALGORITHMS,
    sej_hash,
    sej_nested_loop,
)
from repro.workloads.generators import equal_sets_pair, zipf_set_relation


@pytest.mark.parametrize("name", sorted(EQUALITY_ALGORITHMS))
def test_equality_join_quadratic_output(name, equality_instance):
    left, right = equality_instance
    result = EQUALITY_ALGORITHMS[name](left, right)
    assert result == sej_nested_loop(left, right)
    assert len(result) == 10 * 8 * 8  # groups · size²


@pytest.mark.parametrize("name", ["sort", "hash"])
def test_equality_join_sparse_output(name):
    """Random sets rarely coincide: output ~ empty, sorting dominates."""
    left = zipf_set_relation(150, 3, 8, 64, seed=31)
    right = zipf_set_relation(150, 3, 8, 64, seed=32, key_offset=10**6)
    result = EQUALITY_ALGORITHMS[name](left, right)
    assert result == sej_nested_loop(left, right)


def output_growth(pairs) -> float:
    """Fitted exponent of |output| over |input| along ``pairs``."""
    sizes, outputs = [], []
    for left, right in pairs:
        sizes.append(len(left) + len(right))
        outputs.append(len(sej_hash(left, right)))
    return fit_loglog_slope(sizes, outputs)


def test_output_grows_linearly_with_the_group_count():
    pairs = [equal_sets_pair(groups, 6) for groups in (2, 4, 8, 16)]
    assert 0.7 < output_growth(pairs) < 1.3


def test_output_grows_quadratically_as_groups_widen():
    pairs = [equal_sets_pair(3, size) for size in (2, 4, 8, 16)]
    assert output_growth(pairs) > 1.7
