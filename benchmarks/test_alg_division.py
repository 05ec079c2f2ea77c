"""ALG-DIV — division algorithms shoot-out (Graefe [11, 12]).

Paper claim: all four direct algorithms agree; O(n log n)/O(n)
strategies do asymptotically less work than the quadratic baselines.
"""

import pytest

from benchmarks.work import division_work
from repro.core.growth import fit_loglog_slope
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    DIVISION_EQ_ALGORITHMS,
    divide_reference,
    divide_reference_eq,
)
from repro.workloads.generators import sparse_division_workload


@pytest.mark.parametrize("name", sorted(DIVISION_ALGORITHMS))
def test_containment_division_dense(name, division_instance_small):
    rows, divisor = division_instance_small
    result = DIVISION_ALGORITHMS[name](rows, divisor)
    assert result == divide_reference(rows, divisor)


@pytest.mark.parametrize("name", sorted(DIVISION_ALGORITHMS))
def test_containment_division_sparse(name, division_instance_sparse):
    rows, divisor = division_instance_sparse
    result = DIVISION_ALGORITHMS[name](rows, divisor)
    assert result == divide_reference(rows, divisor)


@pytest.mark.parametrize("name", sorted(DIVISION_EQ_ALGORITHMS))
def test_equality_division(name, division_instance_small):
    rows, divisor = division_instance_small
    result = DIVISION_EQ_ALGORITHMS[name](rows, divisor)
    assert result == divide_reference_eq(rows, divisor)


def test_work_grows_quadratically_only_for_the_baselines():
    sizes, nested, hashed, ra_plan = [], [], [], []
    for n in (16, 32, 64, 128):
        rows, divisor = sparse_division_workload(
            num_keys=n, divisor_size=max(2, n // 2), seed=n
        )
        work = division_work(rows, divisor)
        sizes.append(len(rows) + len(divisor))
        nested.append(work.nested_loop_probes)
        hashed.append(work.hash_operations)
        ra_plan.append(work.ra_plan_max_intermediate)
    assert fit_loglog_slope(sizes, nested) > 1.5
    assert fit_loglog_slope(sizes, hashed) < 1.3
    assert fit_loglog_slope(sizes, ra_plan) > 1.5


def test_division_work_shapes():
    rows = {(a, b) for a in range(4) for b in (100, 101)}
    work = division_work(rows, {100, 101})
    assert work.nested_loop_probes == 8
    assert work.hash_operations == 10
    assert work.ra_plan_max_intermediate >= 8
