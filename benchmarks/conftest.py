"""Shared workloads for the benchmark suite.

Sizes are chosen so the full suite runs in well under a minute while
the quadratic-vs-linear separations stay clearly visible in the
asserted work and intermediate sizes; ``results_writer`` serves the
``BENCH_parallel.json`` and ``BENCH_out_of_core.json`` emitters, and
``best_of`` the timed arms.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.data.database import Database, database
from repro.workloads.generators import (
    containment_biased_pair,
    division_workload,
    equal_sets_pair,
    sparse_division_workload,
)


REPO_ROOT = Path(__file__).resolve().parents[1]

#: Runs per timed arm in :func:`best_of`.
TIMING_REPEATS = 3


def results_writer(file_name: str, results: dict):
    """A module fixture writing ``results`` to ``<repo root>/file_name``.

    Bind the return value to a module-level name in the benchmark
    module; the accumulated trajectory is written once, after the
    module's tests ran.  The ``BENCH_*.json`` files are build outputs
    (git-ignored; CI uploads them as artifacts).
    """

    @pytest.fixture(scope="module", autouse=True)
    def emit_results():
        yield
        (REPO_ROOT / file_name).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )

    return emit_results


def timed(fn):
    """``(wall-clock seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def best_of(fn, repeats: int = TIMING_REPEATS):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best, result = float("inf"), None
    for _ in range(repeats):
        seconds, result = timed(fn)
        best = min(best, seconds)
    return best, result


def linear_family(n: int) -> Database:
    """R ⋈[2=1] S grows linearly along it: |R| = n, |S| = n/2."""
    rows = [(i, 10**6 + i % max(1, n // 2)) for i in range(n)]
    divisor = [(10**6 + i,) for i in range(max(1, n // 2))]
    return database({"R": 2, "S": 1}, R=rows, S=divisor)


@pytest.fixture(scope="session")
def division_instance_small():
    """A 100-key division instance (dense: keys contain the divisor)."""
    return division_workload(
        num_keys=100, divisor_size=12, hit_fraction=0.3, seed=1
    )


@pytest.fixture(scope="session")
def division_instance_sparse():
    """A sparse 300×150 instance where quadratic strategies suffer."""
    return sparse_division_workload(
        num_keys=300, divisor_size=150, seed=2
    )


@pytest.fixture(scope="session")
def containment_instance():
    """A Zipf set-containment workload (120 × 120 sets)."""
    return containment_biased_pair(
        num_left=120,
        num_right=120,
        universe_size=64,
        containment_fraction=0.25,
        seed=5,
    )


@pytest.fixture(scope="session")
def equality_instance():
    """A set-equality workload with a quadratic output component."""
    return equal_sets_pair(num_groups=10, group_size=8)
