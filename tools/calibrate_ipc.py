#!/usr/bin/env python3
"""Fit the parallel transport surcharges from micro-measurements.

``engine/cost.py`` prices every row that might cross the process
boundary at :data:`~repro.engine.cost.PARALLEL_IPC_ROW_COST` (pickled
transport) or :data:`~repro.engine.cost.PARALLEL_ATTACHED_ROW_COST`
(columnar shipment a worker attaches to).  Both constants are in the
cost model's native unit — "one in-process row touch", concretely a
build-plus-probe step of the engine's own hash semijoin
(:func:`repro.engine.kernels.build_index` +
:func:`~repro.engine.kernels.hash_semijoin`, called, not re-typed
here) — so the right values are ratios of measured wall-clocks, not
absolute times:

* ``ipc`` ≈ (pickle a row out + unpickle it in a worker) / unit;
* ``attached`` ≈ (encode a row columnar + decode it from the mapped
  buffer) / unit — the shipment does this once per distinct fragment,
  while pickled transport re-serializes per task.

Run it directly (``PYTHONPATH=src python tools/calibrate_ipc.py``) to
print the fitted constants as JSON; ``benchmarks/test_parallel_joins.py``
imports :func:`measure` and records the same figures next to the
constants actually in use, so every ``BENCH_parallel.json`` carries
its own calibration evidence.

The direct run also prints ``effective_parallelism`` next to
``available_cpus``: what two CPU-bound processes really get of the
host (:func:`effective_parallelism`).  A "2-CPU" container whose two
vCPUs share one core reads ≈ 1.0 — no dispatch cost, however small,
buys a parallel speed-up there, so name the host before fitting a gate
on it.

The constants committed in ``engine/cost.py`` are these measurements
rounded *up* generously: overpricing transport only delays parallelism
until compute genuinely dominates, while underpricing would certify
dispatches that lose — and the refusal benchmarks
(``prop26_forced``) pin how expensive a wrong certification is.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import sys
import time
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # direct script run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.engine import kernels
from repro.storage.columnar import decode_rows, encode_rows


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(
    rows_n: int = 20_000, groups: int = 8, repeats: int = 5
) -> dict:
    """Measured per-row costs and fitted constants (see module doc)."""
    left = [(i, i % groups) for i in range(rows_n)]
    right = [(10**6 + j, j % groups) for j in range(rows_n // 2)]

    def unit_op() -> None:
        # The serial hash-semijoin step as the engine runs it: group
        # one side, probe with the other — the kernel work a "row
        # touch" stands for.
        index = kernels.build_index(right, (2,))
        list(kernels.hash_semijoin(left, index, (2,), kernels.always))

    def pickle_roundtrip() -> None:
        blob = pickle.dumps(left, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)

    def columnar_roundtrip() -> None:
        meta, parts = encode_rows(left)
        decode_rows(memoryview(b"".join(parts)), 0, meta)

    touched = len(left) + len(right)
    unit_ns = _best_seconds(unit_op, repeats) / touched * 1e9
    ipc_ns = _best_seconds(pickle_roundtrip, repeats) / len(left) * 1e9
    attached_ns = (
        _best_seconds(columnar_roundtrip, repeats) / len(left) * 1e9
    )
    encode_ns = (
        _best_seconds(lambda: encode_rows(left), repeats)
        / len(left)
        * 1e9
    )
    return {
        "rows": rows_n,
        "unit_ns_per_row": round(unit_ns, 2),
        "pickle_roundtrip_ns_per_row": round(ipc_ns, 2),
        "columnar_roundtrip_ns_per_row": round(attached_ns, 2),
        "columnar_encode_ns_per_row": round(encode_ns, 2),
        "fitted_ipc_row_cost": round(ipc_ns / unit_ns, 3),
        "fitted_attached_row_cost": round(attached_ns / unit_ns, 3),
        # The attached transport's *serial critical path* is the
        # parent-side encode; decode runs in the workers, overlapped
        # with (and divided like) the kernel work it feeds.
        "fitted_attached_parent_cost": round(encode_ns / unit_ns, 3),
    }


def _burn(iterations: int) -> float:
    """Seconds this process takes for a fixed CPU-bound loop."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


def effective_parallelism(
    iterations: int = 2_000_000, repeats: int = 3
) -> float:
    """CPUs two CPU-bound processes get: 2 × solo wall ÷ concurrent wall.

    2.0 on two real cores, 1.0 when the two loops only take turns.
    """
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        # Long enough for both workers to have started and taken part.
        pool.map(_burn, [iterations // 8] * 8, chunksize=1)
        solo = min(pool.apply(_burn, (iterations,)) for _ in range(repeats))
        both = min(
            max(pool.map(_burn, [iterations] * 2, chunksize=1))
            for _ in range(repeats)
        )
    return round(2 * solo / both, 2)


def main() -> None:
    from repro.engine.cost import (
        PARALLEL_ATTACHED_ROW_COST,
        PARALLEL_IPC_ROW_COST,
    )
    from repro.engine.parallel import available_cpus

    fitted = measure()
    fitted["available_cpus"] = available_cpus()
    fitted["effective_parallelism"] = effective_parallelism()
    fitted["constants_in_use"] = {
        "PARALLEL_IPC_ROW_COST": PARALLEL_IPC_ROW_COST,
        "PARALLEL_ATTACHED_ROW_COST": PARALLEL_ATTACHED_ROW_COST,
    }
    fitted["note"] = (
        "constants_in_use predate the current unit and are deliberately "
        "not refitted here: ROADMAP item 5 owns the PARALLEL_* constants"
    )
    print(json.dumps(fitted, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
