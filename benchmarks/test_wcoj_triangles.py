"""WCOJ — worst-case-optimal triangles vs the best binary plan.

The Zipf-skewed hub-triangle family (:func:`repro.workloads.
generators.zipf_triangle_db`) is the canonical separation between
binary and worst-case-optimal join evaluation: every binary plan pairs
all wings through the hub vertex — a ``Θ(n²)`` intermediate — while the
triangle output is ``3n+1`` rows and the AGM bound ``(2n+1)^{3/2}``.
This suite measures that separation and writes the machine-readable
trajectory (``BENCH_wcoj.json`` at the repo root, the
``BENCH_parallel.json`` convention) for cross-version tracking:

* per size: wall-clock of the planner's multiway plan vs the best
  binary plan (``use_multiway=False``), both oracle-checked against
  the structural evaluator;
* per size: the certified AGM bound next to the rows the generic join
  actually emitted and the intersection work it did (the
  :class:`~repro.engine.wcoj.WcojRun` counters) — the quantities the
  soundness property bounds;
* at the largest size the multiway plan must be ≥ 2× faster — the
  speedup only grows with size, so regressions show up at the top end
  first.
"""

from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine import Executor, MultiwayJoinOp, PlannerOptions
from repro.workloads.generators import zipf_triangle_db
from tests.strategies import cycle_expr

from benchmarks.conftest import TIMING_REPEATS, best_of, results_writer

#: Hub-star wing counts; the ≥2× wall-clock assertion is made at the
#: largest size, where the binary plan's quadratic intermediate
#: dominates every fixed overhead.
SIZES = (40, 80, 160, 320)

RESULTS: dict = {
    "benchmark": "wcoj-triangles",
    "sizes": list(SIZES),
    "timing_repeats": TIMING_REPEATS,
    "sections": {},
}


emit_results = results_writer("BENCH_wcoj.json", RESULTS)


def triangle_db(wings: int) -> Database:
    return zipf_triangle_db(wings, tail=wings // 4, seed=wings)


def run_triangle(db: Database, multiway: bool):
    """Plan + execute the triangle from a cold executor.

    A fresh executor per call so every timed run pays planning, trie/
    index builds, and execution — the end-to-end figure a user sees —
    with no cross-run memo or cache reuse inflating the comparison.
    """
    expr = cycle_expr(("E", "F", "G"), db.schema)
    executor = Executor(db)
    options = PlannerOptions(use_multiway=multiway)
    plan = executor.plan(expr, options)
    result = executor.execute(plan)
    return result, plan, executor.stats


def multiway_nodes(plan):
    return [n for n in plan.nodes() if isinstance(n, MultiwayJoinOp)]


def test_triangle_family_speedup_and_soundness():
    section: dict = {}
    speedups: dict[int, float] = {}
    for wings in SIZES:
        db = triangle_db(wings)
        expr = cycle_expr(("E", "F", "G"), db.schema)
        oracle = evaluate(expr, db)

        multi_s, (multi_rows, multi_plan, multi_stats) = best_of(
            lambda: run_triangle(db, multiway=True)
        )
        binary_s, (binary_rows, binary_plan, binary_stats) = best_of(
            lambda: run_triangle(db, multiway=False)
        )

        # Oracle-identical on both arms, and the plans really differ.
        assert multi_rows == oracle and binary_rows == oracle
        (node,) = multiway_nodes(multi_plan)
        assert not multiway_nodes(binary_plan)

        # Soundness figures: the generic join stayed within its
        # certified bound while the binary plan went quadratic.
        (run,) = multi_stats.wcoj_runs.values()
        assert run.output_rows == len(oracle) <= run.agm
        assert multi_stats.max_intermediate() == len(oracle)
        assert binary_stats.max_intermediate() >= wings * wings

        speedups[wings] = binary_s / multi_s if multi_s > 0 else float(
            "inf"
        )
        section[str(wings)] = {
            "relation_rows": len(db["E"]),
            "output_rows": len(oracle),
            "agm_bound": run.agm,
            "actual_rows": run.output_rows,
            "candidates": run.candidates,
            "probes": run.probes,
            "binary_peak_intermediate": binary_stats.max_intermediate(),
            "multiway_seconds": multi_s,
            "binary_seconds": binary_s,
            "speedup": speedups[wings],
            "planner_note": node.note,
        }
    RESULTS["sections"]["triangles"] = section
    largest = SIZES[-1]
    assert speedups[largest] >= 2.0, (
        f"multiway was only {speedups[largest]:.2f}x faster than the "
        f"binary plan at wings={largest}; expected >= 2x "
        f"(all speedups: {speedups})"
    )
