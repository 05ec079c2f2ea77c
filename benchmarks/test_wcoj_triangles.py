"""WCOJ — worst-case-optimal triangles vs the best binary plan.

The Zipf-skewed hub-triangle family (:func:`repro.workloads.
generators.zipf_triangle_db`) is the canonical separation between
binary and worst-case-optimal join evaluation: every binary plan pairs
all wings through the hub vertex — a ``Θ(n²)`` intermediate — while the
triangle output is ``3n+1`` rows and the AGM bound ``(2n+1)^{3/2}``.
This suite checks that separation (perfbench's ``triangle_wcoj``
workload times the generic join itself):

* per size: the planner's multiway plan and the best binary plan
  (``use_multiway=False``) both equal the structural evaluator;
* per size: the rows the generic join emitted stay within its
  certified AGM bound (the :class:`~repro.engine.wcoj.WcojRun`
  counters), while the binary plan's intermediate is quadratic;
* at the largest size the multiway plan must be ≥ 2× faster — the
  speedup only grows with size, so regressions show up at the top end
  first.
"""

from repro.algebra.evaluator import evaluate
from repro.data.database import Database
from repro.engine import Executor, MultiwayJoinOp, PlannerOptions
from repro.workloads.generators import zipf_triangle_db
from tests.strategies import cycle_expr

from benchmarks.conftest import best_of

#: Hub-star wing counts; the ≥2× wall-clock assertion is made at the
#: largest size, where the binary plan's quadratic intermediate
#: dominates every fixed overhead.
SIZES = (40, 80, 160, 320)


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
        assert len(multiway_nodes(multi_plan)) == 1
        assert not multiway_nodes(binary_plan)

        # Soundness: the generic join stayed within its
        # certified bound while the binary plan went quadratic.
        (run,) = multi_stats.wcoj_runs.values()
        assert run.output_rows == len(oracle) <= run.agm
        assert multi_stats.max_intermediate() == len(oracle)
        assert binary_stats.max_intermediate() >= wings * wings

        speedups[wings] = binary_s / multi_s if multi_s > 0 else float(
            "inf"
        )
    largest = SIZES[-1]
    assert speedups[largest] >= 2.0, (
        f"multiway was only {speedups[largest]:.2f}x faster than the "
        f"binary plan at wings={largest}; expected >= 2x "
        f"(all speedups: {speedups})"
    )
