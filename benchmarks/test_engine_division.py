"""ENGINE — cost-aware engine vs classic RA plan (division witness family).

Paper claim: the planner rewrites the classic quadratic division plan
to a direct linear algorithm: same results, ≥5× smaller peak
intermediate at the largest size, near-linear scaling.

Peak intermediate cardinality is the dichotomy's own work measure
(Definition 16), so every claim here is deterministic.
"""

from repro.algebra.trace import trace
from repro.core.growth import fit_loglog_slope
from repro.data.database import database
from repro.engine import plan_expression
from repro.engine.plan import DivisionOp
from repro.extended.division_plan import containment_division_plan
from repro.session import Session
from repro.setjoins.division import classic_division_expr, divide_reference
from repro.workloads.generators import (
    crossproduct_division_family,
    fig5_scaled_pair,
)


def test_the_planner_routes_both_division_plans_to_one_operator():
    assert isinstance(plan_expression(classic_division_expr()), DivisionOp)
    assert isinstance(plan_expression(containment_division_plan()), DivisionOp)


def test_engine_peak_stays_linear_where_the_classic_plan_goes_quadratic():
    expr = classic_division_expr()
    sizes, classic_peaks, engine_peaks = [], [], []
    for n in (8, 16, 32, 64, 128):
        db = crossproduct_division_family(n)
        # Caching off, run twice: both runs do the work one evaluation
        # does, the second on a warm session.
        session = Session(db, cache_results=False)
        oracle = session.oracle(expr)
        for __ in range(2):
            assert session.run(expr) == oracle, n
        sizes.append(db.size())
        classic_peaks.append(trace(expr, db).max_intermediate())
        engine_peaks.append(session.last_report.stats.max_intermediate())
    assert classic_peaks[-1] >= 5 * engine_peaks[-1]
    assert fit_loglog_slope(sizes, classic_peaks) > 1.7
    assert fit_loglog_slope(sizes, engine_peaks) < 1.3


def test_empty_divisor_semantics_follow_the_source_plan():
    """The classic plan returns every candidate, the γ plan ∅."""
    session = Session(database({"R": 2, "S": 1}, R=[(1, 7)]))
    assert session.run(classic_division_expr()) == frozenset({(1,)})
    assert session.run(containment_division_plan()) == frozenset()


def test_the_hash_index_cache_is_reused_across_queries():
    session = Session(crossproduct_division_family(32))
    session.run("R join[2=1] S")
    built = session.executor.indexes.builds
    session.run("R semijoin[2=1] S")
    assert session.executor.indexes.builds == built
    assert session.executor.indexes.reuses >= 1


def test_a_repeat_is_a_cache_hit_until_a_mutation():
    db = crossproduct_division_family(32)
    session = Session(db)
    prepared = session.query("R join[2=1] S")
    first = prepared.run()
    assert prepared.run() == first
    assert prepared.last_report.cached
    assert prepared.last_report.operators_executed() == 0
    mutated = db.without_tuples({"R": [next(iter(db["R"]))]})
    db._relations = mutated._relations  # contents swap, same handle
    refreshed = prepared.run()
    assert not prepared.last_report.cached
    assert refreshed == session.oracle("R join[2=1] S")


def test_fig5_scaled_pair_division_via_engine():
    """The engine answers division on the scaled witness pair itself."""
    a, b = fig5_scaled_pair(16)
    expr = classic_division_expr()
    quotient_a = {key for (key,) in Session(a).run(expr)}
    assert quotient_a == divide_reference(a["R"], a["S"])
    assert Session(b).run(expr) == frozenset()
