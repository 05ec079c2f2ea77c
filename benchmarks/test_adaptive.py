"""ADAPTIVE — a skewed join is priced right on the first plan.

A correlated join defeats the uniformity assumption (``1/max(d)``
selectivity) by orders of magnitude, no matter how fresh the
statistics: both join columns put hundreds of rows on one shared value.
The cost model reads that value off the most-common-value sketches its
sound bound already reads (``docs/engine.md`` § Skew-aware join
estimate), so the join reorderer steers around the skewed pair on the
first plan, with no run-time feedback.  This suite pins that choice on
a drifting workload:

* **drifting correlated join** — a three-way join written in the trap
  order.  The first plan does not join ``B ⋈ C`` first, and the same
  plan serves every run while ``A``'s contents drift under it
  (mutations move the version token, dropping plans and statistics);
  every run's rows equal the structural evaluator's.
"""

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine.plan import ScanOp
from repro.session import Session

#: Runs in the drifting workload: every run after the first mutates
#: ``A`` first — the drift.
DRIFT_RUNS = 8

#: ``B ⋈ C`` is the trap pair: both join columns put 601 rows on value
#: 0, so the uniformity estimate (9M/2400 ≈ 3.8k rows) is ~100× under
#: the true 601² + 2399 ≈ 364k — while ``A ⋈ B`` produces exactly 6k.
#: The query is *written* in the trap order, so the join reorderer is
#: the only way out, and it finds it only if value 0 is priced as the
#: product of its two counts.
N_A, A_KEYS = 6_000, 2_400
N_BC, SKEW = 3_000, 600

DRIFT_QUERY = "(B join[2=1] C) join[1=2] A"


def drifting_db() -> Database:
    schema = Schema({"A": 2, "B": 2, "C": 2})
    return Database(
        schema,
        {
            "A": frozenset((i, i % A_KEYS) for i in range(N_A)),
            "B": frozenset(
                (i, i if i < A_KEYS else 0) for i in range(N_BC)
            ),
            "C": frozenset(
                (i if i < A_KEYS else 0, i) for i in range(N_BC)
            ),
        },
    )


def mutate(db: Database, round_no: int) -> None:
    """Shift ``A``'s join keys: same statistics, different contents.

    The swap happens behind the same handle, so the version token
    moves — plans, statistics, indexes and cached results all drop on
    next use, and the query is planned again from fresh statistics.
    """
    db._relations = {
        **db._relations,
        "A": frozenset(
            (i, (i + round_no) % A_KEYS) for i in range(N_A)
        ),
    }


def scan_pairs(plan) -> set[frozenset[str]]:
    """The relation pairs ``plan`` joins directly, scan to scan."""
    return {
        frozenset(child.expr.name for child in node.children())
        for node in plan.nodes()
        if len(node.children()) == 2
        and all(isinstance(child, ScanOp) for child in node.children())
    }


def test_the_first_plan_avoids_the_trap_under_drift():
    db = drifting_db()
    expr = parse(DRIFT_QUERY, db.schema)
    session = Session(db, cache_results=False)
    prepared = session.query(expr)
    first = prepared.plan()
    assert scan_pairs(first)
    assert frozenset("BC") not in scan_pairs(first)

    shape = prepared.explain()
    plans = set()
    for round_no in range(DRIFT_RUNS):
        if round_no:
            mutate(db, round_no)
        assert prepared.run() == evaluate(expr, db)
        plans.add(prepared.explain())
    assert plans == {shape}
