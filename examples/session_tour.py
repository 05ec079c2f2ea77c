"""Session tour: prepared queries, result caching, execution reports.

Run with::

    python examples/session_tour.py

The ``Session`` is the repo's single front door (see
``docs/session.md``).  This script walks its whole surface on a small
"beers" schema: preparing queries, reading execution reports, watching
the cross-query result cache hit / invalidate, partition budgets as a
session-level option, and the uniform division entry.
"""

from repro import Session, database
from repro.engine import PlannerOptions

db = database(
    {"Likes": 2, "Serves": 2, "Visits": 2},
    Likes=[("ada", "ale"), ("ada", "stout"), ("bob", "ale")],
    Serves=[("black_swan", "ale"), ("black_swan", "stout"), ("fox", "ale")],
    Visits=[("ada", "black_swan"), ("bob", "fox"), ("ada", "fox")],
)

# ----------------------------------------------------------------------
# 1. One session per database.  Session-level PlannerOptions apply to
#    every query; here: engine defaults.
# ----------------------------------------------------------------------

session = Session(db)

# Drinkers who visit a bar serving a beer they like (Example 3 shape).
frequents = session.query(
    "project[1]((Visits join[2=1] Serves) join[1=1,4=2] Likes)"
)

print("plan chosen by the cost-based planner:")
print(frequents.explain(costs=True))
print("\nanswers:", sorted(frequents.run()))

# ----------------------------------------------------------------------
# 2. Every run leaves an ExecutionReport: rows, cache outcome, and the
#    per-operator estimated-vs-actual stats the estimator tests use.
# ----------------------------------------------------------------------

print("\nexecution report (cold run):")
print(session.last_report.render())

# ----------------------------------------------------------------------
# 3. Re-running the same query is a cache hit, answered before
#    planning: the cache is keyed by the expression, the options and
#    the contents' version token, and zero physical operators execute.
# ----------------------------------------------------------------------

frequents.run()
hit = session.last_report
print(
    f"\nwarm run: cached={hit.cached}, "
    f"operators executed={hit.operators_executed()}"
)

# ----------------------------------------------------------------------
# 4. Mutations move the database's version token; the session notices
#    before planning and recomputes against the fresh contents.
#    (Database objects are immutable — this simulates a storage
#    backend swapping contents behind the same handle.)
# ----------------------------------------------------------------------

updated = db.with_tuples({"Likes": [("bob", "stout")]})
db._relations = updated._relations
fresh = frequents.run()
print(
    f"\nafter mutation: cached={session.last_report.cached}, "
    f"answers={sorted(fresh)}"
)

# ----------------------------------------------------------------------
# 5. Options are session-level; per-query overrides exist for
#    experiments.  A partition budget caps rows in flight per operator.
# ----------------------------------------------------------------------

budgeted = Session(db, options=PlannerOptions(partition_budget=4))
print("\nplan under a 4-row in-flight budget:")
print(budgeted.explain("Visits join[2=1] Serves"))

# ----------------------------------------------------------------------
# 6. Division goes through the same door, any algorithm — operands are
#    validated against the schema identically for every choice.
# ----------------------------------------------------------------------

beers_db = database(
    {"R": 2, "S": 1},
    R=[("ada", "ale"), ("ada", "stout"), ("bob", "ale")],
    S=[("ale",), ("stout",)],
)
beers = Session(beers_db)
print("\nwho likes every beer in S:")
print("  engine :", sorted(beers.divide("R", "S", algorithm="engine")))
print("  hash   :", sorted(beers.divide("R", "S", algorithm="hash")))

# ----------------------------------------------------------------------
# 7. The structural evaluator stays reachable as the oracle: it
#    computes the expression exactly as written (no engine rewrites),
#    which is what the differential tests compare against.
# ----------------------------------------------------------------------

text = "project[1](Visits semijoin[2=1] Serves)"
assert beers is not session  # separate sessions, separate caches
assert session.run(text) == session.oracle(text)
print("\nengine result == structural oracle result: True")

print("\nresult cache counters:", session.result_cache.stats_line())
