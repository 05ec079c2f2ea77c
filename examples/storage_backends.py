"""Storage backends tour: one query, two places the bytes can live.

Run with::

    python examples/storage_backends.py

``src/repro/storage/`` gives the executor a pluggable answer to
"where do relation contents come from?" (see ``docs/storage.md``):
the default in-memory dict, or a columnar shared-memory segment
parallel workers attach by name.  This script shows the parts you can observe
from the outside: identical results on every backend, the staleness
contract, per-backend transport pricing in the parallel dispatch
gate, and deterministic cleanup.
"""

from repro import Session, database
from repro.engine import Executor
from repro.errors import SchemaError, StaleDataError
from repro.storage import BACKEND_KINDS, open_backend
from repro.storage.shm import live_segment_names

db = database(
    {"Likes": 2, "Serves": 2},
    Likes=[("ada", "ale"), ("ada", "stout"), ("bob", "ale")],
    Serves=[("black_swan", "ale"), ("black_swan", "stout"), ("fox", "ale")],
)

QUERY = "Likes semijoin[2=2] Serves"

# ----------------------------------------------------------------------
# 1. Every backend serves exactly the same relations — and therefore
#    exactly the same query results.  The shm backend reports the
#    bytes of real storage it owns.
# ----------------------------------------------------------------------

print("== one query, two backends ==")
results = {}
for kind in BACKEND_KINDS:
    with Session(db, backend=kind) as session:
        results[kind] = session.run(QUERY)
        stored = session.executor.backend.storage_bytes()
        print(f"{kind:>6}: {len(results[kind])} row(s), "
              f"{stored} byte(s) of backing storage")
assert results["memory"] == results["shm"]

# ----------------------------------------------------------------------
# 2. The staleness contract.  The shm backend snapshots contents at
#    encode time; mutating the database under the same handle makes a
#    direct snapshot read raise StaleDataError rather than silently
#    time-travel.  refresh() re-encodes.  (The executor drives this
#    automatically on its version-token check — a mutation *between*
#    queries is invisible to Session users.)
# ----------------------------------------------------------------------

print("\n== staleness is loud ==")
backend = open_backend(db, "shm")
db._relations = {**db._relations, "Serves": frozenset({("fox", "ale")})}
try:
    backend.rows("Serves")
except StaleDataError as error:
    print(f"stale read raised: {type(error).__name__}")
backend.refresh()
print(f"after refresh(): Serves = {sorted(backend.rows('Serves'))}")
backend.close()

# ----------------------------------------------------------------------
# 3. What the planner sees.  The cost model prices the parallel
#    scatter per backend: pickled transport on the memory backend,
#    the cheaper descriptor rate on attached (shm) storage.
# ----------------------------------------------------------------------

print("\n== per-backend transport pricing ==")
for kind in ("memory", "shm"):
    executor = Executor(db, backend=kind)
    print(f"{kind:>6}: cost model prices backend "
          f"{executor.cost_model.backend!r}")
    executor.close()

# ----------------------------------------------------------------------
# 4. Cleanup is deterministic.  Segments die with close(); a closed
#    session refuses further queries.
# ----------------------------------------------------------------------

print("\n== lifecycle ==")
session = Session(db, backend="shm")
print(f"open:   {len(live_segment_names())} shm segment(s)")
session.close()
print(f"closed: {len(live_segment_names())} shm segment(s)")
try:
    session.run(QUERY)
except SchemaError as error:
    print(f"query after close raised: {type(error).__name__}")
