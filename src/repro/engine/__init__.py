"""The cost-aware query engine: plan → optimize → execute.

The paper's dichotomy (Theorem 17) and the division lower bound
(Proposition 26) are statements about *plan choice*: the same query is
unavoidably quadratic as a classic RA expression yet linear as a direct
algorithm one level down.  This package is the layer that acts on that:

* :mod:`repro.engine.plan` — physical operator nodes (hash join,
  hash semijoin, the division-algorithm zoo, grouping) with
  EXPLAIN-style rendering;
* :mod:`repro.engine.stats` — exact per-relation statistics
  (cardinality, distinct counts, most-common-value sketches),
  collected lazily per database;
* :mod:`repro.engine.cost` — the cardinality/cost estimator: point
  estimates, sound upper bounds (AGM-style on equi-join chains), and
  cumulative operator costs.  Its bounds are certified exactly when
  the model has statistics, and every cost-based decision below asks
  the model that one fact;
* :mod:`repro.engine.wcoj` — the worst-case-optimal generic join:
  variable-at-a-time execution of cyclic equi-join chains within the
  AGM fractional-edge-cover bound (``PlannerOptions.use_multiway``);
* :mod:`repro.engine.planner` — structural operator choice (division
  patterns collapse, equality joins hash) plus cost-based join
  ordering, with the written order as the zero-stats fallback
  (:func:`~repro.engine.planner.plan_expression`);
* :mod:`repro.engine.executor` — memoizing streaming execution with a
  per-database hash-index cache, the statistics catalog, and a
  version token guarding both against content changes;
* :mod:`repro.engine.partition` — partitioned (batched) execution of
  joins, semijoins, and division under a rows-in-flight budget, sized
  from the cost model's sound upper bounds
  (``PlannerOptions.partition_budget``);
* :mod:`repro.engine.parallel` — the pool runner of those key-disjoint
  batches, chosen only when the cost model certifies that scatter +
  IPC is paid back (``PlannerOptions.max_workers``).

Typical use goes through the :class:`~repro.session.Session` front
door (``docs/session.md``)::

    from repro.session import Session

    session = Session(db)
    rows = session.run(expr)                    # plan + execute (+ cache)
    print(session.explain(expr, costs=True))    # what the planner chose

There is no other entry point: plain
:func:`repro.algebra.evaluator.evaluate` runs the expression as written
and never reaches this package.

See ``docs/engine.md`` for the architecture and the routing rules.
"""

from __future__ import annotations

from repro.engine.cost import (
    CostModel,
    Estimate,
    fractional_edge_cover,
)
from repro.engine.executor import (
    ExecutionStats,
    Executor,
    IndexCache,
    ResultCache,
)
from repro.engine.parallel import (
    ParallelRun,
    WorkerSlice,
    available_cpus,
    shutdown_worker_pools,
)
from repro.engine.partition import (
    BatchRecord,
    PartitionRun,
    apply_partitioning,
    in_flight_upper,
    planned_partitions,
)
from repro.engine.plan import (
    DivisionOp,
    MultiwayJoinOp,
    PartitionedOp,
    PlanNode,
)
from repro.engine.planner import (
    DEFAULT_OPTIONS,
    Planner,
    PlannerOptions,
    explain,
    match_division,
    plan_expression,
)
from repro.engine.stats import StatsCatalog
from repro.engine.wcoj import WcojRun

__all__ = [
    "DEFAULT_OPTIONS",
    "BatchRecord",
    "CostModel",
    "DivisionOp",
    "Estimate",
    "ExecutionStats",
    "Executor",
    "IndexCache",
    "MultiwayJoinOp",
    "ParallelRun",
    "PartitionRun",
    "PartitionedOp",
    "PlanNode",
    "Planner",
    "PlannerOptions",
    "ResultCache",
    "StatsCatalog",
    "WcojRun",
    "WorkerSlice",
    "apply_partitioning",
    "available_cpus",
    "explain",
    "fractional_edge_cover",
    "in_flight_upper",
    "match_division",
    "plan_expression",
    "planned_partitions",
    "shutdown_worker_pools",
]
