"""Named serving scenarios: the workload lab's standard traffic mixes.

Each scenario is a plain :class:`~repro.serve.lab.ScenarioSpec` —
data, no behaviour — chosen to stress one serving-layer property the
paper's operator work made interesting:

* ``mixed_read_heavy`` — the throughput headline: four tenants cycling
  division, semijoin, and join/project reads with no writes, so every
  read is independently parallelizable across worker processes.  The
  serving benchmark compares this against serialized single-session
  execution.
* ``division_heavy`` — classic-division expressions the planner
  collapses to the linear §5 operator; admission prices their
  quotient bounds.
* ``semijoin_only`` — strictly guarded-fragment traffic (semijoins and
  projections only): the paper's dichotomy says these never blow up,
  and their small certified bounds should make admission effectively
  invisible.
* ``cyclic`` — triangle queries on the Zipf-hub database where binary
  join plans go quadratic; the multiway (WCOJ) path keeps actuals near
  the AGM bound while admission sees the *binary* bound — the
  utilization gap is the point.
* ``cache_hostile`` — every read is a structurally distinct
  expression, so the server's front-door result cache never answers
  one (no hit, no twin in flight to ride on) and throughput measures
  raw execution.
* ``mutation_heavy`` — one writer tenant flip-flopping rows between
  readers: exercises write serialization, snapshot pinning (on
  by-reference backends a replaced generation's image stays alive
  exactly while a read pins it), and the door cache across writes — it
  keeps the two contents the writer alternates between, so repeats hit
  on both sides of a flip.

All scenarios are seeded and deterministic in their inputs; only
thread interleaving varies between runs.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.serve.lab import ScenarioSpec, StreamSpec
from repro.workloads.generators import (
    division_database,
    random_database,
    zipf_triangle_db,
)

__all__ = [
    "DATABASE_BUILDERS",
    "SERVING_SCENARIOS",
    "build_database",
    "scenario",
]


# ----------------------------------------------------------------------
# Database recipes (what ScenarioSpec.database names resolve to)
# ----------------------------------------------------------------------


def _division_db(
    num_keys: int = 120,
    divisor_size: int = 10,
    seed: int = 7,
) -> Database:
    return division_database(
        num_keys, divisor_size, extra_per_key=3, hit_fraction=0.4,
        seed=seed,
    )


def _mixed_db(
    num_keys: int = 120,
    divisor_size: int = 10,
    extra_rows: int = 240,
    seed: int = 7,
) -> Database:
    """Division instance ``R/2, S/1`` plus random ``T/2, U/2`` joins."""
    base = _division_db(num_keys, divisor_size, seed)
    extra = random_database(
        Schema({"T": 2, "U": 2}),
        rows_per_relation=extra_rows,
        domain_size=max(2, num_keys // 2),
        seed=seed + 1,
    )
    return Database(
        Schema({"R": 2, "S": 1, "T": 2, "U": 2}),
        {**base.relations(), **extra.relations()},
    )


def _triangle_db(
    wings: int = 60, tail: int = 120, seed: int = 7
) -> Database:
    return zipf_triangle_db(wings, tail=tail, skew=1.1, seed=seed)


DATABASE_BUILDERS = {
    "division": _division_db,
    "mixed": _mixed_db,
    "triangle": _triangle_db,
}


def build_database(name: str, **args) -> Database:
    """Resolve a :class:`ScenarioSpec.database` recipe name."""
    try:
        builder = DATABASE_BUILDERS[name]
    except KeyError:
        raise SchemaError(
            f"unknown scenario database {name!r}; expected one of "
            f"{sorted(DATABASE_BUILDERS)}"
        ) from None
    return builder(**args)


# ----------------------------------------------------------------------
# Query mixes
# ----------------------------------------------------------------------

#: R ÷ S as the classic RA expression — the planner collapses this to
#: the linear division operator, and the cost model prices the
#: quotient, not the written-out cross product.
DIVISION_QUERY = (
    "project[1](R) minus "
    "project[1](((project[1](R) x S) minus R))"
)

#: Guarded-fragment reads: semijoins and projections only.
SEMIJOIN_QUERIES = (
    "R semijoin[2=1] S",
    "project[1](R semijoin[2=1] S)",
    "R semijoin[1=1] (R semijoin[2=1] S)",
)

#: Join/project reads over the random half of the mixed database.
JOIN_QUERIES = (
    "project[1,4](T join[2=1] U)",
    "T semijoin[2=1] project[1](U)",
    "project[1](T join[2=1] (U semijoin[1=1] T))",
)

#: The triangle E(x,y), F(y,z), G(z,x) — cyclic, WCOJ territory.
TRIANGLE_QUERY = "project[1,2]((E join[2=1] F) join[4=1,1=2] G)"

MIXED_QUERIES = (
    DIVISION_QUERY,
    *SEMIJOIN_QUERIES,
    *JOIN_QUERIES,
)


def _cache_hostile_queries(count: int) -> tuple[str, ...]:
    # Structurally distinct expressions and plans (different join
    # conditions, selections, and projections), so no result cache —
    # the server's door or a session's — ever serves a repeat until
    # the shapes recycle.
    shapes = [
        f"project[{projection}](select[{selection}](T) {join} U)"
        for join in ("join[2=1]", "join[1=1]", "join[2=2]")
        for projection in ("1", "2", "3", "4", "1,2", "2,3", "1,4")
        for selection in ("1=2", "1!=2", "1<2", "1>2")
    ]
    return tuple(shapes[i % len(shapes)] for i in range(count))


#: The writer's flip-flop deltas: rows far outside the generated key
#: range, so they never collide with seeded data.
_WRITE_ROWS = [[900_001, 1_000_000], [900_002, 1_000_001]]
MUTATION_WRITES = (
    ({"R": _WRITE_ROWS}, {}),
    ({}, {"R": _WRITE_ROWS}),
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def _streams(
    queries, tenants: int, reads: int, **kwargs
) -> tuple[StreamSpec, ...]:
    return tuple(
        StreamSpec(
            tenant=f"t{i}", queries=tuple(queries), count=reads, **kwargs
        )
        for i in range(tenants)
    )


def mixed_read_heavy(
    reads: int = 24, tenants: int = 4, oracle: bool = False
) -> ScenarioSpec:
    return ScenarioSpec(
        name="mixed_read_heavy",
        database="mixed",
        streams=_streams(MIXED_QUERIES, tenants, reads),
        oracle=oracle,
    )


def division_heavy(
    reads: int = 16, tenants: int = 3, oracle: bool = False
) -> ScenarioSpec:
    return ScenarioSpec(
        name="division_heavy",
        database="division",
        streams=_streams((DIVISION_QUERY,), tenants, reads),
        oracle=oracle,
    )


def semijoin_only(
    reads: int = 24, tenants: int = 3, oracle: bool = False
) -> ScenarioSpec:
    return ScenarioSpec(
        name="semijoin_only",
        database="division",
        streams=_streams(SEMIJOIN_QUERIES, tenants, reads),
        oracle=oracle,
    )


def cyclic(
    reads: int = 12, tenants: int = 2, oracle: bool = False
) -> ScenarioSpec:
    return ScenarioSpec(
        name="cyclic",
        database="triangle",
        streams=_streams((TRIANGLE_QUERY,), tenants, reads),
        oracle=oracle,
    )


def cache_hostile(
    reads: int = 24, tenants: int = 3, oracle: bool = False
) -> ScenarioSpec:
    # Disjoint query slices per tenant: the door cache is shared by all
    # tenants, so overlapping slices would hit (or ride) across them.
    pool = _cache_hostile_queries(reads * tenants)
    streams = tuple(
        StreamSpec(
            tenant=f"t{i}",
            queries=pool[i * reads : (i + 1) * reads],
            count=reads,
        )
        for i in range(tenants)
    )
    return ScenarioSpec(
        name="cache_hostile", database="mixed", streams=streams,
        oracle=oracle,
    )


def mutation_heavy(
    reads: int = 20, tenants: int = 3, oracle: bool = False
) -> ScenarioSpec:
    readers = _streams(MIXED_QUERIES, tenants - 1, reads)
    writer = StreamSpec(
        tenant="writer",
        queries=SEMIJOIN_QUERIES,
        count=reads,
        write_every=2,
        writes=MUTATION_WRITES,
    )
    return ScenarioSpec(
        name="mutation_heavy",
        database="mixed",
        streams=(*readers, writer),
        oracle=oracle,
    )


SERVING_SCENARIOS = {
    "mixed_read_heavy": mixed_read_heavy,
    "division_heavy": division_heavy,
    "semijoin_only": semijoin_only,
    "cyclic": cyclic,
    "cache_hostile": cache_hostile,
    "mutation_heavy": mutation_heavy,
}


def scenario(name: str, **kwargs) -> ScenarioSpec:
    """Build a named scenario (``repro serve --scenario``)."""
    try:
        builder = SERVING_SCENARIOS[name]
    except KeyError:
        raise SchemaError(
            f"unknown serving scenario {name!r}; expected one of "
            f"{sorted(SERVING_SCENARIOS)}"
        ) from None
    return builder(**kwargs)
