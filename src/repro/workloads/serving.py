"""Serving traffic: database recipes, query mixes and write deltas.

The data that perfbench's ``serve_*`` workloads and the serving tests
and benchmarks (``tests/serving_lab.py``, ``benchmarks/test_serving.py``)
share — three seeded database recipes behind :func:`build_database`,
the query texts each traffic mix cycles through, and the writer's
flip-flop deltas.  It describes traffic only; nothing here runs it.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.workloads.generators import (
    division_database,
    random_database,
    zipf_triangle_db,
)

__all__ = [
    "DATABASE_BUILDERS",
    "DIVISION_QUERY",
    "JOIN_QUERIES",
    "MIXED_QUERIES",
    "MUTATION_WRITES",
    "SEMIJOIN_QUERIES",
    "TRIANGLE_QUERY",
    "build_database",
]


# ----------------------------------------------------------------------
# Database recipes
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
    """Build the database recipe ``name`` (a :data:`DATABASE_BUILDERS` key)."""
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
