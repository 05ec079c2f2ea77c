"""The paper's six figures as constructible data.

Single source of truth for the figure instances, shared by the
paper-claims suite under ``benchmarks/``, the test suite and the
examples, plus :func:`format_table`, which the examples print with.
"""

from __future__ import annotations

from repro.algebra.ast import Join, Rel, Semijoin
from repro.bisim.partial_iso import PartialIso
from repro.core.blowup import BlowupWitness
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.data.universe import RATIONALS, Universe


def fig1_database() -> Database:
    """Fig. 1: Person/Disease/Symptoms (the medical motivating example)."""
    return database(
        {"Person": 2, "Disease": 2, "Symptoms": 1},
        Person=[
            ("An", "headache"),
            ("An", "sore throat"),
            ("An", "neck pain"),
            ("Bob", "headache"),
            ("Bob", "sore throat"),
            ("Bob", "memory loss"),
            ("Bob", "neck pain"),
            ("Carol", "headache"),
        ],
        Disease=[
            ("flu", "headache"),
            ("flu", "sore throat"),
            ("Lyme", "headache"),
            ("Lyme", "sore throat"),
            ("Lyme", "memory loss"),
            ("Lyme", "neck pain"),
        ],
        Symptoms=[("headache",), ("neck pain",)],
    )


#: Fig. 1's printed results.
FIG1_CONTAINMENT_JOIN = frozenset(
    {("An", "flu"), ("Bob", "flu"), ("Bob", "Lyme")}
)
FIG1_DIVISION = frozenset({"An", "Bob"})


def fig2_database() -> Database:
    """Fig. 2: the C-stored tuple example (R, S ternary; T binary)."""
    return database(
        {"R": 3, "S": 3, "T": 2},
        R=[("a", "b", "c"), ("d", "e", "f")],
        S=[("d", "a", "b")],
        T=[("e", "a"), ("f", "c")],
    )


def fig3_databases() -> tuple[Database, Database]:
    """Fig. 3: the guarded-bisimulation example."""
    a = database(
        {"R": 2, "S": 2, "T": 2},
        R=[(1, 2), (2, 3)],
        S=[(1, 2)],
        T=[(2, 3)],
    )
    b = database(
        {"R": 2, "S": 2, "T": 2},
        R=[(6, 7), (7, 8), (9, 10), (10, 11)],
        S=[(6, 7), (9, 10)],
        T=[(7, 8), (10, 11)],
    )
    return a, b


def fig3_bisimulation() -> list[PartialIso]:
    """Example 12's explicit ∅-guarded bisimulation."""
    return [
        PartialIso.from_tuples((1, 2), (6, 7)),
        PartialIso.from_tuples((2, 3), (7, 8)),
        PartialIso.from_tuples((1, 2), (9, 10)),
        PartialIso.from_tuples((2, 3), (10, 11)),
    ]


def fig4_database() -> Database:
    """Fig. 4: the Lemma 24 running example's seed database D."""
    return database(
        {"R": 3, "S": 3, "T": 2},
        R=[(1, 2, 3), (8, 9, 10)],
        S=[(3, 4, 5)],
        T=[(6, 1), (4, 7)],
    )


def fig4_expression() -> Join:
    """``E = (R ⋉_{1=2} T) ⋈_{3=1} (S ⋉_{2=1} T)``."""
    e1 = Semijoin(Rel("R", 3), Rel("T", 2), "1=2")
    e2 = Semijoin(Rel("S", 3), Rel("T", 2), "2=1")
    return Join(e1, e2, "3=1")


def fig4_witness(universe: Universe = RATIONALS) -> BlowupWitness:
    """The Fig. 4 witness (ā = (1,2,3), b̄ = (3,4,5))."""
    return BlowupWitness(
        join=fig4_expression(),
        db=fig4_database(),
        left_tuple=(1, 2, 3),
        right_tuple=(3, 4, 5),
        constants=(),
        universe=universe,
    )


def fig5_databases() -> tuple[Database, Database]:
    """Fig. 5: the division-inexpressibility witness pair."""
    a = database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 7), (2, 8)],
        S=[(7,), (8,)],
    )
    b = database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 8), (2, 9), (3, 7), (3, 9)],
        S=[(7,), (8,), (9,)],
    )
    return a, b


def fig5_bisimulation() -> list[PartialIso]:
    """The paper's set I = {1→1} ∪ {ā→b̄ over R} ∪ {ā→b̄ over S}."""
    a, b = fig5_databases()
    pool = [PartialIso.from_tuples((1,), (1,))]
    for source in sorted(a["R"]):
        for target in sorted(b["R"]):
            pool.append(PartialIso.from_tuples(source, target))
    for source in sorted(a["S"]):
        for target in sorted(b["S"]):
            pool.append(PartialIso.from_tuples(source, target))
    return pool


def fig5_setjoin_databases() -> tuple[Database, Database]:
    """The set-join version of Proposition 26's witness.

    The paper: "just insert a column into relation S (this will be the
    first column of the new relation), with always the same value 4" —
    turning the divisor into a set relation ``S'(C, D)`` with a single
    C-key 4, so the set-containment join ``R ⋈_{B⊇D} S'`` is nonempty
    on A and empty on B while the bisimulation survives.
    """
    a, b = fig5_databases()
    schema = Schema({"R": 2, "S": 2})
    new_a = Database(
        schema,
        {"R": a["R"], "S": {(4, s) for (s,) in a["S"]}},
    )
    new_b = Database(
        schema,
        {"R": b["R"], "S": {(4, s) for (s,) in b["S"]}},
    )
    return new_a, new_b


def fig5_setjoin_bisimulation() -> list[PartialIso]:
    """The paper's I, lifted to the widened S' (still a bisimulation)."""
    from repro.bisim.partial_iso import tuple_map

    a, b = fig5_setjoin_databases()
    pool = [PartialIso.from_tuples((1,), (1,))]
    for name in ("R", "S"):
        for source in sorted(a[name]):
            for target in sorted(b[name]):
                iso = tuple_map(source, target)
                if iso is not None:
                    pool.append(iso)
    return pool


BEER_SCHEMA = Schema({"Visits": 2, "Serves": 2, "Likes": 2})


def fig6_databases() -> tuple[Database, Database]:
    """Fig. 6: the beer-drinkers witness pair (string universe)."""
    a = database(
        BEER_SCHEMA,
        Visits=[("alex", "pareto bar")],
        Serves=[("pareto bar", "westmalle")],
        Likes=[("alex", "westmalle")],
    )
    b = database(
        BEER_SCHEMA,
        Visits=[("alex", "pareto bar"), ("bart", "qwerty bar")],
        Serves=[
            ("pareto bar", "westmalle"),
            ("qwerty bar", "westvleteren"),
        ],
        Likes=[("alex", "westvleteren"), ("bart", "westmalle")],
    )
    return a, b


def fig6_bisimulation() -> list[PartialIso]:
    """The paper's I = {alex→alex} ∪ tuple maps per relation."""
    from repro.bisim.partial_iso import tuple_map

    a, b = fig6_databases()
    pool = [PartialIso((("alex", "alex"),))]
    for name in BEER_SCHEMA:
        for source in sorted(a[name]):
            for target in sorted(b[name]):
                iso = tuple_map(source, target)
                if iso is not None:
                    pool.append(iso)
    return pool


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """A minimal aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells)
        for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(cells):
        lines.append(
            "  ".join(value.ljust(width) for value, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
