"""Shared hypothesis strategies and fixtures for the test suite.

Provides random databases over a small fixed schema and random RA/SA
expressions with controllable fragment restrictions (equi-only,
semijoin-only, constant usage).  Arities are kept small so that the
brute-force oracles stay fast.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.algebra.ast import (
    ConstantTag,
    Difference,
    Expr,
    Join,
    Projection,
    Rel,
    Selection,
    Semijoin,
    Union,
)
from repro.algebra.conditions import Atom, Condition
from repro.data.database import Database
from repro.data.schema import Schema
from repro.session import Session

#: The standard test schema: a binary, a unary and a ternary relation.
TEST_SCHEMA = Schema({"R": 2, "S": 1, "T": 3})

#: Ullman's beer-drinkers schema (Example 3 / Fig. 6).
BEER_SCHEMA = Schema({"Likes": 2, "Serves": 2, "Visits": 2})

#: Values drawn for random databases; deliberately tiny so joins collide.
VALUES = st.integers(min_value=0, max_value=7)

#: Constants available for ``τ_c`` in random expressions.
TEST_CONSTANTS = (0, 5)

#: The arity cap for random expressions (joins double arities fast).
MAX_ARITY = 6


def engine_run(expr: Expr, db: Database, options=None):
    """One engine run of ``expr`` on a fresh, result-cache-off Session."""
    return Session(db, options, cache_results=False).run(expr)


def rows(arity: int, max_rows: int = 6) -> st.SearchStrategy:
    """Sets of random tuples of the given arity."""
    return st.frozensets(
        st.tuples(*([VALUES] * arity)), min_size=0, max_size=max_rows
    )


@st.composite
def databases(draw, schema: Schema = TEST_SCHEMA, max_rows: int = 6) -> Database:
    """Random databases over ``schema``."""
    relations = {
        name: draw(rows(schema[name], max_rows)) for name in schema
    }
    return Database(schema, relations)


@st.composite
def conditions(
    draw,
    left_arity: int,
    right_arity: int,
    equi_only: bool = False,
    max_atoms: int = 2,
) -> Condition:
    """Random join/semijoin conditions within the given arities."""
    ops = ["="] if equi_only else ["=", "!=", "<", ">"]
    count = draw(st.integers(min_value=0, max_value=max_atoms))
    atoms = tuple(
        Atom(
            draw(st.integers(1, left_arity)),
            draw(st.sampled_from(ops)),
            draw(st.integers(1, right_arity)),
        )
        for _ in range(count)
    )
    return Condition(atoms)


def _fit_arity(expr: Expr, target: int) -> Expr:
    """Project/pad an expression to exactly ``target`` columns.

    Used to align the operands of random unions/differences.  Padding
    repeats the first column; shrinking keeps a prefix.  This changes
    the query, not its well-formedness — fine for random testing.
    """
    if expr.arity == target:
        return expr
    if expr.arity > target:
        return Projection(expr, tuple(range(1, target + 1)))
    positions = tuple(range(1, expr.arity + 1)) + tuple(
        [1] * (target - expr.arity)
    )
    return Projection(expr, positions)


@st.composite
def expressions(
    draw,
    schema: Schema = TEST_SCHEMA,
    max_depth: int = 4,
    equi_only: bool = False,
    allow_join: bool = True,
    allow_semijoin: bool = True,
    allow_order: bool = True,
    constants: tuple = TEST_CONSTANTS,
) -> Expr:
    """Random well-formed expressions over ``schema``.

    ``allow_join=False`` yields SA expressions; additionally
    ``equi_only=True`` yields SA= (the fragment of Theorem 8).
    """
    if max_depth <= 1:
        name = draw(st.sampled_from(sorted(schema)))
        return Rel(name, schema[name])

    choices = ["rel", "union", "difference", "projection", "selection"]
    if constants:
        choices.append("tag")
    if allow_join:
        choices.append("join")
    if allow_semijoin:
        choices.append("semijoin")
    kind = draw(st.sampled_from(choices))
    recurse = lambda: draw(  # noqa: E731 - local shorthand
        expressions(
            schema=schema,
            max_depth=max_depth - 1,
            equi_only=equi_only,
            allow_join=allow_join,
            allow_semijoin=allow_semijoin,
            allow_order=allow_order,
            constants=constants,
        )
    )

    if kind == "rel":
        name = draw(st.sampled_from(sorted(schema)))
        return Rel(name, schema[name])
    if kind in ("union", "difference"):
        left = recurse()
        right = _fit_arity(recurse(), left.arity)
        return Union(left, right) if kind == "union" else Difference(
            left, right
        )
    if kind == "projection":
        child = recurse()
        width = draw(st.integers(min_value=1, max_value=child.arity))
        positions = tuple(
            draw(st.integers(1, child.arity)) for _ in range(width)
        )
        return Projection(child, positions)
    if kind == "selection":
        child = recurse()
        op = draw(st.sampled_from(["=", "<"] if allow_order else ["="]))
        i = draw(st.integers(1, child.arity))
        j = draw(st.integers(1, child.arity))
        return Selection(child, op, i, j)
    if kind == "tag":
        child = recurse()
        if child.arity >= MAX_ARITY:
            child = _fit_arity(child, MAX_ARITY - 1)
        return ConstantTag(child, draw(st.sampled_from(constants)))
    # join / semijoin
    left = recurse()
    right = recurse()
    if kind == "join" and left.arity + right.arity > MAX_ARITY:
        left = _fit_arity(left, max(1, MAX_ARITY // 2))
        right = _fit_arity(right, max(1, MAX_ARITY - left.arity))
    cond = draw(
        conditions(
            left.arity,
            right.arity,
            equi_only=equi_only or not allow_order,
        )
    )
    if kind == "join":
        return Join(left, right, cond)
    return Semijoin(left, right, cond)


@st.composite
def dense_databases(
    draw,
    schema: Schema = TEST_SCHEMA,
    max_rows: int = 32,
    domain: int = 15,
) -> Database:
    """Denser random databases for estimator-quality tests.

    The default :func:`databases` strategy keeps relations tiny (≤ 6
    rows) so brute-force oracles stay fast; cardinality estimation is
    only interesting when relations differ in size and values collide,
    hence the wider row budget and value domain here.
    """
    values = st.integers(min_value=0, max_value=domain)
    relations = {
        name: draw(
            st.frozensets(
                st.tuples(*([values] * schema[name])),
                min_size=0,
                max_size=max_rows,
            )
        )
        for name in schema
    }
    return Database(schema, relations)


@st.composite
def join_chains(
    draw,
    schema: Schema = TEST_SCHEMA,
    min_leaves: int = 3,
    max_leaves: int = 4,
) -> Expr:
    """Random ≥3-way join chains — the cost-based reordering workload.

    Leaves are base relations (kept narrow so the joined arity stays
    within :data:`MAX_ARITY`), the tree shape is random (left-deep or
    bushy), and every join draws a random condition over the full
    operand arities, so chains mix equality atoms, order atoms, and
    cartesian steps.
    """
    count = draw(st.integers(min_leaves, max_leaves))
    narrow = [name for name in sorted(schema) if schema[name] <= 2]
    parts: list[Expr] = [
        Rel(name, schema[name])
        for name in (
            draw(st.sampled_from(narrow)) for _ in range(count)
        )
    ]
    while len(parts) > 1:
        index = draw(st.integers(0, len(parts) - 2))
        left, right = parts[index], parts.pop(index + 1)
        over = left.arity + right.arity - MAX_ARITY
        if over > 0 and left.arity >= right.arity:
            left = _fit_arity(left, left.arity - over)
        elif over > 0:  # never shrink the narrower side to nothing
            right = _fit_arity(right, right.arity - over)
        cond = draw(conditions(left.arity, right.arity))
        parts[index] = Join(left, right, cond)
    return parts[0]


#: Schema for cyclic join queries: four binary edge relations, enough
#: for triangles, 4-cycles and bowties (leaves may repeat — self-joins).
CYCLE_SCHEMA = Schema({"E": 2, "F": 2, "G": 2, "H": 2})

#: Zipf-ish value pool: value ``v`` appears ``⌊8/(v+1)⌋`` times, so low
#: values are heavy hitters and cyclic joins develop the skewed hubs
#: that separate binary intermediates from the AGM bound.
ZIPF_POOL = tuple(v for v in range(8) for _ in range(8 // (v + 1)))


def cycle_expr(names, schema: Schema = CYCLE_SCHEMA) -> Expr:
    """A k-cycle query over binary edge relations, as a left-deep chain.

    ``names[i]`` holds edge ``(v_i, v_{i+1})`` and the last relation
    closes the cycle back to ``v_0``: the triangle ``E(a,b) ⋈ F(b,c) ⋈
    G(c,a)`` is ``cycle_expr(("E", "F", "G"))``.  Written with binary
    joins (chain atoms plus one closing atom), exactly the shape the
    planner may collapse into a ``MultiwayJoinOp``.
    """
    acc: Expr = Rel(names[0], schema[names[0]])
    last = len(names) - 1
    for i, name in enumerate(names[1:], start=1):
        atoms = [Atom(2 * i, "=", 1)]
        if i == last:
            atoms.append(Atom(1, "=", 2))
        acc = Join(acc, Rel(name, schema[name]), Condition(tuple(atoms)))
    return acc


def bowtie_expr(schema: Schema = CYCLE_SCHEMA) -> Expr:
    """Two triangles sharing one vertex: 6 leaves, 2 of them self-joins.

    Vertices ``a,b,c,d,e`` with triangle ``E(a,b) F(b,c) G(c,a)`` and
    triangle ``H(a,d) E(d,e) F(e,a)`` — the classic bowtie, whose join
    hypergraph is cyclic but not a single cycle.
    """
    acc = cycle_expr(("E", "F", "G"), schema)
    acc = Join(
        acc, Rel("H", schema["H"]), Condition((Atom(1, "=", 1),))
    )
    acc = Join(
        acc, Rel("E", schema["E"]), Condition((Atom(8, "=", 1),))
    )
    return Join(
        acc,
        Rel("F", schema["F"]),
        Condition((Atom(10, "=", 1), Atom(1, "=", 2))),
    )


@st.composite
def cyclic_joins(draw, schema: Schema = CYCLE_SCHEMA) -> Expr:
    """Random cyclic equi-join queries (the multiway-join workload).

    Triangles and 4-cycles over random edge relations, triangles
    joining one relation to itself three times (self-join cycles — the
    three leaves share statistics *and* trie builds), and the bowtie.
    """
    kind = draw(
        st.sampled_from(("triangle", "four_cycle", "self_join", "bowtie"))
    )
    names = sorted(schema)
    if kind == "triangle":
        picked = draw(st.permutations(names))
        return cycle_expr(tuple(picked[:3]), schema)
    if kind == "four_cycle":
        return cycle_expr(tuple(draw(st.permutations(names))), schema)
    if kind == "self_join":
        name = draw(st.sampled_from(names))
        return cycle_expr((name, name, name), schema)
    return bowtie_expr(schema)


@st.composite
def projected_cyclic_joins(draw, schema: Schema = CYCLE_SCHEMA) -> Expr:
    """Projections of :func:`cyclic_joins` — the absorbed-projection
    workload: random position tuples, possibly empty, with repeated
    positions and with two columns of one variable (the first and the
    last column of every cycle and of the bowtie hold the same vertex,
    ``π_{1,6}`` of the triangle is ``(a, a)``)."""
    expr = draw(cyclic_joins(schema))
    positions = draw(st.lists(st.integers(1, expr.arity), max_size=4))
    if draw(st.booleans()):
        positions += [1, expr.arity]
    if positions and draw(st.booleans()):
        positions.append(draw(st.sampled_from(positions)))
    return Projection(expr, tuple(positions))


@st.composite
def skewed_databases(
    draw, schema: Schema = CYCLE_SCHEMA, max_rows: int = 12
) -> Database:
    """Random databases with Zipf-skewed columns (see :data:`ZIPF_POOL`).

    Uniform tiny domains rarely produce the hub vertices that make
    cyclic queries adversarial for binary plans; sampling values from
    the skewed pool does.
    """
    values = st.sampled_from(ZIPF_POOL)
    relations = {
        name: draw(
            st.frozensets(
                st.tuples(*([values] * schema[name])),
                min_size=0,
                max_size=max_rows,
            )
        )
        for name in schema
    }
    return Database(schema, relations)


def sa_eq_expressions(
    schema: Schema = TEST_SCHEMA,
    max_depth: int = 4,
    constants: tuple = TEST_CONSTANTS,
) -> st.SearchStrategy:
    """Random SA= expressions (no joins, equi-semijoins, no order)."""
    return expressions(
        schema=schema,
        max_depth=max_depth,
        equi_only=True,
        allow_join=False,
        allow_semijoin=True,
        allow_order=False,
        constants=constants,
    )


def ra_expressions(
    schema: Schema = TEST_SCHEMA,
    max_depth: int = 4,
    constants: tuple = TEST_CONSTANTS,
) -> st.SearchStrategy:
    """Random RA expressions (joins, no semijoins, full conditions)."""
    return expressions(
        schema=schema,
        max_depth=max_depth,
        allow_join=True,
        allow_semijoin=False,
        constants=constants,
    )
