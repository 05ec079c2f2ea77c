"""Worst-case-optimal multiway join: differential correctness + gate.

The contract under test (see ``docs/algorithms.md`` § Worst-case-
optimal joins):

* the generic join computes exactly what the binary engine and the
  structural oracle compute, on random cyclic queries over Zipf-skewed
  databases (differential property);
* its materialization is bounded: the rows a ``MultiwayJoinOp`` emits
  never exceed the AGM fractional-edge-cover bound the planner stamped
  on the node (soundness property, read from the per-run
  :class:`~repro.engine.wcoj.WcojRun` records);
* the planner collapses a chain iff the AGM bound *certifiably* beats
  the best binary plan's peak intermediate bound — dense cyclic inputs
  collapse, selective chains stay binary, ``use_multiway=False`` and
  zero-stats planning never collapse;
* trie builds ride the executor's :class:`~repro.engine.executor.
  IndexCache`: repeated runs reuse them, a contents mutation (version
  token) invalidates them along with everything else;
* a set partition budget keeps the collapse out whenever the one-shot
  working set could exceed it, and ``PartitionedOp`` refuses to wrap
  the operator outright;
* a projection over a collapsed chain is absorbed: only its free
  variables are enumerated, the rest decided at their first witness,
  under the AGM bound of the free variables — same rows as the oracle,
  output within that bound, counters equal to an interpretive
  reference's — also where a two-participant closing depth runs inside
  the step above it, as it does for every projected triangle.
"""

import gc
import math
import operator
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.ast import Join, Projection, Rel
from repro.algebra.conditions import Atom, Condition
from repro.algebra.evaluator import evaluate
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.engine import (
    Executor,
    MultiwayJoinOp,
    PartitionedOp,
    PlannerOptions,
    StatsCatalog,
    fractional_edge_cover,
    wcoj,
)
from repro.engine.cost import CostModel, multiway_bound
from repro.engine.partition import apply_partitioning
from repro.engine.plan import ScanOp
from repro.engine.planner import _flatten_logical_join, explain
from repro.engine.stats import (
    MCV_SIZE,
    ColumnStats,
    RelationStats,
    relation_stats,
)
from repro.engine.wcoj import (
    build_trie,
    choose_order,
    generic_join,
    leaf_trie_layout,
    variable_layout,
)
from repro.errors import SchemaError
from repro.session import Session
from repro.workloads.generators import zipf_triangle_db
from tests.strategies import (
    CYCLE_SCHEMA,
    bowtie_expr,
    cycle_expr,
    cyclic_joins,
    projected_cyclic_joins,
    skewed_databases,
)

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def hub_db(m: int, schema: Schema = CYCLE_SCHEMA) -> Database:
    """Edge relations with one hub vertex — the adversarial triangle.

    Every relation is ``{(i,0)} ∪ {(0,i)} ∪ {(0,0)}``: a binary plan's
    first join pairs all wings through the hub (Θ(m²) intermediate)
    while the triangle output is only ``3m+1`` rows and the AGM bound
    ``(2m+1)^{3/2}``.
    """
    edge = frozenset(
        {(i, 0) for i in range(1, m + 1)}
        | {(0, i) for i in range(1, m + 1)}
        | {(0, 0)}
    )
    return Database(schema, {name: edge for name in schema})


def collapsed(expr, db: Database) -> MultiwayJoinOp:
    """Hand-collapse ``expr``'s join chain into a ``MultiwayJoinOp``.

    Bypasses the planner's profitability gate so the differential and
    soundness properties exercise the operator on *every* generated
    query, not only the ones the gate favors.
    """
    leaves, __, atoms = _flatten_logical_join(expr)
    plans = tuple(ScanOp(leaf) for leaf in leaves)
    attrs = variable_layout([leaf.arity for leaf in leaves], atoms)
    catalog = StatsCatalog(db)
    cards = [float(catalog.relation(leaf.name).rows) for leaf in leaves]
    agm, __ = fractional_edge_cover(
        [frozenset(row) for row in attrs], cards
    )
    return MultiwayJoinOp(
        plans, attrs, choose_order(attrs, cards), agm, expr
    )


def projected(expr: Projection, db: Database) -> MultiwayJoinOp:
    """Hand-collapse a projected chain the way the planner absorbs it:
    free variables first, stamped with their own AGM bound."""
    join = collapsed(expr.child, db)
    flat = [v for row in join.attrs for v in row]
    free = {flat[p - 1] for p in expr.positions}
    cards = [float(len(db[leaf.expr.name])) for leaf in join.relations]
    agm, __ = multiway_bound(join.attrs, cards, free)
    return MultiwayJoinOp(
        join.relations,
        join.attrs,
        choose_order(join.attrs, cards, free),
        agm,
        expr,
        positions=expr.positions,
    )


def multiway_nodes(plan):
    found, stack = [], [plan]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if isinstance(node, MultiwayJoinOp):
            found.append(node)
    return found


# ----------------------------------------------------------------------
# Differential properties: multiway ≡ binary ≡ structural oracle
# ----------------------------------------------------------------------


@PROPERTY
@given(cyclic_joins(), skewed_databases())
def test_multiway_operator_matches_oracle(expr, db):
    """Forced generic join ≡ brute-force structural evaluation."""
    oracle = evaluate(expr, db)
    executor = Executor(db)
    assert executor.execute(collapsed(expr, db)) == oracle


@PROPERTY
@given(cyclic_joins(), skewed_databases())
def test_planned_engine_matches_binary_and_oracle(expr, db):
    """Whatever the gate decides, all three evaluations agree."""
    oracle = evaluate(expr, db)
    multi = Executor(db)
    assert multi.execute(multi.plan(expr)) == oracle
    binary = Executor(db)
    options = PlannerOptions(use_multiway=False)
    plan = binary.plan(expr, options)
    assert not multiway_nodes(plan)
    assert binary.execute(plan) == oracle


# ----------------------------------------------------------------------
# Soundness: materialization within the certified AGM bound
# ----------------------------------------------------------------------


@PROPERTY
@given(cyclic_joins(), skewed_databases())
def test_output_within_agm_bound(expr, db):
    executor = Executor(db)
    node = collapsed(expr, db)
    result = executor.execute(node)
    run = executor.stats.wcoj_runs[node]
    assert run.output_rows == len(result)
    assert run.output_rows <= run.agm + 1e-9, (
        f"generic join emitted {run.output_rows} rows against a "
        f"certified AGM bound of {run.agm}"
    )
    # The operator's whole working set is inputs + certified output.
    inputs = sum(
        executor.stats.node_rows[child] for child in node.relations
    )
    assert executor.stats.max_in_flight() <= inputs + run.agm + 1e-9


@PROPERTY
@given(cyclic_joins(), skewed_databases())
def test_estimates_stay_sound_upper_bounds(expr, db):
    executor = Executor(db)
    executor.execute(executor.plan(expr))
    pairs = executor.stats.estimation_pairs()
    assert pairs
    for node, actual, estimate in pairs:
        assert math.isfinite(estimate.upper), node.label()
        assert actual <= estimate.upper + 1e-9, node.label()


# ----------------------------------------------------------------------
# Absorbed projections: free prefix enumerated, the rest witnessed
# ----------------------------------------------------------------------


@PROPERTY
@given(projected_cyclic_joins(), skewed_databases())
def test_projected_operator_matches_oracle_within_its_bound(expr, db):
    """Forced projected generic join ≡ the structural evaluator, and
    its output stays within the free variables' AGM bound and the cost
    model's sound upper bound."""
    executor = Executor(db)
    node = projected(expr, db)
    result = executor.execute(node)
    assert result == evaluate(expr, db)
    run = executor.stats.wcoj_runs[node]
    assert run.free == node.free
    assert run.output_rows == len(result) <= run.agm + 1e-9
    estimate = CostModel(StatsCatalog(db)).estimate(node)
    assert len(result) <= estimate.upper + 1e-9


@PROPERTY
@given(projected_cyclic_joins(), skewed_databases())
def test_projected_plan_matches_binary_and_oracle(expr, db):
    oracle = evaluate(expr, db)
    multi = Executor(db)
    assert multi.execute(multi.plan(expr)) == oracle
    for run in multi.stats.wcoj_runs.values():
        assert run.output_rows <= run.agm + 1e-9
    for node, actual, estimate in multi.stats.estimation_pairs():
        assert math.isfinite(estimate.upper), node.label()
        assert actual <= estimate.upper + 1e-9, node.label()
    binary = Executor(db)
    plan = binary.plan(expr, PlannerOptions(use_multiway=False))
    assert not multiway_nodes(plan)
    assert binary.execute(plan) == oracle


class TestAbsorbedProjection:
    def test_triangle_edge_projection_is_guarded_by_its_edge(self):
        db = hub_db(40)
        expr = Projection(cycle_expr(("E", "F", "G")), (1, 2))
        executor = Executor(db)
        plan = executor.plan(expr)
        assert isinstance(plan, MultiwayJoinOp)
        assert plan.positions == (1, 2) and plan.logical == expr
        assert plan.label() == (
            "MultiwayJoin[vars=0>1|2,agm=81,project=1,2]"
        )
        assert "projection absorbed: 2 of 3 variables" in plan.note
        assert executor.execute(plan) == evaluate(expr, db)
        run = executor.stats.wcoj_runs[plan]
        assert (run.free, run.agm) == (2, 81.0)
        assert run.output_rows == len(db["E"])
        assert "free=2" in run.render()

    def test_one_variable_twice_and_no_variable_at_all(self):
        db = hub_db(6)
        triangle = cycle_expr(("E", "F", "G"))
        executor = Executor(db)
        twice = executor.plan(Projection(triangle, (1, 6)))
        assert twice.free == 1
        rows = executor.execute(twice)
        assert rows and all(a == b for a, b in rows)
        assert rows == evaluate(Projection(triangle, (1, 6)), db)
        nothing = executor.plan(Projection(triangle, ()))
        assert (nothing.free, nothing.agm) == (0, 1.0)
        assert executor.execute(nothing) == frozenset({()})

    def test_unprojected_order_and_plans_are_unchanged(self):
        attrs = ((0, 1), (1, 2), (2, 0))
        assert choose_order(attrs, [5.0, 3.0, 4.0], (0, 1, 2)) == (
            choose_order(attrs, [5.0, 3.0, 4.0])
        )
        assert choose_order(attrs, [5.0, 3.0, 4.0], (2,))[0] == 2
        db = hub_db(40)
        plan = Executor(db).plan(cycle_expr(("E", "F", "G")))
        assert plan.positions is None and plan.free == 3
        assert "|" not in plan.label() and "project=" not in plan.label()

    def test_order_must_put_projected_variables_first(self):
        node = projected(
            Projection(cycle_expr(("E", "F", "G")), (3,)), hub_db(4)
        )
        assert node.order[0] == 1
        with pytest.raises(SchemaError):
            MultiwayJoinOp(
                node.relations,
                node.attrs,
                (0, 1, 2),
                node.agm,
                node.expr,
                positions=node.positions,
            )

    def test_two_wirings_of_one_chain_never_share_a_fingerprint(self):
        # Same inputs, order and bound, different variable layout: the
        # label alone would let the result cache serve one for the other.
        db = hub_db(6)
        db._relations = {**db._relations, "G": frozenset({(1, 0), (0, 5)})}
        triangle = cycle_expr(("E", "F", "G"))
        wired = Join(
            triangle.left,
            Rel("G", 2),
            Condition((Atom(4, "=", 2), Atom(1, "=", 1))),
        )
        first, second = collapsed(triangle, db), collapsed(wired, db)
        assert first.label() == second.label()
        assert first.fingerprint() != second.fingerprint()
        with Session(db) as session:
            for expr in (triangle, wired):
                assert session.run(expr) == evaluate(expr, db)


# ----------------------------------------------------------------------
# Plan choice: when the gate collapses, and when it must not
# ----------------------------------------------------------------------


class TestPlanChoice:
    def test_dense_triangle_collapses(self):
        db = hub_db(40)
        executor = Executor(db)
        plan = executor.plan(cycle_expr(("E", "F", "G")))
        nodes = multiway_nodes(plan)
        assert len(nodes) == 1
        node = nodes[0]
        assert "AGM bound" in node.note
        assert node.agm == pytest.approx(81.0**1.5)
        # And it runs: oracle-identical, within the bound.
        expr = cycle_expr(("E", "F", "G"))
        assert executor.execute(plan) == evaluate(expr, db)
        run = executor.stats.wcoj_runs[node]
        assert run.output_rows == 3 * 40 + 1
        assert run.output_rows <= run.agm

    def test_selective_middle_chain_stays_binary(self):
        # Acyclic chain with a 1-row middle: every binary intermediate
        # is tiny while the AGM bound is |E|·|G| — nothing to beat.
        db = database(
            {"E": 2, "F": 2, "G": 2},
            E=[(i, i) for i in range(20)],
            F=[(0, 0)],
            G=[(i, i) for i in range(20)],
        )
        chain = Join(
            Join(
                Rel("E", 2), Rel("F", 2), Condition((Atom(2, "=", 1),))
            ),
            Rel("G", 2),
            Condition((Atom(4, "=", 1),)),
        )
        plan = Executor(db).plan(chain)
        assert not multiway_nodes(plan)

    def test_zero_stats_planning_keeps_binary(self):
        from repro.engine import plan_expression

        plan = plan_expression(cycle_expr(("E", "F", "G")))
        assert not multiway_nodes(plan)

    def test_use_multiway_false_keeps_binary(self):
        db = hub_db(40)
        options = PlannerOptions(use_multiway=False)
        plan = Executor(db).plan(cycle_expr(("E", "F", "G")), options)
        assert not multiway_nodes(plan)
        rendered = explain(
            cycle_expr(("E", "F", "G")),
            options=options,
            plan=plan,
        )
        assert "MultiwayJoin" not in rendered

    def test_non_equality_atom_keeps_binary(self):
        db = hub_db(12)
        cyclic = cycle_expr(("E", "F", "G"))
        ordered = Join(
            cyclic.left, cyclic.right, Condition(
                tuple(cyclic.cond) + (Atom(2, "<", 2),)
            )
        )
        plan = Executor(db).plan(ordered)
        assert not multiway_nodes(plan)

    def test_bowtie_collapses_and_matches_oracle(self):
        db = hub_db(12)
        expr = bowtie_expr()
        executor = Executor(db)
        plan = executor.plan(expr)
        assert multiway_nodes(plan)
        assert executor.execute(plan) == evaluate(expr, db)


# ----------------------------------------------------------------------
# Explain rendering
# ----------------------------------------------------------------------


def test_explain_costs_renders_vars_and_agm():
    db = hub_db(40)
    with Session(db) as session:
        rendered = session.explain(
            "(E join[2=1] F) join[4=1, 1=2] G", costs=True
        )
    assert "MultiwayJoin[vars=" in rendered
    assert "agm=" in rendered
    assert "worst-case-optimal" in rendered
    # Projected: the label marks where the existential suffix starts,
    # and the stamped (and priced) bound is the free variables' own.
    with Session(db) as session:
        rendered = session.explain(
            "project[1,2]((E join[2=1] F) join[4=1, 1=2] G)", costs=True
        )
    first = rendered.splitlines()[0]
    assert first.startswith("MultiwayJoin[vars=0>1|2,agm=81,project=1,2]")
    assert "ub=81 " in first
    assert "projection absorbed" in first


# ----------------------------------------------------------------------
# Trie cache: reuse across runs, invalidation on mutation
# ----------------------------------------------------------------------


class TestTrieCache:
    def test_second_run_reuses_tries(self):
        db = hub_db(20)
        executor = Executor(db)
        node = collapsed(cycle_expr(("E", "F", "G")), db)
        executor.execute(node)
        builds = executor.indexes.builds
        assert builds >= 3
        executor.reset_query_state()
        executor.execute(node)
        assert executor.indexes.builds == builds
        assert executor.indexes.reuses >= 3

    def test_mutation_invalidates_tries(self):
        db = hub_db(6)
        expr = cycle_expr(("E", "F", "G"))
        executor = Executor(db)
        executor.execute(collapsed(expr, db))
        builds = executor.indexes.builds
        db._relations = {
            **db._relations,
            "E": frozenset({(0, 0), (1, 0), (0, 1)}),
        }
        # Version check drops the index cache; rebuilt tries see the
        # new contents and the result matches the post-mutation oracle.
        result = executor.execute(collapsed(expr, db))
        assert executor.indexes.builds >= 3
        assert executor.indexes.builds != builds or executor.version
        assert result == evaluate(expr, db)

    def test_trie_and_flat_index_keys_never_collide(self):
        from repro.engine import IndexCache

        cache = IndexCache()
        rows = [(1, 2), (3, 4)]
        flat = cache.index_for("R", rows, (1,))
        trie = cache.trie_for("R", rows, ((0,),))
        assert cache.builds == 2  # distinct entries, no collision
        assert flat is not trie
        assert cache.trie_for("R", rows, ((0,),)) is trie
        assert cache.reuses == 1


# ----------------------------------------------------------------------
# Partition-budget interaction: one-shot only
# ----------------------------------------------------------------------


class TestPartitionBudget:
    def test_small_budget_keeps_binary(self):
        db = hub_db(40)
        options = PlannerOptions(partition_budget=50)
        plan = Executor(db).plan(cycle_expr(("E", "F", "G")), options)
        assert not multiway_nodes(plan)

    def test_large_budget_collapses_with_one_shot_note(self):
        db = hub_db(40)
        options = PlannerOptions(partition_budget=10_000)
        executor = Executor(db)
        expr = cycle_expr(("E", "F", "G"))
        plan = executor.plan(expr, options)
        nodes = multiway_nodes(plan)
        assert len(nodes) == 1
        assert "one-shot only" in nodes[0].note
        assert executor.execute(plan) == evaluate(expr, db)

    def test_partitioned_op_refuses_multiway(self):
        db = hub_db(6)
        node = collapsed(cycle_expr(("E", "F", "G")), db)
        with pytest.raises(SchemaError):
            PartitionedOp(node, 2, 10)

    def test_apply_partitioning_annotates_instead_of_wrapping(self):
        db = hub_db(20)
        node = collapsed(cycle_expr(("E", "F", "G")), db)
        from repro.engine.cost import CostModel

        rebuilt = apply_partitioning(node, CostModel(StatsCatalog(db)), 5)
        assert isinstance(rebuilt, MultiwayJoinOp)
        assert "refusing PartitionedOp fusion" in rebuilt.note


# ----------------------------------------------------------------------
# Unit coverage for the wcoj building blocks
# ----------------------------------------------------------------------


class TestBuildingBlocks:
    def test_variable_layout_triangle(self):
        # E(a,b) F(b,c) G(c,a): global 0-based columns 0..5, with b
        # merging columns 1/2, c merging 3/4, a closing 5 back to 0.
        attrs = variable_layout(
            [2, 2, 2],
            [(1, "=", 2), (3, "=", 4), (5, "=", 0)],
        )
        assert attrs == ((0, 1), (1, 2), (2, 0))

    def test_variable_layout_rejects_order_atoms(self):
        with pytest.raises(SchemaError):
            variable_layout([2, 2], [(1, "<", 2)])

    def test_build_trie_drops_disagreeing_duplicate_columns(self):
        # One input whose two columns were equated: (1, 2) can never
        # satisfy the implied self-filter and must not be inserted.
        trie, inserted = build_trie([(1, 1), (1, 2)], ((0, 1),))
        assert inserted == 1
        assert trie == {1: True}

    def test_generic_join_rejects_uncovered_variable(self):
        with pytest.raises(SchemaError):
            generic_join([{1: True}], [frozenset({0})], (0, 1))

    def test_choose_order_prefers_shared_variables(self):
        # Variable 1 is in both inputs, variables 0 and 2 in one each.
        attrs = ((0, 1), (1, 2))
        order = choose_order(attrs, [10.0, 10.0])
        assert order[0] == 1

    def test_leaf_trie_layout_sorts_by_global_order(self):
        variables, columns = leaf_trie_layout((2, 0), (1, 2, 0))
        assert variables == (2, 0)
        assert columns == ((0,), (1,))


# ----------------------------------------------------------------------
# The compiled join against the loops it replaced
# ----------------------------------------------------------------------


def reference_generic_join(
    tries, leaf_variables, order, counters, free=None
):
    """The interpretive recursion ``generic_join`` ran before it was
    compiled per depth: one ``recurse`` for every level, per-value
    save/restore of the cursors, early break on the first miss.  Kept
    here as the definition of the bindings *and* of both counters.
    Depths from ``free`` on are existential: ``exists`` returns at the
    first witness, and counts only what it did to find it."""
    depth_count = len(order)
    if free is None:
        free = depth_count
    counters.setdefault("candidates", 0)
    counters.setdefault("probes", 0)
    participants = [
        tuple(
            k
            for k, variables in enumerate(leaf_variables)
            if order[d] in variables
        )
        for d in range(depth_count)
    ]
    cursors = list(tries)
    binding = [None] * (max(order, default=-1) + 1)
    out = []

    def exists(d):
        if d == depth_count:
            return True
        parts = participants[d]
        pivot = min(parts, key=lambda k: len(cursors[k]))
        others = tuple(k for k in parts if k != pivot)
        for value, descended in cursors[pivot].items():
            counters["candidates"] += 1
            advanced = [(pivot, descended)]
            for k in others:
                counters["probes"] += 1
                nxt = cursors[k].get(value)
                if nxt is None:
                    break
                advanced.append((k, nxt))
            else:
                saved = tuple((k, cursors[k]) for k, __ in advanced)
                for k, nxt in advanced:
                    cursors[k] = nxt
                found = exists(d + 1)
                for k, previous in saved:
                    cursors[k] = previous
                if found:
                    return True
        return False

    def recurse(d):
        if d == free:
            if exists(d):
                out.append(tuple(binding))
            return
        parts = participants[d]
        pivot = min(parts, key=lambda k: len(cursors[k]))
        base = cursors[pivot]
        others = tuple(k for k in parts if k != pivot)
        counters["candidates"] += len(base)
        for value, descended in base.items():
            advanced = [(pivot, descended)]
            supported = True
            for k in others:
                counters["probes"] += 1
                nxt = cursors[k].get(value)
                if nxt is None:
                    supported = False
                    break
                advanced.append((k, nxt))
            if not supported:
                continue
            saved = tuple((k, cursors[k]) for k, __ in advanced)
            for k, nxt in advanced:
                cursors[k] = nxt
            binding[order[d]] = value
            recurse(d + 1)
            for k, previous in saved:
                cursors[k] = previous

    recurse(0)
    return out


def reference_build_trie(rows, columns_by_variable):
    """The row-by-row builder: a key list and a self-filter per row."""
    root, inserted = {}, 0
    if not columns_by_variable:
        return root, 0
    for row in rows:
        key = []
        for columns in columns_by_variable:
            value = row[columns[0]]
            if any(row[c] != value for c in columns[1:]):
                key = None
                break
            key.append(value)
        if key is None:
            continue
        node = root
        for value in key[:-1]:
            node = node.setdefault(value, {})
        node[key[-1]] = True
        inserted += 1
    return root, inserted


def reference_relation_stats(rows, arity, mcv_size=MCV_SIZE):
    """The cell-by-cell profile ``relation_stats`` ran before it
    counted one column at a time."""
    counters = [Counter() for _ in range(arity)]
    cardinality = 0
    for row in rows:
        cardinality += 1
        for counter, value in zip(counters, row):
            counter[value] += 1
    return RelationStats(
        rows=cardinality,
        columns=tuple(
            ColumnStats(
                distinct=len(counter),
                max_freq=max(counter.values(), default=0),
                mcv=tuple(counter.most_common(mcv_size)),
            )
            for counter in counters
        ),
    )


#: ``attrs`` of the named hypergraphs: between them every level shape —
#: 1, 2 and ≥ 3 participants, inner and last — occurs under some order.
SHAPES = {
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "four_cycle": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "star": ((0, 1), (0, 2), (0, 3), (0,)),
    "bowtie": ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)),
    # The unary input bottoms out at its only variable; the ternary one
    # equates its outer columns with each other.
    "bottoms_out_early": ((0,), (0, 1), (1, 2, 1), (2, 2)),
}


@st.composite
def hypergraph_instances(draw):
    """``(attrs, order, relations)``: a join hypergraph, an elimination
    order over its variables, and one small relation per input."""
    attrs = draw(
        st.one_of(
            st.sampled_from(sorted(SHAPES.values())),
            st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
                    tuple
                ),
                min_size=2,
                max_size=5,
            ).map(tuple),
        )
    )
    order = tuple(
        draw(st.permutations(sorted({v for row in attrs for v in row})))
    )
    values = draw(
        st.sampled_from((st.integers(0, 3), st.sampled_from("abcd")))
    )
    relations = [
        draw(
            st.frozensets(
                st.tuples(*([values] * len(attrs_k))), max_size=12
            )
        )
        for attrs_k in attrs
    ]
    return attrs, order, relations


def tries_for(attrs, order, relations):
    """``(tries, leaf_variables)`` as ``run_multiway`` prepares them."""
    tries, leaf_variables = [], []
    for attrs_k, rows in zip(attrs, relations):
        variables, columns = leaf_trie_layout(attrs_k, order)
        tries.append(build_trie(rows, columns)[0])
        leaf_variables.append(frozenset(variables))
    return tries, leaf_variables


def matches_reference(tries, leaf_variables, free, order=(0, 1)):
    """Run ``generic_join`` and the reference on the same tries: the
    same bindings, and the counters, which are returned."""
    counters, expected_counters = {}, {}
    out = generic_join(tries, leaf_variables, order, counters, free)
    expected = reference_generic_join(
        tries, leaf_variables, order, expected_counters, free
    )
    assert len(out) == len(set(out))
    assert set(out) == set(expected)
    assert counters == expected_counters
    return counters


class TestCompiledJoinMatchesTheLoopItReplaced:
    @PROPERTY
    @given(hypergraph_instances())
    def test_same_bindings_same_counters_same_tries(self, instance):
        attrs, order, relations = instance
        for attrs_k, rows in zip(attrs, relations):
            __, columns = leaf_trie_layout(attrs_k, order)
            expected = reference_build_trie(rows, columns)
            assert build_trie(rows, columns) == expected
            assert build_trie(iter(rows), columns) == expected
        tries, leaf_variables = tries_for(attrs, order, relations)
        counters, expected_counters = {}, {}
        out = generic_join(tries, leaf_variables, order, counters)
        expected = reference_generic_join(
            tries, leaf_variables, order, expected_counters
        )
        assert len(out) == len(set(out))
        assert set(out) == set(expected)
        assert counters == expected_counters

    @PROPERTY
    @given(hypergraph_instances(), st.data())
    def test_existential_suffix_matches_the_reference(self, instance, data):
        attrs, order, relations = instance
        free = data.draw(st.integers(0, len(order)))
        tries, leaf_variables = tries_for(attrs, order, relations)
        counters, expected_counters = {}, {}
        out = generic_join(tries, leaf_variables, order, counters, free)
        expected = reference_generic_join(
            tries, leaf_variables, order, expected_counters, free
        )
        assert len(out) == len(set(out))
        assert set(out) == set(expected)
        assert counters == expected_counters
        assert all(
            binding[v] is None for binding in out for v in order[free:]
        )

    @PROPERTY
    @given(hypergraph_instances(), st.data())
    def test_rows_are_picked_from_each_binding_as_it_is_emitted(
        self, instance, data
    ):
        attrs, order, relations = instance
        tries, leaf_variables = tries_for(attrs, order, relations)
        slots = data.draw(
            st.lists(st.integers(0, max(order)), min_size=1, max_size=4)
        )
        pick = operator.itemgetter(*slots)
        for free in range(len(order) + 1):
            rows = generic_join(
                tries, leaf_variables, order, free=free, pick=pick
            )
            bindings = reference_generic_join(
                tries, leaf_variables, order, {}, free
            )
            assert Counter(rows) == Counter(map(pick, bindings))

    def test_a_witness_late_in_the_pivot_counts_every_miss_before_it(self):
        # Free a; the closing depth's pivot {1, 2, 3} meets {3, 9, 8, 7}
        # only at its third value: three candidates, three probes.
        tries = [
            {0: dict.fromkeys((1, 2, 3), True)},
            {0: dict.fromkeys((3, 9, 8, 7), True)},
        ]
        leaf_variables = [frozenset({0, 1}), frozenset({0, 1})]
        counters = {}
        out = generic_join(tries, leaf_variables, (0, 1), counters, 1)
        assert out == [(0, None)]
        assert counters == {"candidates": 1 + 3, "probes": 1 + 3}

    @pytest.mark.parametrize("free", [1, 0])
    def test_equal_closing_cursors_scan_the_first_participant(self, free):
        # The closing cursors {1, 2, 3, 4} and {4, 5, 6, 7} have the same
        # size and share only 4: last in one, first in the other.  The
        # tie goes to the first participant in plan order, so the scan
        # finds 4 at its fourth key, run inside the last free depth
        # (free=1) or inside an existential one (free=0).
        tries = [
            {0: dict.fromkeys((1, 2, 3, 4), True)},
            {0: dict.fromkeys((4, 5, 6, 7), True)},
        ]
        counters = matches_reference(tries, [frozenset({0, 1})] * 2, free)
        assert counters == {"candidates": 1 + 4, "probes": 1 + 4}

    @pytest.mark.parametrize("free", [1, 0])
    def test_a_closing_depth_without_a_witness_counts_every_value(
        self, free
    ):
        # Under a = 0 the smaller closing cursor {1, 2} meets nothing in
        # {7, 8, 9}: both its values count.  a = 5 finds 3 at once.
        tries = [
            {0: dict.fromkeys((1, 2), True), 5: {3: True}},
            {0: dict.fromkeys((7, 8, 9), True), 5: {3: True}},
        ]
        counters = matches_reference(tries, [frozenset({0, 1})] * 2, free)
        assert counters == {"candidates": 2 + 2 + 1, "probes": 2 + 2 + 1}

    def test_no_free_variable_decides_the_whole_cycle(self):
        # project[] of the triangle: a yes/no step per depth, the closing
        # one run inside the step above it.  a = 1 reaches the closing
        # depth twice and misses both times before a = 4 closes a
        # triangle.
        attrs = SHAPES["triangle"]
        order = (0, 1, 2)
        relations = [
            [(1, 2), (1, 3), (4, 5)],
            [(2, 7), (3, 8), (5, 6)],
            [(9, 1), (6, 4)],
        ]
        tries, leaf_variables = tries_for(attrs, order, relations)
        matches_reference(tries, leaf_variables, 0, order)
        assert generic_join(tries, leaf_variables, order, free=0) == [
            (None, None, None)
        ]
        nothing = Projection(cycle_expr(("E", "F", "G")), ())
        open_wedges = [*relations[:2], [(9, 1)]]
        for rows, expected in ((relations, {()}), (open_wedges, set())):
            db = Database(
                CYCLE_SCHEMA,
                {
                    name: frozenset(edges)
                    for name, edges in zip("EFGH", [*rows, []])
                },
            )
            result = Executor(db).execute(projected(nothing, db))
            assert result == evaluate(nothing, db) == expected

    @pytest.mark.parametrize("free", [1, 0])
    def test_a_three_participant_closing_depth_keeps_the_general_step(
        self, free
    ):
        # The closing depth's cursors hold 1 2 3 4, 9 2 and 2 5, in that
        # order: the pivot is the first of the two smallest, so 9 misses
        # the first input (one probe) before 2 is held by both others.
        tries = [
            {0: dict.fromkeys((1, 2, 3, 4), True)},
            {0: dict.fromkeys((9, 2), True)},
            dict.fromkeys((2, 5), True),
        ]
        leaf_variables = [frozenset({0, 1})] * 2 + [frozenset({1})]
        counters = matches_reference(tries, leaf_variables, free)
        assert counters == {"candidates": 1 + 2, "probes": 1 + 3}

    def test_every_named_shape_joins_nonempty(self):
        # The property above must not pass on empty outputs alone.
        for attrs in SHAPES.values():
            order = tuple(sorted({v for row in attrs for v in row}))
            relations = [
                {(0,) * len(attrs_k), (1,) * len(attrs_k)}
                for attrs_k in attrs
            ]
            out = generic_join(*tries_for(attrs, order, relations), order)
            width = len(order)
            assert set(out) == {(0,) * width, (1,) * width}

    def test_counters_accumulate_into_a_passed_dict(self):
        counters = {"candidates": 5, "probes": 7}
        generic_join(
            [{1: True, 2: True}, {2: True}],
            [frozenset({0}), frozenset({0})],
            (0,),
            counters,
        )
        assert counters == {"candidates": 6, "probes": 8}

    def test_no_variables_is_the_one_empty_binding(self):
        assert generic_join([], [], ()) == [()]

    @PROPERTY
    @given(
        st.integers(0, 3).flatmap(
            lambda arity: st.tuples(
                st.just(arity),
                st.lists(
                    st.tuples(
                        *([st.sampled_from((0, 1, 2, "a", "b"))] * arity)
                    ),
                    max_size=24,
                ),
            )
        )
    )
    def test_relation_stats_match_the_cell_by_cell_count(self, drawn):
        arity, rows = drawn
        expected = reference_relation_stats(rows, arity)
        assert relation_stats(rows, arity) == expected
        assert relation_stats(iter(rows), arity) == expected
        distinct = frozenset(rows)
        assert relation_stats(distinct, arity) == (
            reference_relation_stats(distinct, arity)
        )
        assert relation_stats(rows, arity, 2) == (
            reference_relation_stats(rows, arity, 2)
        )


# ----------------------------------------------------------------------
# A projected cycle closes inside the step above its closing depth
# ----------------------------------------------------------------------

#: The texts ``perfbench``'s ``triangle_wcoj`` workload rotates.
TRIANGLE_TEXTS = (
    "project[1,2]((E join[2=1] F) join[4=1,1=2] G)",
    "project[1]((E join[2=1] F) join[4=1,1=2] G)",
    "project[2,4]((E join[2=1] F) join[4=1,1=2] G)",
)


def test_the_triangle_texts_build_no_closing_step_of_their_own(
    monkeypatch,
):
    """Every depth of a triangle has two participants, so its closing
    depth runs inside the step above it.  Building ``_witness``'s
    standalone last-depth form — one Python call per candidate — fails
    the run instead of slowing it down."""
    standalone = wcoj._witness

    def refuse_a_closing_step(parts, cursors, tally, descend, closing=None):
        closes = descend is None and closing is None
        assert not (len(parts) == 2 and closes), (
            "a two-participant closing depth got a step of its own"
        )
        return standalone(parts, cursors, tally, descend, closing)

    monkeypatch.setattr(wcoj, "_witness", refuse_a_closing_step)
    db = zipf_triangle_db(24, tail=48, skew=1.1, seed=5)
    with Session(db, cache_results=False) as session:
        for text in TRIANGLE_TEXTS:
            expr = session.parse(text)
            (node,) = multiway_nodes(session.executor.plan(expr))
            assert node.free < len(node.order)
            assert session.run(expr) == evaluate(expr, db)


# ----------------------------------------------------------------------
# A finished join is freed by reference count
# ----------------------------------------------------------------------


def test_a_multiway_run_leaves_no_cyclic_garbage():
    """The recursion used to reach itself through its own closure
    cell: every run's whole binding list waited for a gen-2 pass."""
    db = hub_db(40)
    expr = cycle_expr(("E", "F", "G"))
    node = collapsed(expr, db)
    tries, leaf_variables = tries_for(
        node.attrs, node.order, [db[name] for name in "EFG"]
    )
    with Session(db, cache_results=False) as session:
        assert multiway_nodes(session.executor.plan(expr))
        session.run(expr)  # plan memo, statistics and tries are warm
        session.run(Projection(expr, (1,)))
        gc.collect()
        gc.disable()
        try:
            bindings = generic_join(tries, leaf_variables, node.order)
            assert len(bindings) == 3 * 40 + 1
            del bindings
            assert gc.collect() == 0
            rows = session.run(expr)
            assert len(rows) == 3 * 40 + 1
            del rows
            assert gc.collect() == 0
            rows = session.run(Projection(expr, (1,)))
            assert len(rows) == 40 + 1
            del rows
            assert gc.collect() == 0
        finally:
            gc.enable()
