"""Plan explanations stay parseable: the printer↔parser roundtrip.

Every physical plan node carries the logical expression it computes,
and ``explain()`` renders it after ``' :: '`` in the parseable ASCII
syntax.  For engine-supported (core RA/SA) expressions, that text must
parse back to exactly the logical expression — otherwise EXPLAIN
output drifts away from the language and plans stop being auditable.
"""

from hypothesis import HealthCheck, given, settings

from repro.algebra.ast import is_ra, is_sa
from repro.algebra.parser import parse
from repro.algebra.printer import to_ascii
from repro.engine import Executor, PlannerOptions, plan_expression
from repro.engine.plan import DivisionOp
from repro.engine.planner import explain
from repro.setjoins.division import classic_division_expr, small_divisor_expr
from repro.workloads.generators import crossproduct_division_family
from tests.strategies import TEST_SCHEMA, databases, expressions

ROUNDTRIP = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The part of an explain line that renders the node's logical
#: expression.
SEPARATOR = " :: "


def _logical_texts(plan) -> list[str]:
    """The ``' :: '`` tail of every line of the explain output."""
    texts = []
    for line in plan.explain().splitlines():
        assert SEPARATOR in line, line
        texts.append(line.split(SEPARATOR, 1)[1])
    return texts


@ROUNDTRIP
@given(expressions(max_depth=4))
def test_plan_node_logicals_roundtrip(expr):
    plan = plan_expression(expr)
    for node in plan.nodes():
        rendered = to_ascii(node.logical)
        assert parse(rendered, TEST_SCHEMA) == node.logical


@ROUNDTRIP
@given(expressions(max_depth=4))
def test_explain_output_lines_parse(expr):
    plan = plan_expression(expr)
    for text in _logical_texts(plan):
        parse(text, TEST_SCHEMA)  # must not raise


@ROUNDTRIP
@given(expressions(max_depth=3))
def test_roundtrip_survives_disabled_rewrites(expr):
    plan = plan_expression(expr, PlannerOptions(rewrite_divisions=False))
    for node in plan.nodes():
        assert parse(to_ascii(node.logical), TEST_SCHEMA) == node.logical


def test_division_op_logical_roundtrips():
    """The DivisionOp's logical is the whole classic RA plan."""
    schema = {"R": 2, "S": 1}
    plan = plan_expression(classic_division_expr())
    assert isinstance(plan, DivisionOp)
    rendered = to_ascii(plan.logical)
    assert parse(rendered, schema) == classic_division_expr()


def test_small_divisor_plan_roundtrips():
    schema = {"R": 2, "S": 1}
    expr = small_divisor_expr([7, 8, 9])
    plan = plan_expression(expr, PlannerOptions(rewrite_divisions=False))
    for node in plan.nodes():
        assert parse(to_ascii(node.logical), schema) == node.logical


@ROUNDTRIP
@given(expressions(max_depth=4))
def test_fragment_predicates_preserved_by_rendering(expr):
    """Rendering does not smuggle nodes across fragments."""
    back = parse(to_ascii(expr), TEST_SCHEMA)
    assert is_ra(back) == is_ra(expr)
    assert is_sa(back) == is_sa(expr)


# ----------------------------------------------------------------------
# Cost-based plans: explain must stay auditable
# ----------------------------------------------------------------------


@ROUNDTRIP
@given(expressions(max_depth=4), databases())
def test_cost_based_plan_logicals_roundtrip(expr, db):
    """Cost-based planning synthesizes new logical expressions
    (reordered join chains, their restoring projections); every one of
    them must still print-and-parse back to itself."""
    plan = Executor(db).plan(expr)
    for node in plan.nodes():
        assert parse(to_ascii(node.logical), TEST_SCHEMA) == node.logical


@ROUNDTRIP
@given(expressions(max_depth=4), databases())
def test_cost_annotated_explain_still_parses(expr, db):
    """``--costs`` annotations must not break the ``' :: '`` split the
    logical tail relies on."""
    executor = Executor(db)
    plan = executor.plan(expr)
    text = explain(expr, plan=plan, costs=True, cost_model=executor.cost_model)
    for line in text.splitlines():
        assert SEPARATOR in line, line
        assert "~rows=" in line and "ub=" in line and "cost=" in line
        parse(line.split(SEPARATOR, 1)[1], TEST_SCHEMA)  # must not raise


def test_prop26_witness_family_keeps_linear_division_under_costs():
    """Regression: the cost model must never re-quadratify the Prop. 26
    witness family — the classic division expression still routes to
    the one linear DivisionOp, asserted on the explain output."""
    db = crossproduct_division_family(96)
    executor = Executor(db)
    expr = classic_division_expr()
    plan = executor.plan(expr)
    text = explain(expr, plan=plan, costs=True, cost_model=executor.cost_model)
    first = text.splitlines()[0]
    assert first.startswith("Division[hash")
    assert "rewritten from classic RA division plan" in first
    # No join operator anywhere in the plan: the quadratic cross
    # product of the written expression was never materialized.
    assert "Join" not in text
    # And the root's certified bound is the linear |π_A(R)|.
    assert isinstance(plan, DivisionOp)
    keys = len({a for a, __ in db["R"]})
    root_annotation = first.split("{", 1)[1].split("}", 1)[0]
    assert f"ub={keys}" in root_annotation


def test_explain_plans_with_the_cost_model_it_annotates_from():
    """One model both plans and annotates: given the executor's model
    and no plan, ``explain`` prints the executor's cost-based plan (a
    nested loop against a one-row side), not the structural hash join
    that planning without statistics keeps."""
    from repro.data.database import database

    db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 8)], S=[(7,)])
    executor = Executor(db)
    expr = parse("R join[2=1] S", TEST_SCHEMA)
    text = explain(expr, costs=True, cost_model=executor.cost_model)
    assert text.startswith("NestedLoopJoin")
    assert text == explain(
        expr, plan=executor.plan(expr), costs=True,
        cost_model=executor.cost_model,
    )
    assert explain(expr).startswith("HashJoin")


# ----------------------------------------------------------------------
# Exhaustive node-kind coverage: every operator renders and roundtrips
# ----------------------------------------------------------------------


def _plan_node_kinds() -> set:
    """Every concrete PlanNode subclass the engine defines."""
    import repro.engine.plan as plan_module
    from repro.engine.plan import PlanNode

    return {
        cls
        for cls in vars(plan_module).values()
        if isinstance(cls, type)
        and issubclass(cls, PlanNode)
        and cls is not PlanNode
    }


def _representative_plans() -> list:
    """One planned (or hand-wrapped) example per operator kind.

    ``ParallelOp``/``PartitionedOp``/``MultiwayJoinOp`` were added
    without printer coverage — this sweep pins every current *and*
    future node kind to the rendering contract (the exhaustiveness
    guard below fails when a new operator ships without an example).
    """
    from repro.data.database import Database, database
    from repro.engine.plan import ParallelOp
    from repro.algebra.ast import Projection
    from repro.extended.ast import GroupBy, Sort
    from tests.strategies import CYCLE_SCHEMA, cycle_expr

    core = [
        "R union R",
        "R minus R",
        "project[1](R)",
        "select[1=2](R)",
        "R join[2=1] R",      # hash join
        "R join[1<2] R",      # nested loop join
        "R semijoin[2=1] R",  # hash semijoin
        "R semijoin[1<1] R",  # nested-loop semijoin
    ]
    schema = {"R": 2, "S": 1}
    plans = [
        plan_expression(parse(text, schema)) for text in core
    ]
    from repro.algebra.ast import ConstantTag, Rel

    plans.append(plan_expression(ConstantTag(Rel("R", 2), 5)))
    plans.append(plan_expression(classic_division_expr()))
    plans.append(plan_expression(GroupBy(Rel("R", 2), (1,), ())))
    plans.append(plan_expression(Sort(Rel("R", 2), (1,))))
    # Cost-gated operators need databases that actually trigger them.
    edge = frozenset(
        {(i, 0) for i in range(1, 21)}
        | {(0, i) for i in range(1, 21)}
        | {(0, 0)}
    )
    hub = Database(CYCLE_SCHEMA, {name: edge for name in CYCLE_SCHEMA})
    plans.append(Executor(hub).plan(cycle_expr(("E", "F", "G"))))
    # A projection absorbed into the multiway node: its logical is the
    # Projection itself.
    plans.append(
        Executor(hub).plan(Projection(cycle_expr(("E", "F", "G")), (2, 4)))
    )
    join_db = database(
        {"R": 2, "S": 1},
        R=[(i, i % 7) for i in range(60)],
        S=[(j,) for j in range(7)],
    )
    partitioned = Executor(join_db).plan(
        parse("R join[2=1] S", {"R": 2, "S": 1}),
        PlannerOptions(partition_budget=16),
    )
    plans.append(partitioned)
    inner = partitioned.nodes()
    plans.append(
        ParallelOp(
            next(n for n in inner if type(n).__name__ == "HashJoinOp"),
            1,
            None,
            2,
        )
    )
    return plans


def test_every_plan_node_kind_has_a_rendering_example():
    covered = {
        type(node)
        for plan in _representative_plans()
        for node in plan.nodes()
    }
    missing = {
        cls.__name__ for cls in _plan_node_kinds() - covered
    }
    assert not missing, (
        f"plan node kinds without explain coverage: {sorted(missing)} — "
        "add a representative plan to _representative_plans()"
    )


def test_every_node_kind_explains_and_core_logicals_roundtrip():
    from repro.extended.ast import GroupBy, Sort

    for plan in _representative_plans():
        text = plan.explain()
        for line in text.splitlines():
            assert SEPARATOR in line, line
        for node in plan.nodes():
            logical = node.logical
            rendered = to_ascii(logical)
            assert rendered  # extended γ/sort render but do not parse
            if not isinstance(logical, (GroupBy, Sort)):
                schema = {"R": 2, "S": 1, "E": 2, "F": 2, "G": 2, "H": 2}
                assert parse(rendered, schema) == logical


def test_multiway_label_fingerprint_and_note_render():
    from repro.data.database import Database
    from repro.engine import MultiwayJoinOp
    from tests.strategies import CYCLE_SCHEMA, cycle_expr

    edge = frozenset(
        {(i, 0) for i in range(1, 21)}
        | {(0, i) for i in range(1, 21)}
        | {(0, 0)}
    )
    hub = Database(CYCLE_SCHEMA, {name: edge for name in CYCLE_SCHEMA})
    executor = Executor(hub)
    expr = cycle_expr(("E", "F", "G"))
    plan = executor.plan(expr)
    node = next(
        n for n in plan.nodes() if isinstance(n, MultiwayJoinOp)
    )
    assert node.label().startswith("MultiwayJoin[vars=")
    assert f"agm={node.agm:g}" in node.label()
    assert SEPARATOR not in node.label()
    assert node.fingerprint() == plan.fingerprint()
    text = explain(expr, plan=plan, costs=True, cost_model=executor.cost_model)
    first = text.splitlines()[0]
    assert "MultiwayJoin[vars=" in first
    assert "worst-case-optimal" in first
    parse(first.split(SEPARATOR, 1)[1], CYCLE_SCHEMA)  # must not raise


def test_projected_multiway_line_parses_back_to_the_projection():
    from repro.algebra.ast import Projection
    from repro.engine import MultiwayJoinOp
    from tests.strategies import CYCLE_SCHEMA, cycle_expr

    plan = next(
        node
        for plan in _representative_plans()
        for node in plan.nodes()
        if isinstance(node, MultiwayJoinOp) and node.positions is not None
    )
    first = plan.explain().splitlines()[0]
    assert first.startswith("MultiwayJoin[vars=1>2|0,")
    assert ",project=2,4] /2" in first
    logical = parse(first.split(SEPARATOR, 1)[1], CYCLE_SCHEMA)
    assert logical == plan.logical
    assert logical == Projection(cycle_expr(("E", "F", "G")), (2, 4))
