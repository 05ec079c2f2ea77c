"""The operator kernels against the conditions they are compiled from.

:mod:`repro.engine.kernels` turns a condition into closures once per
operator; everything it compiles must agree with the interpretive
definition it replaced on the hot path — ``Condition.holds`` on a row
pair, ``tuple(row[p - 1] for p in positions)`` for a key — including
the exception an incomparable ``<`` / ``>`` raises, and the four pair
loops must agree with the brute-force comprehension over
``Condition.holds``.  Closures must never reach a shipment: batch
kernels receive atoms and compile inside the worker.
"""

import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra.ast import Rel, Selection
from repro.algebra.conditions import OPS, Atom, Condition
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import Executor, PlannerOptions, kernels, plan_expression
from repro.engine.executor import OPERATORS, IndexCache
from repro.engine.partition import division_batch_kernel, scatter_for
from repro.engine.plan import (
    DifferenceOp,
    DivisionOp,
    FilterOp,
    HashJoinOp,
    HashSemijoinOp,
    MultiwayJoinOp,
    NestedLoopJoinOp,
    NestedLoopSemijoinOp,
    PartitionedOp,
    PlanNode,
    ScanOp,
    TagOp,
    rewrite_plan,
)
from repro.errors import SchemaError
from repro.session import Session
from repro.setjoins import division
from repro.workloads.generators import division_database
from tests.strategies import (
    cyclic_joins,
    databases,
    expressions,
    skewed_databases,
)
from tests.test_cached_groupings import check_ran
from tests.test_engine_wcoj import collapsed

ARITY = 3

POSITIONS = st.integers(min_value=1, max_value=ARITY)
ATOMS = st.builds(Atom, POSITIONS, st.sampled_from(OPS), POSITIONS)
CONDITIONS = st.lists(ATOMS, max_size=3).map(lambda atoms: tuple(atoms))

#: One sort per example: values of a column are mutually comparable.
SORTS = (
    st.integers(min_value=0, max_value=4),
    st.sampled_from(("a", "b", "c", "d")),
    st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))),
)


def rows_of(values) -> st.SearchStrategy:
    return st.tuples(*([values] * ARITY))


SORTED_ROW_PAIRS = st.sampled_from(SORTS).flatmap(
    lambda values: st.tuples(rows_of(values), rows_of(values))
)
MIXED_ROWS = rows_of(st.one_of(SORTS[0], SORTS[1]))
RELATIONS = st.sampled_from(SORTS).flatmap(
    lambda values: st.tuples(
        st.frozensets(rows_of(values), max_size=6),
        st.frozensets(rows_of(values), max_size=6),
    )
)


def outcome(call):
    """``("value", v)`` or ``("raised", exception type)``."""
    try:
        return "value", call()
    except Exception as error:  # the *type* is the contract compared
        return "raised", type(error)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(atoms=CONDITIONS, pair=SORTED_ROW_PAIRS)
def test_matcher_is_condition_holds(atoms, pair):
    left, right = pair
    assert kernels.matcher(atoms)(left, right) == Condition(atoms).holds(
        left, right
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(atoms=CONDITIONS, left=MIXED_ROWS, right=MIXED_ROWS)
def test_matcher_raises_what_condition_holds_raises(atoms, left, right):
    # int-vs-str columns: "=" / "!=" answer, "<" / ">" raise TypeError
    # unless an earlier atom already failed the conjunction.
    assert outcome(lambda: kernels.matcher(atoms)(left, right)) == outcome(
        lambda: Condition(atoms).holds(left, right)
    )


def test_incomparable_order_atom_raises_type_error():
    for op in ("<", ">"):
        assert outcome(
            lambda: kernels.matcher((Atom(1, op, 1),))((1,), ("a",))
        ) == ("raised", TypeError)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    positions=st.lists(POSITIONS, max_size=4).map(tuple),
    row=rows_of(SORTS[0]),
)
def test_key_getter_always_returns_the_tuple(positions, row):
    key = kernels.key_getter(positions)(row)
    assert key == tuple(row[p - 1] for p in positions)
    assert type(key) is tuple


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    positions=st.lists(POSITIONS, max_size=2).map(tuple),
    rows=st.frozensets(rows_of(SORTS[0]), max_size=8),
)
def test_build_index_groups_every_row_under_its_key(positions, rows):
    index = kernels.build_index(rows, positions)
    assert all(type(key) is tuple for key in index)
    assert sorted(row for group in index.values() for row in group) == sorted(
        rows
    )
    assert all(
        tuple(row[p - 1] for p in positions) == key
        for key, group in index.items()
        for row in group
    )


def split(atoms):
    """A hash operator's loop arguments, as the executor derives them."""
    eq = [a for a in atoms if a.op == "="]
    return (
        tuple(a.j for a in eq),
        tuple(a.i for a in eq),
        kernels.matcher(a for a in atoms if a.op != "="),
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(atoms=CONDITIONS, relations=RELATIONS)
def test_pair_loops_are_the_brute_force_comprehension(atoms, relations):
    lefts, rights = relations
    cond = Condition(atoms)
    joined = sorted(
        l + r for l in lefts for r in rights if cond.holds(l, r)
    )
    kept = sorted(
        l for l in lefts if any(cond.holds(l, r) for r in rights)
    )
    match = kernels.matcher(atoms)
    assert sorted(kernels.nested_loop_join(lefts, rights, match)) == joined
    assert sorted(
        kernels.nested_loop_semijoin(lefts, rights, kernels.witness(atoms))
    ) == kept
    right_positions, key, rest = split(atoms)
    index = kernels.build_index(rights, right_positions)
    assert sorted(kernels.hash_join(lefts, index, key, rest)) == joined
    semi = kernels.witness(a for a in atoms if a.op != "=")
    assert sorted(kernels.hash_semijoin(lefts, index, key, semi)) == kept


# ----------------------------------------------------------------------
# Semijoin rests: one summary per group, or the first-witness scan
# ----------------------------------------------------------------------


def summarisable(rest) -> bool:
    """The shapes a per-group summary decides, restated: order atoms of
    one direction, all on one right column."""
    ops = {a.op for a in rest}
    return len({a.j for a in rest}) == 1 and ops in ({"<"}, {">"})


def order_rests(j: int) -> st.SearchStrategy:
    """Only ``<``, only ``>`` or both directions (which scan), all on
    right column j."""
    atom = st.builds(Atom, POSITIONS, st.sampled_from(("<", ">")), st.just(j))
    return st.lists(atom, min_size=1, max_size=3)


RESTS = st.one_of(
    POSITIONS.flatmap(order_rests),
    st.builds(lambda i, j: [Atom(i, "!=", j)], POSITIONS, POSITIONS),
    # Anything else: two right columns, or "!=" beside another atom.
    st.lists(
        st.builds(
            Atom, POSITIONS, st.sampled_from(("<", ">", "!=")), POSITIONS
        ),
        min_size=1,
        max_size=3,
    ),
).map(tuple)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    rest=RESTS,
    key=st.one_of(st.none(), st.tuples(POSITIONS, POSITIONS)),
    relations=RELATIONS,
)
def test_witness_is_the_brute_force_semijoin(rest, key, relations):
    """Every shape, all three sorts; small domains give ties at the
    bound and repeated ``r[j]``, small relations empty and one-row
    groups (and left keys with no group at all)."""
    lefts, rights = relations
    compiled = kernels.witness(rest)
    assert isinstance(compiled, kernels.GroupTest) == summarisable(rest)
    assert kernels.scans(rest) == (not summarisable(rest))
    eq = () if key is None else (Atom(key[0], "=", key[1]),)
    cond = Condition(eq + rest)
    kept = sorted(
        l for l in lefts if any(cond.holds(l, r) for r in rights)
    )
    index = kernels.build_index(rights, tuple(a.j for a in eq))
    assert sorted(
        kernels.hash_semijoin(lefts, index, tuple(a.i for a in eq), compiled)
    ) == kept
    # The nested loop, once per left group (one group when no key).
    groups = kernels.build_index(lefts, tuple(a.i for a in eq))
    assert sorted(
        row
        for k, group in groups.items()
        for row in kernels.nested_loop_semijoin(
            group, index.get(k, ()), compiled
        )
    ) == kept


class Counted:
    """A value whose order comparisons are counted."""

    calls = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __lt__(self, other: "Counted") -> bool:
        Counted.calls += 1
        return self.value < other.value


def semijoin_loops(lefts, rights, compiled, positions):
    """The two semijoin loops, keyed on ``positions`` of both sides."""
    return {
        "nested": lambda: kernels.nested_loop_semijoin(
            lefts, rights, compiled
        ),
        "hash": lambda: kernels.hash_semijoin(
            lefts,
            kernels.build_index(rights, positions),
            positions,
            compiled,
        ),
    }


@pytest.mark.parametrize("op", ("<", ">"))
def test_a_summarised_rest_reads_each_row_once_per_group(op):
    # Two groups on column 2 for the hash loop, one for the nested loop;
    # some left rows have a witness, some do not.
    lefts = [(Counted(k), k % 2) for k in range(0, 24, 3)]
    rights = [(Counted(k), k % 2) for k in range(5, 15)]
    rest = (Atom(1, op, 1),)
    compiled = kernels.witness(rest)
    assert isinstance(compiled, kernels.GroupTest)
    loops = [
        (name, Condition(rest), loop)
        for name, loop in semijoin_loops(lefts, rights, compiled, ()).items()
    ]
    loops.append((
        "hash, two groups",
        Condition((Atom(2, "=", 2),) + rest),
        semijoin_loops(lefts, rights, compiled, (2,))["hash"],
    ))
    for name, cond, loop in loops:
        Counted.calls = 0
        kept = list(loop())
        assert Counted.calls <= len(rights) + len(lefts), name
        assert kept == [
            l for l in lefts if any(cond.holds(l, r) for r in rights)
        ], name


def test_a_two_column_rest_stops_at_the_first_witness():
    lefts = [(Counted(0), Counted(0)), (Counted(1), Counted(1))]
    # Every right row is a witness for every left row.
    rights = [(Counted(5 + k), Counted(5 + k)) for k in range(7)]
    compiled = kernels.witness((Atom(1, "<", 1), Atom(2, "<", 2)))
    assert not isinstance(compiled, kernels.GroupTest)
    for name, loop in semijoin_loops(lefts, rights, compiled, ()).items():
        Counted.calls = 0
        assert list(loop()) == lefts, name
        assert Counted.calls == 2 * len(lefts), name


@pytest.mark.parametrize(
    "rest",
    (
        (Atom(1, "<", 1),),
        (Atom(1, ">", 1),),
        (Atom(1, "<", 1), Atom(2, ">", 1)),
    ),
    ids=("<", ">", "both directions"),
)
@pytest.mark.parametrize(
    "rights", ([("a", 0)], [(0, 0), ("a", 0)]), ids=("str", "int and str")
)
def test_an_incomparable_rest_raises_type_error(rest, rights):
    """An int left row against a right group holding a str: the summary
    (or the scan) compares them and raises, in both semijoin loops."""
    compiled = kernels.witness(rest)
    for name, loop in semijoin_loops([(1, 0)], rights, compiled, (2,)).items():
        assert outcome(lambda: list(loop())) == ("raised", TypeError), name


SCHEMA = Schema({"L": 2, "M": 2})


def test_batch_task_arguments_carry_atoms_not_closures():
    db = Database(
        SCHEMA,
        {
            "L": {(i, i % 3) for i in range(12)},
            "M": {(5 + j, j % 3) for j in range(9)},
        },
    )
    left, right = ScanOp(parse("L", SCHEMA)), ScanOp(parse("M", SCHEMA))
    keyed = parse("L semijoin[2=2,1<1] M", SCHEMA)
    theta = parse("L semijoin[1<1] M", SCHEMA)
    inners = (
        HashSemijoinOp(left, right, keyed.cond, keyed),
        NestedLoopSemijoinOp(left, right, theta.cond, theta),
    )
    executor = Executor(db)
    for inner in inners:
        scatter = scatter_for(executor, inner)
        task = scatter.task(tuple(scatter.weights), None)
        kernel, args = pickle.loads(pickle.dumps((task.kernel, task.args)))
        assert args == task.args
        assert sorted(kernel(*args)) == sorted(executor.execute(inner))


# ----------------------------------------------------------------------
# Kernel edges: key positions, empty sides, bad values, iteration order
# ----------------------------------------------------------------------

EDGE_LEFTS = [(3, "c", 0), (1, "a", 1), (2, "b", 0), (1, "b", 1)]
EDGE_RIGHTS = [(1, "a", 9), (2, "b", 9), (1, "b", 8)]


@pytest.mark.parametrize("container", (list, frozenset))
@pytest.mark.parametrize("positions", ((), (1,), (2, 1), (1, 2, 1)))
@pytest.mark.parametrize(
    "lefts,rights",
    ((EDGE_LEFTS, EDGE_RIGHTS), ([], EDGE_RIGHTS), (EDGE_LEFTS, [])),
    ids=("both", "empty-left", "empty-right"),
)
def test_equality_kernels_keep_left_order_on_every_key_shape(
    container, positions, lefts, rights
):
    """Zero, one and several key positions; either side empty.  The
    left operand is walked twice in step (rows, keys), so the output
    must follow *its* iteration order, whichever container it is."""
    lefts = container(lefts)
    index = kernels.build_index(rights, positions)
    key = kernels.key_getter(positions)
    assert list(kernels.keys_of(lefts, positions)) == [key(l) for l in lefts]
    assert list(
        kernels.hash_semijoin(lefts, index, positions, kernels.always)
    ) == [l for l in lefts if any(key(l) == key(r) for r in rights)]
    assert kernels.hash_join(lefts, index, positions, kernels.always) == [
        l + r for l in lefts for r in rights if key(l) == key(r)
    ]
    assert list(kernels.nested_loop_join(lefts, rights, kernels.always)) == [
        l + r for l in lefts for r in rights
    ]
    assert list(
        kernels.nested_loop_semijoin(lefts, rights, kernels.always)
    ) == (list(lefts) if rights else [])


def test_unhashable_and_incomparable_values_raise_type_error():
    index = kernels.build_index([(1, 2)], (1,))
    for loop in (kernels.hash_semijoin, kernels.hash_join):
        assert outcome(
            lambda: list(loop([([1], 2)], index, (1,), kernels.always))
        ) == ("raised", TypeError)
    assert outcome(lambda: kernels.build_index([([1], 2)], (1,))) == (
        "raised",
        TypeError,
    )
    order = kernels.matcher((Atom(1, "<", 1),))
    for loop in (kernels.nested_loop_join, kernels.nested_loop_semijoin):
        assert outcome(lambda: list(loop([(1,)], [("a",)], order))) == (
            "raised",
            TypeError,
        )
    index = kernels.build_index([("a", 2)], (2,))
    for loop in (kernels.hash_semijoin, kernels.hash_join):
        assert outcome(
            lambda: list(loop([(1, 2)], index, (2,), order))
        ) == ("raised", TypeError)


# ----------------------------------------------------------------------
# Stacked selections: one compress pass per predicate
# ----------------------------------------------------------------------

#: One to three ``(op, i, j)`` σ predicates, ``i == j`` included.
PREDICATES = st.lists(
    st.tuples(st.sampled_from(("=", "<")), POSITIONS, POSITIONS),
    min_size=1,
    max_size=3,
)
FILTER_SCHEMA = Schema({"L": ARITY})


def stacked(predicates):
    """``σ_pk(… σ_p1(L))``: the first predicate is the innermost."""
    expr = Rel("L", ARITY)
    for op, i, j in predicates:
        expr = Selection(expr, op, i, j)
    return expr


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    predicates=PREDICATES,
    rows=st.one_of(
        *(st.frozensets(rows_of(values), max_size=8) for values in SORTS[:2]),
        st.frozensets(MIXED_ROWS, max_size=8),
    ),
)
@example(predicates=[("<", 1, 1), ("=", 2, 2)], rows=frozenset({(1, 2, 3)}))
@example(predicates=[("<", 1, 2)], rows=frozenset())
@example(predicates=[("<", 1, 2)], rows=frozenset({(1, "a", 0)}))
def test_a_filter_is_the_structural_selection(predicates, rows):
    """Over a frozenset and a list child alike, :func:`kernels.
    filter_rows` keeps what ``evaluate`` keeps — or raises the
    ``TypeError`` it raises on an int-vs-str ``<``."""
    db = Database(FILTER_SCHEMA, {"L": rows})
    want = outcome(lambda: evaluate(stacked(predicates), db))
    for child in (rows, list(rows)):
        got = outcome(lambda: kernels.filter_rows(child, predicates))
        if got[0] == "value":
            assert len(set(got[1])) == len(got[1])
            got = ("value", frozenset(got[1]))
        assert got == want


def test_a_mixed_type_order_predicate_raises_type_error():
    with pytest.raises(TypeError):
        kernels.filter_rows([(1, "a")], [("<", 1, 2)])
    # A row an earlier predicate dropped is never compared again.
    assert kernels.filter_rows([(1, "a")], [("=", 1, 2), ("<", 1, 2)]) == []


# ----------------------------------------------------------------------
# No Python frame per row on the equality-only path
# ----------------------------------------------------------------------


def python_calls(run) -> int:
    """Python-level ``call`` events (generator resumptions included)
    while ``run()`` executes; C calls are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def warm_execution_calls(text: str, n: int) -> int:
    """Frames of one warm execution of ``text`` over ``n`` rows of ``L``."""
    db = Database(
        SCHEMA,
        {"L": {(i, i % 7) for i in range(n)}, "M": {(0, 9), (3, 9), (5, 8)}},
    )
    executor = Executor(db)
    plan = executor.plan(parse(text, SCHEMA))
    executor.execute(plan)  # builds the index, prices the plan
    executor.reset_query_state()
    return python_calls(lambda: executor.execute(plan))


@pytest.mark.parametrize(
    "text", ("L semijoin[2=1] M", "project[2](L)", "L x M")
)
def test_no_python_frame_per_row_on_the_equality_only_path(text):
    n = 150
    small = warm_execution_calls(text, n)
    large = warm_execution_calls(text, 4 * n)
    # A per-row generator hop or key lambda would add ~3n frames.
    assert abs(large - small) < 20, (small, large)


# ----------------------------------------------------------------------
# Hashed or listed: the executor's memo against OPERATORS
# ----------------------------------------------------------------------

#: The operators whose output provably holds no duplicate — stated
#: here a second time on purpose: moving an operator to ``list`` in
#: ``OPERATORS`` has to be repeated (and argued) in this file.
LISTED = (
    FilterOp,
    TagOp,
    HashJoinOp,
    NestedLoopJoinOp,
    MultiwayJoinOp,
    HashSemijoinOp,
    NestedLoopSemijoinOp,
    PartitionedOp,
)

#: The listed operators that may instead hold their left input itself,
#: when they keep every one of its rows: a semijoin's answer is a
#: subset of its left input, so the whole input is the answer.
SEMIJOINS = (HashSemijoinOp, NestedLoopSemijoinOp)

#: The operators whose store passes a held ``frozenset`` or ``list``
#: through: the semijoins, and a difference, which filters a listed
#: left and keeps a ``frozenset`` one.
PASS_THROUGH = SEMIJOINS + (DifferenceOp,)

#: ``None`` plans structurally (:func:`plan_expression`, no statistics).
MEMO_PLANS = (
    PlannerOptions(),
    None,
    PlannerOptions(rewrite_divisions=False),
    PlannerOptions(partition_budget=3),
    PlannerOptions(partition_budget=3, use_multiway=False),
)


def batches_through_the_parallel_driver(plan):
    """``plan`` with every ``PartitionedOp`` on two pool workers."""

    def step(node, descend):
        node = descend(node)
        if isinstance(node, PartitionedOp):
            return replace(node, workers=2)
        return node

    return rewrite_plan(plan, step)


def check_memo(executor, plan, expr, db) -> None:
    result = executor.execute(plan)
    reference: dict = {}
    assert result == evaluate(expr, db, reference)
    assert plan in executor._memo
    for node, rows in executor._memo.items():
        assert len(rows) == len(set(rows)), node.label()
        assert executor.stats.node_rows[node] == len(
            evaluate(node.logical, db, reference)
        ), node.label()
        if isinstance(node, SEMIJOINS):
            # A list, or exactly the memoised left input — never a
            # fresh frozenset.
            left = executor._memo[node.left]
            assert type(rows) is list or rows is left, node.label()
            assert (rows is left) == (len(rows) == len(left)), node.label()
            continue
        if isinstance(node, DifferenceOp):
            # A list exactly when its left is listed, else a frozenset.
            left = executor._memo[node.left]
            assert type(rows) is type(left), node.label()
            continue
        assert (type(rows) is list) == isinstance(node, LISTED), node.label()
        assert type(rows) is OPERATORS[type(node)][1], node.label()


MEMO = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
BACKENDS = st.sampled_from(("memory", "shm"))


@MEMO
@given(
    query=st.one_of(
        st.tuples(expressions(max_depth=4), databases()),
        st.tuples(cyclic_joins(), skewed_databases()),
        st.tuples(st.just(division.classic_division_expr()), databases()),
    ),
    options=st.sampled_from(MEMO_PLANS),
    backend=BACKENDS,
    parallel=st.booleans(),
)
def test_memoised_rows_hold_no_duplicate(query, options, backend, parallel):
    """Every memoised node: no duplicate, the structural evaluator's
    cardinality, and a ``list`` exactly where ``OPERATORS`` declares
    the operator duplicate-free (scans of both backends included).
    """
    expr, db = query
    executor = Executor(db, backend=backend)
    try:
        if options is None:
            plan = plan_expression(expr)
        else:
            plan = executor.plan(expr, options)
        if parallel:
            plan = batches_through_the_parallel_driver(plan)
        check_memo(executor, plan, expr, db)
    finally:
        executor.close()


@MEMO
@given(expr=cyclic_joins(), db=skewed_databases(), backend=BACKENDS)
def test_generic_join_rows_hold_no_duplicate(expr, db, backend):
    """The same, on the operator the planner's profitability gate
    rarely lets tiny inputs reach."""
    executor = Executor(db, backend=backend)
    try:
        check_memo(executor, collapsed(expr, db), expr, db)
    finally:
        executor.close()


def test_every_operator_is_dispatched_exactly_one_way():
    assert set(OPERATORS) == set(PlanNode.__subclasses__())
    for op, (_, store) in OPERATORS.items():
        if op not in PASS_THROUGH:
            assert store is (list if op in LISTED else frozenset), op
            continue
        for rows in (frozenset({(1,)}), [(1,)]):
            # A held input passes through; anything else is listed.
            assert store(rows) is rows
            assert store(iter(rows)) == [(1,)]

    class Mystery(PlanNode):
        def __post_init__(self) -> None:
            pass

    with pytest.raises(SchemaError, match="unknown plan node Mystery"):
        Executor(Database(SCHEMA, {"L": set(), "M": set()}))._rows(Mystery())


# ----------------------------------------------------------------------
# A dividend is validated where untyped rows enter, not per batch
# ----------------------------------------------------------------------


def test_partitioned_division_validates_no_row_but_public_calls_do():
    n = 400
    schema = Schema({"R": 2, "S": 1})
    db = Database(
        schema,
        {"R": {(i // 4, i % 4) for i in range(n)}, "S": {(0,), (1,)}},
    )
    executor = Executor(db)
    options = PlannerOptions(partition_budget=60)
    plan = executor.plan(division.classic_division_expr(), options)
    wrapped = [n for n in plan.nodes() if isinstance(n, PartitionedOp)]
    assert wrapped and isinstance(wrapped[0].inner, DivisionOp)
    seen = {"entries": 0, "row_checks": 0, "quotients": 0}

    def profile(frame, event, arg):
        if frame.f_code is kernels.quotient.__code__ and event == "call":
            seen["quotients"] += 1
        if frame.f_code is division._pairs.__code__:
            if event == "call":
                seen["entries"] += 1
            elif event == "c_call" and arg in (isinstance, len):
                seen["row_checks"] += 1

    sys.setprofile(profile)
    try:
        result = executor.execute(plan)
    finally:
        sys.setprofile(None)
    assert result == frozenset((a,) for a in range(n // 4))
    batches = executor.stats.partition_runs[wrapped[0]].actual()
    # Each batch runs the one-shot ∀ test over its slice of the
    # dividend's cached set grouping: no batch enters the direct
    # algorithms' validation at all.
    assert batches > 1 and seen["entries"] == 0
    assert seen["quotients"] == batches
    assert seen["row_checks"] == 0
    # The same rows entering by the public door are still checked.
    with pytest.raises(SchemaError, match="2-tuples"):
        division.divide_hash([(1, 2, 3)], [7])
    with pytest.raises(SchemaError, match="2-tuples"):
        division.divide_hash(frozenset({(1, 2, 3)}), [7])


# ----------------------------------------------------------------------
# A warm division or equality semijoin reads its stored input's grouping
# ----------------------------------------------------------------------

DIVISION_SCHEMA = Schema({"R": 2, "S": 1})


@st.composite
def division_databases(draw) -> Database:
    """Dividends over candidates 0–5 and values 100–106; divisors may
    hold 107 and 108, which no dividend row does."""
    rows = st.tuples(st.integers(0, 5), st.integers(100, 106))
    dividend = draw(st.frozensets(rows, max_size=25))
    divisor = draw(st.frozensets(st.integers(100, 108), max_size=4))
    return Database(
        DIVISION_SCHEMA, {"R": dividend, "S": {(b,) for b in divisor}}
    )


def three_runs(session, plan, counted: bool = True) -> list:
    """``plan`` run three times on one session: first sighting, second
    sighting, warm — each with every node's cardinality recorded (the
    structural evaluator's when ``counted``), or at or under a node a
    cached grouping stood in for."""
    executor = session.executor
    results = []
    for __ in range(3):
        results.append(executor.execute(plan))
        check_ran(executor, plan, session.db if counted else None)
        executor.reset_query_state()
    return results


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    db=division_databases(),
    eq=st.booleans(),
    empty_divisor=st.sampled_from(("all", "none")),
)
def test_a_division_over_the_cached_set_grouping_is_the_reference(
    db, eq, empty_divisor
):
    reference = (
        division.divide_reference_eq if eq else division.divide_reference
    )
    expected = reference(db["R"], db["S"])
    if not db["S"] and empty_divisor == "none":
        expected = frozenset()
    plan = DivisionOp(
        ScanOp(Rel("R", 2)),
        ScanOp(Rel("S", 1)),
        eq,
        empty_divisor,
        division.classic_division_expr(),
    )
    with Session(db, cache_results=False) as session:
        # The hand-built node's logical expression is the containment
        # division's, whatever its ``eq`` and ``empty_divisor``.
        for result in three_runs(session, plan, counted=False):
            assert result == {(a,) for a in expected}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    dividend=st.frozensets(
        st.tuples(st.integers(0, 5), st.integers(100, 106)), max_size=25
    ),
    divisor=st.frozensets(st.integers(100, 108), max_size=4),
    eq=st.booleans(),
)
# A group equal to the divisor: in a containment quotient, not a
# strict-superset one, and kept whole by the grouping.
@example(frozenset({(0, 100), (1, 101)}), frozenset({100}), False)
# A strict superset: in a containment quotient, not an equality one.
@example(frozenset({(0, 100), (0, 101)}), frozenset({100}), True)
@example(frozenset({(0, 100)}), frozenset(), False)
@example(frozenset({(0, 100)}), frozenset(), True)
@example(frozenset({(0, 100)}), frozenset({100, 107}), False)
def test_a_quotient_over_a_set_grouping_is_the_reference(
    dividend, divisor, eq
):
    reference = (
        division.divide_reference_eq if eq else division.divide_reference
    )
    expected = {(a,) for a in reference(dividend, divisor)}
    one_shot = kernels.quotient(kernels.set_groups(dividend), divisor, eq)
    assert set(one_shot) == expected
    batch = division_batch_kernel(list(dividend), list(divisor), eq)
    assert sorted(batch) == sorted(expected)


def two_column_atoms(ops, min_size: int, max_size: int):
    atom = st.builds(
        Atom, st.integers(1, 2), st.sampled_from(ops), st.integers(1, 2)
    )
    return st.lists(atom, min_size=min_size, max_size=max_size)


#: Few values, so right keys repeat across distinct rows.
PAIRS = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)))


#: A left of forty rows, five keys, under ``2=1``: right sides that are
#: empty, smaller, larger with few keys (gathered) and larger with more
#: keys than the left has rows (probed).
FORTY = frozenset((i, i % 5) for i in range(40))
FEW_KEYS = frozenset((i % 3, i) for i in range(50))
MANY_KEYS = frozenset((i, 0) for i in range(50))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    eq=two_column_atoms(("=",), 1, 2),
    rest=two_column_atoms(("<", ">", "!="), 0, 1),
    lefts=PAIRS,
    rights=PAIRS,
)
@example([Atom(2, "=", 1)], [], FORTY, frozenset())
@example([Atom(2, "=", 1)], [], FORTY, frozenset({(0, 9), (3, 9), (0, 8)}))
@example([Atom(2, "=", 1)], [], FORTY, FEW_KEYS)
@example([Atom(2, "=", 1)], [], FORTY, MANY_KEYS)
def test_a_gathered_semijoin_is_the_structural_semijoin(
    eq, rest, lefts, rights
):
    db = Database(SCHEMA, {"L": lefts, "M": rights})
    cond = ",".join(str(a) for a in eq + rest)
    expr = parse(f"L semijoin[{cond}] M", SCHEMA)
    with Session(db, cache_results=False) as session:
        plan = session.query(expr).plan()
        assert isinstance(plan, HashSemijoinOp)
        for result in three_runs(session, plan):
            assert result == evaluate(expr, db)
        left_key = (Rel("L", 2), tuple(a.i for a in eq))
        gathered = left_key in session.executor.indexes._indexes
        keys = {tuple(row[a.j - 1] for a in eq) for row in rights}
        assert gathered == (not rest and len(keys) < len(lefts))


def test_a_left_index_is_built_at_second_sight_and_reused_after():
    db = Database(
        SCHEMA,
        {"L": {(i, i % 5) for i in range(40)}, "M": {(0, 9), (3, 9)}},
    )
    with Session(db, cache_results=False) as session:
        cache = session.executor.indexes
        counts = []
        for __ in range(3):
            session.run("L semijoin[2=1] M")
            counts.append((cache.builds, cache.reuses, len(cache)))
    # M's index is built at once; L's is only noted the first time,
    # built the second, and read from then on.
    assert counts == [(1, 0, 1), (2, 1, 2), (2, 3, 2)]


def test_a_left_grouping_over_the_row_budget_is_never_built():
    db = Database(
        SCHEMA,
        {"L": {(i, i % 5) for i in range(40)}, "M": {(0, 9), (3, 9)}},
    )
    expr = parse("L semijoin[2=1] M", SCHEMA)
    with Session(db, cache_results=False) as session:
        # M's two rows fit beside L's forty only in a budget of 42:
        # building L's grouping would evict M's index, and the next
        # run would rebuild both, one evicting the other, every run.
        cache = session.executor.indexes = IndexCache(row_budget=41)
        for __ in range(4):
            assert session.run(expr) == evaluate(expr, db)
            assert (cache.builds, cache.evictions) == (1, 0)


def test_a_containment_and_an_equality_division_share_one_set_grouping():
    db = division_database(
        num_keys=40, divisor_size=5, extra_per_key=3, seed=3
    )
    with Session(db, cache_results=False) as session:
        assert session.divide(algorithm="engine") == division.divide_hash(
            db["R"], db["S"]
        )
        cache = session.executor.indexes
        assert (cache.builds, cache.reuses) == (1, 0)
        assert session.divide(
            algorithm="engine", eq=True
        ) == division.divide_reference_eq(db["R"], db["S"])
        assert (cache.builds, cache.reuses) == (1, 1)


def count_trie_requests(monkeypatch) -> list:
    """Patch a counter onto :meth:`IndexCache.trie_for`: one entry per
    request."""
    calls = []
    trie_for = IndexCache.trie_for

    def counted(self, *args):
        calls.append(args[0])
        return trie_for(self, *args)

    monkeypatch.setattr(IndexCache, "trie_for", counted)
    return calls


DIVIDEND = frozenset((a, b) for a in range(20) for b in range(a % 4 + 1))


def test_a_division_reads_a_set_grouping_and_no_trie(monkeypatch):
    calls = count_trie_requests(monkeypatch)
    db = Database(DIVISION_SCHEMA, {"R": DIVIDEND, "S": {(0,), (1,)}})
    with Session(db, cache_results=False) as session:
        for __ in range(3):
            assert session.divide(algorithm="engine") == (
                division.divide_reference(db["R"], db["S"])
            )
        assert list(session.executor.indexes._indexes) == [
            (Rel("R", 2), ("sets",))
        ]
    assert calls == []


def test_a_multiway_join_over_a_dividend_still_builds_its_trie(
    monkeypatch,
):
    calls = count_trie_requests(monkeypatch)
    db = Database(DIVISION_SCHEMA, {"R": DIVIDEND, "S": {(0,), (1,)}})
    triangle = parse("(R join[2=1] R) join[4=1,1=2] R", DIVISION_SCHEMA)
    with Session(db, cache_results=False) as session:
        session.divide(algorithm="engine")
        rows = session.executor.execute(collapsed(triangle, db))
        assert rows == evaluate(triangle, db)
        kinds = {kind[0] for __, kind in session.executor.indexes._indexes}
    assert kinds == {"sets", "trie"}
    assert calls and set(calls) == {Rel("R", 2)}


def test_a_warm_batched_division_groups_its_dividend_once(monkeypatch):
    """A batched division reads the set grouping a one-shot division
    caches: beside a one-shot run, three warm runs under a budget group
    the dividend once, and it is cached under one key."""
    grouped = []
    set_groups = kernels.set_groups

    def counted(rows):
        grouped.append(len(rows))
        return set_groups(rows)

    monkeypatch.setattr(kernels, "set_groups", counted)
    db = division_database(
        num_keys=100, divisor_size=4, extra_per_key=2, seed=7
    )
    expr = division.classic_division_expr()
    oracle = evaluate(expr, db)
    batched = PlannerOptions(partition_budget=60)
    with Session(db, cache_results=False) as session:
        assert session.run(expr) == oracle
        for __ in range(3):
            assert session.run(expr, batched) == oracle
            (run,) = session.last_report.stats.partition_runs.values()
            assert run.actual() > 1
        keys = [
            key
            for key in session.executor.indexes._indexes
            if key[0] == Rel("R", 2)
        ]
    assert grouped == [len(db["R"])]
    assert keys == [(Rel("R", 2), ("sets",))]


def test_swapped_contents_are_never_read_from_a_stale_trie_or_index():
    db = Database(
        DIVISION_SCHEMA,
        {
            "R": {(a, b) for a in range(30) for b in range(a % 4 + 1)},
            "S": {(0,), (1,)},
        },
    )
    queries = (
        division.classic_division_expr(),
        parse("R semijoin[2=1] S", DIVISION_SCHEMA),
    )
    left_key = (Rel("R", 2), (2,))
    with Session(db, cache_results=False) as session:
        for __ in range(3):
            before = [session.run(q) for q in queries]
        assert left_key in session.executor.indexes._indexes
        # New contents behind the same handle, as a storage backend
        # swapping them would leave it.
        db._relations = {
            "R": frozenset(
                (a, b) for a in range(30) for b in range(a % 5)
            ),
            "S": frozenset({(2,), (3,)}),
        }
        for run in range(3):
            after = [session.run(q) for q in queries]
            assert after == [evaluate(q, db) for q in queries]
            sighted = left_key in session.executor.indexes._indexes
            assert sighted == (run > 0)  # sightings went with the version
    assert after != before


# ----------------------------------------------------------------------
# A semijoin that keeps every left row is its left input
# ----------------------------------------------------------------------

#: ``L semijoin[cond] M`` per semijoin shape: an equality semijoin (on
#: a stored left it gathers from the second run when the right has
#: fewer keys than the left has rows, else probes), a summarised rest,
#: a scanned θ rest, two nested loops, and a computed (listed) left.
SEMIJOIN_SHAPES = (
    "L semijoin[2=1] M",
    "L semijoin[2=1,1<2] M",
    "L semijoin[2=1,1!=2] M",
    "L semijoin[1<2] M",
    "L semijoin[1!=2] M",
    "select[1<2](L) semijoin[2=1] M",
)


@st.composite
def semijoin_sides(draw) -> Database:
    """A left over keys 0–5 and a right whose keys cover all of the
    left's, some, none or — empty — nothing, plus up to forty keys no
    left row has (so the right may have more keys than the left rows)."""
    lefts = draw(
        st.frozensets(
            st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=30
        )
    )
    keys = sorted({row[1] for row in lefts})
    side = draw(st.sampled_from(("covered", "partial", "disjoint", "empty")))
    if side == "covered":
        chosen = keys
    elif side == "partial":
        chosen = draw(st.lists(st.sampled_from(keys or [0]), unique=True))
    else:
        chosen = []
    if side != "empty":
        chosen += range(100, 100 + draw(st.integers(0, 40)))
    rights = {
        (key, value)
        for key in chosen
        for value in draw(st.frozensets(st.integers(0, 9), min_size=1))
    }
    return Database(SCHEMA, {"L": lefts, "M": rights})


@settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=st.sampled_from(SEMIJOIN_SHAPES),
    db=semijoin_sides(),
    backend=BACKENDS,
)
@example(SEMIJOIN_SHAPES[0], Database(SCHEMA, {"L": FORTY, "M": FEW_KEYS}),
         "memory")
def test_a_semijoin_keeping_every_left_row_returns_its_left_input(
    text, db, backend
):
    expr = parse(text, SCHEMA)
    expected = evaluate(expr, db)
    with Session(db, backend=backend, cache_results=False) as session:
        executor = session.executor
        plan = session.query(expr).plan()
        assert isinstance(plan, (HashSemijoinOp, NestedLoopSemijoinOp))
        for __ in range(3):  # first sighting, second, warm
            result = executor.execute(plan)
            assert result == expected
            left = executor._memo[plan.left]
            assert (executor._memo[plan] is left) == (
                len(result) == len(left)
            )
            if type(left) is frozenset:
                assert (result is left) == (len(result) == len(left))
            check_ran(executor, plan, db)
            executor.reset_query_state()


@pytest.mark.parametrize("backend", ("memory", "shm"))
def test_a_covered_gather_returns_the_stored_relation(backend):
    db = division_database(
        600, 12, extra_per_key=3, hit_fraction=0.4, seed=7
    )
    expr = parse("R semijoin[1=1] (R semijoin[2=1] S)", db.schema)
    with Session(db, backend=backend, cache_results=False) as session:
        executor = session.executor
        plan = session.query(expr).plan()
        scan = plan.left
        assert isinstance(plan, HashSemijoinOp) and isinstance(scan, ScanOp)
        grouping = (scan.logical, (1,))
        for run in range(3):
            result = executor.execute(plan)
            assert result == db["R"]
            # Probed at the first sighting, which counts its kept rows;
            # from the second run on, decided on R's and the right's
            # key sets.  Either way the answer is R itself, unhashed.
            assert result is executor._memo[scan]
            assert (grouping in executor.indexes._indexes) == (run > 0)
            assert result is executor.backend.rows("R")
            # The right side's index on column 1, built at the first
            # run, stands in for it from the second on: it does not run.
            ran = {plan, scan} if run else set(plan.nodes())
            assert executor.stats.node_rows == {
                node: len(evaluate(node.logical, db)) for node in ran
            }
            assert executor.stats.from_index == (
                {plan.right} if run else set()
            )
            executor.reset_query_state()
