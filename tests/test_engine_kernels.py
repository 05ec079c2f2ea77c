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
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import OPS, Atom, Condition
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import Executor, PlannerOptions, kernels
from repro.engine.executor import OPERATORS
from repro.engine.partition import scatter_for
from repro.engine.plan import (
    DivisionOp,
    FilterOp,
    HashJoinOp,
    HashSemijoinOp,
    MultiwayJoinOp,
    NestedLoopJoinOp,
    NestedLoopSemijoinOp,
    ParallelOp,
    PartitionedOp,
    PlanNode,
    ScanOp,
    TagOp,
    rewrite_plan,
)
from repro.errors import SchemaError
from repro.setjoins import division
from tests.strategies import (
    cyclic_joins,
    databases,
    expressions,
    skewed_databases,
)
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
        scatter = scatter_for(executor, inner, 1000)
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
    ParallelOp,
)

MEMO_PLANS = (
    PlannerOptions(),
    PlannerOptions(use_costs=False),
    PlannerOptions(rewrite_divisions=False, introduce_semijoins=False),
    PlannerOptions(partition_budget=3),
    PlannerOptions(partition_budget=3, use_multiway=False),
)


def batches_through_the_parallel_driver(plan):
    """``plan`` with every ``PartitionedOp`` as a one-worker ``ParallelOp``."""

    def step(node, descend):
        node = descend(node)
        if isinstance(node, PartitionedOp):
            return ParallelOp(node.inner, node.partitions, node.budget, 1)
        return node

    return rewrite_plan(plan, step)


def check_memo(executor, plan, options, expr, db) -> None:
    result = executor.execute(plan, options)
    reference: dict = {}
    assert result == evaluate(expr, db, reference)
    assert plan in executor._memo
    for node, rows in executor._memo.items():
        assert len(rows) == len(set(rows)), node.label()
        assert executor.stats.node_rows[node] == len(
            evaluate(node.logical, db, reference)
        ), node.label()
        assert (type(rows) is list) == isinstance(node, LISTED), node.label()
        assert type(rows) is OPERATORS[type(node)][1], node.label()


MEMO = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
BACKENDS = st.sampled_from(("memory", "shm", "mmap"))


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
    the operator duplicate-free (scans of all three backends included).
    """
    expr, db = query
    executor = Executor(db, backend=backend)
    try:
        plan = executor.plan(expr, options)
        if parallel:
            plan = batches_through_the_parallel_driver(plan)
        check_memo(executor, plan, options, expr, db)
    finally:
        executor.close()


@MEMO
@given(expr=cyclic_joins(), db=skewed_databases(), backend=BACKENDS)
def test_generic_join_rows_hold_no_duplicate(expr, db, backend):
    """The same, on the operator the planner's profitability gate
    rarely lets tiny inputs reach."""
    executor = Executor(db, backend=backend)
    try:
        check_memo(executor, collapsed(expr, db), None, expr, db)
    finally:
        executor.close()


def test_every_operator_is_dispatched_exactly_one_way():
    assert set(OPERATORS) == set(PlanNode.__subclasses__())
    assert {
        op: store for op, (_, store) in OPERATORS.items()
    } == {op: list if op in LISTED else frozenset for op in OPERATORS}

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
    seen = {"entries": 0, "row_checks": 0}

    def profile(frame, event, arg):
        if frame.f_code is division._pairs.__code__:
            if event == "call":
                seen["entries"] += 1
            elif event == "c_call" and arg in (isinstance, len):
                seen["row_checks"] += 1

    sys.setprofile(profile)
    try:
        result = executor.execute(plan, options)
    finally:
        sys.setprofile(None)
    assert result == frozenset((a,) for a in range(n // 4))
    batches = executor.stats.partition_runs[wrapped[0]].actual()
    assert batches > 1 and seen["entries"] == batches
    assert seen["row_checks"] == 0
    # The same rows entering by the public door are still checked.
    with pytest.raises(SchemaError, match="2-tuples"):
        division.divide_hash([(1, 2, 3)], [7])
    with pytest.raises(SchemaError, match="2-tuples"):
        division.divide_hash(frozenset({(1, 2, 3)}), [7])
