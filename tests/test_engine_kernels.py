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
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.conditions import OPS, Atom, Condition
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.data.schema import Schema
from repro.engine import Executor, kernels
from repro.engine.partition import scatter_for
from repro.engine.plan import HashSemijoinOp, NestedLoopSemijoinOp, ScanOp

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
        kernels.key_getter(tuple(a.i for a in eq)),
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
    assert sorted(kernels.nested_loop_semijoin(lefts, rights, match)) == kept
    right_positions, key, rest = split(atoms)
    index = kernels.build_index(rights, right_positions)
    assert sorted(kernels.hash_join(lefts, index, key, rest)) == joined
    assert sorted(kernels.hash_semijoin(lefts, index, key, rest)) == kept


class Counted:
    """A value whose order comparisons are counted."""

    calls = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __lt__(self, other: "Counted") -> bool:
        Counted.calls += 1
        return self.value < other.value


def test_semijoins_evaluate_no_pair_after_the_first_witness():
    lefts = [(Counted(0),), (Counted(1),)]
    # Every right row is a witness for every left row.
    rights = [(Counted(5 + k),) for k in range(7)]
    match = kernels.matcher((Atom(1, "<", 1),))
    loops = {
        "nested": lambda: kernels.nested_loop_semijoin(lefts, rights, match),
        "hash": lambda: kernels.hash_semijoin(
            lefts,
            kernels.build_index(rights, ()),
            kernels.key_getter(()),
            match,
        ),
    }
    for name, loop in loops.items():
        Counted.calls = 0
        assert list(loop()) == lefts, name
        assert Counted.calls == len(lefts), name


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
