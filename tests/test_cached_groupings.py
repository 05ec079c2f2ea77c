"""A cached grouping answers for its input.

:class:`~repro.engine.executor.IndexCache` holds groupings keyed by
``(logical expression, positions)``.  When one is held, the executor
reads it instead of computing the input it groups: π on those positions
is the grouping's keys, and a hash join or semijoin reads it as its
right index.  Either way the input's subtree does not run, and the
input is recorded in ``ExecutionStats.from_index``.

Pinned here, over random expressions and over texts that reuse one
subexpression as a hash right side and as a π child, each run three
times on one ``Session`` (first sighting, second, warm) on every
backend:

* the rows equal the structural evaluator's;
* every plan node ran, with its exact cardinality, or lies at or under
  a node a cached grouping stood in for (:func:`check_ran`);
* a π is answered from a grouping exactly when its child's grouping on
  its positions was cached before the run, or was built earlier in the
  same run.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import Database
from repro.engine.executor import OPERATORS
from repro.engine.plan import ProjectOp
from repro.session import Session
from tests.strategies import TEST_SCHEMA, databases, expressions

BACKENDS = ("memory", "shm", "mmap")

#: ``R ⋉ S``, reused below as a hash right side and as a π child, on
#: one, two and permuted positions.
X = "(R semijoin[2=1] S)"
#: Texts whose warm runs answer a π from the index a semijoin built on
#: the π's child: on column 1, and on columns 2 then 1.
ANSWERED = (
    f"project[1]{X} union project[1](R semijoin[1=1] {X})",
    f"project[2,1](T semijoin[1=2,2=1] {X}) union project[2,1]{X}",
)
REUSED = ANSWERED + (
    f"R semijoin[1=1] {X}",
    f"project[1,2](T semijoin[1=1,2=2] {X}) union project[2,1]{X}",
    f"project[1,2](T semijoin[1=2,2=1] {X}) union project[1,2]{X}",
    f"project[1,4](R join[1=1] {X}) minus project[1,1]{X}",
    f"(R join[2=1] S) minus (T semijoin[1=1] {X})",
)


def check_ran(executor, plan, db=None) -> None:
    """Every node of ``plan`` ran — in ``node_rows`` — or lies at or
    under a node a cached grouping stood in for (``from_index``); the
    nodes that ran are exactly the memoised ones.  Given ``db``, each
    recorded count is the structural evaluator's on the node's logical
    expression."""
    stats = executor.stats
    nodes = set(plan.nodes())
    stood_in = set()
    for node in stats.from_index:
        stood_in.update(node.nodes())
    assert stats.from_index <= nodes
    assert set(stats.node_rows) == set(executor._memo)
    assert set(stats.node_rows) | stood_in == nodes
    if db is None:
        return
    reference: dict = {}
    for node, rows in stats.node_rows.items():
        assert rows == len(evaluate(node.logical, db, reference)), node.label()


@contextmanager
def projections_watched(executor):
    """Record, per π the executor runs: whether it was answered from a
    grouping (its rows are a grouping's keys) and whether its child's
    grouping on its positions was held when it ran."""
    seen = []
    run, store = OPERATORS[ProjectOp]

    def watched(self, node):
        key = (node.child.logical, node.positions)
        held = key in self.indexes._indexes
        rows = run(self, node)
        seen.append((node, key, held, isinstance(rows, type({}.keys()))))
        return rows

    OPERATORS[ProjectOp] = (watched, store)
    try:
        yield seen
    finally:
        OPERATORS[ProjectOp] = (run, store)


def three_runs(expr, db, backend) -> int:
    """``expr`` three times on one session; returns how many π were
    answered from a grouping."""
    expected = evaluate(expr, db)
    answered = 0
    with Session(db, backend=backend, cache_results=False) as session:
        executor = session.executor
        plan = session.query(expr).plan()
        for __ in range(3):
            before = set(executor.indexes._indexes)
            with projections_watched(executor) as seen:
                assert executor.execute(plan) == expected
            check_ran(executor, plan, db)
            built = set(executor.indexes._indexes) - before
            for node, key, held, from_keys in seen:
                # Answered iff held when it ran: held before the run,
                # or built earlier in this one.
                assert from_keys == held, node.label()
                if key in before:
                    assert from_keys, node.label()
                elif key not in built:
                    assert not from_keys, node.label()
                answered += from_keys
            executor.reset_query_state()
    return answered


SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(
    expr=expressions(max_depth=4),
    db=databases(),
    backend=st.sampled_from(BACKENDS),
)
def test_a_random_expression_runs_the_same_with_cached_groupings(
    expr, db, backend
):
    three_runs(expr, db, backend)


@SETTINGS
@given(
    text=st.sampled_from(REUSED),
    db=databases(),
    backend=st.sampled_from(BACKENDS),
)
def test_a_reused_subexpression_is_read_from_its_grouping(text, db, backend):
    three_runs(parse(text, TEST_SCHEMA), db, backend)


def small_db() -> Database:
    return Database(
        TEST_SCHEMA,
        {
            "R": {(i, i % 3) for i in range(8)},
            "S": {(0,), (1,)},
            "T": {(i % 3, i, 0) for i in range(6)},
        },
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("text, answered", zip(ANSWERED, (2, 3)))
def test_a_warm_projection_is_its_grouping_keys(text, answered, backend):
    """The π reads the keys of the index the semijoin beside it built on
    the same input and positions: from the second run on, and in the
    first run too when the semijoin ran first (the union's left side)."""
    expr = parse(text, TEST_SCHEMA)
    assert three_runs(expr, small_db(), backend) == answered


def test_a_skipped_right_side_is_recorded_not_run():
    expr = parse(f"R semijoin[1=1] {X}", TEST_SCHEMA)
    db = small_db()
    with Session(db, cache_results=False) as session:
        plan = session.query(expr).plan()
        for run in range(3):
            session.executor.execute(plan)
            stats = session.executor.stats
            assert stats.from_index == ({plan.right} if run else set())
            assert (plan.right in stats.node_rows) == (run == 0)
            assert "from index       : " in stats.report()
            session.executor.reset_query_state()
