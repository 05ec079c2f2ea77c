"""A join read only as a filter is a semijoin wherever it sits.

:func:`repro.algebra.optimize.filter_joins` is the Corollary 19 move as
one needed-columns pass: every ``Join`` whose one side supplies no
column an ancestor reads becomes a semijoin (mirrored when the unread
side is the left one), and a semijoin over a join moves into the join
side its condition reads.  A side read only through columns an ``=``
atom binds is a filter too, under a reader that remaps positions: the
reader takes those columns from their partners, so
``project[4,1](U join[1=1] T)`` is ``project[2,1](T semijoin[1=1] U)``.
The planner runs it, with σ pushdown, as one walk before planning
(:func:`repro.algebra.optimize.rewrite`).

Pinned here:

* the pass is exact — its output evaluates to the written form's rows
  on random expressions, projected join chains and projected cycles —
  keeps the arity, and is idempotent;
* ROADMAP 16's two three-relation chains plan to semijoins only;
* a side read through its ``=``-bound columns is redirected under π,
  σ, τ and a semijoin's right side, plans without a join, and keeps
  its θ atoms in the condition; a ``<`` or ``!=`` atom redirects
  nothing, and at the root and under ∪ / − the written join stays;
* a filter that closes a cycle stays a join, so the triangle texts
  still collapse into one worst-case-optimal ``MultiwayJoinOp``;
* one call of the walk settles: on random expressions and on both
  fresh-query streams its output keeps the rows and the arity, and
  rewriting it again returns the same object;
* the planner's walk leaves a shared tree past its occurrence budget,
  and a text with a γ node, as it is;
* ``explain`` says why a written join runs as a semijoin, and the note
  is the same whatever an earlier text of the same ``Session`` was.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.workloads import adhoc_query
from repro.algebra.ast import ConstantTag, Join, Projection, Rel, Union
from repro.algebra.evaluator import evaluate
from repro.algebra.optimize import filter_joins, rewrite
from repro.algebra.parser import parse
from repro.data.database import database
from repro.data.schema import Schema
from repro.engine import Executor, MultiwayJoinOp
from repro.engine.plan import (
    HashJoinOp,
    HashSemijoinOp,
    NestedLoopJoinOp,
)
from repro.engine.planner import Planner, explain
from repro.extended.ast import group_by
from repro.session import Session
from repro.workloads.generators import zipf_triangle_db
from repro.workloads.serving import build_database
from tests.strategies import (
    CYCLE_SCHEMA,
    TEST_CONSTANTS,
    TEST_SCHEMA,
    databases,
    expressions,
    join_chains,
    projected_cyclic_joins,
    skewed_databases,
)

#: ROADMAP 16's probe: a join under a semijoin's right side, and the
#: inner join of a left-deep chain whose outer join feeds π.
CHAINS = (
    "project[1,2](R join[2=1] (S join[2=1] T))",
    "project[1,2]((R join[2=1] S) join[4=1] T)",
)

#: The three texts the ``triangle_wcoj`` benchmark workload runs.
_TRIANGLE = "((E join[2=1] F) join[4=1,1=2] G)"
TRIANGLES = tuple(
    f"project[{positions}]{_TRIANGLE}" for positions in ("1,2", "1", "2,4")
)

CHAIN_SCHEMA = Schema({"R": 2, "S": 2, "T": 2})


def check_exact(expr, db, keep_cycles):
    rewritten = filter_joins(expr, keep_cycles)
    assert rewritten.arity == expr.arity
    assert evaluate(rewritten, db) == evaluate(expr, db)
    assert filter_joins(rewritten, keep_cycles) is rewritten


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expressions(max_depth=5), databases(), st.booleans())
def test_exact_on_random_expressions(expr, db, keep_cycles):
    check_exact(expr, db, keep_cycles)


@st.composite
def projected(draw, chains):
    """A projection of a drawn chain, sometimes over a τ of it: τ's
    column moves when the chain under it shrinks."""
    expr = draw(chains)
    if draw(st.booleans()):
        expr = ConstantTag(expr, draw(st.sampled_from(TEST_CONSTANTS)))
    positions = draw(st.lists(st.integers(1, expr.arity), max_size=3))
    return Projection(expr, tuple(positions))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(projected(join_chains()), databases(), st.booleans())
def test_exact_on_projected_join_chains(expr, db, keep_cycles):
    check_exact(expr, db, keep_cycles)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    projected_cyclic_joins(),
    skewed_databases(CYCLE_SCHEMA),
    st.booleans(),
)
def test_exact_on_projected_cycles(expr, db, keep_cycles):
    check_exact(expr, db, keep_cycles)


def chain_db(rows=300, values=30):
    return database(
        CHAIN_SCHEMA,
        **{
            name: [
                ((k * 7 + shift) % values, (k * 13 + 3 * shift) % values)
                for k in range(rows)
            ]
            for shift, name in enumerate(("R", "S", "T"))
        },
    )


@pytest.mark.parametrize("text", CHAINS)
def test_chains_plan_to_semijoins_only(text):
    db = chain_db()
    expr = parse(text, CHAIN_SCHEMA)
    executor = Executor(db)
    plan = executor.plan(expr)
    kinds = {type(node) for node in plan.nodes()}
    assert HashSemijoinOp in kinds
    assert not kinds & {HashJoinOp, NestedLoopJoinOp, MultiwayJoinOp}
    assert executor.execute(plan) == evaluate(expr, db)


#: The ``adhoc_tiny`` benchmark workload's database: R, T, U binary.
MIXED = build_database("mixed", num_keys=24, extra_rows=48, seed=5)

#: Written text → the pass's output: each filter side is read only
#: through a column an ``=`` atom binds, so its reader takes the
#: partner column instead.
REDIRECTS = {
    # U is the filter: mirrored.
    "project[4,1](U join[1=1] T)": "project[2,1](T semijoin[1=1] U)",
    # U is the filter on the right: not mirrored.
    "project[2,3](T join[1=1] U)": "project[2,1](T semijoin[1=1] U)",
    "project[4](select[1<4](U join[1=1] T))":
        "project[2](select[1<2](T semijoin[1=1] U))",
    "project[5,4,1](tag[7](U join[1=1] T))":
        "project[3,2,1](tag[7](T semijoin[1=1] U))",
    # A semijoin's right side is read only by its condition.
    "T semijoin[1=1,2=4] (U join[1=1] T)":
        "T semijoin[1=1,2=2] (T semijoin[1=1] U)",
    # Three inputs: U is unread, then T is read through its join column.
    "project[1,3]((R join[2=1] T) join[4=1] U)":
        "project[1,2](R semijoin[2=1] (T semijoin[2=1] U))",
    # A θ atom stays in the semijoin's condition, mirrored with it.
    "project[4,1](U join[1=1,2<2] T)": "project[2,1](T semijoin[1=1,2>2] U)",
}


@pytest.mark.parametrize("text", REDIRECTS)
def test_a_side_read_through_its_join_columns_is_a_filter(text):
    expr = parse(text, MIXED.schema)
    rewritten = filter_joins(expr)
    assert rewritten == parse(REDIRECTS[text], MIXED.schema)
    assert evaluate(rewritten, MIXED) == evaluate(expr, MIXED)
    executor = Executor(MIXED)
    plan = executor.plan(expr)
    kinds = {type(node) for node in plan.nodes()}
    assert not kinds & {HashJoinOp, NestedLoopJoinOp, MultiwayJoinOp}
    assert "Cor. 19" in plan.explain()
    assert executor.execute(plan) == evaluate(expr, MIXED)


@pytest.mark.parametrize(
    "text",
    [
        "project[4,1](U join[1<1] T)",
        "project[4,1](U join[1!=1] T)",
        # U's column 2 is bound only by a θ atom.
        "project[4,2](U join[1=1,2<1] T)",
        "project[4,1](U join[2=1,1!=2] T)",
    ],
)
def test_an_order_or_inequality_atom_redirects_nothing(text):
    expr = parse(text, MIXED.schema)
    assert filter_joins(expr) is expr


#: ``benchmarks/test_cost_model.py``'s written-order chain: S is read
#: only through its join column, but nothing above remaps positions.
WRITTEN_CHAIN = "(T join[1=1] R) join[5=1] S"


@pytest.mark.parametrize(
    "text",
    [
        WRITTEN_CHAIN,
        f"{WRITTEN_CHAIN} union {WRITTEN_CHAIN}",
        f"{WRITTEN_CHAIN} minus {WRITTEN_CHAIN}",
        "R join[1=1] S",
    ],
)
def test_at_the_root_and_under_union_or_difference_a_join_stays(text):
    expr = parse(text, TEST_SCHEMA)
    assert filter_joins(expr) is expr
    assert filter_joins(expr, keep_cycles=True) is expr


@pytest.mark.parametrize("text", TRIANGLES)
def test_a_filter_closing_a_cycle_stays_a_join(text):
    db = zipf_triangle_db(64, tail=128, skew=1.1, seed=3)
    expr = parse(text, db.schema)
    executor = Executor(db)
    plan = executor.plan(expr)
    assert isinstance(plan, MultiwayJoinOp)
    assert plan.positions == expr.positions
    assert executor.execute(plan) == evaluate(expr, db)
    # Without the multiway collapse the cycle's filter is a semijoin.
    assert filter_joins(expr) != expr
    assert filter_joins(expr, keep_cycles=True) is expr


class TestExplainNotes:
    def test_a_left_filter_join_says_so(self):
        rendered = explain(parse("project[1,2](R join[2=1] S)", CHAIN_SCHEMA))
        assert "HashSemijoin" in rendered
        assert "join used only as a filter (Cor. 19)" in rendered

    def test_a_mirrored_filter_join_says_so(self):
        rendered = explain(parse("project[3](R join[2=1] S)", CHAIN_SCHEMA))
        assert "join used only as a right-side filter (Cor. 19)" in rendered
        assert "mirrored semijoin" in rendered

    @pytest.mark.parametrize("text", CHAINS)
    def test_every_semijoin_of_a_chain_says_so(self, text):
        rendered = explain(parse(text, CHAIN_SCHEMA))
        assert rendered.count("join used only as a filter") == 2

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_note_does_not_depend_on_the_text_before(self, first):
        """A π over a made semijoin and the same π written as one plan
        apart: each prints what a fresh ``Session`` prints, whichever
        came first."""
        db = build_database("mixed", num_keys=24, extra_rows=48, seed=7)
        texts = [
            "project[1,2](R join[2=1] S)",
            "project[1,2](R semijoin[2=1] S)",
        ]
        session = Session(db, cache_results=False)
        for text in (texts[first], texts[1 - first]):
            fresh = Session(db, cache_results=False).explain(text, costs=True)
            assert session.explain(text, costs=True) == fresh
        assert "Cor. 19" in session.explain(texts[0])
        assert "Cor. 19" not in session.explain(texts[1])

    def test_a_written_semijoin_carries_no_note_after_a_made_one(self):
        """The sub-plan memo outlives a text; the note does not leak
        to the same semijoin written as one."""
        executor = Executor(chain_db(rows=20))
        made = executor.plan(
            parse("project[1,2](R join[2=1] S)", CHAIN_SCHEMA)
        )
        written = executor.plan(parse("R semijoin[2=1] S", CHAIN_SCHEMA))
        assert "Cor. 19" in made.explain()
        assert "Cor. 19" not in written.explain()


def check_settled(expr, db, keep_cycles):
    rewritten = rewrite(expr, keep_cycles)
    assert rewritten.arity == expr.arity
    assert evaluate(rewritten, db) == evaluate(expr, db)
    assert rewrite(rewritten, keep_cycles) is rewritten


@settings(max_examples=300, deadline=None, derandomize=True)
@given(expressions(max_depth=5), databases(), st.booleans())
def test_one_walk_settles_random_expressions(expr, db, keep_cycles):
    check_settled(expr, db, keep_cycles)


#: ``adhoc_query``'s arguments after ``rng`` for the two fresh-query
#: streams: ``adhoc_tiny``'s and the serving workloads'.
STREAMS = {
    "adhoc_tiny": (("R", "T", "U"), 3, True, "R"),
    "serving": (("T", "U"), 2, False),
}


@pytest.mark.parametrize("seed", [7, 31])
@pytest.mark.parametrize("stream", STREAMS)
def test_one_walk_settles_the_fresh_query_streams(stream, seed):
    """A join a child's rewrite made a filter — two read columns that
    became one — is a semijoin after the one call."""
    rng, texts = random.Random(seed), {}
    while len(texts) < 1500:
        texts.setdefault(adhoc_query(rng, *STREAMS[stream]), None)
    for text in texts:
        check_settled(parse(text, MIXED.schema), MIXED, keep_cycles=False)


def test_a_semijoin_over_a_chain_made_below_it_moves_into_the_chain():
    """The inner semijoin moves into the cartesian product first; then
    the outer one's left side is a join chain, and it moves too."""
    expr = parse("((R join[] T) semijoin[1=1] U) semijoin[1=2] U", MIXED.schema)
    rewritten = rewrite(expr)
    assert rewritten == parse(
        "((R semijoin[1=1] U) semijoin[1=2] U) join[] T", MIXED.schema
    )
    assert evaluate(rewritten, MIXED) == evaluate(expr, MIXED)


class TestPlannerGuards:
    LIMIT = Planner.PUSHDOWN_SIZE_LIMIT

    @staticmethod
    def doubled(expr, times):
        for __ in range(times):
            expr = Union(expr, expr)
        return expr

    def test_a_shared_tree_past_the_budget_comes_back_as_it_is(self):
        filter_text = parse("project[1,2](R join[2=1] S)", CHAIN_SCHEMA)
        within = self.doubled(filter_text, 6)  # 64 · 4 + 63 occurrences
        assert rewrite(within, limit=self.LIMIT) is not within
        past = self.doubled(filter_text, 7)  # 128 · 4 + 127 occurrences
        assert rewrite(past) is not past
        assert rewrite(past, limit=self.LIMIT) is past

    def test_a_text_with_a_grouping_comes_back_as_it_is(self):
        grouped = group_by(Rel("R", 2), [1], "count(2)")
        expr = Projection(Join(Rel("R", 2), grouped, "2=1"), (1, 2))
        assert rewrite(expr) is not expr
        assert rewrite(expr, limit=self.LIMIT) is expr
