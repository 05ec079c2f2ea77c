"""Cross-algorithm equivalence for the whole division zoo.

Every containment-division variant (the six registry algorithms, the
classic RA plan, the per-divisor-value plan, the §5 γ plan, and the
engine's DivisionOp) and every equality variant (the four ``_eq``
registry algorithms, the γ equality plan, and the engine) must compute
the same quotient on the :mod:`repro.workloads.generators` workloads —
including the empty-divisor and empty-dividend edge cases, where the
γ plans' documented ∅ caveat is the only sanctioned divergence.

Also here: the regression tests for consistent ``SchemaError``
validation of malformed dividends across all zoo variants.
"""

from collections import namedtuple

import pytest

from repro.algebra.evaluator import evaluate
from repro.data.database import Database, database
from repro.errors import SchemaError
from repro.extended.division_plan import (
    containment_division_plan,
    equality_division_plan,
)
from repro.extended.evaluator import evaluate_extended
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    DIVISION_EQ_ALGORITHMS,
    classic_division_expr,
    divide_reference,
    divide_reference_eq,
    small_divisor_expr,
)
from repro.workloads.generators import (
    division_workload,
    sparse_division_workload,
)
from tests.strategies import engine_run

#: (name, workload) pairs covering dense, sparse, skewed and edge cases.
WORKLOADS = [
    ("dense", division_workload(40, 6, hit_fraction=0.5, seed=1)),
    ("all-hits", division_workload(25, 4, hit_fraction=1.0, seed=2)),
    ("no-hits", division_workload(25, 4, hit_fraction=0.0, seed=3)),
    ("sparse", sparse_division_workload(60, 20, seed=4)),
    ("singleton-divisor", division_workload(20, 1, seed=5)),
    ("empty-divisor", division_workload(12, 0, seed=6)),
    ("empty-dividend", (frozenset(), frozenset({10**6, 10**6 + 1}))),
    ("both-empty", (frozenset(), frozenset())),
]

IDS = [name for name, __ in WORKLOADS]
CASES = [case for __, case in WORKLOADS]


def _db_for(rows, divisor) -> Database:
    return database(
        {"R": 2, "S": 1}, R=rows, S=[(b,) for b in divisor]
    )


@pytest.mark.parametrize("rows,divisor", CASES, ids=IDS)
class TestContainmentZooAgrees:
    def test_registry_algorithms(self, rows, divisor):
        expected = divide_reference(rows, divisor)
        for name, algorithm in DIVISION_ALGORITHMS.items():
            assert algorithm(rows, divisor) == expected, name

    def test_classic_plan_and_engine(self, rows, divisor):
        expected = frozenset(
            (a,) for a in divide_reference(rows, divisor)
        )
        db = _db_for(rows, divisor)
        expr = classic_division_expr()
        assert evaluate(expr, db) == expected
        assert engine_run(expr, db) == expected

    def test_small_divisor_plan(self, rows, divisor):
        expected = frozenset(
            (a,) for a in divide_reference(rows, divisor)
        )
        db = _db_for(rows, divisor)
        expr = small_divisor_expr(divisor)
        assert evaluate(expr, db) == expected
        assert engine_run(expr, db) == expected

    def test_gamma_plan_and_engine_agree(self, rows, divisor):
        """The γ plan matches the reference except on an empty divisor,
        where it returns ∅ (documented caveat) — and the engine must
        reproduce exactly that, not the reference."""
        db = _db_for(rows, divisor)
        expr = containment_division_plan()
        structural = evaluate_extended(expr, db)
        assert engine_run(expr, db) == structural
        if divisor:
            assert structural == frozenset(
                (a,) for a in divide_reference(rows, divisor)
            )
        else:
            assert structural == frozenset()


@pytest.mark.parametrize("rows,divisor", CASES, ids=IDS)
class TestEqualityZooAgrees:
    def test_registry_algorithms(self, rows, divisor):
        expected = divide_reference_eq(rows, divisor)
        for name, algorithm in DIVISION_EQ_ALGORITHMS.items():
            assert algorithm(rows, divisor) == expected, name

    def test_gamma_plan_and_engine_agree(self, rows, divisor):
        db = _db_for(rows, divisor)
        expr = equality_division_plan()
        structural = evaluate_extended(expr, db)
        assert engine_run(expr, db) == structural
        if divisor:
            assert structural == frozenset(
                (a,) for a in divide_reference_eq(rows, divisor)
            )
        else:
            assert structural == frozenset()


Pair = namedtuple("Pair", "a b")
Triple = namedtuple("Triple", "a b c")

#: Malformed dividends: wrong arity, string rows (sneaky 2-sequences),
#: non-sequence rows, and a tuple subclass of the wrong length.
BAD_DIVIDENDS = [
    [(1, 2, 3)],
    [(1,)],
    [()],
    ["ab"],
    [7],
    [None],
    [(1, 2), (3, 4, 5)],
    [(1, 7), Triple(1, 8, 9)],
]

#: Well-formed dividends that are not already sets of plain 2-tuples:
#: every one normalizes to ``{(1, 7), (1, 8)}``.  (A list row cannot
#: sit in a ``frozenset``; the other row types can, and a ``frozenset``
#: is what skips the row-by-row check when all its rows are plain.)
GOOD_DIVIDENDS = [
    [[1, 7], [1, 8]],
    [[1, 7], (1, 8)],
    frozenset({(1, 7), (1, 8)}),
    frozenset({Pair(1, 7), Pair(1, 8)}),
    frozenset({(1, 7), Pair(1, 8)}),
]

ALL_DIVISION_FUNCTIONS = (
    [("reference", divide_reference), ("reference_eq", divide_reference_eq)]
    + sorted(DIVISION_ALGORITHMS.items())
    + [(f"{name}_eq", fn) for name, fn in sorted(DIVISION_EQ_ALGORITHMS.items())]
)


class TestDividendValidation:
    """Regression: every zoo variant raises SchemaError on bad rows."""

    @pytest.mark.parametrize(
        "name,algorithm",
        ALL_DIVISION_FUNCTIONS,
        ids=[name for name, __ in ALL_DIVISION_FUNCTIONS],
    )
    @pytest.mark.parametrize("container", (list, set, frozenset))
    @pytest.mark.parametrize("bad", BAD_DIVIDENDS, ids=repr)
    def test_bad_dividend_rejected(self, name, algorithm, bad, container):
        with pytest.raises(SchemaError, match="2-tuples"):
            algorithm(container(bad), [7])

    @pytest.mark.parametrize(
        "name,algorithm",
        ALL_DIVISION_FUNCTIONS,
        ids=[name for name, __ in ALL_DIVISION_FUNCTIONS],
    )
    @pytest.mark.parametrize("rows", GOOD_DIVIDENDS, ids=repr)
    def test_sequence_rows_are_normalized(self, name, algorithm, rows):
        # Lists and tuple subclasses of length 2 are legitimate rows.
        assert algorithm(rows, [7, 8]) == frozenset({1})
        assert algorithm(rows, [7]) == (
            frozenset() if name.endswith("_eq") else frozenset({1})
        )

    def test_error_message_names_the_row(self):
        with pytest.raises(SchemaError, match="2-tuples"):
            divide_reference([(1, 2, 3)], [7])
