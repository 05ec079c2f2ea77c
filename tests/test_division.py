"""Tests for relational division algorithms (Fig. 1 + the algorithm zoo)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.evaluator import evaluate
from repro.algebra.trace import trace
from repro.data.database import database
from repro.errors import SchemaError
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    DIVISION_EQ_ALGORITHMS,
    classic_division_expr,
    divide_hash,
    divide_reference,
    divide_reference_eq,
    divide_sort_merge,
    small_divisor_expr,
)
from repro.setjoins.setrel import SetRelation, divisor_values


def fig1_person():
    return [
        ("An", "headache"), ("An", "sore throat"), ("An", "neck pain"),
        ("Bob", "headache"), ("Bob", "sore throat"),
        ("Bob", "memory loss"), ("Bob", "neck pain"),
        ("Carol", "headache"),
    ]


FIG1_SYMPTOMS = ["headache", "neck pain"]


class TestFig1Division:
    """Person ÷ Symptoms = {An, Bob} — the paper's Fig. 1, verbatim."""

    def test_reference(self):
        assert divide_reference(fig1_person(), FIG1_SYMPTOMS) == {
            "An",
            "Bob",
        }

    @pytest.mark.parametrize("name", sorted(DIVISION_ALGORITHMS))
    def test_each_algorithm(self, name):
        assert DIVISION_ALGORITHMS[name](
            fig1_person(), FIG1_SYMPTOMS
        ) == {"An", "Bob"}

    def test_via_ra_plan(self):
        db = database(
            {"R": 2, "S": 1},
            R=fig1_person(),
            S=[(s,) for s in FIG1_SYMPTOMS],
        )
        result = evaluate(classic_division_expr(), db)
        assert result == frozenset({("An",), ("Bob",)})


class TestSetRelation:
    def test_from_binary_groups(self):
        rel = SetRelation.from_binary([(1, 7), (1, 8), (2, 7)])
        assert rel[1] == {7, 8}
        assert rel[2] == {7}
        assert rel.keys() == (1, 2)

    def test_round_trip(self):
        rows = frozenset({(1, 7), (1, 8), (2, 7)})
        assert SetRelation.from_binary(rows).to_binary() == rows

    def test_accessors(self):
        rel = SetRelation.from_binary([(1, 7), (2, 8)])
        assert len(rel) == 2
        assert 1 in rel
        assert 9 not in rel
        assert rel.get(9) == frozenset()
        assert rel.element_universe() == {7, 8}
        assert rel.total_elements() == 2
        with pytest.raises(KeyError):
            rel[9]

    def test_restrict_keys(self):
        rel = SetRelation.from_binary([(1, 7), (2, 8)])
        assert rel.restrict_keys([1]).keys() == (1,)

    def test_from_binary_rejects_wrong_arity(self):
        with pytest.raises(SchemaError):
            SetRelation.from_binary([(1, 2, 3)])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SchemaError):
            SetRelation(((1, frozenset({2})), (1, frozenset({3}))))

    def test_divisor_values_accepts_both_styles(self):
        assert divisor_values([7, 8]) == {7, 8}
        assert divisor_values([(7,), (8,)]) == {7, 8}

    def test_divisor_values_rejects_mixing_and_wide(self):
        with pytest.raises(SchemaError):
            divisor_values([7, (8,)])
        with pytest.raises(SchemaError):
            divisor_values([(7, 8)])


class TestEdgeCases:
    def test_empty_divisor_returns_all_candidates(self):
        r = [(1, 7), (2, 8)]
        expected = {1, 2}
        assert divide_reference(r, []) == expected
        for name, algorithm in DIVISION_ALGORITHMS.items():
            assert algorithm(r, []) == expected, name

    def test_empty_dividend(self):
        for algorithm in DIVISION_ALGORITHMS.values():
            assert algorithm([], [7]) == frozenset()

    def test_no_candidate_qualifies(self):
        r = [(1, 7), (2, 8)]
        for algorithm in DIVISION_ALGORITHMS.values():
            assert algorithm(r, [7, 8]) == frozenset()

    def test_equality_variant_distinguishes_supersets(self):
        r = [(1, 7), (1, 8), (2, 7), (2, 8), (2, 9)]
        s = [7, 8]
        assert divide_reference(r, s) == {1, 2}
        assert divide_reference_eq(r, s) == {1}
        for name, algorithm in DIVISION_EQ_ALGORITHMS.items():
            assert algorithm(r, s) == {1}, name

    def test_empty_divisor_equality(self):
        # No key has an empty B-set (keys only exist through rows).
        r = [(1, 7)]
        for algorithm in DIVISION_EQ_ALGORITHMS.values():
            assert algorithm(r, []) == frozenset()

    def test_string_and_int_divisors(self):
        assert divide_hash([("a", 1), ("a", 2)], [1, 2]) == {"a"}
        assert divide_sort_merge([(1, "x"), (1, "y")], ["x"]) == {1}


class TestRaPlans:
    def test_classic_plan_arity_validation(self):
        from repro.algebra.ast import rel

        with pytest.raises(SchemaError):
            classic_division_expr(rel("R", 3), rel("S", 1))

    def test_classic_plan_has_quadratic_intermediate(self):
        db = database(
            {"R": 2, "S": 1},
            R=[(i, 10 + i % 3) for i in range(9)],
            S=[(10,), (11,), (12,)],
        )
        t = trace(classic_division_expr(), db)
        candidates = len({a for a, __ in db["R"]})
        assert t.max_intermediate() >= candidates * len(db["S"])

    def test_small_divisor_expr(self):
        db = database(
            {"R": 2, "S": 1},
            R=[(1, 7), (1, 8), (2, 7)],
        )
        expr = small_divisor_expr([7, 8])
        assert evaluate(expr, db) == frozenset({(1,)})

    def test_small_divisor_expr_empty_divisor(self):
        db = database({"R": 2, "S": 1}, R=[(1, 7)])
        expr = small_divisor_expr([])
        assert evaluate(expr, db) == frozenset({(1,)})


@st.composite
def division_instance(draw):
    keys = st.integers(0, 5)
    values = st.integers(100, 106)
    rows = draw(
        st.frozensets(st.tuples(keys, values), min_size=0, max_size=25)
    )
    divisor = draw(st.frozensets(values, min_size=0, max_size=4))
    return rows, divisor


@settings(max_examples=200, deadline=None)
@given(division_instance())
def test_all_division_algorithms_agree(instance):
    rows, divisor = instance
    expected = divide_reference(rows, divisor)
    for name, algorithm in DIVISION_ALGORITHMS.items():
        assert algorithm(rows, divisor) == expected, name


@settings(max_examples=200, deadline=None)
@given(division_instance())
def test_all_equality_division_algorithms_agree(instance):
    rows, divisor = instance
    expected = divide_reference_eq(rows, divisor)
    for name, algorithm in DIVISION_EQ_ALGORITHMS.items():
        assert algorithm(rows, divisor) == expected, name


@settings(max_examples=100, deadline=None)
@given(division_instance())
def test_ra_plan_agrees_with_algorithms(instance):
    rows, divisor = instance
    db = database(
        {"R": 2, "S": 1}, R=rows, S=[(b,) for b in divisor]
    )
    via_ra = {a for (a,) in evaluate(classic_division_expr(), db)}
    assert via_ra == divide_reference(rows, divisor)


@settings(max_examples=100, deadline=None)
@given(division_instance())
def test_division_is_special_case_of_containment_join(instance):
    """R ÷ S = { a | (a, s) ∈ R ⋈_{⊇} {s: S} } (Section 1)."""
    from repro.setjoins.containment import scj_nested_loop

    rows, divisor = instance
    left = SetRelation.from_binary(rows)
    right = SetRelation.from_mapping({"s": divisor})
    joined = scj_nested_loop(left, right)
    assert {a for a, __ in joined} == divide_reference(rows, divisor)
