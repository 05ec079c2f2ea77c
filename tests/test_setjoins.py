"""Tests for set-containment, set-equality and set-predicate joins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.setjoins.containment import (
    CONTAINMENT_ALGORITHMS,
    containment_join_binary,
    scj_nested_loop,
    scj_partition,
    scj_signature,
)
from repro.setjoins.equality import (
    EQUALITY_ALGORITHMS,
    sej_hash,
    sej_nested_loop,
    sej_sort,
)
from repro.setjoins.predicates import (
    PREDICATES,
    overlap_join_via_equijoin,
    overlaps,
    set_predicate_join,
)
from repro.setjoins.setrel import SetRelation
from repro.setjoins.signatures import (
    make_signature,
    maybe_equal,
    maybe_superset,
)


def fig1_relations():
    person = SetRelation.from_mapping(
        {
            "An": {"headache", "sore throat", "neck pain"},
            "Bob": {"headache", "sore throat", "memory loss", "neck pain"},
            "Carol": {"headache"},
        }
    )
    disease = SetRelation.from_mapping(
        {
            "flu": {"headache", "sore throat"},
            "Lyme": {"headache", "sore throat", "memory loss", "neck pain"},
        }
    )
    return person, disease


FIG1_EXPECTED = frozenset(
    {("An", "flu"), ("Bob", "flu"), ("Bob", "Lyme")}
)


class TestFig1ContainmentJoin:
    """Person ⋈_{Symptom ⊇ Symptom} Disease — the paper's Fig. 1."""

    @pytest.mark.parametrize("name", sorted(CONTAINMENT_ALGORITHMS))
    def test_each_algorithm(self, name):
        person, disease = fig1_relations()
        assert CONTAINMENT_ALGORITHMS[name](person, disease) == FIG1_EXPECTED

    def test_binary_interface(self):
        person, disease = fig1_relations()
        assert (
            containment_join_binary(
                person.to_binary(), disease.to_binary()
            )
            == FIG1_EXPECTED
        )


class TestSignatures:
    def test_superset_signature_never_false_negative(self):
        big = frozenset(range(20))
        small = frozenset(range(5))
        assert maybe_superset(make_signature(big), make_signature(small))

    def test_equal_signatures(self):
        assert maybe_equal(
            make_signature({1, 2, 3}), make_signature({3, 2, 1})
        )

    def test_narrow_signatures_still_sound(self):
        # 4-bit signatures collide a lot but must stay sound on subsets.
        big = frozenset(range(10))
        for k in range(10):
            small = frozenset(range(k))
            assert maybe_superset(
                make_signature(big, bits=4), make_signature(small, bits=4)
            )

    def test_signature_join_with_tiny_width_verifies(self):
        person, disease = fig1_relations()
        assert scj_signature(person, disease, bits=2) == FIG1_EXPECTED


class TestContainmentEdgeCases:
    def test_empty_required_set_matches_everything(self):
        left = SetRelation.from_mapping({"a": {1}, "b": {2}})
        right = SetRelation.from_mapping({"empty": set()})
        expected = frozenset({("a", "empty"), ("b", "empty")})
        for name, algorithm in CONTAINMENT_ALGORITHMS.items():
            assert algorithm(left, right) == expected, name

    def test_unknown_element_disqualifies(self):
        left = SetRelation.from_mapping({"a": {1, 2}})
        right = SetRelation.from_mapping({"c": {1, 99}})
        for algorithm in CONTAINMENT_ALGORITHMS.values():
            assert algorithm(left, right) == frozenset()

    def test_empty_relations(self):
        empty = SetRelation.from_mapping({})
        full = SetRelation.from_mapping({"a": {1}})
        for algorithm in CONTAINMENT_ALGORITHMS.values():
            assert algorithm(empty, full) == frozenset()
            assert algorithm(full, empty) == frozenset()

    def test_partition_counts(self):
        person, disease = fig1_relations()
        for partitions in (1, 2, 3, 16):
            assert (
                scj_partition(person, disease, partitions=partitions)
                == FIG1_EXPECTED
            )

    def test_partition_rejects_nonpositive(self):
        person, disease = fig1_relations()
        with pytest.raises(ValueError):
            scj_partition(person, disease, partitions=0)


@st.composite
def set_relation_pair(draw):
    def one(key_base: int):
        count = draw(st.integers(0, 5))
        return SetRelation.from_mapping(
            {
                key_base + index: draw(
                    st.frozensets(st.integers(0, 9), min_size=0, max_size=5)
                )
                for index in range(count)
            }
        )

    return one(0), one(100)


@settings(max_examples=150, deadline=None)
@given(set_relation_pair())
def test_all_containment_algorithms_agree(pair):
    left, right = pair
    expected = scj_nested_loop(left, right)
    for name, algorithm in CONTAINMENT_ALGORITHMS.items():
        assert algorithm(left, right) == expected, name


@settings(max_examples=150, deadline=None)
@given(set_relation_pair())
def test_all_equality_algorithms_agree(pair):
    left, right = pair
    expected = sej_nested_loop(left, right)
    for name, algorithm in EQUALITY_ALGORITHMS.items():
        assert algorithm(left, right) == expected, name


@settings(max_examples=100, deadline=None)
@given(set_relation_pair())
def test_equality_refines_containment(pair):
    left, right = pair
    both_ways = scj_nested_loop(left, right) & frozenset(
        (a, c)
        for c, a in scj_nested_loop(right, left)
    )
    assert sej_nested_loop(left, right) == both_ways


class TestEqualityJoin:
    def test_quadratic_output_case(self):
        """Footnote 1: equal sets on both sides → output is a full
        cross product of the groups."""
        from repro.workloads.generators import equal_sets_pair

        left, right = equal_sets_pair(num_groups=3, group_size=4)
        out = sej_hash(left, right)
        assert len(out) == 3 * 4 * 4

    def test_sort_and_hash_agree_on_strings(self):
        left = SetRelation.from_mapping(
            {"a": {"x", "y"}, "b": {"z"}}
        )
        right = SetRelation.from_mapping(
            {"c": {"y", "x"}, "d": {"w"}}
        )
        assert sej_sort(left, right) == sej_hash(left, right) == frozenset(
            {("a", "c")}
        )


class TestPredicateJoins:
    def test_builtin_predicates(self):
        left = SetRelation.from_mapping({"a": {1, 2}})
        right = SetRelation.from_mapping(
            {"sub": {1}, "same": {1, 2}, "other": {9}}
        )
        assert set_predicate_join(left, right, PREDICATES["contains"]) == {
            ("a", "sub"),
            ("a", "same"),
        }
        assert set_predicate_join(left, right, PREDICATES["equals"]) == {
            ("a", "same")
        }
        assert set_predicate_join(left, right, PREDICATES["overlaps"]) == {
            ("a", "sub"),
            ("a", "same"),
        }
        assert set_predicate_join(left, right, PREDICATES["disjoint"]) == {
            ("a", "other")
        }
        assert set_predicate_join(
            left, right, PREDICATES["contained_in"]
        ) == {("a", "same")}

    @settings(max_examples=100, deadline=None)
    @given(set_relation_pair())
    def test_overlap_join_is_an_equijoin(self, pair):
        """The paper's Section 1 remark, as a property."""
        left, right = pair
        expected = set_predicate_join(left, right, overlaps)
        assert overlap_join_via_equijoin(left, right) == expected
