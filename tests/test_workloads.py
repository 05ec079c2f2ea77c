"""Tests for the workload generators."""

import pytest

from repro.bisim.bisimulation import bisimilar
from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.setjoins.division import divide_reference
from repro.workloads.figures import format_table
from repro.workloads.generators import (
    containment_biased_pair,
    crossproduct_division_family,
    division_database,
    division_workload,
    equal_sets_pair,
    fig5_scaled_pair,
    random_database,
    sparse_division_workload,
    zipf_set_relation,
    zipf_weights,
)


class TestRandomDatabase:
    def test_schema_respected(self):
        schema = Schema({"R": 2, "T": 3})
        db = random_database(schema, 10, seed=1)
        assert db.schema == schema
        for name in schema:
            assert all(len(row) == schema[name] for row in db[name])

    def test_deterministic(self):
        schema = Schema({"R": 2})
        assert random_database(schema, 10, seed=5) == random_database(
            schema, 10, seed=5
        )
        assert random_database(schema, 10, seed=5) != random_database(
            schema, 10, seed=6
        )


class TestDivisionWorkload:
    def test_hit_fraction_controls_quotient(self):
        rows, divisor = division_workload(
            num_keys=20, divisor_size=4, hit_fraction=0.5, seed=1
        )
        quotient = divide_reference(rows, divisor)
        assert len(quotient) == 10  # exactly the hit keys

    def test_zero_and_full_hit_fractions(self):
        rows, divisor = division_workload(10, 3, hit_fraction=0.0, seed=2)
        assert divide_reference(rows, divisor) == frozenset()
        rows, divisor = division_workload(10, 3, hit_fraction=1.0, seed=2)
        assert len(divide_reference(rows, divisor)) == 10

    def test_invalid_fraction(self):
        with pytest.raises(SchemaError):
            division_workload(10, 3, hit_fraction=1.5)

    def test_division_database_packaging(self):
        db = division_database(10, 3, seed=3)
        assert set(db.schema) == {"R", "S"}
        assert len(db["S"]) == 3

    def test_sparse_workload_is_linear_sized(self):
        rows, divisor = sparse_division_workload(
            num_keys=100, divisor_size=50, elements_per_key=3, seed=1
        )
        # |R| = Θ(keys + divisor), far below keys × divisor.
        assert len(rows) <= 100 * 3 + 50
        assert len(divisor) == 50
        quotient = divide_reference(rows, divisor)
        assert quotient == {0}  # exactly the full key

    def test_crossproduct_family_scales_linearly(self):
        small = crossproduct_division_family(16)
        large = crossproduct_division_family(64)
        assert large.size() <= 4 * small.size() + 4


class TestZipfSets:
    def test_weights_decrease(self):
        weights = zipf_weights(5, 1.0)
        assert weights == sorted(weights, reverse=True)

    def test_set_sizes_in_range(self):
        rel = zipf_set_relation(
            num_sets=30, min_size=2, max_size=5, universe_size=20, seed=4
        )
        assert len(rel) == 30
        for key in rel.keys():
            assert 2 <= len(rel[key]) <= 5

    def test_skew_concentrates_elements(self):
        flat = zipf_set_relation(50, 3, 6, 40, skew=0.0, seed=7)
        skewed = zipf_set_relation(50, 3, 6, 40, skew=2.5, seed=7)
        assert len(skewed.element_universe()) <= len(
            flat.element_universe()
        )

    def test_invalid_sizes(self):
        with pytest.raises(SchemaError):
            zipf_set_relation(5, 0, 3, 10)
        with pytest.raises(SchemaError):
            zipf_set_relation(5, 4, 3, 10)

    def test_key_offset(self):
        rel = zipf_set_relation(3, 1, 2, 10, seed=1, key_offset=100)
        assert all(key >= 100 for key in rel.keys())


class TestContainmentPair:
    def test_fraction_controls_hits(self):
        from repro.setjoins.containment import scj_nested_loop

        left, right = containment_biased_pair(
            num_left=30, num_right=30, containment_fraction=1.0, seed=9
        )
        many = len(scj_nested_loop(left, right))
        left2, right2 = containment_biased_pair(
            num_left=30, num_right=30, containment_fraction=0.0, seed=9
        )
        few = len(scj_nested_loop(left2, right2))
        assert many > few


class TestEqualSetsPair:
    def test_output_is_quadratic_in_group_size(self):
        from repro.setjoins.equality import sej_hash

        left, right = equal_sets_pair(num_groups=3, group_size=5)
        assert len(sej_hash(left, right)) == 3 * 25


class TestFig5ScaledPair:
    def test_division_differs(self):
        a, b = fig5_scaled_pair(4)
        assert divide_reference(a["R"], a["S"])
        assert not divide_reference(b["R"], b["S"])

    @pytest.mark.parametrize("width", [3, 4, 6])
    def test_scaled_pairs_are_bisimilar(self, width):
        a, b = fig5_scaled_pair(width)
        assert bisimilar(a, (100,), b, (100,))

    def test_minimum_width(self):
        with pytest.raises(SchemaError):
            fig5_scaled_pair(2)


def test_format_table_alignment():
    table = format_table(["col", "n"], [["a", 1], ["long", 22]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("col")
    assert set(lines[1]) <= {"-", " "}
