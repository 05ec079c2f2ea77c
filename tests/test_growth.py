"""Tests for growth measurement and the analyze() pipeline."""

import pytest

from repro.algebra.ast import Join, Rel
from repro.algebra.parser import parse
from repro.core.blowup import BlowupWitness
from repro.core.classify import Verdict
from repro.core.dichotomy import analyze
from repro.core.growth import (
    blowup_family,
    fit_loglog_slope,
    measure_growth,
)
from repro.data.database import Database, database
from repro.data.schema import Schema
from repro.data.universe import INTEGERS, RATIONALS

SCHEMA = Schema({"R": 2, "S": 1})


class TestFitting:
    def test_linear_data(self):
        assert fit_loglog_slope([10, 20, 40], [10, 20, 40]) == pytest.approx(
            1.0
        )

    def test_quadratic_data(self):
        assert fit_loglog_slope(
            [10, 20, 40], [100, 400, 1600]
        ) == pytest.approx(2.0)

    def test_constant_data(self):
        assert fit_loglog_slope([10, 20, 40], [5, 5, 5]) == pytest.approx(0.0)

    def test_zero_values_clamped(self):
        assert fit_loglog_slope([10, 20], [0, 0]) == pytest.approx(0.0)

    def test_degenerate_inputs(self):
        assert fit_loglog_slope([10], [5]) == 0.0
        assert fit_loglog_slope([10, 10], [5, 9]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [1])


def linear_family(n: int) -> Database:
    rows = [(i, i + 1) for i in range(n)]
    return database(SCHEMA, R=rows, S=[(i,) for i in range(n)])


class TestMeasureGrowth:
    def test_linear_expression(self):
        expr = parse("R semijoin[2=1] S", SCHEMA)
        report = measure_growth(expr, linear_family, [4, 8, 16, 32])
        assert report.is_empirically_linear()
        assert not report.is_empirically_quadratic()
        assert report.max_exponent() < 1.3

    def test_quadratic_expression(self):
        expr = parse("R cartesian S", SCHEMA)
        report = measure_growth(expr, linear_family, [4, 8, 16, 32])
        assert report.is_empirically_quadratic()
        worst = report.worst()
        assert worst.exponent > 1.7
        assert worst.subexpr == expr

    def test_table_rendering(self):
        expr = parse("R cartesian S", SCHEMA)
        report = measure_growth(expr, linear_family, [4, 8])
        text = report.table()
        assert "exponent" in text
        assert "⋈" in text

    def test_blowup_family_has_exponent_two(self):
        node = Join(Rel("R", 2), Rel("S", 1))
        db = database(SCHEMA, R=[(1, 2)], S=[(9,)])
        witness = BlowupWitness(node, db, (1, 2), (9,), (), RATIONALS)
        family = blowup_family(witness)
        report = measure_growth(node, family, [2, 4, 8, 16])
        assert report.worst().exponent == pytest.approx(2.0, abs=0.2)


class TestAnalyze:
    def test_linear_with_compilation(self):
        expr = parse("R join[2=1] S", SCHEMA)
        dbs = [
            database(SCHEMA, R=[(1, 2), (3, 4)], S=[(2,)]),
            database(SCHEMA, R=[(5, 5)], S=[(5,), (6,)]),
        ]
        report = analyze(expr, SCHEMA, INTEGERS, sample_databases=dbs)
        assert report.verdict is Verdict.LINEAR
        assert report.compiled_sa is not None
        assert report.compilation_checked_on == 2
        assert "linear" in report.summary()

    def test_quadratic_with_growth(self):
        expr = parse("R cartesian S", SCHEMA)
        report = analyze(expr, SCHEMA, INTEGERS, growth_ns=(2, 4, 8))
        assert report.verdict is Verdict.QUADRATIC
        assert report.growth is not None
        assert report.growth.worst().exponent > 1.7
        assert "quadratic" in report.summary()

    def test_linear_sa_expression(self):
        expr = parse("R semijoin[2<1] S", SCHEMA)
        report = analyze(expr, SCHEMA, RATIONALS)
        # Linear (semijoins always are) but not SA=-compilable: the
        # order-semijoin stays outside SA=.
        assert report.verdict is Verdict.LINEAR
        assert report.compiled_sa is None
