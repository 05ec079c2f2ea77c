"""THM18 — non-quadratic RA compiles to SA= (Theorem 18 / Corollary 19).

Paper claim: certified-linear expressions have equivalent SA= forms
whose intermediates stay linear.
"""

import pytest

from benchmarks.conftest import linear_family
from repro.algebra.ast import is_sa_eq
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.core.classify import Verdict, classify
from repro.core.compile_sa import compile_to_sa
from repro.core.growth import measure_growth
from repro.data.schema import Schema
from repro.data.universe import INTEGERS
from repro.workloads.generators import random_database

SCHEMA = Schema({"R": 2, "S": 1})

SAMPLE_DBS = [random_database(SCHEMA, 6, 8, seed) for seed in range(6)]


@pytest.mark.parametrize(
    "text",
    [
        "R join[2=1] S",
        "S join[1=1] S",
        "project[1](R join[2=1] S)",
        "(R join[2=1] S) join[1=1,2=2,3=3] (R join[2=1] S)",
    ],
)
def test_linear_expression_compiles_to_an_equivalent_sa_form(text):
    expr = parse(text, SCHEMA)
    assert classify(expr, SCHEMA, INTEGERS).verdict is Verdict.LINEAR
    compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
    assert is_sa_eq(compiled)
    for db in SAMPLE_DBS:
        assert evaluate(compiled, db) == evaluate(expr, db)


def test_compiled_intermediates_grow_linearly():
    compiled = compile_to_sa(parse("R join[2=1] S", SCHEMA), SCHEMA, INTEGERS)
    report = measure_growth(compiled, linear_family, (8, 16, 32, 64))
    assert report.is_empirically_linear()


def test_compiler_under_approximates_a_quadratic_cross_product():
    """Z1 ∪ Z2 misses part of the (quadratic) cross product."""
    cross = parse("R cartesian S", SCHEMA)
    under = compile_to_sa(cross, SCHEMA, INTEGERS)
    assert any(evaluate(under, db) < evaluate(cross, db) for db in SAMPLE_DBS)


def test_compiled_evaluation():
    # The comparison is between the two *expressions* (original vs
    # Theorem 18 compilation), so both run structurally, as written.
    expr = parse("R join[2=1] S", SCHEMA)
    compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
    db = random_database(SCHEMA, 300, 60, seed=1)
    result = evaluate(expr, db)
    assert len(result) <= db.size()
    assert evaluate(compiled, db) == result
