"""THM18 — compiling to SA= and running the compiled form."""

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.core.compile_sa import compile_to_sa
from repro.data.schema import Schema
from repro.data.universe import INTEGERS
from repro.workloads.generators import random_database

SCHEMA = Schema({"R": 2, "S": 1})


def test_compile_benchmark(benchmark):
    expr = parse("(R join[2=1] S) join[1=1,2=2,3=3] (R join[2=1] S)", SCHEMA)
    compiled = benchmark(compile_to_sa, expr, SCHEMA, INTEGERS)
    db = random_database(SCHEMA, 10, 12, seed=0)
    assert evaluate(compiled, db) == evaluate(expr, db)


def test_compiled_evaluation_benchmark(benchmark):
    # The comparison is between the two *expressions* (original vs
    # Theorem 18 compilation), so both run structurally, as written.
    expr = parse("R join[2=1] S", SCHEMA)
    compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
    db = random_database(SCHEMA, 300, 60, seed=1)
    result = benchmark(evaluate, compiled, db)
    assert result == evaluate(expr, db)


def test_original_evaluation_benchmark(benchmark):
    expr = parse("R join[2=1] S", SCHEMA)
    db = random_database(SCHEMA, 300, 60, seed=1)
    result = benchmark(evaluate, expr, db)
    assert len(result) <= db.size()
