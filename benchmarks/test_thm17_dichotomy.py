"""THM17 — the dichotomy measured: linear vs quadratic evaluation cost.

Times the evaluation of one certified-linear and one certified-quadratic
expression along the same database family; the quadratic one's
intermediate results dominate its runtime.
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.core.classify import Verdict, classify
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.universe import RATIONALS

SCHEMA = Schema({"R": 2, "S": 1})


def family(n: int):
    rows = [(i, 10**6 + i % max(1, n // 2)) for i in range(n)]
    divisor = [(10**6 + i,) for i in range(max(1, n // 2))]
    return database({"R": 2, "S": 1}, R=rows, S=divisor)


LINEAR = "R join[2=1] S"
QUADRATIC = "project[1](R) cartesian S"


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("text", [LINEAR, QUADRATIC])
def test_evaluation_cost_by_class(benchmark, text, n):
    expr = parse(text, SCHEMA)
    db = family(n)
    kind = "linear" if text == LINEAR else "quadratic"
    benchmark.group = f"thm17-{kind}-n{n}"
    # evaluate() runs the expression *as written* (Definition 16):
    # the claim is about that cost, not an engine-rewritten plan's.
    rows = benchmark(evaluate, expr, db)
    if text == QUADRATIC:
        assert len(rows) >= (n // 2) ** 2 // 2
    else:
        assert len(rows) <= db.size()


def test_classifier_cost_benchmark(benchmark):
    suite = [
        parse("R semijoin[2=1] S", SCHEMA),
        parse("R join[2=1] S", SCHEMA),
        parse("R cartesian S", SCHEMA),
        parse(
            "project[1](R) minus project[1]((project[1](R) cartesian S)"
            " minus R)",
            SCHEMA,
        ),
    ]

    def classify_all():
        return [classify(expr, SCHEMA, RATIONALS).verdict for expr in suite]

    verdicts = benchmark(classify_all)
    assert verdicts == [
        Verdict.LINEAR,
        Verdict.LINEAR,
        Verdict.QUADRATIC,
        Verdict.QUADRATIC,
    ]


def test_trace_instrumentation_overhead(benchmark):
    expr = parse(QUADRATIC, SCHEMA)
    db = family(64)
    t = benchmark(trace, expr, db)
    assert t.max_intermediate() >= 32 * 32
