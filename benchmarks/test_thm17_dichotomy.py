"""THM17 — dichotomy: every RA expression is linear or quadratic.

Paper claim: fitted growth exponents cluster at ≤1 and ≥2 — nothing in
between (no n·log n expressions exist).

The classifier's verdict and the measured growth exponent agree on a
portfolio of both classes, and the evaluation of one certified-linear
and one certified-quadratic expression along the same database family
shows the quadratic one's intermediates.
"""

import pytest

from benchmarks.conftest import linear_family
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.core.classify import Verdict, classify
from repro.core.growth import blowup_family, measure_growth
from repro.data.schema import Schema
from repro.data.universe import RATIONALS

SCHEMA = Schema({"R": 2, "S": 1})

LINEAR = "R join[2=1] S"
QUADRATIC = "project[1](R) cartesian S"

PORTFOLIO = [
    ("R semijoin[2=1] S", Verdict.LINEAR),
    ("project[1](R) union project[2](R)", Verdict.LINEAR),
    (LINEAR, Verdict.LINEAR),
    ("project[1](R semijoin[2=1] (S minus project[2](R)))", Verdict.LINEAR),
    ("R cartesian S", Verdict.QUADRATIC),
    ("R join[1=1] R", Verdict.QUADRATIC),
    ("S join[1<1] S", Verdict.QUADRATIC),
    (
        "project[1](R) minus project[1]((project[1](R) cartesian S) minus R)",
        Verdict.QUADRATIC,
    ),
]


def test_classifier_and_measured_growth_agree_with_a_gap_between():
    linear, quadratic = [], []
    for text, expected in PORTFOLIO:
        expr = parse(text, SCHEMA)
        classification = classify(expr, SCHEMA, RATIONALS)
        assert classification.verdict is expected, text
        if expected is Verdict.QUADRATIC:
            grow = blowup_family(classification.evidence.witness)
        else:
            grow = linear_family
        exponent = measure_growth(expr, grow, (8, 16, 32, 64)).max_exponent()
        (quadratic if exponent >= 1.5 else linear).append(exponent)
        assert (exponent >= 1.5) == (expected is Verdict.QUADRATIC), text
    assert max(linear) < 1.3 and min(quadratic) > 1.7


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("text", [LINEAR, QUADRATIC])
def test_evaluation_cost_by_class(text, n):
    # evaluate() runs the expression *as written* (Definition 16):
    # the claim is about that cost, not an engine-rewritten plan's.
    db = linear_family(n)
    rows = evaluate(parse(text, SCHEMA), db)
    if text == QUADRATIC:
        assert len(rows) >= (n // 2) ** 2 // 2
    else:
        assert len(rows) <= db.size()


def test_trace_shows_the_quadratic_intermediate():
    t = trace(parse(QUADRATIC, SCHEMA), linear_family(64))
    assert t.max_intermediate() >= 32 * 32
