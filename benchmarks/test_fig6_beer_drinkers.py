"""FIG6 — beer-drinkers query Q (§4.1).

Paper claim: Q(A) contains alex, Q(B) is empty, yet (A,alex) ∼C_g
(B,alex) — Q needs a quadratic RA expression.
"""

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.bisim.bisimulation import bisimilar, is_guarded_bisimulation
from repro.core.classify import Verdict, classify
from repro.data.universe import RATIONALS
from repro.workloads.figures import (
    BEER_SCHEMA,
    fig6_bisimulation,
    fig6_databases,
)


def beer_query():
    """Drinkers visiting a bar serving a beer they like: the cyclic join."""
    return parse(
        "project[1](select[2=3](select[4=6](select[1=5]("
        "Visits join[] (Serves join[] Likes)))))",
        BEER_SCHEMA,
    )


def test_fig6_query_results():
    a, b = fig6_databases()
    q = beer_query()
    assert evaluate(q, a) == frozenset({("alex",)})
    assert evaluate(q, b) == frozenset()


def test_fig6_verify_paper_bisimulation():
    a, b = fig6_databases()
    assert is_guarded_bisimulation(fig6_bisimulation(), a, b)


def test_fig6_bisimilarity_decision():
    a, b = fig6_databases()
    assert bisimilar(a, ("alex",), b, ("alex",))


def test_fig6_classifier_certifies_the_query_quadratic():
    assert classify(beer_query(), BEER_SCHEMA, RATIONALS).verdict is (
        Verdict.QUADRATIC
    )
