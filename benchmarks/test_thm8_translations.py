"""THM8 — SA= ↔ GF correspondence (Theorem 8).

Paper claim: both translation directions preserve semantics.
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.schema import Schema
from repro.logic.ast import Not, atom, exists
from repro.logic.eval import answers, answers_c_stored
from repro.logic.gf_to_sa import gf_to_sa
from repro.logic.sa_to_gf import sa_to_gf
from repro.workloads.generators import random_database

SCHEMA = Schema({"R": 2, "S": 1})

GUARDED_NEGATION = Not(exists("y", atom("R", "x", "y"), atom("S", "y")))


@pytest.mark.parametrize(
    "text",
    [
        "R semijoin[2=1] S",
        "project[2](R) minus S",
        "project[1](R semijoin[2=1] (S minus project[2](R)))",
        "select[1=2](R) union (R semijoin[1=1] R)",
        "project[1,1](S)",
    ],
)
def test_sa_to_gf_translation(text):
    expr = parse(text, SCHEMA)
    phi = sa_to_gf(expr, SCHEMA)
    variables = [f"x{i}" for i in range(1, expr.arity + 1)]
    for seed in range(5):
        db = random_database(SCHEMA, 5, 6, seed)
        assert answers(db, phi, variables) == evaluate(expr, db), seed


@pytest.mark.parametrize(
    "phi",
    [
        atom("S", "x"),
        exists("y", atom("R", "x", "y"), atom("S", "y")),
        GUARDED_NEGATION,
    ],
    ids=str,
)
def test_gf_to_sa_translation(phi):
    expr = gf_to_sa(phi, SCHEMA, var_order=["x"])
    for seed in range(5):
        db = random_database(SCHEMA, 5, 6, seed)
        assert evaluate(expr, db) == answers_c_stored(db, phi, ["x"]), seed


def test_translated_expression_evaluation():
    expr = gf_to_sa(GUARDED_NEGATION, SCHEMA, (), ["x"])
    db = random_database(SCHEMA, 40, 20, seed=2)
    assert evaluate(expr, db) == answers_c_stored(db, GUARDED_NEGATION, ["x"])
