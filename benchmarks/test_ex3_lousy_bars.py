"""EX3 — lousy bars (Example 3 / Example 7).

Paper claim: the SA= expression and the GF formula express the same
query.

They do, with one divergence this module pins: a bar that serves
nothing is vacuously "lousy" for the paper's GF formula but absent from
π1(Serves) in the SA= expression.  The two agree whenever every visited
bar serves at least one beer; the exact GF equivalent of the SA=
expression adds a ∃u Serves(y, u) conjunct (``gf_exact``).
"""

import pytest

from repro.algebra.ast import is_sa_eq
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import database
from repro.data.schema import Schema
from repro.logic.ast import Not, atom, exists
from repro.logic.eval import answers, answers_c_stored
from repro.logic.gf_to_sa import gf_to_sa
from repro.logic.sa_to_gf import sa_to_gf
from repro.workloads.generators import random_database

SCHEMA = Schema({"Likes": 2, "Serves": 2, "Visits": 2})


def sa_expression():
    return parse(
        "project[1](Visits semijoin[2=1] (project[1](Serves) minus "
        "project[1](Serves semijoin[2=2] Likes)))",
        SCHEMA,
    )


def no_liked_beer():
    """Bar y serves no beer that anybody likes."""
    return Not(
        exists(
            "z",
            atom("Serves", "y", "z"),
            exists("w", atom("Likes", "w", "z")),
        )
    )


def gf_paper():
    return exists("y", atom("Visits", "x", "y"), no_liked_beer())


def gf_exact():
    return exists(
        "y",
        atom("Visits", "x", "y"),
        exists("u", atom("Serves", "y", "u")) & no_liked_beer(),
    )


def test_ex3_expression_is_sa_eq():
    assert is_sa_eq(sa_expression())


@pytest.mark.parametrize("seed", range(8))
def test_sa_equals_gf_on_random_databases(seed):
    sa = sa_expression()
    db = random_database(SCHEMA, rows_per_relation=6, domain_size=6, seed=seed)
    assert evaluate(sa, db) == answers(db, gf_exact(), ["x"])
    # Every visited bar serves something: the paper's formula agrees.
    fixed = db.with_tuples({"Serves": {(bar, 0) for __, bar in db["Visits"]}})
    assert evaluate(sa, fixed) == answers(fixed, gf_paper(), ["x"])


def test_sa_equals_exact_gf_on_a_larger_workload():
    db = random_database(SCHEMA, rows_per_relation=60, domain_size=25, seed=4)
    assert evaluate(sa_expression(), db) == answers(db, gf_exact(), ["x"])


def test_a_bar_serving_nothing_is_lousy_only_for_the_gf_formula():
    db = database(SCHEMA, Visits=[("dave", "ghost bar")], Serves=[], Likes=[])
    assert answers(db, gf_paper(), ["x"]) == frozenset({("dave",)})
    assert evaluate(sa_expression(), db) == frozenset()


def test_gf_to_sa_translation():
    translated = gf_to_sa(gf_paper(), SCHEMA, var_order=["x"])
    for seed in range(4):
        db = random_database(SCHEMA, 5, 6, seed)
        assert evaluate(translated, db) == answers_c_stored(
            db, gf_paper(), ["x"]
        )


def test_sa_to_gf_translation():
    sa = sa_expression()
    phi = sa_to_gf(sa, SCHEMA)
    for seed in range(3):
        db = random_database(SCHEMA, 4, 5, seed)
        assert answers(db, phi, ["x1"]) == evaluate(sa, db)
