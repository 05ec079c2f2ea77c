"""FIG1 — set-containment join and division on the medical example.

Paper claim: Person ⋈_{⊇} Disease = {(An,flu),(Bob,flu),(Bob,Lyme)};
Person ÷ Symptoms = {An, Bob}.

Every algorithm of the zoo and the classic RA plan reproduce Fig. 1's
two result tables; the scaled medical-style workload checks the same
query shape at realistic sizes.
"""

import pytest

from repro.algebra.ast import Rel
from repro.algebra.evaluator import evaluate
from repro.setjoins.containment import (
    CONTAINMENT_ALGORITHMS,
    scj_nested_loop,
    scj_signature,
)
from repro.setjoins.division import (
    DIVISION_ALGORITHMS,
    classic_division_expr,
    divide_reference,
)
from repro.setjoins.setrel import SetRelation
from repro.workloads.figures import (
    FIG1_CONTAINMENT_JOIN,
    FIG1_DIVISION,
    fig1_database,
)
from repro.workloads.generators import zipf_set_relation


@pytest.mark.parametrize("name", sorted(CONTAINMENT_ALGORITHMS))
def test_fig1_containment_join(name):
    db = fig1_database()
    person = SetRelation.from_binary(db["Person"])
    disease = SetRelation.from_binary(db["Disease"])
    result = CONTAINMENT_ALGORITHMS[name](person, disease)
    assert result == FIG1_CONTAINMENT_JOIN


@pytest.mark.parametrize(
    "name, algorithm",
    sorted({**DIVISION_ALGORITHMS, "reference": divide_reference}.items()),
)
def test_fig1_division(name, algorithm):
    db = fig1_database()
    symptoms = [b for (b,) in db["Symptoms"]]
    assert algorithm(db["Person"], symptoms) == FIG1_DIVISION


def test_fig1_division_via_the_classic_ra_plan():
    db = fig1_database()
    plan = classic_division_expr(Rel("Person", 2), Rel("Symptoms", 1))
    assert evaluate(plan, db) == {(a,) for a in FIG1_DIVISION}


@pytest.mark.parametrize("patients", [50, 200])
def test_fig1_scaled_medical_workload(patients):
    """The same query shape at realistic sizes (Zipf symptom sets)."""
    persons = zipf_set_relation(
        num_sets=patients, min_size=2, max_size=8, universe_size=30,
        seed=patients,
    )
    diseases = zipf_set_relation(
        num_sets=20, min_size=2, max_size=5, universe_size=30,
        seed=patients + 1, key_offset=10**6,
    )
    assert scj_signature(persons, diseases) == scj_nested_loop(
        persons, diseases
    )
