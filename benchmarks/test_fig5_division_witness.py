"""FIG5 — division inexpressibility witness (A, B with A,1 ∼ B,1).

Paper claim: R÷S = {1,2} on A and ∅ on B, yet A,1 ∼C_g B,1 — so no SA=
expression computes division (Proposition 26's engine).

The engine's answer on this workload family is the ENGINE module's
(``test_engine_division.py``).
"""

import pytest

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.bisim.bisimulation import (
    are_bisimilar,
    is_guarded_bisimulation,
)
from repro.setjoins.containment import scj_nested_loop
from repro.setjoins.division import divide_reference, divide_reference_eq
from repro.setjoins.setrel import SetRelation
from repro.workloads.figures import (
    fig5_bisimulation,
    fig5_databases,
    fig5_setjoin_bisimulation,
    fig5_setjoin_databases,
)
from repro.workloads.generators import fig5_scaled_pair


def test_fig5_division_differs():
    a, b = fig5_databases()
    assert divide_reference(a["R"], a["S"]) == {1, 2}
    assert divide_reference(b["R"], b["S"]) == frozenset()
    assert divide_reference_eq(a["R"], a["S"]) == {1, 2}
    assert divide_reference_eq(b["R"], b["S"]) == frozenset()


def test_fig5_verify_paper_bisimulation():
    a, b = fig5_databases()
    assert is_guarded_bisimulation(fig5_bisimulation(), a, b)


def test_fig5_bisimilarity_decision():
    a, b = fig5_databases()
    assert are_bisimilar(a, (1,), b, (1,)).bisimilar


@pytest.mark.parametrize(
    "text",
    [
        "project[1](R semijoin[2=1] S)",
        "project[1](R) minus project[1](R semijoin[2=1] S)",
        "project[1](R semijoin[2=1] (S minus project[2](R)))",
    ],
)
def test_fig5_sa_probes_agree_on_the_bisimilar_pair(text):
    """Corollary 14 in action: an SA= expression cannot tell A,1 from B,1."""
    a, b = fig5_databases()
    probe = parse(text, a.schema)
    assert ((1,) in evaluate(probe, a)) == ((1,) in evaluate(probe, b))


@pytest.mark.parametrize("width", [3, 5, 6, 8])
def test_fig5_scaled_bisimilarity(width):
    a, b = fig5_scaled_pair(width)
    assert are_bisimilar(a, (100,), b, (100,)).bisimilar
    assert divide_reference(a["R"], a["S"])
    assert not divide_reference(b["R"], b["S"])


def test_fig5_setjoin_version():
    """S widened with the constant first column 4 (the paper's final
    remark in §4): R ⋈_{B⊇D} S' is nonempty on A, empty on B, and the
    lifted I is still a bisimulation."""
    a, b = fig5_setjoin_databases()

    def join(db):
        return scj_nested_loop(
            SetRelation.from_binary(db["R"]), SetRelation.from_binary(db["S"])
        )

    assert join(a) == frozenset({(1, 4), (2, 4)})
    assert join(b) == frozenset()
    assert is_guarded_bisimulation(fig5_setjoin_bisimulation(), a, b)
