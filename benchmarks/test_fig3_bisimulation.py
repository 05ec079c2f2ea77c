"""FIG3 — guarded bisimulation (Example 12).

Paper claim: the listed set I is a ∅-guarded bisimulation between A
and B.
"""

from repro.bisim.bisimulation import (
    bisimilar,
    greatest_bisimulation,
    is_guarded_bisimulation,
)
from repro.workloads.figures import (
    fig3_bisimulation,
    fig3_databases,
)


def test_fig3_paper_set_is_a_guarded_bisimulation():
    a, b = fig3_databases()
    assert is_guarded_bisimulation(fig3_bisimulation(), a, b)


def test_fig3_greatest_bisimulation_is_the_paper_set():
    a, b = fig3_databases()
    assert set(greatest_bisimulation(a, b)) == set(fig3_bisimulation())


def test_fig3_bisimilar_pairs():
    a, b = fig3_databases()
    assert bisimilar(a, (1, 2), b, (6, 7))
    # (7, 8) is not in S on B while (1, 2) is in S on A.
    assert not bisimilar(a, (1, 2), b, (7, 8))
