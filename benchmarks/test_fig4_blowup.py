"""FIG4 — Lemma 24 blow-up on E = (R ⋉ T) ⋈_{3=1} (S ⋉ T).

Paper claim: F1={1,2}, F2={4,5}; |Dn| ≤ 2|D|·n and |E(Dn)| ≥ n²; D2, D3
as printed.
"""

from fractions import Fraction

import pytest

from repro.algebra.evaluator import evaluate
from repro.core.blowup import blow_up
from repro.core.growth import fit_loglog_slope
from repro.data.database import database, order_isomorphic
from repro.workloads.figures import fig4_witness


def paper_d_n(n: int):
    """Fig. 4's printed Dn: each anchor's fresh values at k/n."""

    def prime(x, k):
        return Fraction(x) + Fraction(k, n)

    r = [(1, 2, 3), (8, 9, 10)]
    s = [(3, 4, 5)]
    t = [(6, 1), (4, 7)]
    for k in range(1, n):
        r.append((prime(1, k), prime(2, k), 3))
        s.append((3, prime(4, k), prime(5, k)))
        t.append((6, prime(1, k)))
        t.append((prime(4, k), 7))
    return database({"R": 3, "S": 3, "T": 2}, R=r, S=s, T=t)


def test_fig4_free_values():
    witness = fig4_witness()
    assert witness.free1() == frozenset({1, 2})
    assert witness.free2() == frozenset({4, 5})


@pytest.mark.parametrize("n", [2, 3])
def test_fig4_blown_up_database_is_the_printed_one(n):
    blown = blow_up(fig4_witness(), n)
    assert order_isomorphic(blown.database, paper_d_n(n))


def test_fig4_output_grows_quadratically_with_every_certificate():
    witness = fig4_witness()
    sizes, outputs = [], []
    for n in (1, 2, 3, 4, 6, 8, 12, 16):
        blown = blow_up(witness, n)
        assert all(blown.certify().values()), n
        sizes.append(blown.database.size())
        outputs.append(blown.join_output_size())
    assert fit_loglog_slope(sizes, outputs) >= 1.8


@pytest.mark.parametrize("n", [4, 16, 64])
def test_blowup_construction(n):
    witness = fig4_witness()
    result = blow_up(witness, n)
    assert result.database.size() <= 2 * witness.db.size() * n


@pytest.mark.parametrize("n", [4, 16, 64])
def test_blowup_join_evaluation(n):
    """Evaluating E on Dn: the quadratic output makes itself felt."""
    witness = fig4_witness()
    blown = blow_up(witness, n)
    rows = evaluate(witness.join, blown.database)
    assert len(rows) >= n * n
