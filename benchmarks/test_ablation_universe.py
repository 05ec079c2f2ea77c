"""Ablation: Lemma 24 blow-up over dense vs discrete universes.

Over **Q** fresh values are created in place; over **Z** the construction
must translate ("make room"), renaming the whole database per anchor.
Both yield order-isomorphic results with every certificate holding.
"""

import pytest

from repro.core.blowup import blow_up
from repro.data.database import order_isomorphic
from repro.data.universe import INTEGERS, RATIONALS
from repro.workloads.figures import fig4_witness


@pytest.mark.parametrize(
    "universe_name, universe",
    [("rationals", RATIONALS), ("integers", INTEGERS)],
)
def test_blowup_universe_certificates(universe_name, universe):
    result = blow_up(fig4_witness(universe), 16)
    assert all(result.certify().values())


def test_both_universes_agree_up_to_order_isomorphism():
    rational = blow_up(fig4_witness(RATIONALS), 8).database
    integer = blow_up(fig4_witness(INTEGERS), 8).database
    assert order_isomorphic(rational, integer)
