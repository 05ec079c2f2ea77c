"""Tests for the explicit guarded bisimulation game."""

import pytest

from repro.bisim.bisimulation import bisimilar
from repro.bisim.game import (
    GuardedBisimulationGame,
    SpoilerMove,
    spoiler_strategy,
)
from repro.data.database import database
from repro.errors import AnalysisError
from repro.workloads.figures import (
    fig3_databases,
    fig5_databases,
    fig6_databases,
)


def chain(length: int, start: int = 1):
    """A path database: start → start+1 → ... of the given edge count."""
    return database(
        {"R": 2},
        R=[(start + i, start + i + 1) for i in range(length)],
    )


class TestGameMechanics:
    def test_start_with_valid_position(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        assert game.start((1, 2), (6, 7))
        assert game.position is not None

    def test_start_with_invalid_position(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        # (1,2) ∈ S(A) but (7,8) ∉ S(B): not a partial isomorphism.
        assert not game.start((1, 2), (7, 8))

    def test_moves_cover_both_sides(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        moves = game.spoiler_moves()
        assert any(m.side == "forth" for m in moves)
        assert any(m.side == "back" for m in moves)
        assert len(moves) == len(a.guarded_sets()) + len(b.guarded_sets())

    def test_duplicator_responses_respect_agreement(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        game.start((1, 2), (6, 7))
        move = SpoilerMove("forth", frozenset({2, 3}))
        responses = game.duplicator_responses(move)
        assert responses
        for response in responses:
            assert response(2) == 7  # must agree with the position

    def test_responses_before_start_raise(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        with pytest.raises(AnalysisError):
            game.duplicator_responses(SpoilerMove("forth", frozenset({1, 2})))

    def test_play_advances_position(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        game.start((1, 2), (6, 7))
        move = SpoilerMove("forth", frozenset({2, 3}))
        assert game.play_spoiler(move)
        assert len(game.history) == 1
        assert game.position.domain() == frozenset({2, 3})

    def test_duplicator_wins_on_bisimilar_pair(self):
        a, b = fig3_databases()
        game = GuardedBisimulationGame(a, b)
        game.start((1, 2), (6, 7))
        assert game.duplicator_wins()
        assert game.winning_spoiler_move() is None

    def test_move_describe(self):
        move = SpoilerMove("back", frozenset({7, 8}))
        assert "in B" in move.describe()


class TestSpoilerStrategy:
    def test_none_for_bisimilar_pairs(self):
        a, b = fig3_databases()
        assert spoiler_strategy(a, (1, 2), b, (6, 7)) is None
        a5, b5 = fig5_databases()
        assert spoiler_strategy(a5, (1,), b5, (1,)) is None
        a6, b6 = fig6_databases()
        assert spoiler_strategy(a6, ("alex",), b6, ("alex",)) is None

    def test_empty_for_non_isomorphism(self):
        a, b = fig3_databases()
        assert spoiler_strategy(a, (1, 2), b, (7, 8)) == []

    def test_one_round_win(self):
        # 1→2→3 vs 5→6: from (1,2)→(5,6) the spoiler plays {2,3}.
        strategy = spoiler_strategy(chain(2), (1, 2), chain(1, 5), (5, 6))
        assert strategy is not None
        assert len(strategy) == 1
        assert strategy[0].guarded == frozenset({2, 3})

    def test_two_round_win_on_longer_chain(self):
        # 1→2→3→4 vs 5→6→7: spoiler needs two forth moves.
        strategy = spoiler_strategy(chain(3), (1, 2), chain(2, 5), (5, 6))
        assert strategy is not None
        assert len(strategy) == 2
        assert strategy[0].guarded == frozenset({2, 3})
        assert strategy[1].guarded == frozenset({3, 4})

    def test_back_moves_used_when_b_is_longer(self):
        # 1→2 vs 5→6→7: A, (1,2) vs B, (5,6) — B has an extra step, so
        # the spoiler attacks with a back move.
        strategy = spoiler_strategy(chain(1), (1, 2), chain(2, 5), (5, 6))
        assert strategy is not None
        assert any(move.side == "back" for move in strategy)

    def test_strategy_agrees_with_bisimilarity_decision(self):
        cases = [
            (chain(3), (1, 2), chain(3, 5), (5, 6)),
            (chain(2), (1, 2), chain(3, 5), (5, 6)),
            (chain(4), (2, 3), chain(4, 5), (6, 7)),
        ]
        for db_a, ta, db_b, tb in cases:
            expected = bisimilar(db_a, ta, db_b, tb)
            strategy = spoiler_strategy(db_a, ta, db_b, tb)
            assert (strategy is None) == expected
