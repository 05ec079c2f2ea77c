"""The guarded bisimulation game, played explicitly.

Definition 11's back-and-forth conditions are a two-player game:

* the **spoiler** picks a guarded set of A (a *forth* move) or of B
  (a *back* move);
* the **duplicator** must answer with a partial isomorphism onto/from
  that guarded set, agreeing with the current position on the overlap.

``A, ā ∼C_g B, b̄`` iff the duplicator can answer forever.
:class:`GuardedBisimulationGame` materializes the game: it tracks the
current position, enumerates the legal duplicator responses for any
spoiler move, and — using the greatest-bisimulation fixpoint as an
oracle — plays *optimally* for either side.  :func:`spoiler_strategy`
extracts a finite winning move sequence when the pair is not bisimilar,
which is the refutation evidence the paper's inexpressibility proofs
turn into quadratic lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

from repro.bisim.bisimulation import greatest_bisimulation
from repro.bisim.partial_iso import (
    PartialIso,
    is_c_partial_isomorphism,
    tuple_map,
)
from repro.data.database import Database, Row
from repro.data.universe import Value
from repro.errors import AnalysisError

Side = Literal["forth", "back"]


@dataclass(frozen=True)
class SpoilerMove:
    """A spoiler move: a guarded set on one side."""

    side: Side
    guarded: frozenset[Value]

    def describe(self) -> str:
        where = "A" if self.side == "forth" else "B"
        return (
            f"spoiler plays guarded set "
            f"{sorted(self.guarded, key=repr)} in {where}"
        )


@dataclass
class GuardedBisimulationGame:
    """An explicit game state between two databases.

    The game is *positional*: the state is the current partial
    isomorphism.  The duplicator's legal responses to a move are the
    C-partial isomorphisms covering the chosen guarded set and agreeing
    with the position on the overlap.
    """

    db_a: Database
    db_b: Database
    constants: tuple[Value, ...] = ()
    position: PartialIso | None = None
    history: list[tuple[SpoilerMove, PartialIso]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        self._pool = greatest_bisimulation(
            self.db_a, self.db_b, self.constants
        )

    # ------------------------------------------------------------------

    def start(self, tuple_a: Row, tuple_b: Row) -> bool:
        """Set the initial position ``ā → b̄``.

        Returns ``False`` (spoiler already won) when the map is not a
        C-partial isomorphism.
        """
        initial = tuple_map(tuple_a, tuple_b)
        if initial is None or not initial.is_bijective():
            return False
        if not is_c_partial_isomorphism(
            initial, self.db_a, self.db_b, self.constants
        ):
            return False
        self.position = initial
        return True

    def spoiler_moves(self) -> list[SpoilerMove]:
        """All legal spoiler moves (every guarded set, both sides)."""
        moves = [
            SpoilerMove("forth", guarded)
            for guarded in sorted(
                self.db_a.guarded_sets(), key=lambda s: sorted(s, key=repr).__repr__()
            )
        ]
        moves.extend(
            SpoilerMove("back", guarded)
            for guarded in sorted(
                self.db_b.guarded_sets(), key=lambda s: sorted(s, key=repr).__repr__()
            )
        )
        return moves

    def duplicator_responses(self, move: SpoilerMove) -> list[PartialIso]:
        """Legal responses from the *surviving* pool (optimal play).

        Responses outside the greatest bisimulation would lose later
        anyway, so restricting to the pool loses no generality.
        """
        if self.position is None:
            raise AnalysisError("call start() first")
        f = self.position
        if move.side == "forth":
            overlap = f.domain() & move.guarded
            return [
                g
                for g in self._pool
                if g.domain() == move.guarded and g.agrees_with(f, overlap)
            ]
        overlap = f.image() & move.guarded
        return [
            g
            for g in self._pool
            if g.image() == move.guarded
            and g.inverse().agrees_with(f.inverse(), overlap)
        ]

    def winning_spoiler_move(self) -> SpoilerMove | None:
        """A move with no duplicator response, if one exists."""
        for move in self.spoiler_moves():
            if not self.duplicator_responses(move):
                return move
        return None

    def play_spoiler(self, move: SpoilerMove) -> bool:
        """Apply a spoiler move with the duplicator answering optimally.

        Returns ``True`` if the duplicator could answer (game goes on),
        ``False`` if the spoiler wins.  The position advances to the
        first available response.
        """
        responses = self.duplicator_responses(move)
        if not responses:
            return False
        response = responses[0]
        self.history.append((move, response))
        self.position = response
        return True

    def duplicator_wins(self) -> bool:
        """Whether the duplicator can answer every move forever.

        Since responses come from the greatest bisimulation (a fixpoint
        closed under back-and-forth), the duplicator wins iff no
        immediate winning spoiler move exists from the current position.
        """
        return self.winning_spoiler_move() is None


def spoiler_strategy(
    db_a: Database,
    tuple_a: Row,
    db_b: Database,
    tuple_b: Row,
    constants: Iterable[Value] = (),
    max_rounds: int = 64,
) -> list[SpoilerMove] | None:
    """A winning spoiler move sequence against a *best-defending*
    duplicator, or ``None`` when the pair is bisimilar.

    The duplicator is allowed every C-partial isomorphism between
    guarded sets (not just the surviving ones), and always plays the
    response that survives refinement longest.  The spoiler counters by
    minimaxing on *elimination ranks* (the refinement round at which a
    position dies, from :class:`RefinementTrace`): it picks, among the
    moves whose responses are all doomed, the one whose best duplicator
    response dies soonest.  Ranks strictly decrease, so the strategy
    terminates; its length is bounded by the number of refinement
    rounds.  An empty list means the initial map is not even a
    C-partial isomorphism (the spoiler wins before moving).
    """
    from repro.bisim.bisimulation import (
        RefinementTrace,
        candidate_pool,
    )

    constants = tuple(constants)
    trace = RefinementTrace()
    greatest_bisimulation(db_a, db_b, constants, trace=trace)
    everyone = candidate_pool(db_a, db_b, constants)

    def rank(iso: PartialIso) -> int | None:
        """Elimination round; ``None`` = survives forever."""
        if iso in trace.eliminations:
            return trace.eliminations[iso][2]
        return None

    def responses(position: PartialIso, move: SpoilerMove) -> list[PartialIso]:
        if move.side == "forth":
            overlap = position.domain() & move.guarded
            return [
                g
                for g in everyone
                if g.domain() == move.guarded
                and g.agrees_with(position, overlap)
            ]
        overlap = position.image() & move.guarded
        return [
            g
            for g in everyone
            if g.image() == move.guarded
            and g.inverse().agrees_with(position.inverse(), overlap)
        ]

    def all_moves() -> list[SpoilerMove]:
        moves = [
            SpoilerMove("forth", guarded)
            for guarded in sorted(
                db_a.guarded_sets(),
                key=lambda s: sorted(s, key=repr).__repr__(),
            )
        ]
        moves.extend(
            SpoilerMove("back", guarded)
            for guarded in sorted(
                db_b.guarded_sets(),
                key=lambda s: sorted(s, key=repr).__repr__(),
            )
        )
        return moves

    initial = tuple_map(tuple_a, tuple_b)
    if (
        initial is None
        or not initial.is_bijective()
        or not is_c_partial_isomorphism(initial, db_a, db_b, constants)
    ):
        return []

    position = initial
    strategy: list[SpoilerMove] = []
    for __ in range(max_rounds):
        # Winning moves: every duplicator response is doomed (finite
        # rank).  Among them, minimize the best defense's rank.
        best: tuple[int, SpoilerMove, list[PartialIso]] | None = None
        for move in all_moves():
            answers = responses(position, move)
            ranks = [rank(g) for g in answers]
            if any(r is None for r in ranks):
                continue  # a surviving response: not a winning move
            worst = max((r for r in ranks if r is not None), default=-1)
            if best is None or worst < best[0]:
                best = (worst, move, answers)
        if best is None:
            return None  # duplicator survives: bisimilar
        __, move, answers = best
        strategy.append(move)
        if not answers:
            return strategy  # no response at all: spoiler just won
        position = max(
            answers, key=lambda g: rank(g) or 0
        )  # best defense
    raise AnalysisError(
        f"game did not resolve within {max_rounds} rounds"
    )
