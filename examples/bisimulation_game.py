"""The guarded bisimulation game, played move by move.

Demonstrates the machinery behind the paper's inexpressibility proofs
(Figs. 3, 5, 6): the spoiler/duplicator game of Definition 11, winning
spoiler strategies for non-bisimilar pairs, and distinguishing SA=
expressions — Corollary 14 made concrete in both directions.

Run with::

    python examples/bisimulation_game.py
"""

from repro.algebra import evaluate, to_text
from repro.bisim import (
    GuardedBisimulationGame,
    find_distinguishing_expression,
    spoiler_strategy,
)
from repro.data import database
from repro.workloads.figures import fig5_databases

# ----------------------------------------------------------------------
# A losing position: paths of different lengths.
# ----------------------------------------------------------------------


def chain(length, start=1):
    return database(
        {"R": 2}, R=[(start + i, start + i + 1) for i in range(length)]
    )


long_path = chain(3)       # 1 → 2 → 3 → 4
short_path = chain(2, 5)   # 5 → 6 → 7

print("A: 1→2→3→4    B: 5→6→7")
print("Is A,(1,2) guarded-bisimilar to B,(5,6)?")
strategy = spoiler_strategy(long_path, (1, 2), short_path, (5, 6))
if strategy is None:
    print("  yes — the duplicator survives forever")
else:
    print(f"  no — the spoiler wins in {len(strategy)} move(s):")
    for round_number, move in enumerate(strategy, start=1):
        print(f"    round {round_number}: {move.describe()}")

probe = find_distinguishing_expression(
    long_path, (1, 2), short_path, (5, 6)
)
print("\nA distinguishing SA= expression (Corollary 14's converse):")
print(" ", to_text(probe))
print("  on A:", sorted(evaluate(probe, long_path)))
print("  on B:", sorted(evaluate(probe, short_path)))

# ----------------------------------------------------------------------
# A winning position: the Fig. 5 division witness.
# ----------------------------------------------------------------------

a, b = fig5_databases()
print("\nFig. 5: A (R ÷ S = {1,2}) vs B (R ÷ S = ∅), position 1 → 1")
game = GuardedBisimulationGame(a, b)
game.start((1,), (1,))
print("duplicator wins?", game.duplicator_wins())

print("\nSample exchanges (spoiler probes, duplicator answers):")
for move in game.spoiler_moves()[:4]:
    responses = game.duplicator_responses(move)
    answer = responses[0] if responses else None
    print(f"  {move.describe():46} -> {answer!r}")

separator = find_distinguishing_expression(
    a, (1,), b, (1,), depth=2, budget=2500
)
print(
    "\nDistinguishing SA= probe for the bisimilar pair (expect None):",
    separator,
)
print(
    "\nNo SA= expression separates A,1 from B,1 — yet division does."
    "\nThat is exactly why division cannot be SA=-expressed, and hence"
    "\n(Theorems 17/18) why every RA division plan is quadratic."
)
