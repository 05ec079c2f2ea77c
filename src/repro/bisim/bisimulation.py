"""C-guarded bisimulations (Definition 11) and bisimilarity checking.

Three entry points:

* :func:`is_guarded_bisimulation` — check that a *given* set ``I`` of
  partial isomorphisms satisfies the back and forth conditions (used to
  verify the paper's example bisimulations of Figs. 3, 5, 6 literally);

* :func:`greatest_bisimulation` — compute the coarsest C-guarded
  bisimulation between two finite databases by greatest-fixpoint
  refinement over the (finite) pool of C-partial isomorphisms between
  guarded sets;

* :func:`are_bisimilar` — decide ``A, ā ∼C_g B, b̄`` (the relation used
  throughout Section 4 to prove SA=-inexpressibility), with an optional
  refutation trace explaining the spoiler's winning strategy.

Soundness of the guarded-set pool: if ``f : X → Y`` is a C-partial
isomorphism and ``X`` is guarded by a tuple ``t ∈ A(R)``, then
``f(t) ∈ B(R)``, so ``Y`` is guarded too (and symmetrically).  Responses
to back/forth moves can therefore always be chosen from the pool of
isomorphisms *between guarded sets*; the initial map ``ā → b̄`` (whose
domain need not be guarded) only ever plays the role of a mover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable

from repro.bisim.partial_iso import (
    PartialIso,
    is_c_partial_isomorphism,
    tuple_map,
)
from repro.data.database import Database, Row
from repro.data.universe import Value


def _forth_ok(
    f: PartialIso,
    guarded: frozenset[Value],
    pool: Iterable[PartialIso],
) -> bool:
    overlap = f.domain() & guarded
    return any(
        g.domain() == guarded and g.agrees_with(f, overlap) for g in pool
    )


def _back_ok(
    f: PartialIso,
    guarded: frozenset[Value],
    pool: Iterable[PartialIso],
) -> bool:
    overlap = f.image() & guarded
    return any(
        g.image() == guarded
        and g.inverse().agrees_with(f.inverse(), overlap)
        for g in pool
    )


def is_guarded_bisimulation(
    iso_set: Iterable[PartialIso],
    db_a: Database,
    db_b: Database,
    constants: Iterable[Value] = (),
) -> bool:
    """Definition 11, checked literally for a given set ``I``."""
    pool = list(iso_set)
    if not pool:
        return False
    constants = tuple(constants)
    if not all(
        is_c_partial_isomorphism(f, db_a, db_b, constants) for f in pool
    ):
        return False
    guarded_a = db_a.guarded_sets()
    guarded_b = db_b.guarded_sets()
    for f in pool:
        for guarded in guarded_a:
            if not _forth_ok(f, guarded, pool):
                return False
        for guarded in guarded_b:
            if not _back_ok(f, guarded, pool):
                return False
    return True


def candidate_pool(
    db_a: Database,
    db_b: Database,
    constants: Iterable[Value] = (),
) -> list[PartialIso]:
    """All C-partial isomorphisms between guarded sets of A and B."""
    constants = tuple(constants)
    pool: set[PartialIso] = set()
    guarded_b_by_size: dict[int, list[frozenset[Value]]] = {}
    for guarded in db_b.guarded_sets():
        guarded_b_by_size.setdefault(len(guarded), []).append(guarded)
    for guarded_a in db_a.guarded_sets():
        size = len(guarded_a)
        source = sorted(guarded_a, key=repr)
        for guarded_b in guarded_b_by_size.get(size, ()):  # same size only
            for image in permutations(sorted(guarded_b, key=repr)):
                candidate = PartialIso(tuple(zip(source, image)))
                if candidate in pool:
                    continue
                if is_c_partial_isomorphism(
                    candidate, db_a, db_b, constants
                ):
                    pool.add(candidate)
    return sorted(pool, key=repr)


@dataclass
class RefinementTrace:
    """Why partial isomorphisms were eliminated during refinement.

    Maps each eliminated isomorphism to the move that killed it:
    ``("forth", guarded_set)`` or ``("back", guarded_set)``, plus the
    round number.  This is the spoiler's strategy book.
    """

    eliminations: dict[PartialIso, tuple[str, frozenset[Value], int]] = field(
        default_factory=dict
    )

    def explain(self, f: PartialIso) -> str:
        if f not in self.eliminations:
            return f"{f!r} survived refinement"
        kind, guarded, round_number = self.eliminations[f]
        side = "A" if kind == "forth" else "B"
        return (
            f"{f!r} eliminated in round {round_number}: spoiler plays "
            f"guarded set {sorted(guarded, key=repr)} in {side} "
            f"({kind} move has no surviving response)"
        )


def greatest_bisimulation(
    db_a: Database,
    db_b: Database,
    constants: Iterable[Value] = (),
    trace: RefinementTrace | None = None,
) -> list[PartialIso]:
    """The largest C-guarded bisimulation between guarded sets.

    Returns the greatest fixpoint of back-and-forth refinement over
    :func:`candidate_pool`.  The result is either empty or a C-guarded
    bisimulation; every C-guarded bisimulation consisting of
    guarded-domain isomorphisms is contained in it.
    """
    pool = candidate_pool(db_a, db_b, constants)
    guarded_a = sorted(db_a.guarded_sets(), key=lambda s: sorted(s, key=repr).__repr__())
    guarded_b = sorted(db_b.guarded_sets(), key=lambda s: sorted(s, key=repr).__repr__())
    alive = list(pool)
    round_number = 0
    changed = True
    while changed:
        round_number += 1
        changed = False
        survivors: list[PartialIso] = []
        for f in alive:
            killer: tuple[str, frozenset[Value]] | None = None
            for guarded in guarded_a:
                if not _forth_ok(f, guarded, alive):
                    killer = ("forth", guarded)
                    break
            if killer is None:
                for guarded in guarded_b:
                    if not _back_ok(f, guarded, alive):
                        killer = ("back", guarded)
                        break
            if killer is None:
                survivors.append(f)
            else:
                changed = True
                if trace is not None:
                    trace.eliminations[f] = (
                        killer[0],
                        killer[1],
                        round_number,
                    )
        alive = survivors
    return alive


@dataclass(frozen=True)
class BisimilarityResult:
    """The outcome of an ``∼C_g`` check, with evidence."""

    bisimilar: bool
    initial: PartialIso | None
    witness: tuple[PartialIso, ...]  # the surviving pool plus the initial map
    reason: str

    def __bool__(self) -> bool:
        return self.bisimilar


def are_bisimilar(
    db_a: Database,
    tuple_a: Row,
    db_b: Database,
    tuple_b: Row,
    constants: Iterable[Value] = (),
) -> BisimilarityResult:
    """Decide ``A, ā ∼C_g B, b̄`` (Definition 11, final paragraph).

    The pair is bisimilar iff the componentwise map ``ā → b̄`` is a
    C-partial isomorphism and can respond (forth and back) into the
    greatest bisimulation.
    """
    if len(tuple_a) != len(tuple_b):
        return BisimilarityResult(
            False, None, (), "tuples have different arities"
        )
    constants = tuple(constants)
    initial = tuple_map(tuple_a, tuple_b)
    if initial is None:
        return BisimilarityResult(
            False, None, (), f"{tuple_a!r} → {tuple_b!r} is not a function"
        )
    if not initial.is_bijective() or not is_c_partial_isomorphism(
        initial, db_a, db_b, constants
    ):
        return BisimilarityResult(
            False,
            initial,
            (),
            f"{initial!r} is not a C-partial isomorphism",
        )
    pool = greatest_bisimulation(db_a, db_b, constants)
    for guarded in db_a.guarded_sets():
        if not _forth_ok(initial, guarded, pool):
            return BisimilarityResult(
                False,
                initial,
                tuple(pool),
                "spoiler wins: forth move on guarded set "
                f"{sorted(guarded, key=repr)} has no response",
            )
    for guarded in db_b.guarded_sets():
        if not _back_ok(initial, guarded, pool):
            return BisimilarityResult(
                False,
                initial,
                tuple(pool),
                "spoiler wins: back move on guarded set "
                f"{sorted(guarded, key=repr)} has no response",
            )
    witness = tuple(pool) + (initial,)
    return BisimilarityResult(
        True, initial, witness, "duplicator wins: witness bisimulation found"
    )


def bisimilar(
    db_a: Database,
    tuple_a: Row,
    db_b: Database,
    tuple_b: Row,
    constants: Iterable[Value] = (),
) -> bool:
    """Boolean shorthand for :func:`are_bisimilar`."""
    return are_bisimilar(db_a, tuple_a, db_b, tuple_b, constants).bisimilar
