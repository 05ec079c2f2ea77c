"""The Lemma 24 blow-up construction.

Given ``E = E1 ⋈_θ E2`` with constants in ``C``, a database ``D`` and a
joining pair ``(ā, b̄) ∈ E1(D) × E2(D)`` with ``F1_E(ā) ≠ ∅`` and
``F2_E(b̄) ≠ ∅``, the lemma constructs a sequence ``(Dn)`` with

* ``|Dn| ≤ c·n`` for ``c = 2|D|``, and
* ``|E1 ⋈_θ E2 (Dn)| ≥ n²``.

The construction (proof of Lemma 24):

1. for every free value ``x`` and every ``k < n``, create a fresh
   element ``new^(k)(x)`` with the *same relative order* as ``x`` —
   translating existing elements ("the isomorphic copy D'_k") when the
   universe is discrete and the gap is full
   (:meth:`repro.data.universe.Universe.make_room`);
2. for every stored tuple ``t`` touching ``F1(ā)``, add the copy
   ``f1^(k)(t)`` (free values replaced by their k-th fresh element) to
   exactly the relations containing ``t``; likewise for ``F2(b̄)``.

Then every pair ``(f1^(k)(ā), f2^(l)(b̄))`` satisfies θ, each copy is
C-guarded bisimilar to the original (so SA= sides keep producing them —
Corollary 14), and the join output has ≥ n² tuples.

:class:`BlowupResult` carries the constructed database together with the
copy maps and *checkable certificates* for every claim above; the test
suite and the FIG4/THM17 experiments replay them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.algebra.ast import Join, Semijoin
from repro.algebra.evaluator import evaluate
from repro.core.freevalues import free_values
from repro.core.joininfo import JoinInfo
from repro.data.database import Database, Row
from repro.data.universe import Universe, Value
from repro.errors import AnalysisError


@dataclass(frozen=True)
class BlowupWitness:
    """A Lemma 24 witness: the join, seed database and joining pair.

    Use :func:`find_witness` to search for one, or build directly when
    the pair is known (as in Fig. 4).
    """

    join: "Join | Semijoin"
    db: Database
    left_tuple: Row
    right_tuple: Row
    constants: tuple[Value, ...]
    universe: Universe

    def info(self) -> JoinInfo:
        return JoinInfo.of(self.join)

    def free1(self) -> frozenset[Value]:
        return free_values(
            self.left_tuple, 1, self.info(), self.constants, self.universe
        )

    def free2(self) -> frozenset[Value]:
        return free_values(
            self.right_tuple, 2, self.info(), self.constants, self.universe
        )

    def validate(self) -> None:
        """Check the Lemma 24 hypotheses; raise if they fail."""
        info = self.info()
        if not info.condition.holds(self.left_tuple, self.right_tuple):
            raise AnalysisError(
                f"({self.left_tuple!r}, {self.right_tuple!r}) does not "
                f"satisfy θ = {info.condition}"
            )
        left = evaluate(self.join.left, self.db)
        right = evaluate(self.join.right, self.db)
        if self.left_tuple not in left:
            raise AnalysisError(f"{self.left_tuple!r} not in E1(D)")
        if self.right_tuple not in right:
            raise AnalysisError(f"{self.right_tuple!r} not in E2(D)")
        if not self.free1():
            raise AnalysisError(f"F1({self.left_tuple!r}) is empty")
        if not self.free2():
            raise AnalysisError(f"F2({self.right_tuple!r}) is empty")


@dataclass(frozen=True)
class BlowupResult:
    """``Dn`` with its construction data and certificates."""

    witness: BlowupWitness
    n: int
    database: Database                      # Dn
    seed: Database                          # D after translation (⊆ Dn)
    renaming: Mapping[Value, Value]         # original D values → Dn values
    left_tuple: Row                         # ā after translation
    right_tuple: Row                        # b̄ after translation
    fresh: Mapping[Value, tuple[Value, ...]]  # x → (new^(1)(x), ...)
    left_copies: tuple[Row, ...]            # f1^(k)(ā), k = 0..n-1
    right_copies: tuple[Row, ...]           # f2^(k)(b̄), k = 0..n-1

    # ------------------------------------------------------------------
    # Certificates (each one is a claim from the Lemma 24 proof)
    # ------------------------------------------------------------------

    def size_bound_holds(self) -> bool:
        """``|Dn| ≤ c·n`` with ``c = 2|D|`` (requirement (1))."""
        return self.database.size() <= 2 * self.witness.db.size() * self.n

    def contains_seed(self) -> bool:
        """The (translated) seed is a sub-database of Dn."""
        return all(
            self.seed[name] <= self.database[name]
            for name in self.seed.schema
        )

    def copies_satisfy_theta(self) -> bool:
        """Every pair of copies satisfies θ (the n² core argument)."""
        cond = self.witness.join.cond
        return all(
            cond.holds(left, right)
            for left in self.left_copies
            for right in self.right_copies
        )

    def copies_in_operands(self) -> bool:
        """``f1^(k)(ā) ∈ E1(Dn)`` and ``f2^(l)(b̄) ∈ E2(Dn)`` for all k, l.

        In the proof this follows from C-guarded bisimilarity of each
        copy with the original (Corollary 14) when E1, E2 are SA=; here
        it is checked by direct evaluation, which also covers the
        general RA sub-expressions used by the classifier's witness
        search.
        """
        left = evaluate(self.witness.join.left, self.database)
        right = evaluate(self.witness.join.right, self.database)
        return all(c in left for c in self.left_copies) and all(
            c in right for c in self.right_copies
        )

    def join_output_size(self) -> int:
        """``|E1 ⋈_θ E2 (Dn)|`` by direct evaluation."""
        node = self.witness.join
        joined = Join(node.left, node.right, node.cond)
        return len(evaluate(joined, self.database))

    def quadratic_bound_holds(self) -> bool:
        """``|E(Dn)| ≥ n²`` (requirement (2))."""
        return self.join_output_size() >= self.n * self.n

    def certify(self) -> dict[str, bool]:
        """All certificates at once (keys name the proof obligations)."""
        return {
            "size_bound": self.size_bound_holds(),
            "contains_seed": self.contains_seed(),
            "copies_satisfy_theta": self.copies_satisfy_theta(),
            "copies_in_operands": self.copies_in_operands(),
            "quadratic_output": self.quadratic_bound_holds(),
        }


def blow_up(witness: BlowupWitness, n: int) -> BlowupResult:
    """Construct ``Dn`` from a validated witness (Lemma 24's proof)."""
    if n < 1:
        raise AnalysisError(f"n must be >= 1, got {n}")
    witness.validate()
    universe = witness.universe
    constants = witness.constants

    # Mutable construction state; renamed in place when the universe
    # must translate values to make room (the "isomorphic copy D'_k").
    db = witness.db
    left = witness.left_tuple
    right = witness.right_tuple
    renaming: dict[Value, Value] = {v: v for v in db.active_domain()}
    fresh: dict[Value, list[Value]] = {}

    free_all = sorted(
        set(witness.free1()) | set(witness.free2()), key=_sort_key
    )
    domain = set(db.active_domain()) | set(constants)

    for anchor in free_all:
        current = renaming.get(anchor, anchor)
        plan = universe.make_room(
            domain, current, n - 1, pinned=constants
        )
        if not plan.is_identity:
            rho = dict(plan.renaming)
            db = db.rename_values(rho)
            left = tuple(rho.get(v, v) for v in left)
            right = tuple(rho.get(v, v) for v in right)
            renaming = {
                old: rho.get(new, new) for old, new in renaming.items()
            }
            fresh = {
                rho.get(x, x): [rho.get(v, v) for v in values]
                for x, values in fresh.items()
            }
            domain = {rho.get(v, v) for v in domain}
            current = renaming.get(anchor, anchor)
        fresh[current] = list(plan.fresh)
        domain.update(plan.fresh)

    free1 = {renaming[v] for v in witness.free1()}
    free2 = {renaming[v] for v in witness.free2()}

    # Step (2)/(3): add the copied tuples, in the same relations.
    additions: dict[str, set[Row]] = {name: set() for name in db.schema}
    seed_tuples = {
        name: db[name] for name in db.schema
    }
    for k in range(1, n):
        for free_side in (free1, free2):
            substitution = {
                x: fresh[x][k - 1] for x in free_side
            }
            for name, rows in seed_tuples.items():
                for row in rows:
                    if set(row) & free_side:
                        additions[name].add(
                            tuple(substitution.get(v, v) for v in row)
                        )
    blown = db.with_tuples(additions)

    def copy_tuple(row: Row, free_side: set[Value], k: int) -> Row:
        if k == 0:
            return row
        return tuple(
            fresh[v][k - 1] if v in free_side else v for v in row
        )

    left_copies = tuple(copy_tuple(left, free1, k) for k in range(n))
    right_copies = tuple(copy_tuple(right, free2, k) for k in range(n))

    return BlowupResult(
        witness=witness,
        n=n,
        database=blown,
        seed=db,
        renaming=renaming,
        left_tuple=left,
        right_tuple=right,
        fresh={x: tuple(values) for x, values in fresh.items()},
        left_copies=left_copies,
        right_copies=right_copies,
    )


def blow_up_sequence(
    witness: BlowupWitness, ns: Sequence[int]
) -> list[BlowupResult]:
    """``Dn`` for each requested n (each built independently)."""
    return [blow_up(witness, n) for n in ns]


def find_witness(
    node: "Join | Semijoin",
    db: Database,
    constants: Sequence[Value],
    universe: Universe,
) -> BlowupWitness | None:
    """Search one database for a Lemma 24 witness pair.

    Evaluates both operands on ``db`` and returns the first joining pair
    with free values on both sides, or ``None``.
    """
    info = JoinInfo.of(node)
    constants = tuple(constants)
    left_rows = sorted(evaluate(node.left, db), key=_row_key)
    right_rows = sorted(evaluate(node.right, db), key=_row_key)
    for left in left_rows:
        f1 = free_values(left, 1, info, constants, universe)
        if not f1:
            continue
        for right in right_rows:
            if not info.condition.holds(left, right):
                continue
            f2 = free_values(right, 2, info, constants, universe)
            if not f2:
                continue
            return BlowupWitness(
                join=node,
                db=db,
                left_tuple=left,
                right_tuple=right,
                constants=constants,
                universe=universe,
            )
    return None


def _sort_key(value: Value):
    return (isinstance(value, str), value)


def _row_key(row: Row):
    return tuple(_sort_key(v) for v in row)
