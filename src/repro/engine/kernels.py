"""Operator kernels: a condition compiled once per operator execution.

A join condition is a conjunction of atoms ``i α j``
(:mod:`repro.algebra.conditions`).  Interpreting it for every row pair
costs a generator, a method call and an operator-table lambda per atom
per pair — on the engine's linear operators, most of the run time.
Here the condition becomes closures over fixed 0-based offsets **once**,
when an operator starts (one-shot, or inside a batch kernel in a pool
worker): :func:`key_getter` / :func:`keys_of` for the equality keys
(also the projection row mapper and the
:class:`~repro.engine.executor.IndexCache` grouping key) and
:func:`matcher` for the other atoms.  A selection is one ``compress``
pass per predicate (:func:`filter_rows`).  The four pair loops every
join / semijoin operator runs are written once, over those: with no
atom left to check (:func:`always`), pipelines of C iterators with no
Python frame per row.  Their output holds no duplicate when the inputs hold
none, so the executor memoises it as a ``list`` (``docs/engine.md``).

A semijoin compiles its other atoms with :func:`witness`: where one
summary per group of right rows decides them, each left row is tested
against its group's summary and the semijoin is linear; every other
rest keeps the pairwise first-witness scan over :func:`matcher`.

Closures never travel — a batch task carries atoms, and the kernel
compiles them in the worker.  The structural evaluator and the
reference semantics do not import this module; they keep their own
naive loops, so the differential suites compare independent
implementations (``tests/test_layering.py``).
"""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import compress, product, repeat, starmap
from typing import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.algebra.conditions import Atom
from repro.data.database import Row

KeyGetter = Callable[[Row], tuple]
Matcher = Callable[[Row, Row], bool]

_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
}


def filter_rows(
    rows: Collection[Row], predicates: Iterable[tuple[str, int, int]]
) -> Collection[Row]:
    """The rows satisfying every ``(op, i, j)``: ``row[i-1] op
    row[j-1]``, one ``compress`` pass per predicate over the rows the
    earlier ones kept — each row meets the comparisons, in order, that
    a per-row check stopping at the first false one would make, so an
    incomparable pair raises the same ``TypeError``."""
    for op, i, j in predicates:
        left = map(operator.itemgetter(i - 1), rows)
        right = map(operator.itemgetter(j - 1), rows)
        rows = list(compress(rows, map(_COMPARE[op], left, right)))
    return rows


def key_getter(positions: Sequence[int]) -> KeyGetter:
    """``row -> tuple(row[p - 1] for p in positions)``, specialised.

    Always returns a tuple — ``operator.itemgetter`` alone would return
    a scalar for one position and refuses zero — so index keys have one
    shape however many equality atoms a condition has.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        offset = positions[0] - 1
        return lambda row: (row[offset],)
    return operator.itemgetter(*(p - 1 for p in positions))


def keys_of(rows: Iterable[Row], positions: Sequence[int]) -> Iterator[tuple]:
    """``key_getter(positions)`` over every row, with no frame per row:
    the one position :func:`key_getter` needs a lambda for is ``zip``
    over a C ``itemgetter``, which wraps each value in the same 1-tuple."""
    if len(positions) == 1:
        return zip(map(operator.itemgetter(positions[0] - 1), rows))
    return map(key_getter(positions), rows)


def always(left: Row, right: Row) -> bool:
    """The empty conjunction.  The pair loops test ``match is always``
    and skip the per-pair call altogether."""
    return True


def matcher(atoms: Iterable[Atom]) -> Matcher:
    """The conjunction of ``atoms`` on a (left row, right row) pair.

    Atoms are checked in order and the first false one ends the check,
    as ``Condition.holds`` does; comparing incomparable values raises
    whatever the comparison itself raises.  No atoms: :func:`always`.
    """
    triples = tuple((a.i - 1, a.j - 1, _COMPARE[a.op]) for a in atoms)
    if not triples:
        return always
    if len(triples) == 1:
        ((i, j, compare),) = triples
        return lambda left, right: compare(left[i], right[j])

    def conjunction(left: Row, right: Row) -> bool:
        for i, j, compare in triples:
            if not compare(left[i], right[j]):
                return False
        return True

    return conjunction


class GroupTest(NamedTuple):
    """A rest decided per group: a left row has a witness in a group iff
    ``passes(reduce(map(column, group)), value(row))``.  With one atom
    all four are C callables: no Python frame runs per row."""

    column: Callable[[Row], object]
    reduce: Callable[[Iterator], object]
    value: Callable[[Row], object]
    passes: Callable[[object, object], bool]


#: An order atom's summary of a group and its test: some ``r`` has
#: ``l[i] < r[j]`` iff ``max r[j] > l[i]``, some has ``l[i] > r[j]`` iff
#: ``min r[j] < l[i]``.  Several atoms of one direction on one ``j``
#: bound ``r[j]`` by the largest (smallest) of their ``l[i]``.
_SUMMARY = {"<": (max, operator.gt), ">": (min, operator.lt)}


def witness(atoms: Iterable[Atom]) -> "Matcher | GroupTest":
    """A semijoin's check of ``atoms``: a :class:`GroupTest` against
    the group's maximum (minimum) ``r[j]`` when every atom is ``<``
    (every atom is ``>``) and all read one right column ``j``; else
    :func:`matcher`.  Ties stay strict; an incomparable value raises
    ``TypeError``, maybe at another pair than the scan would."""
    atoms = tuple(atoms)
    return _group_test(atoms) or matcher(atoms)


def scans(atoms: Sequence[Atom]) -> bool:
    """Whether a semijoin on ``atoms`` pairs left rows with their group."""
    return bool(atoms) and _group_test(tuple(atoms)) is None


def _group_test(atoms: tuple[Atom, ...]) -> GroupTest | None:
    ops = {a.op for a in atoms}
    if len(ops) != 1 or len({a.j for a in atoms}) != 1:
        return None
    summary = _SUMMARY.get(ops.pop())
    if summary is None:
        return None
    pick, passes = summary
    getter = operator.itemgetter(*(a.i - 1 for a in atoms))
    value = getter if len(atoms) == 1 else (lambda row: pick(getter(row)))
    return GroupTest(operator.itemgetter(atoms[0].j - 1), pick, value, passes)


def set_groups(rows: Iterable[Row]) -> dict[object, frozenset]:
    """A binary relation's set grouping ``a → frozenset({b, …})``: the
    index a division's ∀ level reads (:func:`quotient`)."""
    groups: defaultdict[object, list] = defaultdict(list)
    for a, b in rows:
        groups[a].append(b)
    return dict(zip(groups, map(frozenset, groups.values())))


def quotient(
    groups: Mapping[object, frozenset], divisor: Iterable, eq: bool
) -> Iterator[Row]:
    """A division's ∀ level: each ``(a,)`` of a dividend's set grouping
    (:func:`set_groups`) whose set contains (under ``eq``: equals) the
    ``divisor`` values, one C frozenset compare per group."""
    holds = operator.eq if eq else operator.ge
    tests = map(holds, groups.values(), repeat(frozenset(divisor)))
    return zip(compress(groups, tests))


def build_index(
    rows: Collection[Row], positions: Sequence[int]
) -> dict[tuple, list[Row]]:
    """Group ``rows`` by their key on ``positions``: ``key → rows``."""
    index: dict[tuple, list[Row]] = {}
    for k, row in zip(keys_of(rows, positions), rows):
        group = index.get(k)
        if group is None:
            index[k] = [row]
        else:
            group.append(row)
    return index


def _groups_of(lefts, index, positions) -> Iterator[Sequence[Row]]:
    """Per left row, in order, the rows indexed under its key (or ``()``)."""
    return map(index.get, keys_of(lefts, positions), repeat(()))


def _first_witness(lefts, groups, match: Matcher) -> Iterator[Row]:
    """Every ``l`` with a matching ``r`` in its group; stops at the first."""
    for lrow, rrows in zip(lefts, groups):
        for rrow in rrows:
            if match(lrow, rrow):
                yield lrow
                break


def hash_join(
    lefts: Collection[Row],
    index: Mapping[tuple, Sequence[Row]],
    positions: Sequence[int],
    match: Matcher,
) -> list[Row]:
    """``l + r`` for every ``r`` indexed under ``l``'s key that matches.

    Like every kernel taking ``positions`` it walks ``lefts`` twice in
    step (rows, keys): an unmodified collection iterates in one order."""
    pairs = zip(lefts, _groups_of(lefts, index, positions))
    if match is always:
        return [lrow + rrow for lrow, rrows in pairs for rrow in rrows]
    return [
        lrow + rrow
        for lrow, rrows in pairs
        for rrow in rrows
        if match(lrow, rrow)
    ]


def hash_semijoin(
    lefts: Collection[Row],
    index: Mapping[tuple, Sequence[Row]],
    positions: Sequence[int],
    match: "Matcher | GroupTest",
) -> Iterator[Row]:
    """Every ``l`` with a witness indexed under its key."""
    if match is always:
        # Index groups are never empty, so key membership is a witness.
        return compress(
            lefts, map(index.__contains__, keys_of(lefts, positions))
        )
    if isinstance(match, GroupTest):
        return _summarised(lefts, index, positions, match)
    return _first_witness(lefts, _groups_of(lefts, index, positions), match)


def _summarised(lefts, index, positions, test: GroupTest) -> Iterator[Row]:
    """Rows with a group, each tested against one summary per group.

    The equality probe drops rows with no group first, in C; keying the
    probed rows again is cheaper than any one-pass shape measured."""
    probed = list(hash_semijoin(lefts, index, positions, always))
    keys = list(keys_of(probed, positions))
    summaries = {
        key: test.reduce(map(test.column, index[key])) for key in set(keys)
    }
    per_row = map(summaries.__getitem__, keys)
    return compress(probed, map(test.passes, per_row, map(test.value, probed)))


def nested_loop_join(
    lefts: Iterable[Row], rights: Collection[Row], match: Matcher
) -> Iterable[Row]:
    """``l + r`` for every matching pair (:func:`always`: cross product)."""
    if match is always:
        return starmap(operator.add, product(lefts, rights))
    return [
        lrow + rrow
        for lrow in lefts
        for rrow in rights
        if match(lrow, rrow)
    ]


def nested_loop_semijoin(
    lefts: Collection[Row],
    rights: Collection[Row],
    match: "Matcher | GroupTest",
) -> Iterable[Row]:
    """Every ``l`` with some matching ``r``.

    A :class:`GroupTest` reads ``rights`` once; a matcher pairs each
    row with ``rights`` and evaluates no pair after its first witness.
    """
    if not rights:
        return ()
    if match is always:
        return lefts
    if isinstance(match, GroupTest):
        summary = repeat(match.reduce(map(match.column, rights)))
        values = map(match.value, lefts)
        return compress(lefts, map(match.passes, summary, values))
    return _first_witness(lefts, repeat(rights), match)
