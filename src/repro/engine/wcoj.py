"""Worst-case-optimal multiway join: generic join over attribute tries.

Binary join plans are provably quadratically worse than the AGM
fractional-edge-cover bound on cyclic queries — the triangle
``E(a,b) ⋈ F(b,c) ⋈ G(c,a)`` has output (and AGM bound) ``O(n^{3/2})``
while every binary plan materializes an ``Θ(n²)`` intermediate on
skewed inputs.  This module is the execution side of the engine's
answer (Ngo–Porat–Ré–Rudra's *generic join*, the leapfrog-triejoin
family): instead of joining relation-by-relation, join
**variable-by-variable**.

The planner hands over a :class:`~repro.engine.plan.MultiwayJoinOp`
describing the join hypergraph: ``attrs[k][c]`` names the join
variable held by column ``c`` of input ``k`` (variables are the
union-find classes of equated columns), and ``order`` fixes a global
variable elimination order.  Execution then

1. builds one **trie** per input — nested hash maps keyed by that
   input's variables sorted in the global order (cached in the
   executor's :class:`~repro.engine.executor.IndexCache`, so repeated
   queries against unchanged contents rebuild nothing);
2. binds variables in order, one step per depth compiled when the
   operator starts: at each depth the candidate values are the
   intersection of the current trie nodes of every input containing
   the variable, enumerated from the smallest candidate set and
   hash-probed into the others (the "min-set iteration" that makes
   the generic-join runtime bound go through);
3. reconstructs output rows from complete bindings — every column of
   every input is some variable, so a full binding *is* the
   concatenated output row, and no intermediate tuple is ever
   materialized.

The only materialized state is the inputs (tries) and the accumulated
output, whose size the AGM bound certifies — the soundness property
``tests/test_engine_wcoj.py`` asserts via the :class:`WcojRun` record
each execution leaves in :class:`~repro.engine.executor.
ExecutionStats`.

Correctness notes the implementation leans on:

* columns of one input equated *with each other* (through atom
  transitivity) share a variable; trie insertion drops rows whose
  duplicated columns disagree, which is exactly the implied
  self-filter;
* distinct rows of an input always differ on some variable (every
  column is a variable), so a complete binding matches at most one
  row per input and distinct bindings yield distinct output rows —
  the enumeration is duplicate-free without a dedup pass;
* each input's variables sorted by global order rank align its trie
  depth with the elimination order: when the recursion reaches a
  variable, every participating input's cursor is a dict keyed by
  exactly that variable's values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Sized

from repro.data.database import Row
from repro.engine import kernels
from repro.errors import SchemaError

__all__ = [
    "WcojRun",
    "build_trie",
    "choose_order",
    "generic_join",
    "leaf_trie_layout",
    "run_multiway",
    "variable_layout",
]


def variable_layout(
    arities: Sequence[int], atoms: Iterable[tuple[int, str, int]]
) -> tuple[tuple[int, ...], ...]:
    """Join variables from equated global columns, one row per input.

    ``atoms`` are ``(left_global, op, right_global)`` triples over the
    concatenated column space (the output of
    :func:`repro.engine.cost.flatten_join_tree`); equality atoms merge
    their columns into one variable, transitively.  Returns
    ``attrs`` with ``attrs[k][c]`` the variable id of input ``k``'s
    column ``c``; ids are dense and numbered by first occurrence in
    global column order, so the layout is deterministic.

    Non-equality atoms are rejected: the generic join binds variables
    to *equal* values only, so an order/inequality atom has no
    variable reading — callers must keep such chains binary.
    """
    offsets, total = [], 0
    for arity in arities:
        offsets.append(total)
        total += arity
    parent = list(range(total))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for gi, op, gj in atoms:
        if op != "=":
            raise SchemaError(
                "multiway join variables need pure equality atoms; "
                f"got {op!r}"
            )
        parent[find(gi)] = find(gj)
    ids: dict[int, int] = {}
    assigned = []
    for column in range(total):
        root = find(column)
        if root not in ids:
            ids[root] = len(ids)
        assigned.append(ids[root])
    return tuple(
        tuple(assigned[offsets[k] + c] for c in range(arities[k]))
        for k in range(len(arities))
    )


def choose_order(
    attrs: Sequence[Sequence[int]], cards: Sequence[float]
) -> tuple[int, ...]:
    """A deterministic variable elimination order for :func:`generic_join`.

    Any order is correct; this one intersects the most *shared*
    variables first (they prune hardest), breaking ties toward the
    variable whose smallest containing input is smallest (cheap
    candidate sets), then by variable id.  Purely a heuristic — the
    worst-case bound holds for every order.
    """
    containing: dict[int, int] = {}
    smallest: dict[int, float] = {}
    for k, row in enumerate(attrs):
        for variable in set(row):
            containing[variable] = containing.get(variable, 0) + 1
            smallest[variable] = min(
                smallest.get(variable, math.inf), cards[k]
            )
    return tuple(
        sorted(
            containing,
            key=lambda v: (-containing[v], smallest[v], v),
        )
    )


def leaf_trie_layout(
    attrs_k: Sequence[int], order: Sequence[int]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """One input's trie plan: ``(variables, columns_by_variable)``.

    ``variables`` is the input's distinct variable ids sorted by their
    rank in the global ``order`` (the trie's level sequence);
    ``columns_by_variable`` aligns with it and lists every 0-based
    column of the input holding that variable (several when atoms
    equate columns of the same input — insertion enforces they agree).
    """
    rank = {variable: i for i, variable in enumerate(order)}
    variables = tuple(sorted(set(attrs_k), key=lambda v: rank[v]))
    columns = tuple(
        tuple(c for c, v in enumerate(attrs_k) if v == variable)
        for variable in variables
    )
    return variables, columns


def build_trie(
    rows: Iterable[Row], columns_by_variable: Sequence[Sequence[int]]
) -> tuple[dict, int]:
    """Nested hash maps over ``rows``, one level per variable.

    Level ``d`` is keyed by the value of ``columns_by_variable[d]``
    (all listed columns must agree, else the row can never join and is
    dropped); the last level maps values to ``True``.  Returns the
    trie and the number of rows inserted — the figure the
    :class:`~repro.engine.executor.IndexCache` row budget counts.

    The self-filter is one pass, made only when some variable really
    holds more than one column; the insert loop is written out for one
    level, for two (every binary edge relation) and for any number.
    """
    root: dict = {}
    if not columns_by_variable:
        return root, 0
    repeats = tuple(
        (columns[0], c)
        for columns in columns_by_variable
        for c in columns[1:]
    )
    if repeats:

        def agrees(row: Row) -> bool:
            for first, c in repeats:
                if row[c] != row[first]:
                    return False
            return True

        rows = list(filter(agrees, rows))
    elif not isinstance(rows, Sized):
        rows = list(rows)
    *inner, last = (columns[0] for columns in columns_by_variable)
    if not inner:
        for row in rows:
            root[row[last]] = True
    elif len(inner) == 1:
        (first,) = inner
        get = root.get
        for row in rows:
            value = row[first]
            node = get(value)
            if node is None:
                node = root[value] = {}
            node[row[last]] = True
    else:
        for row in rows:
            node = root
            for c in inner:
                value = row[c]
                child = node.get(value)
                if child is None:
                    child = node[value] = {}
                node = child
            node[row[last]] = True
    return root, len(rows)


@dataclass(frozen=True)
class WcojRun:
    """What one :class:`MultiwayJoinOp` execution actually did.

    The record the soundness property tests read: ``output_rows`` —
    the only rows the operator materializes beyond its inputs — must
    stay within ``agm``, the fractional-edge-cover bound the planner
    certified.  ``probes``/``candidates`` count intersection work
    (hash probes into non-pivot tries; values enumerated from pivot
    tries), the generic-join analogue of build/probe counters.
    """

    variables: int
    leaves: int
    agm: float
    output_rows: int
    candidates: int
    probes: int

    def render(self) -> str:
        return (
            f"[vars={self.variables} inputs={self.leaves} "
            f"agm={self.agm:g} rows={self.output_rows} "
            f"candidates={self.candidates} probes={self.probes}]"
        )


def _level(
    parts: tuple[int, ...],
    variable: int,
    cursors: list,
    binding: list,
    tally: list[int],
    descend: Callable[[], None] | None,
    emit: Callable[[tuple], None],
) -> Callable[[], None]:
    """One depth of :func:`generic_join`, compiled for its plan.

    ``parts`` are the inputs holding ``variable``; whenever the step
    runs, ``cursors[k]`` of each is a dict keyed by this variable's
    values.  The step binds every value all of them support and calls
    ``descend`` (the next depth's step) under it, or — ``descend`` is
    None, the last depth — hands ``emit`` the completed binding.  The
    pivot is the participant with the fewest candidates, the first
    such on a tie.  ``tally`` is ``[candidates, probes]``: the pivot's
    size, and for each further participant in ``parts`` order the
    number of values the ones before it left standing (one probe per
    survivor, none after a value's first miss).

    An inner step writes the descended cursors in place and puts its
    own back once, after the loop: a deeper step reads only its own
    participants' cursors, all written before each ``descend``.  The
    last step has nowhere to descend, so it intersects whole key sets,
    ``keys() & keys()``, in C.  Two participants — every level of a
    cycle query — get their own form of each.  No step refers to
    itself, so a finished join is freed by reference count.
    """
    if len(parts) == 2:
        i, j = parts
        if descend is None:

            def step() -> None:
                first, second = cursors[i], cursors[j]
                smaller = min(len(first), len(second))
                tally[0] += smaller
                tally[1] += smaller
                for value in first.keys() & second.keys():
                    binding[variable] = value
                    emit(tuple(binding))

            return step

        def step() -> None:
            first, second = cursors[i], cursors[j]
            if len(second) < len(first):
                pivot, other, base, get = j, i, second, first.get
            else:
                pivot, other, base, get = i, j, first, second.get
            for value, descended in base.items():
                nxt = get(value)
                if nxt is not None:
                    cursors[pivot] = descended
                    cursors[other] = nxt
                    binding[variable] = value
                    descend()
            cursors[i] = first
            cursors[j] = second
            tally[0] += len(base)
            tally[1] += len(base)

        return step

    if descend is None:

        def step() -> None:
            nodes = [cursors[k] for k in parts]
            sizes = [len(node) for node in nodes]
            survivors = nodes.pop(sizes.index(min(sizes))).keys()
            tally[0] += len(survivors)
            for node in nodes:
                tally[1] += len(survivors)
                survivors = survivors & node.keys()
            for value in survivors:
                binding[variable] = value
                emit(tuple(binding))

        return step

    def step() -> None:
        nodes = [cursors[k] for k in parts]
        sizes = [len(node) for node in nodes]
        at = sizes.index(min(sizes))
        pivot, base = parts[at], nodes[at]
        others = [
            (k, node.get)
            for k, node in zip(parts, nodes)
            if k != pivot
        ]
        probes = 0
        for value, descended in base.items():
            for k, get in others:
                probes += 1
                nxt = get(value)
                if nxt is None:
                    break
                cursors[k] = nxt
            else:
                cursors[pivot] = descended
                binding[variable] = value
                descend()
        for k, node in zip(parts, nodes):
            cursors[k] = node
        tally[0] += len(base)
        tally[1] += probes

    return step


def generic_join(
    tries: Sequence[dict],
    leaf_variables: Sequence[frozenset[int]],
    order: Sequence[int],
    counters: dict[str, int] | None = None,
) -> list[tuple]:
    """All complete bindings supported by every trie (NPRR generic join).

    ``tries[k]`` must be keyed by ``leaf_variables[k]`` sorted in
    ``order`` (see :func:`leaf_trie_layout`).  Returns bindings as
    tuples indexed by variable id, in no particular order.  At each
    depth the pivot is the participating input with the fewest
    candidates; its values are enumerated and hash-probed into the
    others, so the work per level is proportional to the smallest
    candidate set — the property the worst-case analysis needs.

    Who participates at which depth, which slot a value lands in and
    which depth is the last are fixed by the arguments, so they are
    decided once: one :func:`_level` step per depth, built bottom-up,
    and the join is a call to the first.  ``counters`` gains
    ``candidates`` (values enumerated from pivots) and ``probes``
    (hash probes into the other participants).
    """
    participants = [
        tuple(
            k
            for k, variables in enumerate(leaf_variables)
            if variable in variables
        )
        for variable in order
    ]
    if not all(participants):
        raise SchemaError(
            "generic join: a variable in the order occurs in no input"
        )
    cursors = list(tries)
    binding = [None] * (max(order, default=-1) + 1)
    out: list[tuple] = []
    tally = [0, 0]
    step = None
    for parts, variable in zip(reversed(participants), reversed(order)):
        step = _level(
            parts, variable, cursors, binding, tally, step, out.append
        )
    if step is None:
        out.append(())
    else:
        step()
    if counters is not None:
        candidates, probes = tally
        counters["candidates"] = counters.get("candidates", 0) + candidates
        counters["probes"] = counters.get("probes", 0) + probes
    return out


def run_multiway(executor, node) -> list[Row]:
    """Execute a :class:`~repro.engine.plan.MultiwayJoinOp`.

    Inputs come through the executor's usual per-node memo; the
    per-input tries go through its :class:`~repro.engine.executor.
    IndexCache` (keyed by the input's *logical* expression plus the
    trie layout, so repeated runs against unchanged contents reuse the
    builds and a version-token move invalidates them with everything
    else).  Leaves a :class:`WcojRun` in ``executor.stats.wcoj_runs``.
    """
    inputs = [executor._rows(child) for child in node.relations]
    tries: list[dict] = []
    leaf_variables: list[frozenset[int]] = []
    for child, rows, attrs_k in zip(node.relations, inputs, node.attrs):
        variables, columns = leaf_trie_layout(attrs_k, node.order)
        tries.append(
            executor.indexes.trie_for(child.logical, rows, columns)
        )
        leaf_variables.append(frozenset(variables))
    counters: dict[str, int] = {}
    bindings = generic_join(tries, leaf_variables, node.order, counters)
    # Every output column is some variable: the row is one pick from
    # the binding, the same pick for every binding.
    out = list(
        kernels.keys_of(
            bindings, [v + 1 for attrs_k in node.attrs for v in attrs_k]
        )
    )
    executor.stats.wcoj_runs[node] = WcojRun(
        variables=len(node.order),
        leaves=len(node.relations),
        agm=node.agm,
        output_rows=len(out),
        candidates=counters["candidates"],
        probes=counters["probes"],
    )
    return out
