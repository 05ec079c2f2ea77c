"""Per-relation statistics backing the cost model.

The planner's structural rules (dichotomy verdicts, division pattern
matches) say which plans *can* blow up; statistics say how big this
particular database actually is, so plan choice can compare estimated
costs instead of pattern-matching alone (``docs/engine.md``).

Statistics are exact — relations are in-memory frozensets, so one pass
per relation yields the true cardinality, true per-column distinct
counts, and a true most-common-value sketch.  That exactness is what
makes the estimator's *upper bounds* sound (``repro.engine.cost``): the
bounds are theorems about the data, not guesses, and the property tests
in ``tests/test_engine_cost.py`` hold them to that.

Collection is lazy and cached per relation in a :class:`StatsCatalog`,
which lives alongside the hash-index cache on each
:class:`~repro.engine.executor.Executor`.  A catalog entry remembers the
**version token** current when it was profiled; if the token has moved
(contents changed under the same handle) the entry is recomputed — the
same change signal the executor's other caches key on.  Per-read-decode
backends (mmap spills decode a fresh frozenset on every read) are why
the token, not object identity, must be the key: a fresh-but-equal
frozenset per read would otherwise re-profile O(n) on every access.

The catalog also carries the :class:`FeedbackLedger` — the persistent
estimator-error record closing the loop from execution back into
planning (``docs/engine.md`` § Adaptive feedback).  The ledger is keyed
by *(base relations, operator shape)*, not by plan-node identity, so it
deliberately **survives** :meth:`StatsCatalog.invalidate`: statistics
describe contents and go stale with them, but estimator *model* error
(e.g. correlation the ``1/max(d)`` join selectivity cannot see) is a
property of the workload and stays informative across mutations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sized

from repro.data.database import Database, Row
from repro.data.universe import Value

#: How many most-common values each column sketch retains.
MCV_SIZE = 8

#: Geometric smoothing weight for ledger updates: each new observation
#: moves the stored correction factor this fraction of the way (in log
#: space) toward the observed actual/estimated ratio.  1.0 would adopt
#: each observation outright (fast but jumpy on noisy operators); 0.5
#: converges geometrically while one outlier run cannot flip a plan.
FEEDBACK_SMOOTHING = 0.5


@dataclass(frozen=True)
class ColumnStats:
    """Exact statistics for one column of a relation.

    ``distinct`` is the number of distinct values, ``max_freq`` the
    multiplicity of the most frequent value (0 for an empty relation),
    and ``mcv`` the ``(value, count)`` pairs of the up-to-
    :data:`MCV_SIZE` most common values, most frequent first.
    """

    distinct: int
    max_freq: int
    mcv: tuple[tuple[Value, int], ...]

    def frequency(self, value: Value) -> int | None:
        """The exact count for ``value`` if the sketch retained it."""
        for candidate, count in self.mcv:
            if candidate == value:
                return count
        return None


@dataclass(frozen=True)
class RelationStats:
    """Exact statistics for one stored relation."""

    rows: int
    columns: tuple[ColumnStats, ...]

    @property
    def arity(self) -> int:
        return len(self.columns)

    def distinct(self, position: int) -> int:
        """Distinct count for a 1-based column position."""
        return self.columns[position - 1].distinct

    def max_freq(self, position: int) -> int:
        """Most-common-value multiplicity for a 1-based position."""
        return self.columns[position - 1].max_freq


def relation_stats(
    rows: Iterable[Row], arity: int, mcv_size: int = MCV_SIZE
) -> RelationStats:
    """Profile a relation: cardinality + per-column sketches.

    One column at a time — a transpose, then one ``Counter`` per
    column — so the counting runs in C; values are still met in row
    order, which keeps the MCV order on ties that of a row-by-row count.
    """
    if not isinstance(rows, Sized):
        rows = list(rows)
    # No rows, nothing to transpose: ``arity`` empty sketches.
    counters = [Counter(column) for column in zip(*rows)] or (
        [Counter()] * arity
    )
    columns = tuple(
        ColumnStats(
            distinct=len(counter),
            max_freq=max(counter.values(), default=0),
            mcv=tuple(counter.most_common(mcv_size)),
        )
        for counter in counters
    )
    return RelationStats(rows=len(rows), columns=columns)


class StatsCatalog:
    """Lazy, cached statistics for one database.

    ``relation(name)`` profiles a relation on first use and caches the
    result keyed by the **version token** current at profile time, so a
    swapped relation (same name, different contents) is re-profiled
    instead of served stale — and an *unchanged* relation is never
    re-profiled just because the backend decoded a fresh-but-equal
    frozenset for the read (the mmap backend does, on every read).
    When a ``backend`` is given, rows are read through it, so the
    profile describes exactly the snapshot scans will execute against.
    :meth:`invalidate` drops the statistics — the executor calls it
    when the version token changes — but **not** :attr:`feedback`: the
    estimator-error ledger describes the workload, not the contents.
    """

    def __init__(self, db: Database, backend=None) -> None:
        self.db = db
        #: Optional :class:`repro.storage.backend.Backend` rows and
        #: tokens are read through (None → the database handle itself).
        self.backend = backend
        self._cache: dict[str, tuple[int, RelationStats]] = {}
        #: Profiling passes actually run (the mmap regression test in
        #: ``tests/test_feedback.py`` counts these across reads).
        self.profiles = 0
        #: The persistent estimator-error ledger (survives invalidate).
        self.feedback = FeedbackLedger()

    def _token(self) -> int:
        if self.backend is not None:
            return self.backend.version_token()
        return self.db.version_token()

    def _rows(self, name: str) -> frozenset[Row]:
        if self.backend is not None:
            return self.backend.rows(name)
        return self.db[name]

    def relation(self, name: str) -> RelationStats:
        token = self._token()
        cached = self._cache.get(name)
        if cached is not None and cached[0] == token:
            return cached[1]
        profiled = relation_stats(self._rows(name), self.db.schema[name])
        self.profiles += 1
        self._cache[name] = (token, profiled)
        return profiled

    def invalidate(self) -> None:
        self._cache.clear()

    def profiled(self) -> tuple[str, ...]:
        """The relation names profiled so far (collection is lazy)."""
        return tuple(self._cache)

    def __len__(self) -> int:
        return len(self._cache)


# ----------------------------------------------------------------------
# The estimator-error feedback ledger
# ----------------------------------------------------------------------


@dataclass
class FeedbackEntry:
    """Accumulated estimator error for one (relations, shape) key.

    ``factor`` is the smoothed multiplicative correction — multiply the
    model's raw point estimate by it to land near observed actuals.
    ``last_estimated``/``last_actual`` keep the most recent raw pair
    for reports; ``observations`` counts how many runs fed the entry.
    """

    factor: float
    observations: int
    last_estimated: float
    last_actual: int

    def error(self) -> float:
        """Symmetric error ratio: how far off the raw estimate is, ≥ 1."""
        if self.factor <= 0.0:
            return math.inf
        return max(self.factor, 1.0 / self.factor)


class FeedbackLedger:
    """Persistent estimator error per (base relations, operator shape).

    Fed by :meth:`repro.engine.executor.Executor.execute` from the
    estimated-vs-actual pairs of each run whose options carry a
    ``replan_threshold`` — threshold-free runs feed nothing, and nor
    do cache hits, which execute zero operators (an ``actual=0``
    against a real estimate would poison the ledger).  Read by the
    cost model to correct point estimates (never the sound upper
    bounds — corrections are clamped by
    :class:`~repro.engine.cost.Estimate`'s ``rows ≤ upper`` invariant)
    and by the executor's re-plan trigger, which compares each memoized
    plan's snapshot of factors against the current ones.

    Keys come from :func:`feedback_key`: the sorted base-relation names
    under the operator plus the operator's label (condition included),
    so structurally identical operators over the same relations share
    one entry across distinct plans, sessions of the same catalog, and
    version-token movements.

    ``revision`` increments on every record — a cheap "has anything new
    been learned" signal for plan-staleness checks.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, FeedbackEntry] = {}
        self.revision = 0

    def record(self, key: tuple, estimated: float, actual: int) -> None:
        """Fold one estimated-vs-actual observation into the ledger.

        ``estimated`` must be the model's *raw* (uncorrected) point
        estimate, so the stored factor converges to the true ratio
        rather than compounding its own corrections.  The ``+1``
        Laplace shift keeps zero rows on either side finite.
        """
        target = (actual + 1.0) / (max(estimated, 0.0) + 1.0)
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = FeedbackEntry(
                factor=target,
                observations=1,
                last_estimated=estimated,
                last_actual=actual,
            )
        else:
            smoothing = FEEDBACK_SMOOTHING
            entry.factor = (
                entry.factor ** (1.0 - smoothing) * target**smoothing
            )
            entry.observations += 1
            entry.last_estimated = estimated
            entry.last_actual = actual
        self.revision += 1

    def factor(self, key: tuple) -> float | None:
        """The correction factor for ``key``, or None if never fed."""
        entry = self._entries.get(key)
        return entry.factor if entry is not None else None

    def error(self, key: tuple) -> float:
        """Symmetric observed error for ``key`` (1.0 when unknown)."""
        entry = self._entries.get(key)
        return entry.error() if entry is not None else 1.0

    def entries(self) -> dict[tuple, FeedbackEntry]:
        return dict(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def report(self) -> str:
        """Human-readable ledger dump (``explain --feedback`` output)."""
        if not self._entries:
            return (
                "feedback ledger  : empty (only runs with a "
                "replan_threshold record into it)"
            )
        lines = ["feedback ledger  :"]
        ordered = sorted(
            self._entries.items(),
            key=lambda kv: -kv[1].error(),
        )
        for (relations, shape), entry in ordered:
            lines.append(
                f"  {','.join(relations)} {shape}: "
                f"factor={entry.factor:.3g} "
                f"error={entry.error():.3g} "
                f"n={entry.observations} "
                f"(last est={entry.last_estimated:.3g} "
                f"actual={entry.last_actual})"
            )
        return "\n".join(lines)


def feedback_key(node) -> tuple | None:
    """The ledger key for a plan node, or None if the node is not fed.

    ``(sorted base-relation names in the subtree, operator label)`` for
    the estimated operators whose errors drive plan choice — joins,
    semijoins, and division.  Partition/parallel wrappers are unwrapped
    to their inner operator, so a partitioned run feeds the same entry
    the one-shot operator would.  Scans are excluded (their statistics
    are exact; estimate==actual pairs would only dilute the ledger) and
    so are the cheap structural operators whose estimates never flip a
    plan on their own.  Multiway joins are deliberately excluded too:
    their gate compares *sound* AGM bounds (which feedback corrections
    never alter), and their label embeds the data-dependent AGM figure,
    so a ledger entry would never generalize across contents versions.
    """
    from repro.engine.plan import (
        DivisionOp,
        HashJoinOp,
        HashSemijoinOp,
        NestedLoopJoinOp,
        NestedLoopSemijoinOp,
        ParallelOp,
        PartitionedOp,
        ScanOp,
    )

    while isinstance(node, (PartitionedOp, ParallelOp)):
        node = node.inner
    if not isinstance(
        node,
        (
            HashJoinOp,
            NestedLoopJoinOp,
            HashSemijoinOp,
            NestedLoopSemijoinOp,
            DivisionOp,
        ),
    ):
        return None
    names: set[str] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, ScanOp):
            names.add(current.expr.name)
        else:
            stack.extend(current.children())
    return (tuple(sorted(names)), node.label())
