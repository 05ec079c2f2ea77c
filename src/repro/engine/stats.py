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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sized

from repro.data.database import Database, Row
from repro.data.universe import Value

#: How many most-common values each column sketch retains.
MCV_SIZE = 8


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
    when the version token changes.
    """

    def __init__(self, db: Database, backend=None) -> None:
        self.db = db
        #: Optional :class:`repro.storage.backend.Backend` rows and
        #: tokens are read through (None → the database handle itself).
        self.backend = backend
        self._cache: dict[str, tuple[int, RelationStats]] = {}
        #: Profiling passes actually run (the mmap regression tests in
        #: ``tests/test_engine_caches.py`` count these across reads).
        self.profiles = 0

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
