"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The sub-classes mirror the layers
of the system:

* :class:`SchemaError` and its children report ill-formed schemas,
  databases and expressions (wrong arities, unknown relation names,
  out-of-range column positions);
* :class:`StaleDataError` reports relation contents changing underneath
  an in-flight computation (detected via the database version token);
* :class:`UniverseError` reports values that do not belong to a universe,
  or fresh-element requests a universe cannot satisfy;
* :class:`FragmentError` reports expressions or formulas that fall outside
  a required syntactic fragment (e.g. a join inside a semijoin-algebra
  expression, or an unguarded quantifier in the guarded fragment);
* :class:`ParseError` reports problems in the textual expression syntax;
* :class:`AnalysisError` reports failures of the complexity analyses
  (e.g. asking to compile a quadratic expression to SA=).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """An ill-formed schema, database, or expression/schema mismatch."""


class UnknownRelationError(SchemaError):
    """A relation name that does not occur in the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation name: {name!r}")
        self.name = name


class ArityError(SchemaError):
    """An arity mismatch (tuple width, operand width, declared width)."""


class PositionError(SchemaError):
    """A 1-based column position outside the range ``1..arity``."""

    def __init__(self, position: int, arity: int, context: str = "") -> None:
        where = f" in {context}" if context else ""
        super().__init__(
            f"position {position} out of range 1..{arity}{where}"
        )
        self.position = position
        self.arity = arity


class StaleDataError(ReproError):
    """Relation contents changed underneath an in-flight computation.

    Raised by the engine's partitioned executor when the database's
    version token changes *between batches*: the earlier batches were
    computed against the old contents, so finishing the run would mix
    two versions into one result.  Callers should re-plan and re-run
    (the executor's caches are invalidated on the next query).
    """


class AdmissionError(ReproError):
    """The serving layer refused a query its sound bound cannot fit.

    Raised by :class:`repro.serve.admission.AdmissionController` when a
    query's certified upper bound on rows in flight exceeds the
    server's *total* budget (no amount of queueing could ever make it
    fit) — an uncertified bound, which is infinite, included.  Queries
    that fit the budget but not the *current* headroom are queued, not
    rejected — only provably unservable work gets this error.
    """

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        bound: float | None = None,
        budget: float | None = None,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.bound = bound
        self.budget = budget


class UniverseError(ReproError):
    """A value outside a universe, or an unsatisfiable freshness request."""


class FragmentError(ReproError):
    """An expression or formula outside the required syntactic fragment."""


class ParseError(ReproError):
    """A syntax error in the textual expression/formula language."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class AnalysisError(ReproError):
    """A complexity analysis could not produce the requested artifact."""
