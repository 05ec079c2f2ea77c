"""Totally ordered universes of data values.

The paper assumes "an infinite, totally ordered universe **U** of basic
data values" (Section 2).  Two places in the paper depend on more than
mere ordering:

* the *free values* of a tuple (Definition 22) exclude every value lying
  in a **finite** interval ``[c_i, c_i+1]`` between consecutive constants
  — whether such an interval is finite depends on the universe (it is
  finite over the integers, never finite over the rationals);

* step (1) of the Lemma 24 blow-up construction creates, for a value
  ``x``, a *fresh* element ``new(k)(x)`` "that has the same relative
  order in the domain as x", translating existing elements to make room
  when the universe is discrete.

This module provides the three universes used throughout the library:

:class:`IntegerUniverse`
    The discrete universe **Z**.  Intervals between constants are finite
    and fresh elements may require an order-isomorphic *translation* of
    the existing domain (the "isomorphic copy D'_k" of the Lemma 24
    proof), which :meth:`Universe.make_room` performs.

:class:`RationalUniverse`
    The dense universe **Q** (values are ``int`` or
    :class:`fractions.Fraction`).  Fresh elements can always be placed
    between any two existing values; no translation is ever needed.

:class:`StringUniverse`
    Lexicographically ordered strings, as used by the beer-drinkers
    example of Fig. 6.  Dense except immediately above a string ending in
    ``chr(0)``; fresh-element requests that cannot be satisfied raise
    :class:`~repro.errors.UniverseError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from repro.errors import UniverseError

#: A basic data value.  All values of one database must come from one
#: universe, so they are mutually comparable with ``<``.
Value = Union[int, Fraction, str]


@dataclass(frozen=True)
class RoomPlan:
    """The result of :meth:`Universe.make_room`.

    Attributes
    ----------
    renaming:
        An order-isomorphism of the old domain, given as a mapping from
        old values to new values.  Identity entries are included, so the
        mapping is total on the domain that was passed in.  Applying it
        to a database yields the "isomorphic copy" of the Lemma 24 proof.
    fresh:
        The requested fresh values, in increasing order, all strictly
        between ``renaming[anchor]`` and the renamed successor of the
        anchor (or unbounded above it if the anchor was the maximum).
    """

    renaming: Mapping[Value, Value]
    fresh: tuple[Value, ...]

    @property
    def is_identity(self) -> bool:
        """Whether no existing value had to move."""
        return all(old == new for old, new in self.renaming.items())


class Universe:
    """Base class for totally ordered universes of values."""

    #: Human-readable name used by printers and error messages.
    name: str = "abstract"

    def __contains__(self, value: object) -> bool:
        raise NotImplementedError

    def validate(self, value: Value) -> Value:
        """Return ``value`` if it belongs to the universe, else raise."""
        if value not in self:
            raise UniverseError(
                f"{value!r} is not a value of the {self.name} universe"
            )
        return value

    # ------------------------------------------------------------------
    # Interval structure (needed by Definition 22, free values).
    # ------------------------------------------------------------------

    def interval_is_finite(self, low: Value, high: Value) -> bool:
        """Whether the closed interval ``[low, high]`` is a finite set."""
        raise NotImplementedError

    def interval_values(self, low: Value, high: Value) -> tuple[Value, ...]:
        """All values of the finite interval ``[low, high]``, in order.

        Raises :class:`~repro.errors.UniverseError` if the interval is
        infinite in this universe.
        """
        raise NotImplementedError

    def excluded_by_constants(
        self, constants: Iterable[Value]
    ) -> frozenset[Value]:
        """The set ``C ∪ ⋃ {[c_i, c_i+1] finite}`` of Definition 22.

        This is the full set of values a tuple value may take while still
        being "recoverable from the constants alone": the constants
        themselves plus every value inside a finite interval between two
        consecutive constants.  Over a dense universe this is just ``C``.
        """
        ordered = sorted(set(constants))
        excluded: set[Value] = set(ordered)
        for low, high in zip(ordered, ordered[1:]):
            if self.interval_is_finite(low, high):
                excluded.update(self.interval_values(low, high))
        return frozenset(excluded)

    # ------------------------------------------------------------------
    # Fresh elements (needed by the Lemma 24 construction).
    # ------------------------------------------------------------------

    def fresh_between(self, low: Value, high: Value) -> Value:
        """A value strictly between ``low`` and ``high``.

        Raises :class:`~repro.errors.UniverseError` when no such value
        exists (possible over discrete universes; callers should then use
        :meth:`make_room`).
        """
        raise NotImplementedError

    def fresh_above(self, low: Value) -> Value:
        """A value strictly greater than ``low``."""
        raise NotImplementedError

    def fresh_below(self, high: Value) -> Value:
        """A value strictly less than ``high``."""
        raise NotImplementedError

    def make_room(
        self,
        domain: Iterable[Value],
        anchor: Value,
        count: int,
        pinned: Iterable[Value] = (),
    ) -> RoomPlan:
        """Create ``count`` fresh values immediately above ``anchor``.

        The fresh values must sit strictly between ``anchor`` and the
        smallest domain value above it, so that they have "the same
        relative order in the domain" as the anchor (Lemma 24 proof,
        step (1)).  If the universe is discrete and the gap is too small,
        existing domain values are *translated* upward — but values in
        ``pinned`` (the constants ``C`` of the expression, which must not
        move) are never renamed, and no unpinned value may cross a pinned
        value.  When translation is impossible under those constraints a
        :class:`~repro.errors.UniverseError` is raised.

        Returns a :class:`RoomPlan` whose renaming is total on
        ``domain``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers shared by concrete universes.
    # ------------------------------------------------------------------

    @staticmethod
    def _sorted_domain(domain: Iterable[Value]) -> list[Value]:
        return sorted(set(domain))


class RationalUniverse(Universe):
    """The dense universe **Q**: ``int`` and ``Fraction`` values."""

    name = "rational"

    def __contains__(self, value: object) -> bool:
        return isinstance(value, (int, Fraction)) and not isinstance(
            value, bool
        )

    def interval_is_finite(self, low: Value, high: Value) -> bool:
        return low == high

    def interval_values(self, low: Value, high: Value) -> tuple[Value, ...]:
        if low == high:
            return (low,)
        raise UniverseError(
            f"interval [{low}, {high}] is infinite in the rational universe"
        )

    def fresh_between(self, low: Value, high: Value) -> Value:
        if not low < high:
            raise UniverseError(f"empty open interval ({low}, {high})")
        return Fraction(low) + (Fraction(high) - Fraction(low)) / 2

    def fresh_above(self, low: Value) -> Value:
        return Fraction(low) + 1

    def fresh_below(self, high: Value) -> Value:
        return Fraction(high) - 1

    def make_room(
        self,
        domain: Iterable[Value],
        anchor: Value,
        count: int,
        pinned: Iterable[Value] = (),
    ) -> RoomPlan:
        ordered = self._sorted_domain(domain)
        if anchor not in ordered:
            raise UniverseError(f"anchor {anchor!r} not in domain")
        above = [v for v in ordered if v > anchor]
        renaming = {v: v for v in ordered}
        if above:
            step = (Fraction(above[0]) - Fraction(anchor)) / (count + 1)
            fresh = tuple(Fraction(anchor) + step * k for k in range(1, count + 1))
        else:
            fresh = tuple(Fraction(anchor) + k for k in range(1, count + 1))
        return RoomPlan(renaming=renaming, fresh=fresh)


class IntegerUniverse(Universe):
    """The discrete universe **Z** of ``int`` values."""

    name = "integer"

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def interval_is_finite(self, low: Value, high: Value) -> bool:
        return True

    def interval_values(self, low: Value, high: Value) -> tuple[Value, ...]:
        return tuple(range(int(low), int(high) + 1))

    def fresh_between(self, low: Value, high: Value) -> Value:
        if high - low < 2:
            raise UniverseError(
                f"no integer strictly between {low} and {high}"
            )
        return low + (high - low) // 2

    def fresh_above(self, low: Value) -> Value:
        return low + 1

    def fresh_below(self, high: Value) -> Value:
        return high - 1

    def make_room(
        self,
        domain: Iterable[Value],
        anchor: Value,
        count: int,
        pinned: Iterable[Value] = (),
    ) -> RoomPlan:
        ordered = self._sorted_domain(domain)
        if anchor not in ordered:
            raise UniverseError(f"anchor {anchor!r} not in domain")
        pinned_set = {int(v) for v in pinned}
        if anchor in pinned_set:
            raise UniverseError(
                f"cannot make room above pinned constant {anchor!r}"
            )
        above = [v for v in ordered if v > anchor]
        gap_end = above[0] if above else None

        if gap_end is None or gap_end - anchor - 1 >= count:
            fresh = tuple(anchor + k for k in range(1, count + 1))
            return RoomPlan(renaming={v: v for v in ordered}, fresh=fresh)

        # Not enough space: translate everything above the anchor upward,
        # provided no pinned value sits above the anchor (the Lemma 24
        # proof only translates inside infinite intervals — over Z those
        # are the two unbounded regions outside the constant range).
        blocking = [p for p in pinned_set if p > anchor]
        if blocking:
            raise UniverseError(
                "cannot make room above {0!r}: pinned constants {1} block "
                "the translation".format(anchor, sorted(blocking))
            )
        shift = count - (gap_end - anchor - 1)
        renaming = {
            v: (v + shift if v > anchor else v) for v in ordered
        }
        fresh = tuple(anchor + k for k in range(1, count + 1))
        return RoomPlan(renaming=renaming, fresh=fresh)


class StringUniverse(Universe):
    """Lexicographically ordered strings (e.g. Fig. 6's bar names)."""

    name = "string"

    #: Character appended to create a value just above a given string.
    _LOW = "\x01"

    def __contains__(self, value: object) -> bool:
        return isinstance(value, str)

    def interval_is_finite(self, low: Value, high: Value) -> bool:
        # [s, s] is the only finite interval we ever report: between any
        # two distinct strings there are infinitely many strings except
        # directly above a string ending in chr(0) — treating all proper
        # intervals as infinite is sound for Definition 22 (it never
        # *excludes* a value that the paper would exclude, because the
        # paper's exclusions only kick in for genuinely finite intervals).
        return low == high

    def interval_values(self, low: Value, high: Value) -> tuple[Value, ...]:
        if low == high:
            return (str(low),)
        raise UniverseError(
            f"interval [{low!r}, {high!r}] is treated as infinite in the "
            "string universe"
        )

    def fresh_between(self, low: Value, high: Value) -> Value:
        if not low < high:
            raise UniverseError(f"empty open interval ({low!r}, {high!r})")
        low_s, high_s = str(low), str(high)
        if not high_s.startswith(low_s):
            # Any proper extension of ``low`` is above ``low``; it is
            # below ``high`` because ``high`` already dominates ``low``
            # at some position within ``low``'s length.
            return low_s + self._LOW
        rest = high_s[len(low_s):]
        # high == low + rest with rest nonempty.
        prefix = low_s
        for ch in rest:
            code = ord(ch)
            if code > 1:
                return prefix + chr(code - 1) + "\x7f"
            if code == 1:
                return prefix + "\x00" + "\x7f"
            prefix += "\x00"
        raise UniverseError(
            f"no string strictly between {low!r} and {high!r}"
        )

    def fresh_above(self, low: Value) -> Value:
        return str(low) + self._LOW

    def fresh_below(self, high: Value) -> Value:
        high_s = str(high)
        if not high_s:
            raise UniverseError("no string below the empty string")
        return high_s[:-1] + "\x00" + "\x7f" if high_s[-1] == "\x01" else (
            high_s[:-1]
            if high_s[-1] == "\x00"
            else high_s[:-1] + chr(ord(high_s[-1]) - 1) + "\x7f"
        )

    def make_room(
        self,
        domain: Iterable[Value],
        anchor: Value,
        count: int,
        pinned: Iterable[Value] = (),
    ) -> RoomPlan:
        ordered = self._sorted_domain(domain)
        if anchor not in ordered:
            raise UniverseError(f"anchor {anchor!r} not in domain")
        above = [v for v in ordered if v > anchor]
        fresh: list[Value] = []
        low: Value = anchor
        for _ in range(count):
            value = (
                self.fresh_between(low, above[0]) if above
                else self.fresh_above(low)
            )
            fresh.append(value)
            low = value
        return RoomPlan(renaming={v: v for v in ordered}, fresh=tuple(fresh))


#: Module-level singletons — the universes are stateless.
INTEGERS = IntegerUniverse()
RATIONALS = RationalUniverse()
STRINGS = StringUniverse()


def universe_for(values: Iterable[Value]) -> Universe:
    """Infer the natural universe for a collection of values.

    Strings map to :data:`STRINGS`; a mix of ``int`` and ``Fraction``
    maps to :data:`RATIONALS`; pure ``int`` maps to :data:`INTEGERS`.
    Mixing strings with numbers raises
    :class:`~repro.errors.UniverseError`.
    """
    has_str = False
    has_int = False
    has_frac = False
    for value in values:
        if isinstance(value, str):
            has_str = True
        elif isinstance(value, bool):
            raise UniverseError("bool is not a database value")
        elif isinstance(value, Fraction):
            has_frac = True
        elif isinstance(value, int):
            has_int = True
        else:
            raise UniverseError(f"unsupported value type: {type(value)}")
    if has_str and (has_int or has_frac):
        raise UniverseError("cannot mix strings and numbers in one universe")
    if has_str:
        return STRINGS
    if has_frac:
        return RATIONALS
    return INTEGERS
