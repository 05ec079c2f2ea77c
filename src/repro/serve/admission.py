"""Admission control: the cost model as a concurrency gate.

The estimator's ``upper`` field (:mod:`repro.engine.cost`) is a
*certified* bound — on a catalog-backed database the real output of
every operator is provably at or below it.  The planner uses it to
rank and size plans; here it prices *concurrency*: a server holds an
**in-flight row budget**, and every admitted read debits the sum of
its plan's per-node upper bounds (the most rows the whole operator
tree can have materialized at once) until it completes.
The budget is therefore itself sound — no mix of admitted queries can
exceed it in certified rows, which is the property the serving
benchmark asserts.

Three outcomes, in order of severity:

* **Run** — the bound fits the remaining headroom: debit and dispatch.
* **Queue** — the bound fits the *total* budget but not current
  headroom: the read waits in per-tenant weighted-fair order and is
  dispatched when completions free enough rows.
* **Reject** — the bound alone exceeds the total budget (or is
  unbounded: without statistics every scan's bound is ``inf``, so
  every plan's price is): no completion can ever make it fit, so the
  server refuses it *now* with a typed
  :class:`~repro.errors.AdmissionError` instead of letting it starve
  at the head of a queue.  Whether a price is certified is the cost
  model's one fact (it has a catalog); a ``Server``'s executor always
  has one, and an uncertified price is never finite.

Fairness is virtual-time stride scheduling (the classic WFQ
approximation): each tenant carries a virtual finish time, dispatching
a read advances it by ``bound / weight``, and the queue always serves
the eligible tenant with the smallest virtual time — so a tenant
issuing expensive queries or holding a small weight falls behind
exactly in proportion, and an idle tenant re-enters at the current
virtual clock rather than with hoarded credit.  A tenant whose head
read does not fit the current headroom is *skipped without charge*:
its virtual time stays minimal, so the moment enough rows free up it
is first in line — big reads wait for headroom but never lose their
turn to it.

Everything here is called under the server's scheduler lock; the
classes themselves are deliberately lock-free and single-purpose so
the unit tests (``tests/test_serve_admission.py``) can drive them
synchronously without a server.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.errors import AdmissionError

__all__ = ["AdmissionController", "FairQueue", "Price", "price_plan"]


@dataclass(frozen=True)
class Price:
    """What admission knows about one read before running it."""

    #: Σ per-node certified upper bounds — the debit in budget rows
    #: (``inf`` when nothing certifies it).
    bound: float
    #: The root estimate's expected rows (diagnostics only).
    expected_rows: float


def price_plan(executor, plan) -> Price:
    """Price ``plan`` for admission against ``executor``'s statistics.

    The debit is the **sum** of per-node upper bounds, not just the
    root's: a query's intermediate results occupy the server while it
    runs, and the sum certifies the most rows the whole tree can hold
    live at once.  Estimates come from the executor's memoized
    per-version estimate cache, so pricing a planned query costs a
    dict walk, not a re-estimation.
    """
    estimates = executor._estimates_for(plan)
    bound = sum(estimate.upper for estimate in estimates.values())
    return Price(bound=bound, expected_rows=estimates[plan].rows)


@dataclass
class _Tenant:
    """Per-tenant queue state (FairQueue internal)."""

    weight: float = 1.0
    vtime: float = 0.0
    waiting: deque = field(default_factory=deque)


class FairQueue:
    """Weighted-fair (virtual-time stride) queue of priced reads.

    Entries are opaque ``item`` objects tagged with their admission
    bound; :meth:`pop` returns the next ``(tenant, bound, item)`` that
    fits a given headroom, honoring the fairness contract described in
    the module docstring.
    """

    def __init__(self) -> None:
        self._tenants: OrderedDict[str, _Tenant] = OrderedDict()
        self._vclock = 0.0
        self._depth = 0

    def __len__(self) -> int:
        return self._depth

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0.0 or not math.isfinite(weight):
            raise ValueError(
                f"tenant weight must be positive and finite, got {weight!r}"
            )
        self._state(tenant).weight = weight

    def _state(self, tenant: str) -> _Tenant:
        state = self._tenants.get(tenant)
        if state is None:
            state = _Tenant()
            self._tenants[tenant] = state
        return state

    def push(self, tenant: str, bound: float, item) -> None:
        state = self._state(tenant)
        if not state.waiting:
            # Re-entering tenant: no credit accrues while idle.
            state.vtime = max(state.vtime, self._vclock)
        state.waiting.append((bound, item))
        self._depth += 1

    def pop(self, headroom: float) -> tuple[str, float, object] | None:
        """Dispatch the fairest waiting read that fits ``headroom``.

        Tenants are scanned in virtual-time order; a tenant whose head
        read exceeds ``headroom`` is passed over *without* advancing
        its virtual time.  Returns ``None`` when nothing fits.
        """
        best_name, best_state = None, None
        for name, state in self._tenants.items():
            if not state.waiting:
                continue
            if state.waiting[0][0] > headroom:
                continue
            if best_state is None or state.vtime < best_state.vtime:
                best_name, best_state = name, state
        if best_state is None:
            return None
        bound, item = best_state.waiting.popleft()
        self._vclock = max(self._vclock, best_state.vtime)
        best_state.vtime += bound / best_state.weight
        self._depth -= 1
        return best_name, bound, item


class AdmissionController:
    """The budget ledger + fair queue, driven under the server lock.

    ``budget=None`` disables gating entirely — every read dispatches
    immediately and unbounded plans debit nothing (their ``inf`` bound
    would otherwise poison the in-flight counter forever).
    """

    def __init__(self, budget: float | None = None) -> None:
        if budget is not None and (budget <= 0.0 or math.isnan(budget)):
            raise ValueError(
                f"admission budget must be positive, got {budget!r}"
            )
        self.budget = budget
        self.queue = FairQueue()
        self.in_flight = 0.0
        self.peak = 0.0

    def _debit(self, bound: float) -> None:
        self.in_flight += bound
        self.peak = max(self.peak, self.in_flight)

    def submit(
        self, tenant: str, bound: float, item
    ) -> list[tuple[str, float, object]]:
        """Admit, queue, or reject one priced read.

        Returns the reads to dispatch now, already debited, fairest
        first — the submitted ``item`` is among them iff it was
        admitted immediately (a fresh read never jumps ahead of queued
        tenants with smaller virtual time, but an over-headroom queue
        head does not block it either).  Raises
        :class:`~repro.errors.AdmissionError` when no amount of
        completed work can ever make the read fit — an uncertified
        (infinite) bound included.
        """
        if self.budget is None:
            debit = bound if math.isfinite(bound) else 0.0
            self._debit(debit)
            return [(tenant, debit, item)]
        if bound > self.budget:
            raise AdmissionError(
                f"tenant {tenant!r}: bound of {bound:g} rows "
                f"exceeds the server's whole budget of {self.budget:g} "
                "rows — the query can never be admitted; raise the "
                "budget or split the query",
                tenant=tenant,
                bound=bound,
                budget=self.budget,
            )
        self.queue.push(tenant, bound, item)
        return self._drain()

    def headroom(self) -> float:
        if self.budget is None:
            return math.inf
        return self.budget - self.in_flight

    def release(self, bound: float) -> list[tuple[str, float, object]]:
        """Credit a completed read and drain newly-fitting queued ones.

        Returns the reads to dispatch, already debited, fairest first.
        """
        self.in_flight = max(0.0, self.in_flight - bound)
        return self._drain()

    def _drain(self) -> list[tuple[str, float, object]]:
        ready: list[tuple[str, float, object]] = []
        while True:
            popped = self.queue.pop(self.headroom())
            if popped is None:
                return ready
            self._debit(popped[1])
            ready.append(popped)
