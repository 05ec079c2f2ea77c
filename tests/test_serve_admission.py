"""Unit tests for the serving layer's admission control and fairness.

Drives :class:`~repro.serve.admission.AdmissionController` and
:class:`~repro.serve.admission.FairQueue` synchronously (no server, no
threads): the scheduling policy is deterministic data-structure
behaviour and is pinned as such.  ``price_plan`` soundness is checked
against a real executor: the certified admission bound must dominate
the rows every operator of the executed plan actually produced.
"""

from __future__ import annotations

import math
import random

import pytest

from perfbench.workloads import adhoc_query
from repro.data.database import Database
from repro.errors import AdmissionError
from repro.serve.admission import AdmissionController, FairQueue, price_plan
from repro.serve.server import Server
from repro.session import Session
from repro.workloads.serving import (
    DIVISION_QUERY,
    MIXED_QUERIES,
    TRIANGLE_QUERY,
    build_database,
)


def _tickets(ready):
    return [item for __, __, item in ready]


# ----------------------------------------------------------------------
# FairQueue
# ----------------------------------------------------------------------


def test_fair_queue_round_robins_equal_weights():
    queue = FairQueue()
    for i in range(3):
        queue.push("a", 10.0, f"a{i}")
        queue.push("b", 10.0, f"b{i}")
    order = [queue.pop(math.inf)[2] for __ in range(6)]
    # Equal weights, equal bounds: strict alternation.
    assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]
    assert queue.pop(math.inf) is None


def test_fair_queue_weights_bias_dispatch_share():
    queue = FairQueue()
    for i in range(8):
        queue.push("heavy", 10.0, ("heavy", i))
        queue.push("light", 10.0, ("light", i))
    queue.set_weight("heavy", 4.0)
    first_five = [queue.pop(math.inf)[0] for __ in range(5)]
    # weight 4 vs 1: the heavy tenant gets ~4 of the first 5 slots.
    assert first_five.count("heavy") == 4


def test_fair_queue_skips_oversized_head_without_charge():
    queue = FairQueue()
    queue.push("big", 100.0, "big0")
    queue.push("small", 1.0, "small0")
    queue.push("small", 1.0, "small1")
    # Headroom 10: big's head does not fit, small proceeds.
    assert queue.pop(10.0)[2] == "small0"
    assert queue.pop(10.0)[2] == "small1"
    assert queue.pop(10.0) is None
    # Once headroom allows, the skipped tenant goes first: its virtual
    # time never advanced while it was being passed over.
    queue.push("small", 1.0, "small2")
    assert queue.pop(200.0)[2] == "big0"


def test_fair_queue_idle_tenant_rejoins_at_current_clock():
    queue = FairQueue()
    for i in range(4):
        queue.push("busy", 10.0, ("busy", i))
    for __ in range(4):
        queue.pop(math.inf)
    # 'idle' was silent the whole time; it must not get 4 back-to-back
    # dispatches of credit for it.
    queue.push("idle", 10.0, ("idle", 0))
    queue.push("idle", 10.0, ("idle", 1))
    queue.push("busy", 10.0, ("busy", 4))
    order = [queue.pop(math.inf)[0] for __ in range(3)]
    assert order.count("idle") == 2 and order.count("busy") == 1
    # ...but interleaved fairly, not all-idle-first *and* not starved:
    assert order[0] in ("idle", "busy")


def test_fair_queue_rejects_bad_weight():
    queue = FairQueue()
    with pytest.raises(ValueError):
        queue.set_weight("t", 0.0)
    with pytest.raises(ValueError):
        queue.set_weight("t", math.inf)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------


def test_no_budget_admits_everything_immediately():
    controller = AdmissionController(None)
    ready = controller.submit("t", 1e9, "x")
    assert _tickets(ready) == ["x"]
    # Unbounded prices debit nothing (they would pin in_flight at inf).
    ready = controller.submit("t", math.inf, "y")
    assert _tickets(ready) == ["y"]
    assert math.isfinite(controller.in_flight)


def test_budget_debits_and_queues_over_headroom():
    controller = AdmissionController(100.0)
    assert _tickets(controller.submit("t", 60.0, "a")) == ["a"]
    assert controller.in_flight == 60.0
    # 60 + 50 > 100: "b" waits.
    assert controller.submit("t", 50.0, "b") == []
    assert len(controller.queue) == 1
    # Completion credits and drains the queue.
    ready = controller.release(60.0)
    assert _tickets(ready) == ["b"]
    assert controller.in_flight == 50.0
    assert controller.peak == 60.0


def test_over_budget_bound_is_rejected_typed():
    controller = AdmissionController(100.0)
    with pytest.raises(AdmissionError) as caught:
        controller.submit("t", 101.0, "x")
    error = caught.value
    assert error.tenant == "t"
    assert error.bound == 101.0
    assert error.budget == 100.0
    # Rejection is stateless: nothing was debited or queued.
    assert controller.in_flight == 0.0
    assert len(controller.queue) == 0


def test_an_unbounded_price_is_rejected_when_budget_set():
    # Without statistics every price is inf: no budget can ever fit it.
    controller = AdmissionController(100.0)
    with pytest.raises(AdmissionError) as caught:
        controller.submit("t", math.inf, "x")
    assert caught.value.bound == math.inf
    assert controller.in_flight == 0.0
    assert len(controller.queue) == 0


def test_submit_drains_around_oversized_queue_head():
    controller = AdmissionController(100.0)
    controller.submit("big", 90.0, "running")
    assert controller.submit("big", 80.0, "blocked") == []
    # A small read from another tenant is not stuck behind the
    # oversized head: submit itself drains what fits.
    ready = controller.submit("small", 5.0, "nimble")
    assert _tickets(ready) == ["nimble"]
    # And the big one dispatches once enough rows free up.
    assert _tickets(controller.release(90.0)) == ["blocked"]


def test_release_drains_multiple_fitting_reads():
    controller = AdmissionController(100.0)
    controller.submit("t", 100.0, "a")
    for name in ("b", "c", "d"):
        assert controller.submit("t", 30.0, name) == []
    ready = controller.release(100.0)
    assert _tickets(ready) == ["b", "c", "d"]
    assert controller.in_flight == 90.0
    assert controller.peak == 100.0


def test_controller_rejects_bad_budget():
    with pytest.raises(ValueError):
        AdmissionController(0.0)
    with pytest.raises(ValueError):
        AdmissionController(-5.0)


# ----------------------------------------------------------------------
# price_plan soundness against a live executor
# ----------------------------------------------------------------------


def _reads(name: str) -> tuple[Database, list[str]]:
    """A database and the texts read on it: one text of the fixed mix,
    or 300 of the serving workloads' never-repeated reads (seed 31)."""
    if name != "fresh":
        db = build_database("mixed", num_keys=60, extra_rows=120)
        return db, [name]
    rng, texts = random.Random(31), {}
    while len(texts) < 300:
        texts.setdefault(adhoc_query(rng, ("T", "U"), 2, False), None)
    db = build_database("mixed", num_keys=300, extra_rows=1200, seed=31)
    return db, list(texts)


@pytest.mark.parametrize(
    "reads",
    [
        *(
            pytest.param(text, id=f"query{index}")
            for index, text in enumerate([DIVISION_QUERY, *MIXED_QUERIES])
        ),
        pytest.param("fresh", id="fresh"),
    ],
)
def test_price_bound_dominates_executed_actuals(reads):
    """A Server's executor always has statistics, so every read it
    executes is priced finite — no read reaches admission uncertified —
    and the price dominates the rows its operators produced."""
    db, texts = _reads(reads)
    executed = 0
    with Server(db, workers=0) as server:
        with server.connect("t") as handle:
            for text in texts:
                ticket = handle.submit(text)
                ticket.result()
                if ticket.cached:
                    continue
                executed += 1
                assert math.isfinite(ticket.bound), text
                # The admission debit is Σ per-node uppers: it must
                # dominate the total rows the operators really produced.
                assert ticket.actual_rows <= ticket.bound, text
    assert executed >= 0.9 * len(texts)


def test_projected_triangle_prices_its_inputs_and_one_edge():
    """``π_{a,b}`` of the triangle is guarded by ``E``: the absorbed
    projection stamps and prices the free variables' AGM bound ``|E|``
    instead of the whole triangle's ``n^{3/2}``."""
    db = build_database("triangle")
    inputs = sum(len(db[name]) for name in ("E", "F", "G"))
    with Session(db) as session:
        prepared = session.query(TRIANGLE_QUERY)
        price = price_plan(session.executor, prepared.plan())
        assert price.bound <= inputs + len(db["E"])
        prepared.run()
        assert session.last_report.stats.total_rows() <= price.bound


def test_price_unbounded_without_statistics():
    # A schema-only plan (no catalog) prices to an unbounded estimate —
    # exactly what a budgeted controller must refuse.
    from repro.engine import plan_expression
    from repro.engine.cost import CostModel
    from repro.algebra.parser import parse
    from repro.data.schema import Schema

    schema = Schema({"R": 2, "S": 1})
    expr = parse("project[1](R) x S", schema)

    class _Stub:
        cost_model = CostModel(catalog=None)

        def _estimates_for(self, plan):
            return self.cost_model.estimates(plan)

    price = price_plan(_Stub(), plan_expression(expr))
    assert price.bound == math.inf
    with pytest.raises(AdmissionError):
        AdmissionController(1e12).submit("t", price.bound, "x")
