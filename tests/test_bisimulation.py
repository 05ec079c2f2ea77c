"""Tests for C-guarded bisimulations, reproducing Figs. 3, 5 and 6.

Also property-tests Corollary 14: C-guarded bisimilar pairs agree on
every SA= expression with constants in C.
"""

from hypothesis import HealthCheck, given, settings

from repro.algebra.evaluator import evaluate
from repro.bisim.bisimulation import (
    RefinementTrace,
    are_bisimilar,
    bisimilar,
    candidate_pool,
    greatest_bisimulation,
    is_guarded_bisimulation,
)
from repro.bisim.partial_iso import PartialIso
from repro.data.database import database
from repro.data.schema import Schema
from tests.strategies import sa_eq_expressions


# ----------------------------------------------------------------------
# Fig. 3 / Example 12
# ----------------------------------------------------------------------


def fig3_databases():
    a = database(
        {"R": 2, "S": 2, "T": 2},
        R=[(1, 2), (2, 3)],
        S=[(1, 2)],
        T=[(2, 3)],
    )
    b = database(
        {"R": 2, "S": 2, "T": 2},
        R=[(6, 7), (7, 8), (9, 10), (10, 11)],
        S=[(6, 7), (9, 10)],
        T=[(7, 8), (10, 11)],
    )
    return a, b


def fig3_bisimulation():
    return [
        PartialIso.from_tuples((1, 2), (6, 7)),
        PartialIso.from_tuples((2, 3), (7, 8)),
        PartialIso.from_tuples((1, 2), (9, 10)),
        PartialIso.from_tuples((2, 3), (10, 11)),
    ]


class TestFig3:
    def test_paper_set_is_a_bisimulation(self):
        a, b = fig3_databases()
        assert is_guarded_bisimulation(fig3_bisimulation(), a, b)

    def test_greatest_bisimulation_is_exactly_the_paper_set(self):
        a, b = fig3_databases()
        greatest = greatest_bisimulation(a, b)
        assert set(greatest) == set(fig3_bisimulation())

    def test_paper_back_move_example(self):
        """Example 12's walkthrough: f = (1,2)→(6,7) vs Y' = (7,8)."""
        a, b = fig3_databases()
        pool = fig3_bisimulation()
        f = pool[0]
        response = pool[1]  # (2,3) → (7,8)
        overlap = f.image() & frozenset({7, 8})
        assert overlap == {7}
        assert response.inverse().agrees_with(f.inverse(), overlap)

    def test_bisimilar_tuples(self):
        a, b = fig3_databases()
        assert bisimilar(a, (1, 2), b, (6, 7))
        assert bisimilar(a, (1, 2), b, (9, 10))
        assert not bisimilar(a, (1, 2), b, (7, 8))  # S-membership differs

    def test_dropping_a_needed_response_breaks_it(self):
        a, b = fig3_databases()
        broken = fig3_bisimulation()[:1]  # only (1,2)→(6,7)
        assert not is_guarded_bisimulation(broken, a, b)

    def test_empty_set_is_not_a_bisimulation(self):
        a, b = fig3_databases()
        assert not is_guarded_bisimulation([], a, b)


# ----------------------------------------------------------------------
# Fig. 5: the division witness pair
# ----------------------------------------------------------------------


def fig5_databases():
    a = database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 7), (2, 8)],
        S=[(7,), (8,)],
    )
    b = database(
        {"R": 2, "S": 1},
        R=[(1, 7), (1, 8), (2, 8), (2, 9), (3, 7), (3, 9)],
        S=[(7,), (8,), (9,)],
    )
    return a, b


def fig5_bisimulation():
    a, b = fig5_databases()
    pool = [PartialIso.from_tuples((1,), (1,))]
    for ra in a["R"]:
        for rb in b["R"]:
            pool.append(PartialIso.from_tuples(ra, rb))
    for sa in a["S"]:
        for sb in b["S"]:
            pool.append(PartialIso.from_tuples(sa, sb))
    return pool


class TestFig5:
    def test_paper_set_is_a_bisimulation(self):
        a, b = fig5_databases()
        assert is_guarded_bisimulation(fig5_bisimulation(), a, b)

    def test_a1_bisimilar_b1(self):
        a, b = fig5_databases()
        result = are_bisimilar(a, (1,), b, (1,))
        assert result.bisimilar
        assert result.initial == PartialIso(((1, 1),))

    def test_all_quotient_candidates_bisimilar(self):
        a, b = fig5_databases()
        for source in (1, 2):
            for target in (1, 2, 3):
                assert bisimilar(a, (source,), b, (target,))

    def test_constants_can_break_bisimilarity(self):
        """The paper assumes the values are not in C; with 9 ∈ C the
        pair is no longer bisimilar (9 occurs only in B)."""
        a, b = fig5_databases()
        assert not bisimilar(a, (1,), b, (1,), constants=[9])


# ----------------------------------------------------------------------
# Fig. 6: the beer-drinkers witness pair (string universe)
# ----------------------------------------------------------------------


BEER = Schema({"Visits": 2, "Serves": 2, "Likes": 2})


def fig6_databases():
    a = database(
        BEER,
        Visits=[("alex", "pareto bar")],
        Serves=[("pareto bar", "westmalle")],
        Likes=[("alex", "westmalle")],
    )
    b = database(
        BEER,
        Visits=[("alex", "pareto bar"), ("bart", "qwerty bar")],
        Serves=[("pareto bar", "westmalle"), ("qwerty bar", "westvleteren")],
        Likes=[("alex", "westvleteren"), ("bart", "westmalle")],
    )
    return a, b


def fig6_bisimulation():
    a, b = fig6_databases()
    pool = [PartialIso((("alex", "alex"),))]
    for name in BEER:
        for ra in a[name]:
            for rb in b[name]:
                iso = PartialIso.from_tuples(ra, rb)
                if iso is not None:
                    pool.append(iso)
    return pool


class TestFig6:
    def test_paper_set_is_a_bisimulation(self):
        a, b = fig6_databases()
        assert is_guarded_bisimulation(fig6_bisimulation(), a, b)

    def test_alex_bisimilar_alex(self):
        a, b = fig6_databases()
        assert bisimilar(a, ("alex",), b, ("alex",))

    def test_query_differs_despite_bisimilarity(self):
        """In A alex visits a bar serving a beer he likes; in B nobody
        does — yet (A, alex) ∼ (B, alex).  This is §4.1's argument that
        the query needs a quadratic RA expression."""
        a, b = fig6_databases()

        def visits_good_bar(db, drinker):
            return any(
                (drinker, bar) in db["Visits"]
                and (bar, beer) in db["Serves"]
                and (drinker, beer) in db["Likes"]
                for bar in [v for __, v in db["Visits"]]
                for beer in [s for __, s in db["Serves"]]
            )

        assert visits_good_bar(a, "alex")
        assert not any(
            visits_good_bar(b, d) for d in ("alex", "bart")
        )
        assert bisimilar(a, ("alex",), b, ("alex",))


# ----------------------------------------------------------------------
# Corollary 14: SA= invariance under C-guarded bisimulation
# ----------------------------------------------------------------------


FIG5_SCHEMA = Schema({"R": 2, "S": 1})


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sa_eq_expressions(schema=FIG5_SCHEMA, max_depth=4, constants=()))
def test_corollary14_on_fig5(expr):
    """Bisimilar pairs agree on membership for every SA= expression."""
    a, b = fig5_databases()
    if expr.arity != 1:
        return
    result_a = evaluate(expr, a)
    result_b = evaluate(expr, b)
    # A,1 ∼ B,1 and A,1 ∼ B,2, A,1 ∼ B,3 etc.: membership must agree.
    for source, target in [(1, 1), (1, 2), (2, 1), (2, 3)]:
        assert ((source,) in result_a) == ((target,) in result_b)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sa_eq_expressions(schema=BEER, max_depth=3, constants=()))
def test_corollary14_on_fig6(expr):
    a, b = fig6_databases()
    if expr.arity != 1:
        return
    assert (("alex",) in evaluate(expr, a)) == (
        ("alex",) in evaluate(expr, b)
    )


# ----------------------------------------------------------------------
# Mechanics
# ----------------------------------------------------------------------


class TestMechanics:
    def test_candidate_pool_members_are_isomorphisms(self):
        a, b = fig5_databases()
        from repro.bisim.partial_iso import is_c_partial_isomorphism

        for f in candidate_pool(a, b):
            assert is_c_partial_isomorphism(f, a, b)

    def test_refinement_trace_explains_eliminations(self):
        # A has a reflexive R-loop; B does not: (1,1)→? cannot survive.
        a = database({"R": 2}, R=[(1, 1), (1, 2)])
        b = database({"R": 2}, R=[(5, 6)])
        trace = RefinementTrace()
        greatest_bisimulation(a, b, trace=trace)
        assert not bisimilar(a, (1, 2), b, (5, 6))
        # Something must have been eliminated with an explanation.
        if trace.eliminations:
            f = next(iter(trace.eliminations))
            assert "spoiler plays" in trace.explain(f)

    def test_arity_mismatch(self):
        a, b = fig5_databases()
        assert not are_bisimilar(a, (1,), b, (1, 2)).bisimilar

    def test_inconsistent_initial_map(self):
        a, b = fig5_databases()
        assert not are_bisimilar(a, (1, 1), b, (1, 2)).bisimilar

    def test_non_isomorphism_initial_map(self):
        # 1 < 2 must be preserved.
        a = database({"R": 2}, R=[(1, 2)])
        b = database({"R": 2}, R=[(2, 1)])
        assert not bisimilar(a, (1, 2), b, (2, 1))

    def test_empty_databases_are_bisimilar_vacuously(self):
        a = database({"R": 2})
        b = database({"R": 2})
        assert bisimilar(a, (), b, ())

    def test_identity_self_bisimilarity(self):
        a, __ = fig5_databases()
        for row in a["R"]:
            assert bisimilar(a, row, a, row)
