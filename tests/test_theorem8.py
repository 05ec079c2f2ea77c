"""Theorem 8: the SA= ↔ GF correspondence, tested both directions.

Direction 1 (SA= → GF):  ``{d̄ | D ⊨ φ_E(d̄)} = E(D)`` — checked by
enumerating assignments over ``adom(D) ∪ C``.

Direction 2 (GF → SA=):  ``E_φ(D) = {d̄ C-stored | D ⊨ φ(d̄)}`` — checked
against the brute-force C-stored answer set.

Both directions are exercised on hand-written examples (including the
paper's Example 3 / Example 7 pair) and property-tested on random
expressions/databases over a deliberately tiny schema (the translation
is faithful-but-exponential; see the module docstring of
:mod:`repro.logic.sa_to_gf`).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra.ast import Rel, is_sa_eq, rel, select_eq_const
from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.stored import is_c_stored
from repro.errors import FragmentError
from repro.logic.ast import Not, atom, eq, exists, lt
from repro.logic.eval import answers, answers_c_stored
from repro.logic.gf_to_sa import gf_to_sa
from repro.logic.sa_to_gf import sa_to_gf
from repro.logic.stored_expr import c_stored_expr, empty_expr
from tests.strategies import databases, sa_eq_expressions

#: A tiny schema keeps the storage-shape enumeration manageable.
SMALL_SCHEMA = Schema({"R": 2, "S": 1})


# ----------------------------------------------------------------------
# The C-stored universal relation
# ----------------------------------------------------------------------


class TestCStoredExpr:
    def test_matches_definition(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)], S=[(3,)])
        expr = c_stored_expr(SMALL_SCHEMA, (9,), 2)
        result = evaluate(expr, db)
        for row in result:
            assert is_c_stored(row, db, (9,))
        # Completeness: every C-stored pair is produced.
        from repro.data.stored import c_stored_tuples

        assert result == frozenset(c_stored_tuples(db, (9,), 2))

    def test_arity_zero(self):
        expr = c_stored_expr(SMALL_SCHEMA, (), 0)
        assert evaluate(expr, database({"R": 2, "S": 1}, S=[(1,)])) == frozenset({()})
        assert evaluate(expr, database({"R": 2, "S": 1})) == frozenset()

    def test_is_sa_eq(self):
        assert is_sa_eq(c_stored_expr(SMALL_SCHEMA, (7,), 2))

    def test_empty_expr(self):
        db = database({"R": 2, "S": 1}, R=[(1, 2)])
        assert evaluate(empty_expr(SMALL_SCHEMA, 0), db) == frozenset()


@settings(max_examples=40, deadline=None)
@given(databases(schema=SMALL_SCHEMA, max_rows=4))
def test_c_stored_expr_property(db):
    from repro.data.stored import c_stored_tuples

    expr = c_stored_expr(SMALL_SCHEMA, (0,), 2)
    assert evaluate(expr, db) == frozenset(c_stored_tuples(db, (0,), 2))


# ----------------------------------------------------------------------
# Direction 1: SA= → GF
# ----------------------------------------------------------------------


class TestSaToGf:
    def test_rejects_non_sa_eq(self):
        with pytest.raises(FragmentError):
            sa_to_gf(rel("R", 2).join(rel("S", 1)), SMALL_SCHEMA)
        with pytest.raises(FragmentError):
            sa_to_gf(rel("R", 2).semijoin(rel("S", 1), "2<1"), SMALL_SCHEMA)

    def test_relation(self):
        db = database(SMALL_SCHEMA, R=[(1, 2)])
        phi = sa_to_gf(Rel("R", 2), SMALL_SCHEMA)
        assert answers(db, phi, ["x1", "x2"]) == db["R"]

    def test_selection_and_difference(self):
        db = database(SMALL_SCHEMA, R=[(1, 1), (1, 2)])
        expr = parse("R minus select[1=2](R)", SMALL_SCHEMA)
        phi = sa_to_gf(expr, SMALL_SCHEMA)
        assert answers(db, phi, ["x1", "x2"]) == frozenset({(1, 2)})

    def test_projection(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 4)])
        expr = parse("project[2](R)", SMALL_SCHEMA)
        phi = sa_to_gf(expr, SMALL_SCHEMA)
        assert answers(db, phi, ["x1"]) == frozenset({(2,), (4,)})

    def test_semijoin(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 4)], S=[(2,)])
        expr = parse("R semijoin[2=1] S", SMALL_SCHEMA)
        phi = sa_to_gf(expr, SMALL_SCHEMA)
        assert answers(db, phi, ["x1", "x2"]) == frozenset({(1, 2)})

    def test_constant_tag(self):
        db = database(SMALL_SCHEMA, S=[(1,)])
        expr = parse("tag[7](S)", SMALL_SCHEMA)
        phi = sa_to_gf(expr, SMALL_SCHEMA)
        assert answers(db, phi, ["x1", "x2"], constants=[7]) == frozenset(
            {(1, 7)}
        )

    def test_constant_selection(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 4)])
        expr = select_eq_const(Rel("R", 2), 1, 3)
        phi = sa_to_gf(expr, SMALL_SCHEMA)
        assert answers(db, phi, ["x1", "x2"], constants=[3]) == frozenset(
            {(3, 4)}
        )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    sa_eq_expressions(schema=SMALL_SCHEMA, max_depth=3, constants=(0,)),
    databases(schema=SMALL_SCHEMA, max_rows=4),
)
def test_sa_to_gf_equivalence_property(expr, db):
    """Theorem 8 direction 1 on random SA= expressions."""
    phi = sa_to_gf(expr, SMALL_SCHEMA)
    variables = [f"x{i}" for i in range(1, expr.arity + 1)]
    expected = evaluate(expr, db)
    got = answers(db, phi, variables, constants=expr.constants())
    assert got == expected


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sa_eq_expressions(schema=SMALL_SCHEMA, max_depth=3, constants=(0,)),
    databases(schema=SMALL_SCHEMA, max_rows=4),
)
def test_sa_eq_outputs_are_c_stored(expr, db):
    """The closure property Theorem 8 rests on: SA= outputs C-stored tuples."""
    for row in evaluate(expr, db):
        assert is_c_stored(row, db, expr.constants())


# ----------------------------------------------------------------------
# Direction 2: GF → SA=
# ----------------------------------------------------------------------


def _check_gf_to_sa(phi, db, var_order, constants=()):
    expr = gf_to_sa(phi, SMALL_SCHEMA, constants=constants, var_order=var_order)
    assert is_sa_eq(expr)
    assert evaluate(expr, db) == answers_c_stored(
        db, phi, var_order, constants=constants
    )


class TestGfToSa:
    def test_relation_atom(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 3)])
        _check_gf_to_sa(atom("R", "x", "y"), db, ["x", "y"])

    def test_atom_with_repeats_and_constants(self):
        from repro.logic.ast import Const

        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 3)])
        _check_gf_to_sa(atom("R", "x", "x"), db, ["x"])
        _check_gf_to_sa(atom("R", "x", Const(2)), db, ["x"], constants=[2])

    def test_comparison_atoms(self):
        db = database(SMALL_SCHEMA, R=[(1, 2)], S=[(5,)])
        _check_gf_to_sa(eq("x", "y"), db, ["x", "y"])
        _check_gf_to_sa(lt("x", "y"), db, ["x", "y"])
        _check_gf_to_sa(eq("x", 5), db, ["x"], constants=[5])
        _check_gf_to_sa(lt("x", 5), db, ["x"], constants=[5])
        _check_gf_to_sa(lt(5, "x"), db, ["x"], constants=[5])

    def test_constant_constant_comparison(self):
        db = database(SMALL_SCHEMA, S=[(1,)])
        from repro.logic.ast import Const, Compare

        _check_gf_to_sa(Compare("<", Const(1), Const(2)), db, [], constants=[1, 2])
        _check_gf_to_sa(Compare("<", Const(2), Const(1)), db, [], constants=[1, 2])

    def test_negation(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (3, 3)])
        _check_gf_to_sa(Not(atom("R", "x", "y")), db, ["x", "y"])

    def test_conjunction_different_vars(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (2, 3)], S=[(2,)])
        phi = atom("R", "x", "y") & atom("S", "y")
        _check_gf_to_sa(phi, db, ["x", "y"])

    def test_disjunction(self):
        db = database(SMALL_SCHEMA, R=[(1, 2)], S=[(4,)])
        phi = atom("S", "x") | exists("y", atom("R", "x", "y"))
        _check_gf_to_sa(phi, db, ["x"])

    def test_guarded_exists(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (2, 2)], S=[(2,)])
        phi = exists("y", atom("R", "x", "y"), atom("S", "y"))
        _check_gf_to_sa(phi, db, ["x"])

    def test_nested_negation_example7_style(self):
        db = database(SMALL_SCHEMA, R=[(1, 2), (2, 3)], S=[(3,)])
        # x has an R-successor that is in S... negated.
        phi = Not(exists("y", atom("R", "x", "y"), atom("S", "y")))
        _check_gf_to_sa(phi, db, ["x"])

    def test_var_order_superset(self):
        db = database(SMALL_SCHEMA, R=[(1, 2)], S=[(5,)])
        expr = gf_to_sa(atom("S", "x"), SMALL_SCHEMA, var_order=["x", "pad"])
        result = evaluate(expr, db)
        # The pad column ranges over C-stored completions: a pair (5, v)
        # is C-stored only if {5, v} fits in one stored tuple, so v = 5.
        assert result == frozenset({(5, 5)})
        assert result == answers_c_stored(db, atom("S", "x"), ["x", "pad"])

    def test_var_order_superset_wide_tuple(self):
        db = database(SMALL_SCHEMA, R=[(5, 6)], S=[(5,)])
        expr = gf_to_sa(atom("S", "x"), SMALL_SCHEMA, var_order=["x", "pad"])
        # Now (5, 6) and (5, 5) are both C-stored via the R-tuple.
        assert evaluate(expr, db) == frozenset({(5, 5), (5, 6)})

    def test_constants_must_cover_formula(self):
        with pytest.raises(FragmentError):
            gf_to_sa(eq("x", 5), SMALL_SCHEMA, constants=())

    def test_var_order_must_cover_free_vars(self):
        with pytest.raises(FragmentError):
            gf_to_sa(eq("x", "y"), SMALL_SCHEMA, var_order=["x"])

    def test_implication_desugars(self):
        db = database(SMALL_SCHEMA, R=[(1, 2)], S=[(1,)])
        phi = atom("S", "x").implies(exists("y", atom("R", "x", "y")))
        _check_gf_to_sa(phi, db, ["x"])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(databases(schema=SMALL_SCHEMA, max_rows=4))
def test_gf_to_sa_on_fixed_formula_random_dbs(db):
    phi = exists(
        "y",
        atom("R", "x", "y"),
        Not(exists("z", atom("R", "y", "z"), atom("S", "z"))),
    )
    _check_gf_to_sa(phi, db, ["x"])


# ----------------------------------------------------------------------
# Round-trip: SA= → GF → SA=
# ----------------------------------------------------------------------


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    sa_eq_expressions(schema=SMALL_SCHEMA, max_depth=2, constants=(0,)),
    databases(schema=SMALL_SCHEMA, max_rows=3),
)
def test_roundtrip_sa_gf_sa(expr, db):
    """E → φ_E → E' with E'(D) = E(D) ∩ C-stored = E(D)."""
    phi = sa_to_gf(expr, SMALL_SCHEMA)
    variables = [f"x{i}" for i in range(1, expr.arity + 1)]
    back = gf_to_sa(
        phi, SMALL_SCHEMA, constants=expr.constants(), var_order=variables
    )
    # SA= outputs are C-stored, so the round trip is lossless.
    assert evaluate(back, db) == evaluate(expr, db)


# ----------------------------------------------------------------------
# Example 3 / Example 7: the two paper formulations agree
# ----------------------------------------------------------------------


class TestLousyBars:
    SCHEMA = Schema({"Likes": 2, "Serves": 2, "Visits": 2})

    def make_db(self):
        return database(
            self.SCHEMA,
            Visits=[("alex", "pareto"), ("bart", "qwerty"), ("cleo", "pareto")],
            Serves=[("pareto", "westmalle"), ("qwerty", "chimay")],
            Likes=[("alex", "westmalle"), ("cleo", "duvel")],
        )

    def sa_expression(self):
        return parse(
            "project[1](Visits semijoin[2=1] "
            "(project[1](Serves) minus "
            "project[1](Serves semijoin[2=2] Likes)))",
            self.SCHEMA,
        )

    def gf_formula(self):
        return exists(
            "y",
            atom("Visits", "x", "y"),
            Not(
                exists(
                    "z",
                    atom("Serves", "y", "z"),
                    exists("w", atom("Likes", "w", "z")),
                )
            ),
        )

    def test_sa_equals_gf(self):
        db = self.make_db()
        sa_result = evaluate(self.sa_expression(), db)
        gf_result = answers(db, self.gf_formula(), ["x"])
        assert sa_result == gf_result == frozenset({("bart",)})

    def test_translated_sa_matches(self):
        db = self.make_db()
        expr = gf_to_sa(self.gf_formula(), self.SCHEMA, var_order=["x"])
        assert evaluate(expr, db) == frozenset({("bart",)})

    def test_translated_gf_matches(self):
        db = self.make_db()
        phi = sa_to_gf(self.sa_expression(), self.SCHEMA)
        assert answers(db, phi, ["x1"]) == frozenset({("bart",)})
