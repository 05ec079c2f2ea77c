"""Cross-module integration tests.

These tie together the layers the unit tests cover in isolation:
classifier → blow-up → bisimulation → translation → compilation, on
both dense and discrete universes.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.ast import Join, Rel, is_sa_eq
from repro.algebra.conditions import Atom, Condition
from repro.algebra.evaluator import evaluate
from repro.algebra.optimize import optimize
from repro.algebra.parser import parse
from repro.algebra.trace import trace
from repro.bisim.bisimulation import bisimilar
from repro.core.blowup import blow_up, find_witness
from repro.core.classify import Verdict, classify
from repro.core.compile_sa import compile_to_sa
from repro.data.database import database
from repro.data.schema import Schema
from repro.data.universe import INTEGERS, RATIONALS
from repro.logic.eval import answers
from repro.logic.sa_to_gf import sa_to_gf
from repro.workloads.generators import random_database

SCHEMA = Schema({"R": 2, "S": 1})


class TestOrderJoinsOverIntegers:
    """Order joins must blow up even when Z forces translations."""

    def test_classifier_handles_integer_universe(self):
        classification = classify(
            parse("S join[1<1] S", SCHEMA), SCHEMA, INTEGERS
        )
        assert classification.verdict is Verdict.QUADRATIC

    def test_blowup_with_dense_integer_domain(self):
        # Consecutive integers: every fresh element needs a translation.
        db = database(SCHEMA, S=[(i,) for i in range(5)])
        node = parse("S join[1<1] S", SCHEMA)
        witness = find_witness(node, db, (), INTEGERS)
        assert witness is not None
        result = blow_up(witness, 5)
        assert all(result.certify().values())

    def test_constants_pin_translation(self):
        # A pinned constant above the anchor can block translation; the
        # witness search must then pick a different pair or give up —
        # either way, no crash and any found witness verifies.
        db = database(SCHEMA, R=[(1, 2), (3, 4)], S=[(2,), (4,)])
        node = Join(Rel("R", 2), Rel("S", 1), Condition((Atom(2, "<", 1),)))
        witness = find_witness(node, db, (4,), INTEGERS)
        if witness is not None:
            result = blow_up(witness, 3)
            assert all(result.certify().values())


class TestClassifierCompilerEvaluatorPipeline:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(0, 10_000))
    def test_random_safe_joins_compile_exactly(self, seed):
        """Joins whose right side is fully constrained: classify LINEAR,
        compile, and match on a random database."""
        import random

        rng = random.Random(seed)
        left_arity = rng.randint(1, 3)
        right_arity = rng.randint(1, 2)
        atoms = tuple(
            Atom(rng.randint(1, left_arity), "=", j)
            for j in range(1, right_arity + 1)
        )
        schema = Schema({"A": left_arity, "B": right_arity})
        node = Join(
            Rel("A", left_arity), Rel("B", right_arity), Condition(atoms)
        )
        classification = classify(node, schema, INTEGERS)
        assert classification.verdict is Verdict.LINEAR
        compiled = compile_to_sa(node, schema, INTEGERS)
        assert is_sa_eq(compiled)
        db = random_database(schema, 6, domain_size=5, seed=seed)
        assert evaluate(compiled, db) == evaluate(node, db)

    def test_optimizer_feeds_classifier(self):
        """A filter query written with a join: the raw plan is
        quadratic, the optimized plan is certified linear."""
        expr = parse("project[1,2](R join[1=1] R)", SCHEMA)
        raw = classify(expr, SCHEMA, RATIONALS)
        assert raw.verdict is Verdict.QUADRATIC
        tuned = classify(optimize(expr), SCHEMA, RATIONALS)
        assert tuned.verdict is Verdict.LINEAR

    def test_compiled_form_translates_to_gf(self):
        """compile → SA= → GF: the full Corollary 19 + Theorem 8 chain."""
        expr = parse("R join[2=1] S", SCHEMA)
        compiled = compile_to_sa(expr, SCHEMA, INTEGERS)
        phi = sa_to_gf(compiled, SCHEMA)
        db = database(SCHEMA, R=[(1, 2), (3, 4)], S=[(2,)])
        variables = [f"x{i}" for i in range(1, expr.arity + 1)]
        assert answers(db, phi, variables) == evaluate(expr, db)


class TestBlowupBisimulationBridge:
    def test_copies_are_bisimilar_on_found_witnesses(self):
        """The Lemma 24 proof's invariant, on a classifier-found witness."""
        node = parse("R cartesian S", SCHEMA)
        db = database(SCHEMA, R=[(1, 2)], S=[(9,)])
        witness = find_witness(node, db, (), RATIONALS)
        result = blow_up(witness, 2)
        for copy in result.left_copies:
            assert bisimilar(
                result.seed, result.left_tuple, result.database, copy
            )

    def test_blowup_preserves_linear_subexpression_results(self):
        """Blowing up for one join must not disturb another linear
        part's growth class."""
        expr = parse(
            "project[1](R semijoin[2=1] S) union project[1](R cartesian S)",
            SCHEMA,
        )
        classification = classify(expr, SCHEMA, RATIONALS)
        assert classification.verdict is Verdict.QUADRATIC
        result = blow_up(classification.evidence.witness, 6)
        t = trace(expr, result.database)
        semijoin_part = parse("R semijoin[2=1] S", SCHEMA)
        assert t.cardinality(semijoin_part) <= result.database.size()
