"""Ullman's beer-drinkers schema: SA=, GF, and the Fig. 6 witness.

Walks through Example 3 (the lousy-bars query in the semijoin algebra),
Example 7 (the same query in the guarded fragment), the Theorem 8
translations in both directions, and §4.1's proof that the "visits a
bar serving a beer they like" query needs a quadratic RA expression.

Run with::

    python examples/beer_drinkers.py
"""

from repro.algebra import evaluate, is_sa_eq, parse, to_text
from repro.bisim import are_bisimilar
from repro.core import analyze
from repro.data import database
from repro.data.universe import STRINGS
from repro.logic import (
    Not,
    answers,
    atom,
    exists,
    formula_to_text,
    gf_to_sa,
    sa_to_gf,
)
from repro.workloads.figures import BEER_SCHEMA, fig6_databases

# ----------------------------------------------------------------------
# Example 3: lousy bars in SA=.
# ----------------------------------------------------------------------

lousy = parse(
    "project[1](Visits semijoin[2=1] (project[1](Serves) minus "
    "project[1](Serves semijoin[2=2] Likes)))",
    BEER_SCHEMA,
)
print("Example 3 (SA=):", to_text(lousy))
assert is_sa_eq(lousy)

pub_scene = database(
    BEER_SCHEMA,
    Visits=[("alex", "pareto"), ("bart", "qwerty"), ("cleo", "pareto")],
    Serves=[("pareto", "westmalle"), ("qwerty", "chimay")],
    Likes=[("alex", "westmalle")],
)
print("drinkers visiting a lousy bar:", sorted(evaluate(lousy, pub_scene)))

# ----------------------------------------------------------------------
# Example 7: the same query in the guarded fragment.
# ----------------------------------------------------------------------

phi = exists(
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
print("\nExample 7 (GF):", formula_to_text(phi))
print("GF answers:", sorted(answers(pub_scene, phi, ["x"])))

# ----------------------------------------------------------------------
# Theorem 8: translate both ways and re-evaluate.
# ----------------------------------------------------------------------

back = gf_to_sa(phi, BEER_SCHEMA, var_order=["x"])
print(
    f"\nGF → SA= gives a {back.size()}-node SA= expression; result:",
    sorted(evaluate(back, pub_scene)),
)
forward = sa_to_gf(lousy, BEER_SCHEMA)
print(
    f"SA= → GF gives a {forward.size()}-node formula; answers:",
    sorted(answers(pub_scene, forward, ["x1"])),
)

# ----------------------------------------------------------------------
# §4.1: "visits a bar that serves a beer they like" is quadratic.
# ----------------------------------------------------------------------

good_bar = parse(
    "project[1](select[2=3](select[4=6](select[1=5]("
    "Visits join[] (Serves join[] Likes)))))",
    BEER_SCHEMA,
)
print("\n§4.1 query:", to_text(good_bar))

a, b = fig6_databases()
print("Q on A:", sorted(evaluate(good_bar, a)))
print("Q on B:", sorted(evaluate(good_bar, b)))

verdict = are_bisimilar(a, ("alex",), b, ("alex",))
print("(A, alex) ~ (B, alex)?", verdict.bisimilar, "-", verdict.reason)
print(
    "Q distinguishes two bisimilar pairs, so Q is not expressible in"
    "\nSA= — and therefore (Cor. 19) every RA expression for Q is"
    "\nquadratic. The classifier agrees:"
)
report = analyze(good_bar, BEER_SCHEMA, STRINGS)
print(report.summary())
