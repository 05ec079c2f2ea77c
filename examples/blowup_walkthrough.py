"""Fig. 4, step by step: the Lemma 24 quadratic blow-up.

Prints the seed database D, the free values of the witness pair, the
constructed D2 and D3 (matching the paper's figure up to the choice of
fresh values), and the growth certificates up to n = 32.

Run with::

    python examples/blowup_walkthrough.py
"""

from repro.algebra import evaluate, to_text
from repro.core import blow_up
from repro.workloads.figures import (
    fig4_database,
    fig4_expression,
    fig4_witness,
    format_table,
)

witness = fig4_witness()
expr = fig4_expression()

print("E =", to_text(expr))
print("\nseed database D:")
print(fig4_database().pretty())

print("\njoining pair: ā =", witness.left_tuple, " b̄ =", witness.right_tuple)
print("free values F1(ā) =", sorted(witness.free1()))
print("free values F2(b̄) =", sorted(witness.free2()))

for n in (2, 3):
    result = blow_up(witness, n)
    print(f"\nD{n} (fresh values shown as fractions between the originals):")
    print(result.database.pretty())
    print(f"copies of ā in E1(D{n}):", sorted(result.left_copies))
    print(f"copies of b̄ in E2(D{n}):", sorted(result.right_copies))

print("\ngrowth certificates (|Dn| <= 2|D|n, |E(Dn)| >= n²):")
rows = []
for n in (1, 2, 4, 8, 16, 32):
    result = blow_up(witness, n)
    assert all(result.certify().values())
    rows.append(
        [
            n,
            result.database.size(),
            2 * witness.db.size() * n,
            len(evaluate(expr, result.database)),
            n * n,
        ]
    )
print(format_table(["n", "|Dn|", "2|D|n", "|E(Dn)|", "n²"], rows))
print(
    "\nLinear-size inputs, quadratic-size join output: the engine behind"
    "\nTheorem 17's dichotomy and Proposition 26's division lower bound."
)
