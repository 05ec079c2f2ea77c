"""Fig. 1, end to end: set-containment join and division on symptoms.

Reproduces the paper's motivating example exactly, then scales the same
query shape to a few thousand rows and compares the set-join strategies.

Run with::

    python examples/medical_symptoms.py
"""

import time

from repro.setjoins import (
    CONTAINMENT_ALGORITHMS,
    DIVISION_ALGORITHMS,
    SetRelation,
)
from repro.workloads.figures import (
    FIG1_CONTAINMENT_JOIN,
    FIG1_DIVISION,
    fig1_database,
    format_table,
)
from repro.workloads.generators import zipf_set_relation

# ----------------------------------------------------------------------
# The paper's instance.
# ----------------------------------------------------------------------

db = fig1_database()
person = SetRelation.from_binary(db["Person"])
disease = SetRelation.from_binary(db["Disease"])
symptoms = [b for (b,) in db["Symptoms"]]

print("Person (symptom sets):")
for name, values in person.items():
    print(f"  {name:6} {sorted(values)}")
print("Disease (symptom sets):")
for name, values in disease.items():
    print(f"  {name:6} {sorted(values)}")

joined = CONTAINMENT_ALGORITHMS["nested_loop"](person, disease)
print("\nPerson ⋈[Symptom ⊇ Symptom] Disease  (who has all symptoms of what):")
print(format_table(["pName", "dName"], [list(r) for r in sorted(joined)]))
assert joined == FIG1_CONTAINMENT_JOIN

quotient = DIVISION_ALGORITHMS["hash"](db["Person"], symptoms)
print(f"\nPerson ÷ Symptoms  (divisor {sorted(symptoms)}):")
print(format_table(["pName"], [[a] for a in sorted(quotient)]))
assert quotient == FIG1_DIVISION

# ----------------------------------------------------------------------
# The same query at scale: 2000 patients, 50 diseases, Zipf symptoms.
# ----------------------------------------------------------------------

print("\nScaling to 2000 patients × 50 diseases (Zipf symptom sets)...")
patients = zipf_set_relation(
    num_sets=2000, min_size=2, max_size=10, universe_size=40, seed=1
)
diseases = zipf_set_relation(
    num_sets=50, min_size=2, max_size=5, universe_size=40,
    seed=2, key_offset=10**6,
)

rows = []
reference = None
for name, algorithm in sorted(CONTAINMENT_ALGORITHMS.items()):
    start = time.perf_counter()
    result = algorithm(patients, diseases)
    elapsed = time.perf_counter() - start
    if reference is None:
        reference = result
    assert result == reference
    rows.append([name, f"{elapsed * 1000:8.1f} ms", len(result)])
print(format_table(["algorithm", "time", "matches"], rows))
print(
    "\nAll four strategies agree; the pruning strategies do far less"
    "\nverification work than the nested loop — though, as the paper"
    "\nnotes, no worst-case subquadratic algorithm is known."
)
