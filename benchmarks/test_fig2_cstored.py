"""FIG2 — C-stored tuples (Example 5).

Paper claim: (b,c) and (a,f) are {a}-stored in D; (e,c) and (g) are
not.
"""

from repro.data.schema import Schema
from repro.data.stored import c_stored_tuples, is_c_stored
from repro.workloads.figures import fig2_database
from repro.workloads.generators import random_database


def test_fig2_examples():
    db = fig2_database()
    assert is_c_stored(("b", "c"), db, {"a"})
    assert is_c_stored(("a", "f"), db, {"a"})
    assert not is_c_stored(("e", "c"), db, {"a"})
    assert not is_c_stored(("g",), db, {"a"})


def test_cstored_enumeration():
    db = random_database(Schema({"R": 3, "S": 2}), 40, domain_size=20, seed=9)
    rows = list(c_stored_tuples(db, (0, 1), 2))
    assert all(is_c_stored(row, db, (0, 1)) for row in rows[:50])
