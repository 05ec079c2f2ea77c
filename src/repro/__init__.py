"""repro — reproduction of Leinders & Van den Bussche (PODS 2005 / JCSS 2007),
"On the complexity of division and set joins in the relational algebra".

The package implements the paper's full formal apparatus as executable,
tested code:

* :mod:`repro.session` — the ``Session`` front door: prepared queries,
  execution reports, and the cross-query result cache;
* :mod:`repro.data` — ordered universes, schemas, databases, C-stored tuples;
* :mod:`repro.algebra` — the relational algebra RA and semijoin algebra SA;
* :mod:`repro.logic` — the guarded fragment GF and the Theorem 8 translations;
* :mod:`repro.bisim` — C-guarded bisimulations (Definitions 9–11);
* :mod:`repro.core` — free values, the Lemma 24 blow-up, the dichotomy
  classifier and the Theorem 18 compiler to SA=;
* :mod:`repro.setjoins` — division and set joins with the algorithm zoo the
  paper's introduction surveys;
* :mod:`repro.extended` — RA + grouping/aggregation and the linear division
  plan of Section 5;
* :mod:`repro.workloads`, :mod:`repro.bench` — generators and the experiment
  harness regenerating every figure and theorem-level claim.
"""

__version__ = "1.0.0"

from repro.data import Database, Schema, database
from repro.algebra import Condition, Expr, evaluate, parse, rel, to_text, trace

__all__ = [
    "__version__",
    "Database",
    "PreparedQuery",
    "Schema",
    "Session",
    "database",
    "Condition",
    "Expr",
    "evaluate",
    "parse",
    "rel",
    "to_text",
    "trace",
]


def __getattr__(name: str):
    # ``Session`` sits above the paper layers (engine ← session), so it
    # loads on first use: ``import repro.algebra`` never pays for the
    # engine, and the package graph stays a DAG (tests/test_layering.py).
    if name in ("PreparedQuery", "Session"):
        import repro.session

        return getattr(repro.session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
