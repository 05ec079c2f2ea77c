"""The linear division plans of Section 5.

The paper's closing observation: with grouping (γ) and counting,
containment-division is the **linear** expression

    π_A ( γ_{A, count(B)} ( R ⋈_{B=C} S )  ⋈_{count(B) = count(C)}  γ_{∅, count(C)} S )

and equality-division has an analogous linear plan [11, 12].  These
plans are the formal justification for implementing set joins as
special-purpose operators: the same query that *must* be quadratic in
plain RA (Proposition 26) is linear one algebra up.

Caveat (shared with the SQL folklore the plans come from): with an
**empty divisor**, ``R ⋈ S`` is empty, so the γ over it produces no
groups and the plans return ∅, whereas ``R ÷ ∅ = π_A(R)``.  The paper's
expression has the same behaviour; the experiments avoid the empty
divisor and the tests document it.

Production execution goes through the engine: the planner matches a
sub-tree against what these builders return over placeholder operands
(:func:`repro.engine.planner.match_division`) and collapses it into a
single linear division operator —
``Session(db).run(division_plan(eq))`` — and the expressions above stay
as the reference semantics the engine is tested against (the
empty-divisor caveat is preserved exactly).
"""

from __future__ import annotations

from repro.algebra.ast import Expr, Join, Projection, Rel, Selection
from repro.errors import SchemaError
from repro.extended.ast import Aggregate, GroupBy


def containment_division_plan(
    r: Expr | None = None, s: Expr | None = None
) -> Expr:
    """The paper's Section 5 containment-division plan, verbatim.

    Column layout:  ``R ⋈_{2=1} S`` is ``(A, B, C)``;
    ``γ_{1, count(2)}`` gives ``(A, cnt)``; ``γ_{∅, count(1)} S`` gives
    ``(cnt,)``; the final join matches the counts and π₁ projects A.
    """
    r = r if r is not None else Rel("R", 2)
    s = s if s is not None else Rel("S", 1)
    if r.arity != 2 or s.arity != 1:
        raise SchemaError("containment_division_plan needs R/2 and S/1")
    joined = Join(r, s, "2=1")
    per_candidate = GroupBy(joined, (1,), (Aggregate("count", 2),))
    divisor_size = GroupBy(s, (), (Aggregate("count", 1),))
    matched = Join(per_candidate, divisor_size, "2=1")
    return Projection(matched, (1,))


def equality_division_plan(
    r: Expr | None = None, s: Expr | None = None
) -> Expr:
    """The analogous linear plan for equality-division [11, 12].

    ``set_B(a) = S`` iff the number of matching B's *and* the total
    number of B's both equal |S|:

        π_A ( σ_{total=|S|} ( γ_{A,count}(R ⋈ S) ⋈_A γ_{A,count}(R) ⋈_{match=|S|} γ_{count}(S) ) )
    """
    r = r if r is not None else Rel("R", 2)
    s = s if s is not None else Rel("S", 1)
    if r.arity != 2 or s.arity != 1:
        raise SchemaError("equality_division_plan needs R/2 and S/1")
    joined = Join(r, s, "2=1")
    matches = GroupBy(joined, (1,), (Aggregate("count", 2),))   # (A, m)
    totals = GroupBy(r, (1,), (Aggregate("count", 2),))         # (A, t)
    divisor_size = GroupBy(s, (), (Aggregate("count", 1),))     # (k,)
    per_candidate = Join(matches, totals, "1=1")                # (A,m,A,t)
    with_k = Join(per_candidate, divisor_size, "2=1")           # (A,m,A,t,k)
    equal_totals = Selection(with_k, "=", 4, 5)                 # t = k
    return Projection(equal_totals, (1,))


def division_plan(eq: bool = False, r: Expr | None = None, s: Expr | None = None) -> Expr:
    """The §5 plan for either division flavour (``eq`` selects equality)."""
    if eq:
        return equality_division_plan(r, s)
    return containment_division_plan(r, s)


def plan_intermediate_bound(r_size: int, s_size: int) -> int:
    """An explicit linear bound on every intermediate of the plans.

    ``R ⋈_{B=C} S`` has at most |R| rows (each R-row matches one C),
    each γ has at most |R| (resp. 1) rows, and the final joins only
    shrink — so every intermediate is ≤ |R| + |S| + 1.  The THM17/PROP26
    experiments assert the measured sizes against this bound.
    """
    return r_size + s_size + 1
