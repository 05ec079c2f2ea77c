"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands::

    repro eval     -d db.json 'project[1](R join[2=1] S)'   # session-backed
    repro eval     -d db.json --stats 'R join[2=1] S'       # + exec report
    repro explain  'R cartesian S' --schema 'R:2,S:1'       # physical plan
    repro explain  -d db.json --costs 'R join[2=1] S'       # + cost estimates
    repro eval     -d db.json --partition-budget 500 'R join[2=1] S'
    repro trace    -d db.json 'project[1](R) cartesian S'
    repro classify -d db.json 'R cartesian S'           # db optional
    repro compile  'R join[2=1] S' --schema 'R:2,S:1'
    repro optimize 'project[1](R join[2=1] S)' --schema 'R:2,S:1'
    repro divide   -d db.json --dividend R --divisor S [--algorithm hash]
    repro bisim    -a left.json -b right.json --left-tuple 1 --right-tuple 1

``eval``, ``explain`` and ``divide`` build one
:class:`~repro.session.Session` from the shared session flags: the
planner flags (``--partition-budget``, ``--no-multiway``) become its
``PlannerOptions``, which reject bad values up front.  ``optimize`` is
pure rewriting and takes none of them.  Expressions use the textual syntax of
:mod:`repro.algebra.parser`; the schema comes from the database file or
from ``--schema 'R:2,S:1'``.
"""

from __future__ import annotations

import argparse
import sys

from repro.algebra.evaluator import evaluate
from repro.algebra.parser import parse
from repro.algebra.printer import to_ascii, to_text
from repro.algebra.trace import trace
from repro.bisim.bisimulation import are_bisimilar
from repro.core.compile_sa import compile_to_sa
from repro.core.dichotomy import analyze
from repro.data.schema import Schema
from repro.data.universe import INTEGERS, RATIONALS, STRINGS
from repro.errors import ReproError
from repro.io.json_io import load_database
from repro.setjoins.division import DIVISION_ALGORITHMS

_UNIVERSES = {
    "integers": INTEGERS,
    "rationals": RATIONALS,
    "strings": STRINGS,
}


def _load_database(path: str):
    """Load a database file, reporting I/O failures as CLI errors.

    Only file loading is wrapped: an unreadable ``--database`` path is
    a user error (clean ``error:`` + exit 2), while I/O failures on
    output (e.g. a closed pipe) must keep their default behaviour.
    """
    try:
        return load_database(path)
    except OSError as error:
        raise ReproError(f"cannot read database {path!r}: {error}") from error


def _parse_schema(text: str) -> Schema:
    entries = {}
    for part in text.split(","):
        name, __, arity = part.partition(":")
        entries[name.strip()] = int(arity)
    return Schema(entries)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _schema_for(args) -> Schema:
    if getattr(args, "database", None):
        return _load_database(args.database).schema
    if getattr(args, "schema", None):
        return _parse_schema(args.schema)
    raise ReproError("provide --database or --schema")


#: The session-level planner flags: ``(flag, PlannerOptions field,
#: argparse keyword arguments)``.  The argparse parent parser, the
#: ``PlannerOptions`` construction and the ``--no-engine`` rejection all
#: loop over this one table, so a flag added here is parsed everywhere,
#: applied, *and* rejected under ``--no-engine`` — the lists cannot
#: drift apart.  A ``store_true`` flag switches its field *off*.
_SESSION_FLAGS = (
    ("--partition-budget", "partition_budget", dict(
        type=int,
        metavar="ROWS",
        help="rows-in-flight cap for partitioned execution: operators "
        "whose estimated in-flight bound exceeds it run in batches "
        "(needs a database's statistics)",
    )),
    ("--no-multiway", "use_multiway", dict(
        action="store_true",
        help="never collapse an equi-join chain into the worst-case-"
        "optimal multiway join (keep binary join plans)",
    )),
)


def _session_flags_given(args) -> dict:
    """``{flag: value}`` for every planner flag present on ``args``."""
    given = {}
    for flag, __, ___ in _SESSION_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value is not False:
            given[flag] = value
    return given


def _session_options(args):
    """PlannerOptions from the planner flags (None = defaults).

    ``PlannerOptions`` validates the values itself, before any work.
    """
    given = _session_flags_given(args)
    if not given:
        return None
    from repro.engine import PlannerOptions

    return PlannerOptions(
        **{
            field: False if given[flag] is True else given[flag]
            for flag, field, __ in _SESSION_FLAGS
            if flag in given
        }
    )


def _session_from_flags(args):
    """The shared Session built from ``-d`` plus the session flags."""
    from repro.session import Session

    db = _load_database(args.database)
    return Session(db, options=_session_options(args))


def _engine_flags_given(args) -> tuple[str, ...]:
    """Engine-only flags present on ``args`` (for --no-engine checks)."""
    given = tuple(_session_flags_given(args))
    if getattr(args, "stats", False):
        given += ("--stats",)
    return given


def _cmd_eval(args) -> int:
    if getattr(args, "no_engine", False):
        conflicting = _engine_flags_given(args)
        if conflicting:
            raise ReproError(
                f"{', '.join(conflicting)} need(s) the engine; drop "
                "--no-engine"
            )
        db = _load_database(args.database)
        expr = parse(args.expression, db.schema)
        result = evaluate(expr, db)
    else:
        session = _session_from_flags(args)
        try:
            result = session.query(args.expression).run()
        finally:
            session.close()
    rows = sorted(result, key=repr)
    for row in rows:
        print("\t".join(str(v) for v in row))
    print(f"-- {len(rows)} row(s)", file=sys.stderr)
    if getattr(args, "stats", False):
        print(session.last_report.render(), file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    if args.database:
        # Session-backed: the plan printed is cost-based against the
        # database's statistics, and is exactly the plan executed and
        # measured below (EXPLAIN ANALYZE-style).
        with _session_from_flags(args) as session:
            prepared = session.query(args.expression)
            print(prepared.explain(costs=args.costs, analyze=args.analyze))
            result = prepared.run()
        print(f"-- {len(result)} row(s)", file=sys.stderr)
        print(session.last_report.render(), file=sys.stderr)
        return 0
    if not args.schema:
        raise ReproError("provide --database or --schema")
    from repro.engine import DEFAULT_OPTIONS
    from repro.engine.planner import explain as explain_plan

    schema = _parse_schema(args.schema)
    expr = parse(args.expression, schema)
    # Schema-only planning has no statistics: the structural rules
    # apply, --costs annotates from the zero-stats default assumptions
    # (every ``ub`` that needs statistics prints ``?``), and a partition
    # budget cannot be sized (nothing is certified to size against) —
    # the plan is printed unpartitioned, matching what the engine
    # would run.
    options = _session_options(args) or DEFAULT_OPTIONS
    print(
        explain_plan(
            expr,
            options,
            schema=schema,
            analyze=args.analyze,
            costs=args.costs,
        )
    )
    return 0


def _cmd_trace(args) -> int:
    db = _load_database(args.database)
    expr = parse(args.expression, db.schema)
    print(trace(expr, db).report())
    return 0


def _cmd_classify(args) -> int:
    schema = _schema_for(args)
    expr = parse(args.expression, schema)
    universe = _UNIVERSES[args.universe]
    report = analyze(expr, schema, universe)
    print(report.summary())
    return 0


def _cmd_compile(args) -> int:
    schema = _schema_for(args)
    expr = parse(args.expression, schema)
    universe = _UNIVERSES[args.universe]
    compiled = compile_to_sa(expr, schema, universe)
    print(to_ascii(compiled) if args.ascii else to_text(compiled))
    return 0


def _cmd_divide(args) -> int:
    # Session.divide validates the operand names and arities against
    # the schema before dispatching, so every algorithm choice —
    # engine-planned or direct — fails identically on bad operands.
    with _session_from_flags(args) as session:
        quotient = session.divide(
            args.dividend, args.divisor, algorithm=args.algorithm
        )
    for value in sorted(quotient, key=repr):
        print(value)
    print(f"-- {len(quotient)} row(s)", file=sys.stderr)
    return 0


def _cmd_optimize(args) -> int:
    from repro.algebra.optimize import optimize

    expr = parse(args.expression, _schema_for(args))
    rewritten = optimize(expr)
    print(to_ascii(rewritten) if args.ascii else to_text(rewritten))
    return 0


def _cmd_gf(args) -> int:
    from repro.logic.eval import answers, answers_c_stored
    from repro.logic.parser import parse_formula

    db = _load_database(args.database)
    phi = parse_formula(args.formula)
    var_order = args.vars or sorted(phi.free_variables())
    constants = tuple(_parse_value(v) for v in args.constants or ())
    answer_fn = answers_c_stored if args.c_stored else answers
    rows = sorted(
        answer_fn(db, phi, var_order, constants=constants), key=repr
    )
    print("\t".join(var_order))
    for row in rows:
        print("\t".join(str(v) for v in row))
    print(f"-- {len(rows)} row(s)", file=sys.stderr)
    return 0


def _cmd_bisim(args) -> int:
    left = _load_database(args.left)
    right = _load_database(args.right)
    left_tuple = tuple(_parse_value(v) for v in args.left_tuple)
    right_tuple = tuple(_parse_value(v) for v in args.right_tuple)
    constants = tuple(_parse_value(v) for v in args.constants or ())
    verdict = are_bisimilar(left, left_tuple, right, right_tuple, constants)
    print("bisimilar" if verdict.bisimilar else "NOT bisimilar")
    print(verdict.reason)
    return 0 if verdict.bisimilar else 1


def _session_flags_parser() -> argparse.ArgumentParser:
    """The shared session flags, as an argparse parent parser.

    Attached to every subcommand that builds a :class:`~repro.session.
    Session` (``eval``, ``explain``, ``divide``), so the planner knobs
    read identically everywhere and are applied session-level rather
    than per call.
    """
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_argument_group("session options")
    for flag, __, kwargs in _SESSION_FLAGS:
        group.add_argument(flag, **kwargs)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Leinders & Van den Bussche, 'On the "
            "complexity of division and set joins in the relational "
            "algebra'."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    session_flags = _session_flags_parser()

    p_eval = sub.add_parser(
        "eval",
        help="evaluate an expression (session-backed)",
        parents=[session_flags],
    )
    p_eval.add_argument("expression")
    p_eval.add_argument("-d", "--database", required=True)
    p_eval.add_argument(
        "--no-engine",
        action="store_true",
        help="bypass the engine and use the structural evaluator",
    )
    p_eval.add_argument(
        "--stats",
        action="store_true",
        help="print the execution report to stderr: result-cache "
        "hit/miss counters, per-operator estimated-vs-actual rows, "
        "and the peak rows in flight",
    )
    p_eval.set_defaults(fn=_cmd_eval)

    p_explain = sub.add_parser(
        "explain",
        help="show the engine's physical plan (with -d: also execute "
        "it and report executor stats)",
        parents=[session_flags],
    )
    p_explain.add_argument("expression")
    p_explain.add_argument("-d", "--database")
    p_explain.add_argument("--schema", help="e.g. 'R:2,S:1'")
    p_explain.add_argument(
        "--analyze",
        action="store_true",
        help="prefix the Theorem 17 dichotomy verdict",
    )
    p_explain.add_argument(
        "--costs",
        action="store_true",
        help="annotate each operator with the cost model's estimated "
        "rows, sound upper bound, and cost (statistics come from -d; "
        "schema-only estimates use default assumptions)",
    )
    p_explain.set_defaults(fn=_cmd_explain)

    p_trace = sub.add_parser(
        "trace", help="evaluate, reporting intermediate sizes"
    )
    p_trace.add_argument("expression")
    p_trace.add_argument("-d", "--database", required=True)
    p_trace.set_defaults(fn=_cmd_trace)

    p_classify = sub.add_parser(
        "classify", help="run the dichotomy analysis"
    )
    p_classify.add_argument("expression")
    p_classify.add_argument("-d", "--database")
    p_classify.add_argument("--schema", help="e.g. 'R:2,S:1'")
    p_classify.add_argument(
        "--universe", choices=sorted(_UNIVERSES), default="integers"
    )
    p_classify.set_defaults(fn=_cmd_classify)

    p_compile = sub.add_parser(
        "compile", help="compile RA to SA= (Theorem 18)"
    )
    p_compile.add_argument("expression")
    p_compile.add_argument("-d", "--database")
    p_compile.add_argument("--schema", help="e.g. 'R:2,S:1'")
    p_compile.add_argument(
        "--universe", choices=sorted(_UNIVERSES), default="integers"
    )
    p_compile.add_argument("--ascii", action="store_true")
    p_compile.set_defaults(fn=_cmd_compile)

    p_divide = sub.add_parser(
        "divide",
        help="relational division (session-backed)",
        parents=[session_flags],
    )
    p_divide.add_argument("-d", "--database", required=True)
    p_divide.add_argument("--dividend", default="R")
    p_divide.add_argument("--divisor", default="S")
    p_divide.add_argument(
        "--algorithm",
        choices=["reference", "engine"] + sorted(DIVISION_ALGORITHMS),
        default="hash",
    )
    p_divide.set_defaults(fn=_cmd_divide)

    p_optimize = sub.add_parser(
        "optimize",
        help="push selections, turn every join read through one side "
        "into a semijoin",
    )
    p_optimize.add_argument("expression")
    p_optimize.add_argument("-d", "--database")
    p_optimize.add_argument("--schema", help="e.g. 'R:2,S:1'")
    p_optimize.add_argument("--ascii", action="store_true")
    p_optimize.set_defaults(fn=_cmd_optimize)

    p_gf = sub.add_parser(
        "gf", help="evaluate a guarded-fragment formula"
    )
    p_gf.add_argument("formula")
    p_gf.add_argument("-d", "--database", required=True)
    p_gf.add_argument("--vars", nargs="*", help="output variable order")
    p_gf.add_argument("--constants", nargs="*")
    p_gf.add_argument(
        "--c-stored",
        action="store_true",
        help="restrict answers to C-stored tuples (Theorem 8 convention)",
    )
    p_gf.set_defaults(fn=_cmd_gf)

    p_bisim = sub.add_parser(
        "bisim", help="decide C-guarded bisimilarity"
    )
    p_bisim.add_argument("-a", "--left", required=True)
    p_bisim.add_argument("-b", "--right", required=True)
    p_bisim.add_argument("--left-tuple", nargs="+", required=True)
    p_bisim.add_argument("--right-tuple", nargs="+", required=True)
    p_bisim.add_argument("--constants", nargs="*")
    p_bisim.set_defaults(fn=_cmd_bisim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
