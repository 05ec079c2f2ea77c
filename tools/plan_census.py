#!/usr/bin/env python3
"""A plan census: every fresh-query plan, its rows, and what moved.

"Plans unchanged" is a claim about many texts at once.  This script
renders one fixed corpus through a checkout's engine:

* the ``adhoc_tiny`` stream — ``adhoc_query(rng, ("R", "T", "U"), 3,
  True, "R")`` on ``build_database("mixed", num_keys=24,
  extra_rows=48, seed)`` — and the serving workloads' fresh stream —
  ``adhoc_query(rng, ("T", "U"), 2, False)`` on ``build_database(
  "mixed", num_keys=300, extra_rows=1200, seed)`` — ``--texts``
  distinct texts each, drawn with ``random.Random(seed)``, for each
  ``--seeds`` value;
* unless ``--no-fixed``, the 15 fixed texts the other workloads run:
  the three triangle texts on ``zipf_triangle_db(640, tail=1280,
  skew=1.1, seed=1)``, the division text and the three semijoin texts
  on ``division_warm``'s database, ``HOT_QUERY`` on
  ``hot_symptom_db(1)`` and the seven ``MIXED_QUERIES`` on the serving
  database (seed 1);
* under five option sets: the defaults, ``no_stats``,
  ``use_multiway=False``, ``partition_budget=50`` and ``pooled``
  (``partition_budget=50, max_workers=2``).

Each text is planned by a fresh ``Session(db, cache_results=False)``:
``explain(costs=True)``, then the run, whose rows must equal the
structural evaluator's (``evaluate``).  ``no_stats`` plans the text
without statistics (``plan_expression``, the structural plan) and
explains (with the session's statistics) and runs that plan on the
session's executor.  ``--streamed`` renders every text again through
one long-lived ``Session`` per stream, seed and option set, and counts
the texts whose streamed ``explain`` differs from the fresh one: a
cache that outlives a text must not show in its plan.

With ``--parent <checkout>`` both trees are rendered and the Markdown
report lists the texts whose ``explain`` moved, the texts that plan a
join node (default options), the ``max_in_flight`` sums, and any text
whose rows differ from the parent's.  The exit status is 1 when a row
set is wrong or differs between the trees.

Each checkout is rendered in its own process, with its ``src/`` and
root on ``sys.path``, so any commit that has ``perfbench/workloads.py``
can be the parent.  Usage (from any directory)::

    python3 tools/plan_census.py --parent ../parent [--change .] \\
        [--texts 1500] [--seeds 7 31] [--streamed] [--no-fixed]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

#: ``PlannerOptions`` overrides by name; ``no_stats`` plans with
#: ``plan_expression`` (no statistics) instead of the session.
OPTION_SETS = {
    "default": {},
    "no_stats": {},
    "no_multiway": {"use_multiway": False},
    "budget_50": {"partition_budget": 50},
    "pooled": {"partition_budget": 50, "max_workers": 2},
}

#: Operators that run a join (a semijoin is not one).
JOIN_OPERATORS = {"HashJoinOp", "NestedLoopJoinOp", "MultiwayJoinOp"}

#: stream → (adhoc_query's arguments after ``rng``, database arguments).
STREAMS = {
    "adhoc_tiny": (
        (("R", "T", "U"), 3, True, "R"),
        {"num_keys": 24, "extra_rows": 48},
    ),
    "serving": ((("T", "U"), 2, False), {"num_keys": 300, "extra_rows": 1200}),
}


def corpus(texts: int, seeds, fixed: bool):
    """``(stream, seed, database, [text, ...])`` for every group."""
    import random

    from perfbench import workloads as w
    from repro.workloads.generators import division_database, zipf_triangle_db
    from repro.workloads.serving import build_database

    for stream, (shape, sizes) in STREAMS.items():
        for seed in seeds:
            rng, drawn = random.Random(seed), {}
            while len(drawn) < texts:
                drawn.setdefault(w.adhoc_query(rng, *shape), None)
            db = build_database("mixed", seed=seed, **sizes)
            yield stream, seed, db, list(drawn)
    if not fixed:
        return
    yield "triangle", 1, zipf_triangle_db(
        640, tail=1280, skew=1.1, seed=1
    ), list(w.TRIANGLE_QUERIES)
    yield "division", 1, division_database(
        600, 12, extra_per_key=3, hit_fraction=0.4, seed=1
    ), [w.DIVISION_QUERY, *w.SEMIJOIN_QUERIES]
    yield "hot", 1, w.hot_symptom_db(1), [w.HOT_QUERY]
    yield "mixed", 1, build_database(
        "mixed", num_keys=300, extra_rows=1200, seed=1
    ), list(w.MIXED_QUERIES)


def digest(rows) -> str:
    return hashlib.sha1("\n".join(sorted(map(repr, rows))).encode()).hexdigest()


def run_text(session, text: str, name: str) -> tuple:
    """``(explain, plan, rows, max_in_flight)`` of one text on ``session``."""
    from dataclasses import replace

    options = replace(session.options, **OPTION_SETS[name])
    if name == "no_stats":
        from repro.engine.planner import explain, plan_expression

        expr = session.parse(text)
        plan = plan_expression(expr, options)
        executor = session.executor
        rows = executor.execute(plan)
        in_flight = executor.stats.max_in_flight()
        executor.reset_query_state()
        shown = explain(
            expr, options, plan=plan, costs=True,
            cost_model=executor.cost_model,
        )
        return shown, plan, rows, in_flight
    query = session.query(text, options)
    shown = query.explain(costs=True)
    plan, rows = query.plan(), query.run()
    return shown, plan, rows, query.stats().max_in_flight()


def render(texts: int, seeds, fixed: bool, streamed: bool) -> list[dict]:
    """Every text of the corpus under every option set, in this process."""
    from repro.algebra.evaluator import evaluate
    from repro.session import Session

    records = []
    for stream, seed, db, group in corpus(texts, seeds, fixed):
        truth = {}
        for name in OPTION_SETS:
            long_lived = Session(db, cache_results=False) if streamed else None
            for text in group:
                session = Session(db, cache_results=False)
                explain, plan, rows, in_flight = run_text(session, text, name)
                if text not in truth:
                    truth[text] = digest(evaluate(session.parse(text), db))
                record = {
                    "stream": stream, "seed": seed, "options": name,
                    "text": text, "explain": explain, "rows": digest(rows),
                    "joins": sum(
                        type(node).__name__ in JOIN_OPERATORS
                        for node in plan.nodes()
                    ),
                    "in_flight": in_flight,
                }
                record["correct"] = record["rows"] == truth[text]
                session.close()
                if long_lived is not None:
                    streamed_explain, __, rows, __ = run_text(
                        long_lived, text, name
                    )
                    record["streamed"] = streamed_explain
                    record["correct"] &= digest(rows) == truth[text]
                records.append(record)
            if long_lived is not None:
                long_lived.close()
    return records


def render_checkout(checkout: Path, args) -> list[dict]:
    """:func:`render` in a fresh process on ``checkout``'s code."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "census.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--render",
            str(out), "--texts", str(args.texts),
            "--seeds", *map(str, args.seeds),
        ]
        command += ["--streamed"] if args.streamed else []
        command += ["--no-fixed"] if args.no_fixed else []
        done = subprocess.run(
            command, cwd=checkout, capture_output=True, text=True,
            check=False,
        )
        if done.returncode != 0:
            raise SystemExit(
                f"plan_census: rendering {checkout} failed "
                f"(exit {done.returncode})\n{done.stderr[-3000:]}"
            )
        return json.loads(out.read_text())


def key(record: dict) -> tuple:
    return record["stream"], record["seed"], record["options"], record["text"]


def census(records: list[dict]) -> dict:
    """Per stream and seed, default options: texts, texts that plan a
    join node, and the ``max_in_flight`` sum."""
    table: dict = {}
    for record in records:
        if record["options"] != "default":
            continue
        row = table.setdefault((record["stream"], record["seed"]), [0, 0, 0])
        row[0] += 1
        row[1] += record["joins"] > 0
        row[2] += record["in_flight"]
    return table


def leaks(records: list[dict]) -> dict:
    """Per stream, seed and option set: texts whose streamed explain
    differs from the fresh one."""
    found: dict = {}
    for record in records:
        if "streamed" in record and record["streamed"] != record["explain"]:
            found.setdefault(key(record)[:3], []).append(record["text"])
    return found


def report(change: list[dict], parent: list[dict] | None = None) -> int:
    """Print the Markdown report; 1 when any row set is wrong."""
    status = 0
    sides = {"change": change} if parent is None else {
        "parent": parent, "change": change
    }
    print("| stream | seed | texts | "
          + " | ".join(f"plan a join, {s} | in flight, {s}" for s in sides)
          + " |")
    print("|---" * (3 + 2 * len(sides)) + "|")
    tables = {side: census(records) for side, records in sides.items()}
    for group in tables["change"]:
        cells = []
        for side in sides:
            texts, joins, flight = tables[side].get(group, (0, 0, 0))
            cells += [str(joins), str(flight)]
        print(f"| {group[0]} | {group[1]} | {tables['change'][group][0]} | "
              + " | ".join(cells) + " |")
    for side, records in sides.items():
        wrong = [r for r in records if not r["correct"]]
        print(f"\n{side}: {len(records)} runs, {len(wrong)} with rows "
              "other than `evaluate`'s.")
        for record in wrong:
            print(f"- wrong rows: {key(record)}")
            status = 1
        found = leaks(records)
        if any("streamed" in r for r in records):
            total = sum(map(len, found.values()))
            print(f"{side}: {total} streamed explains differ from the "
                  "fresh one.")
            for group, texts in sorted(found.items()):
                print(f"- {group[0]}, seed {group[1]}, {group[2]}: "
                      f"{len(texts)} texts")
    if parent is None:
        return status
    before = {key(r): r for r in parent}
    moved, streamed_moved, rows_moved = [], [], []
    for record in change:
        old = before.get(key(record))
        if old is None:
            continue
        if old["explain"] != record["explain"]:
            moved.append(record)
        if old.get("streamed") != record.get("streamed"):
            streamed_moved.append(record)
        if old["rows"] != record["rows"]:
            rows_moved.append(record)
            status = 1
    print(f"\n{len(rows_moved)} texts return other rows than the parent's.")
    sections = [("Moved (fresh explain)", moved)]
    if any("streamed" in r for r in change):
        sections.append(("Moved (streamed explain)", streamed_moved))
    for title, records in sections:
        print(f"\n### {title}: {len(records)} texts\n")
        if records:
            print("| stream | seed | options | joins, parent → change "
                  "| text |")
            print("|---" * 5 + "|")
        for record in records:
            print(f"| {record['stream']} | {record['seed']} | "
                  f"{record['options']} | {before[key(record)]['joins']} → "
                  f"{record['joins']} | `{record['text']}` |")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=HERE)
    parser.add_argument("--texts", type=int, default=1500)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 31])
    parser.add_argument("--streamed", action="store_true")
    parser.add_argument("--no-fixed", action="store_true")
    parser.add_argument("--render", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.render is not None:
        sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd())]
        records = render(
            args.texts, args.seeds, not args.no_fixed, args.streamed
        )
        args.render.write_text(json.dumps(records))
        return 0
    change = render_checkout(args.change.resolve(), args)
    parent = (
        render_checkout(args.parent.resolve(), args)
        if args.parent is not None else None
    )
    return report(change, parent)


if __name__ == "__main__":
    sys.exit(main())
