"""``tools/plan_census.py`` on two stand-in checkouts.

The parent stand-in is a copy of this tree's ``src/`` whose planner
rewrites nothing before planning, so its fresh-query plans keep every
join; the change stand-in is this tree.  A dozen texts per stream show
that the census renders each checkout with its own code, counts the
texts that plan a join and the texts that plan each counted operator,
lists the texts that moved, and checks every row set against
``evaluate``.  The report's bookkeeping is checked on hand-made
records too.  The full census is not run here.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    path = ROOT / "tools" / "plan_census.py"
    spec = importlib.util.spec_from_file_location("plan_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, rewrites: bool) -> Path:
    """A checkout of this tree; without ``rewrites`` the planner's
    front-end walk returns every expression as written."""
    root.mkdir(parents=True)
    (root / "perfbench").symlink_to(ROOT / "perfbench")
    if rewrites:
        (root / "src").symlink_to(ROOT / "src")
        return root
    shutil.copytree(
        ROOT / "src", root / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    optimize = root / "src" / "repro" / "algebra" / "optimize.py"
    optimize.write_text(
        optimize.read_text()
        + "\n\ndef rewrite(expr, *args, **kwargs):\n    return expr\n"
    )
    return root


def table(out: str) -> dict:
    """The census table's rows: (stream, seed) → the other cells."""
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 7 and cells[1].isdigit():
            rows[cells[0], int(cells[1])] = [int(c) for c in cells[2:]]
    return rows


def operator_table(out: str) -> dict:
    """The operator table's rows: (options, side) → the counts."""
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 7 and cells[1] in ("parent", "change"):
            rows[cells[0], cells[1]] = [int(c) for c in cells[2:]]
    return rows


def test_two_checkouts_render_apart_and_the_moved_texts_are_listed(
    tmp_path, capsys
):
    parent = checkout(tmp_path / "parent", rewrites=False)
    change = checkout(tmp_path / "change", rewrites=True)
    status = load_tool().main([
        "--parent", str(parent), "--change", str(change),
        "--texts", "12", "--seeds", "7", "--no-fixed", "--streamed",
    ])
    out = capsys.readouterr().out
    assert status == 0, out
    rows = table(out)
    assert set(rows) == {("adhoc_tiny", 7), ("serving", 7)}
    for texts, joins_before, __, joins_after, __ in rows.values():
        # Filter joins plan as semijoins only on the change's side.
        assert texts == 12 and joins_after < joins_before
    assert "0 with rows other than `evaluate`'s" in out
    assert "0 texts return other rows than the parent's" in out
    assert out.count("0 streamed explains differ from the fresh one") == 2
    moved = [
        line for line in out.splitlines() if line.startswith("| adhoc_tiny")
        and "`" in line
    ]
    assert moved and all(" → " in line for line in moved)
    counted = operator_table(out)
    assert set(counted) == {
        (name, side)
        for name in ("default", "no_stats", "no_multiway", "budget_50",
                     "pooled")
        for side in ("parent", "change")
    }
    # DivisionOp, HashJoinOp, eq_loops, MultiwayJoinOp, PartitionedOp
    for name in ("default", "no_stats"):
        parent_row, change_row = counted[name, "parent"], counted[name, "change"]
        assert parent_row[1] > change_row[1]  # hash joins became semijoins
    assert all(row[2] == 0 for row in counted.values())


def record(text, options="default", **fields):
    base = {
        "stream": "adhoc_tiny", "seed": 7, "options": options,
        "text": text, "explain": "Scan R", "rows": "a", "joins": 0,
        "kinds": ["ScanOp"], "eq_loops": 0, "in_flight": 3, "correct": True,
    }
    return {**base, **fields}


def test_the_report_counts_joins_leaks_and_wrong_rows(capsys):
    tool = load_tool()
    parent = [
        record("t1", joins=1, in_flight=10,
               kinds=["HashJoinOp", "PartitionedOp", "ScanOp"]),
        record("t2", streamed="Scan R"),
        record("t2", options="no_stats", streamed="Scan R"),
    ]
    change = [
        record("t1", explain="Semijoin", in_flight=4),
        record("t2", streamed="Scan R  -- a note from an earlier text",
               kinds=["DivisionOp", "NestedLoopJoinOp"], eq_loops=2),
        record("t2", options="no_stats", rows="b", correct=False,
               streamed="Scan R"),
    ]
    assert tool.report(change, parent) == 1
    out = capsys.readouterr().out
    assert table(out) == {("adhoc_tiny", 7): [2, 1, 13, 0, 7]}
    assert "- wrong rows: ('adhoc_tiny', 7, 'no_stats', 't2')" in out
    assert "change: 1 streamed explains differ from the fresh one." in out
    assert "parent: 0 streamed explains differ" in out
    assert "1 texts return other rows than the parent's." in out
    assert "### Moved (fresh explain): 1 texts" in out
    assert "| adhoc_tiny | 7 | default | 1 → 0 | `t1` |" in out
    assert "### Moved (streamed explain): 1 texts" in out
    assert operator_table(out) == {
        ("default", "parent"): [0, 1, 0, 0, 1],
        ("no_stats", "parent"): [0, 0, 0, 0, 0],
        ("default", "change"): [1, 0, 1, 0, 0],
        ("no_stats", "change"): [0, 0, 0, 0, 0],
    }
