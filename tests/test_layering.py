"""The package graph is a DAG:

    data / algebra / logic / core / bisim / setjoins / extended / workloads
        ←  engine  ←  session  ←  serve

The paper layers state and check the paper's results on expressions *as
written*; nothing in them may import the planner, a ``Session``, the
storage backends or the server — not even lazily on the ``evaluate``
path.  ``workloads`` sits with them: its generators and serving
traffic are data that every layer above may read.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PAPER_LAYERS = (
    "algebra",
    "core",
    "bisim",
    "logic",
    "setjoins",
    "extended",
    "data",
    "workloads",
)

#: Imports every paper layer and the serving traffic, answers one
#: division with each of the three oracles, and prints each loaded
#: module that belongs to a layer above them.
PROBE = """
import sys
from repro import %s
import repro.workloads.serving
from repro.algebra.evaluator import evaluate
from repro.algebra.reference import evaluate_reference
from repro.data.database import database
from repro.setjoins.division import (
    classic_division_expr, divide_reference, divide_reference_eq,
)

db = database({"R": 2, "S": 1}, R=[(1, 7), (2, 8)], S=[(7,)])
assert evaluate(classic_division_expr(), db) == {(1,)}
assert evaluate_reference(classic_division_expr(), db) == {(1,)}
assert divide_reference(db["R"], db["S"]) == {1}
assert divide_reference_eq(db["R"], db["S"]) == {1}
for module in sorted(sys.modules):
    if module.startswith("repro.") and module.split(".")[1] in (
        "engine", "session", "storage", "serve"
    ):
        print(module)
""" % ", ".join(PAPER_LAYERS)

UPWARD_IMPORT = re.compile(
    r"^\s*(?:from|import)\s+repro\.(?:engine|session|storage|serve)\b"
    r"|^\s*from\s+repro\s+import\b",
    re.MULTILINE,
)


def test_paper_layers_evaluate_without_loading_the_engine():
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []


def test_paper_layers_contain_no_upward_import():
    offenders = [
        f"{path.relative_to(SRC)}: {match.group(0).strip()}"
        for layer in PAPER_LAYERS
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for match in UPWARD_IMPORT.finditer(path.read_text())
    ]
    assert offenders == []


def test_only_the_engine_operators_use_the_kernels():
    """The oracles keep their own naive loops.

    ``evaluate``, ``evaluate_reference`` and ``divide_reference*`` are
    what the differential suites compare the engine against; sharing
    :mod:`repro.engine.kernels` with it would make both sides of every
    comparison one implementation.  ``engine/wcoj.py`` takes its
    binding-to-row mapper from there and nothing from the executor.
    """
    mention = re.compile(r"^\s*(?:from|import)\s.*\bkernels\b", re.MULTILINE)
    importers = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in (SRC / "repro").rglob("*.py")
        if mention.search(path.read_text())
    )
    assert importers == [
        "engine/executor.py",
        "engine/partition.py",
        "engine/wcoj.py",
    ]
    wcoj = (SRC / "repro" / "engine" / "wcoj.py").read_text()
    assert not re.search(
        r"^\s*(?:from|import)\s.*\bexecutor\b", wcoj, re.MULTILINE
    )


def test_every_planner_option_is_read_by_a_benchmark():
    """A planner knob stays only while a measurement reads it.

    Each field multiplies the option lattice the differential suites
    must cover, so one that neither ``perfbench/`` nor a
    ``benchmarks/`` claim names has no measured reason to exist; and
    the four there are stay four.
    """
    from dataclasses import fields

    from repro.engine.planner import PlannerOptions

    root = SRC.parent
    corpus = "\n".join(
        path.read_text()
        for folder in ("benchmarks", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))
    )
    names = [field.name for field in fields(PlannerOptions)]
    assert len(names) == 4
    unread = [n for n in names if not re.search(rf"\b{n}\b", corpus)]
    assert unread == []


def test_the_planner_does_not_import_storage():
    """Storage is chosen where the executor is built, not planned."""
    planner = (SRC / "repro" / "engine" / "planner.py").read_text()
    assert not re.search(
        r"^\s*(?:from|import)\s+repro\.storage\b", planner, re.MULTILINE
    )


def test_nothing_in_src_maps_files():
    """Storage has two placements, inline bytes and a shm segment.

    ``repro.storage.mmapio`` survives only as an empty module that
    ``perfbench`` imports by name; no module under ``src/repro`` may
    import it, or ``mmap`` itself.
    """
    mapping = re.compile(
        r"^\s*(?:import\s+mmap\b|from\s+mmap\s+import\b"
        r"|(?:from|import)\s+repro\.storage\.mmapio\b"
        r"|from\s+repro\.storage\s+import\s[^\n]*\bmmapio\b)",
        re.MULTILINE,
    )
    importers = sorted(
        str(path.relative_to(SRC / "repro"))
        for path in (SRC / "repro").rglob("*.py")
        if mapping.search(path.read_text())
    )
    assert importers == []
