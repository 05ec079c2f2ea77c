"""The paper-claims suite covers every artifact of the paper, once.

Each figure, example and theorem-level claim the reproduction checks has
exactly one module under ``benchmarks/`` whose docstring starts
``"<ID> — "`` and has a ``Paper claim:`` paragraph; that module's plain
asserts are the claim's checks.
"""

import ast
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

ARTIFACT_IDS = (
    "FIG1", "FIG2", "FIG3", "FIG4", "FIG5", "FIG6",
    "EX3", "THM8", "THM17", "THM18", "PROP26",
    "ALG-DIV", "ALG-SCJ", "ALG-SEJ",
    "ENGINE",
)


def test_every_paper_artifact_has_one_claims_module_stating_its_claim():
    docstrings = {
        path.name: ast.get_docstring(ast.parse(path.read_text("utf-8"))) or ""
        for path in sorted(BENCHMARKS.glob("test_*.py"))
    }
    for artifact in ARTIFACT_IDS:
        modules = [
            name for name, doc in docstrings.items()
            if doc.startswith(f"{artifact} — ")
        ]
        assert len(modules) == 1, (artifact, modules)
        claim = docstrings[modules[0]].partition("\n\nPaper claim: ")[2]
        assert claim.partition("\n\n")[0].strip(), (artifact, modules[0])
