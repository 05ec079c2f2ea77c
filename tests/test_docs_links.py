"""Tier-1 wrapper around the docs link and CLI-flag checks.

``tools/check_docs.py`` is the CI docs step (links + CLI flags +
example runs); examples are already executed in-process by
``test_examples.py``, so this file only re-runs the cheap checks — a
broken intra-repo link or a flag the CLI no longer accepts in
``README.md`` or ``docs/`` fails the ordinary test suite, not just the
CI docs job.
"""

import importlib.util
from pathlib import Path

CHECKER = (
    Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
)


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist():
    checker = load_checker()
    names = {md.name for md in checker.markdown_files()}
    # The documentation suite the repository promises (ISSUE 4).
    assert {"README.md", "engine.md", "algorithms.md"} <= names


def test_intra_repo_markdown_links_resolve():
    checker = load_checker()
    assert checker.check_links() == []


def test_link_extraction_understands_the_syntax_variants():
    checker = load_checker()
    text = (
        "[a](docs/engine.md) [b](https://example.com) [c](#anchor) "
        "[d](../src/repro/engine/partition.py#L1) ![img](assets/x.png)"
    )
    assert checker.intra_repo_targets(text) == [
        "docs/engine.md",
        "../src/repro/engine/partition.py#L1",
        "assets/x.png",
    ]


def test_documented_cli_flags_exist():
    checker = load_checker()
    assert checker.check_cli_flags() == []


def test_a_stale_cli_flag_is_caught():
    checker = load_checker()
    options = checker.cli_options()
    stale = checker.stale_flags(
        "python -m repro eval -d db.json --no-costs --no-reorder-joins 'R'",
        options,
    )
    assert stale == ["eval --no-reorder-joins"]
    # A flag belongs to the nearest invocation before it, and stops at
    # the end of its inline code span.
    line = (
        "`repro eval --stats` and `repro optimize --ascii`, "
        "unlike `--no-engine`; `repro optimize --no-costs`"
    )
    assert checker.stale_flags(line, options) == ["optimize --no-costs"]
    assert checker.stale_flags("python -m repro.cli --list", options) == []


def test_an_invocation_of_a_missing_subcommand_is_caught():
    checker = load_checker()
    options = checker.cli_options()
    missing = ["frobnicate: no such subcommand"]
    assert checker.stale_flags(
        "PYTHONPATH=src python -m repro frobnicate FIG5", options
    ) == missing
    assert checker.stale_flags("  repro frobnicate --all", options) == missing
    # Prose that merely names the package is not an invocation.
    assert checker.stale_flags("from repro import Session", options) == []
    assert checker.stale_flags("`from repro import Session`", options) == []
    explain = "python -m repro explain --costs --schema 'R:2'"
    assert checker.stale_flags(explain, options) == []
    # The serving lab left the CLI: its old command lines are stale.
    assert checker.stale_flags(
        "python -m repro serve --scenario mutation_heavy", options
    ) == ["serve: no such subcommand"]
