"""Docs health check: links resolve, CLI flags exist, examples run.

Three checks, runnable together (the CI docs step) or separately:

* ``check_links()`` — every *intra-repo* link in the repository's
  markdown files (``README.md``, ``docs/*.md``, and the other
  top-level ``*.md``) must point at an existing file or directory.
  External links (``http(s)://``, ``mailto:``) and pure anchors
  (``#section``) are skipped; an anchor suffix on a file link is
  stripped before the existence check.
* ``check_cli_flags()`` — every ``--flag`` written after ``repro
  <subcommand>`` (or ``python -m repro <subcommand>``) on one line of
  ``README.md``, ``docs/*.md`` or the verify skill must be an option
  that :func:`repro.cli.build_parser` accepts for that subcommand.  A
  flag counts up to the end of its line or inline code span.
* ``run_examples()`` — every ``examples/*.py`` script (the de-facto
  tutorials) must exit 0 when run with ``PYTHONPATH=src``.

Usage::

    python tools/check_docs.py             # all three checks
    python tools/check_docs.py --links     # links and CLI flags only
    python tools/check_docs.py --examples  # examples only

Exit status 0 iff everything passes; failures are listed one per line.
``tests/test_docs_links.py`` runs the link and flag checks in tier-1
as well, so a broken link or a stale flag fails fast locally, not only
in the CI docs job.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Inline markdown links ``[text](target)``; images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Fenced code blocks and inline code spans: RA syntax like
#: ``project[1](R join[2=1] S)`` is link-shaped, so code is stripped
#: before link extraction.
_FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.M | re.S)
_CODE_SPAN = re.compile(r"`[^`\n]*`")


def markdown_files() -> list[Path]:
    files = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def intra_repo_targets(text: str) -> list[str]:
    """Link targets that should resolve to paths inside the repo."""
    text = _CODE_SPAN.sub("", _FENCE.sub("", text))
    out = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        out.append(target)
    return out


def check_links() -> list[str]:
    """All broken intra-repo links, as ``file: target`` strings."""
    broken: list[str] = []
    for md in markdown_files():
        text = md.read_text(encoding="utf-8")
        for target in intra_repo_targets(text):
            path = target.partition("#")[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                broken.append(f"{md.relative_to(REPO)}: {target}")
    return broken


#: ``repro <subcommand>``, also as ``python -m repro <subcommand>``;
#: ``repro.bench`` and ``src/repro/...`` paths do not match.
_INVOCATION = re.compile(r"(?<![\w./-])repro\s+([a-z]+)\b")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def cli_doc_files() -> list[Path]:
    """The documents whose command lines must match the CLI."""
    files = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    files.append(REPO / ".claude" / "skills" / "verify" / "SKILL.md")
    return [f for f in files if f.is_file()]


def cli_options() -> dict[str, set[str]]:
    """``{subcommand: its option strings}`` from the real parser."""
    src = str(REPO / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.cli import build_parser

    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: set(parser._option_string_actions)
        for name, parser in subcommands.choices.items()
    }


def stale_flags(line: str, options: dict[str, set[str]]) -> list[str]:
    """``subcommand --flag`` for every flag on ``line`` its subcommand
    lacks; a flag belongs to the nearest invocation before it."""
    invocations = [
        m for m in _INVOCATION.finditer(line) if m.group(1) in options
    ]
    ends = [m.start() for m in invocations[1:]] + [len(line)]
    return [
        f"{match.group(1)} {flag}"
        for match, end in zip(invocations, ends)
        for flag in _FLAG.findall(line[match.end():end].partition("`")[0])
        if flag not in options[match.group(1)]
    ]


def check_cli_flags() -> list[str]:
    """Stale CLI flags in the docs, as ``file:line: sub --flag``."""
    options = cli_options()
    stale = []
    for doc in cli_doc_files():
        lines = doc.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            stale += [
                f"{doc.relative_to(REPO)}:{number}: {flag}"
                for flag in stale_flags(line, options)
            ]
    return stale


def run_examples() -> tuple[int, list[str]]:
    """(scripts run, failures as ``script: exit N`` strings).

    The count lets callers fail when *zero* scripts were found — a
    renamed or emptied ``examples/`` must not pass vacuously.
    """
    ran = 0
    failures: list[str] = []
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    for script in sorted((REPO / "examples").glob("*.py")):
        ran += 1
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            failures.append(
                f"{script.relative_to(REPO)}: exit {proc.returncode}\n"
                f"{proc.stderr.strip()}"
            )
    return ran, failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    do_links = "--examples" not in args
    do_examples = "--links" not in args
    problems: list[str] = []
    if do_links:
        broken = check_links()
        problems += [f"broken link — {b}" for b in broken]
        print(f"links: {len(markdown_files())} markdown file(s), "
              f"{len(broken)} broken link(s)")
        stale = check_cli_flags()
        problems += [f"stale CLI flag — {s}" for s in stale]
        print(f"cli flags: {len(cli_doc_files())} file(s), "
              f"{len(stale)} stale flag(s)")
    if do_examples:
        ran, failed = run_examples()
        problems += [f"example failed — {f}" for f in failed]
        if ran == 0:
            problems.append("example failed — no examples/*.py found")
        print(f"examples: {ran} script(s), {len(failed)} failure(s)")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
