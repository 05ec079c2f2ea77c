#!/usr/bin/env python3
"""Alternating A/B pairs of ``python3 -m perfbench measure``.

A performance claim counts only against the parent commit, measured in
pairs: the same ``measure`` command run once in a checkout of the
parent and once in a checkout of the change, back to back, with the
same fresh seed, and with the side that goes first alternating from
pair to pair.  This script runs those pairs and prints, as Markdown:

* one row per run — the seed, the side, each of the six end-to-end
  metrics, ``correct`` and ``failed``;
* one row per metric — the two medians, the median's change in
  percent, the pairs in which the change reads better (ties count for
  neither side), the parent's interquartile range, whether the medians
  differ by more than it, and the metric's bound.

The metric names, their direction and their bounds come from the
change checkout's ``BENCHMARK.json``.  Each run's figures are the JSON
line ``measure`` prints last; nothing under ``perfbench/`` is read or
written.  Run nothing else meanwhile: two measurements on one host
slow each other down.

Usage (from any directory)::

    python3 tools/perf_pairs.py --parent ../parent --workload division_warm \\
        --pairs 10 --seed 401 [--change .] [--seconds 12] [--json runs.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def measure(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One ``measure`` run in ``checkout``: its JSON line, with each
    metric's value lifted to the top level."""
    command = [
        sys.executable, "-m", "perfbench", "measure",
        "--workload", workload, "--seed", str(seed),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("{"):
            parsed = json.loads(line)
            values = {
                name: metric["value"]
                for name, metric in parsed.pop("metrics").items()
            }
            return {**parsed, **values}
    raise SystemExit(
        f"perf_pairs: no JSON line from {checkout} (exit {done.returncode})"
        f"\n{done.stderr[-2000:]}"
    )


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list:
    """Per metric: medians, Δ %, wins/pairs, parent IQR, resolved, bound."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p[name] for p, __ in pairs]
        change = [c[name] for __, c in pairs]
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        before, after = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        delta = (after - before) / before * 100 if before else 0.0
        rows.append(
            (name, before, after, delta, wins, len(pairs), q3 - q1,
             abs(after - before) > q3 - q1, metric["bound"])
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=HERE)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed; pair i runs seed + i")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--json", type=Path,
                        help="also write every run's JSON line here")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    sides = {"parent": args.parent, "change": args.change}

    print(f"### `{args.workload}`, seeds {args.seed}–"
          f"{args.seed + args.pairs - 1}\n")
    print("| seed | side | " + " | ".join(names) + " | correct | failed |")
    print("|---" * (len(names) + 4) + "|")
    pairs, runs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            line = got[side] = measure(
                sides[side], args.workload, seed, args.seconds
            )
            runs.append({"seed": seed, "side": side, **line})
            cells = " | ".join(f"{line[n]:.4g}" for n in names)
            print(f"| {seed} | {side} | {cells} | {line.get('correct')} "
                  f"| {line.get('failed')} |", flush=True)
        pairs.append((got["parent"], got["change"]))
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")

    print("\n| metric | parent median | change median | Δ | change better"
          " | parent IQR | Δ > IQR | bound |")
    print("|---" * 8 + "|")
    for name, before, after, delta, wins, n, iqr, resolved, bound in (
        summary(metrics, pairs)
    ):
        print(f"| `{name}` | {before:.4g} | {after:.4g} | {delta:+.1f} % "
              f"| {wins}/{n} | {iqr:.3g} | {'yes' if resolved else 'no'} "
              f"| {bound:.0%} |")
    bad = [r for r in runs if not r.get("correct") or r.get("failed")]
    print(f"\n{len(runs)} runs, {len(bad)} incorrect or with failed ops.")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
