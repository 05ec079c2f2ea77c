"""``compare``: judge two ``results.json`` files, metric by metric.

One row per (workload, end-to-end metric): both medians, both min..max
spreads, the ratio with its base, and a verdict —

* ``unresolved`` when either side's run-to-run spread
  (``(max - min) / median`` over its rounds) is wider than the metric's
  bound: the rounds cannot tell a change of that size from noise;
* ``worse`` / ``better`` when the second median is beyond the bound on
  the bad / good side of the first;
* ``same`` otherwise.

``failed_ratio`` has no relative bound: any rise is ``worse``.  The
exit status is non-zero on any ``worse``; files whose seed, op counts
or CPU count differ measure different things and are refused.
"""

from __future__ import annotations

import json
import sys

from perfbench.catalog import END_TO_END, FAILED_RATIO

__all__ = ["compare", "verdict"]


def _spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["max"] - summary["min"]) / median if median else 0.0


def verdict(before: dict, after: dict, better: str, bound: float) -> str:
    """The verdict for one metric given both sides' round summaries."""
    if max(_spread(before), _spread(after)) > bound:
        return "unresolved"
    base = before["median"]
    change = (after["median"] - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _refusal(before: dict, after: dict) -> str | None:
    for field in ("seed", "ops"):
        if before["provenance"][field] != after["provenance"][field]:
            return (
                f"{field} differs: {before['provenance'][field]} vs "
                f"{after['provenance'][field]}"
            )
    cpus = [doc["host"]["available_cpus"] for doc in (before, after)]
    if cpus[0] != cpus[1]:
        return f"available_cpus differs: {cpus[0]} vs {cpus[1]}"
    return None


def compare(before_path: str, after_path: str) -> int:
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    refusal = _refusal(before, after)
    if refusal is not None:
        print(f"perfbench compare: refused, {refusal}", file=sys.stderr)
        return 2
    worse = 0
    print(
        f"{'workload':18s} {'metric':17s} {'before':>12s} {'spread':>7s} "
        f"{'after':>12s} {'spread':>7s} {'after/before':>13s}  verdict"
    )
    for name, record in before["workloads"].items():
        other = after["workloads"].get(name)
        if other is None:
            continue
        for metric in END_TO_END:
            a = record["end_to_end"][metric.name]
            b = other["end_to_end"][metric.name]
            outcome = verdict(a, b, metric.better, metric.bound)
            worse += outcome == "worse"
            ratio = b["median"] / a["median"] if a["median"] else 0.0
            print(
                f"{name:18s} {metric.name:17s} {a['median']:12.4f} "
                f"{_spread(a):7.3f} {b['median']:12.4f} {_spread(b):7.3f} "
                f"{ratio:6.3f} of {a['median']:<.4g} {metric.unit:6s} "
                f"{outcome}"
            )
        a = record["end_to_end"][FAILED_RATIO]["max"]
        b = other["end_to_end"][FAILED_RATIO]["max"]
        outcome = "worse" if b > a else "same"
        worse += outcome == "worse"
        print(
            f"{name:18s} {FAILED_RATIO:17s} {a:12.4f} {'':7s} {b:12.4f} "
            f"{'':7s} {'':13s}  {outcome}"
        )
    return 1 if worse else 0
