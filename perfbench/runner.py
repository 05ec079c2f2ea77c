"""``run``: every workload, several rounds, one ``results.json``.

Workloads run **round-robin** (w1..w6, w1..w6, …) so slow drift of the
host lands on all of them alike, each workload-round in a **fresh
subprocess** (``python3 -m perfbench measure``: isolated caches, pools
and RSS).  After the untraced rounds comes one traced round, and — for
the single-thread workloads — one traced repeat whose only use is the
exact-count check.  End-to-end values are reported as the median over
rounds with min..max beside it; per-layer values come from the traced
round.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from perfbench.catalog import (
    END_TO_END,
    FAILED_RATIO,
    PER_LAYER,
    RUN_SECONDS,
    SETUP_REPEATS,
    WORKLOADS,
)
from perfbench.measure import op_count
from perfbench.workloads import WORKLOAD_CLASSES, workers

__all__ = ["run"]

ROOT = Path(__file__).resolve().parent.parent
#: Share of the full op counts a ``--smoke`` run executes.
SMOKE_SHARE = 0.05


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _host() -> dict:
    from repro.engine.parallel import available_cpus

    return {
        "available_cpus": available_cpus(),
        "os_cpu_count": os.cpu_count(),
        "pool_workers": workers(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min_start": os.getloadavg()[0],
    }


def _measure(
    name: str, seed: int, ops: int, trace: bool, detail: Path, setups: int
):
    """One ``measure`` subprocess; returns its detail record."""
    command = [
        sys.executable, "-m", "perfbench", "measure",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(int(trace)),
        "--ops", str(ops), "--setups", str(setups),
        "--detail", str(detail),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    if done.stderr:
        sys.stderr.write(done.stderr)
    record = json.loads(detail.read_text())
    detail.unlink()
    return record


def _summary(values: list[float], unit: str) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "unit": unit,
        "rounds": values,
    }


def run(args) -> int:
    names = args.workload or [info.name for info in WORKLOADS]
    rounds = 1 if args.smoke else args.rounds
    out = Path(args.out or tempfile.mkdtemp(prefix="perfbench-"))
    out.mkdir(parents=True, exist_ok=True)
    ops = {}
    for name in names:
        full = op_count(name, RUN_SECONDS)
        cycle = WORKLOAD_CLASSES[name].cycle
        ops[name] = (
            max(2 * cycle, int(full * SMOKE_SHARE) // cycle * cycle)
            if args.smoke else full
        )  # two cycles at least: the traced passes run half each
    host = _host()
    started = time.time()

    # (kind, workload) in execution order: untraced rounds round-robin,
    # the traced round, then the traced repeat of the single-thread
    # workloads (only for the exact-count check).
    jobs = [("plain", name) for _ in range(rounds) for name in names]
    jobs += [("traced", name) for name in names]
    if not args.smoke:
        jobs += [
            ("repeat", name) for name in names
            if WORKLOAD_CLASSES[name].clients == 1
        ]
    with tempfile.TemporaryDirectory(prefix="perfbench-") as scratch_dir:

        def job(indexed):
            index, (kind, name) = indexed
            return _measure(
                name, args.seed, ops[name], kind != "plain",
                Path(scratch_dir) / f"{index}.json",
                setups=1 if args.smoke else SETUP_REPEATS,
            )

        # A measuring run has the host to itself, one process at a time;
        # a smoke run only checks that everything is emitted, two at once.
        with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
            records = list(pool.map(job, enumerate(jobs)))
    plain: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    repeat: dict[str, dict] = {}
    for (kind, name), record in zip(jobs, records):
        if kind == "plain":
            plain[name].append(record)
        else:
            (traced if kind == "traced" else repeat)[name] = record

    exact_names = [layer.name for layer in PER_LAYER if layer.exact]
    results: dict[str, dict] = {}
    problems: list[str] = []
    for name in names:
        records = plain[name] + [traced[name]] + (
            [repeat[name]] if name in repeat else []
        )
        attempted = sum(r["line"]["attempted"] for r in records)
        failed = sum(r["line"]["failed"] for r in records)
        end_to_end = {
            metric.name: _summary(
                [r["line"]["metrics"][metric.name]["value"]
                 for r in plain[name]],
                metric.unit,
            )
            for metric in END_TO_END
        }
        end_to_end[FAILED_RATIO] = _summary(
            [r["line"]["failed"] / r["line"]["attempted"]
             for r in plain[name]],
            "ratio",
        )
        layers = traced[name]["line"]["metrics"]
        info = traced[name]["info"]
        exact = {}
        if name in repeat:
            again = repeat[name]["line"]["metrics"]
            for metric in exact_names:
                pair = [layers[metric]["value"], again[metric]["value"]]
                exact[metric] = {"held": pair[0] == pair[1], "values": pair}
        results[name] = {
            "ops": ops[name],
            "traced_ops": info["traced_ops"],
            "input_rows": traced[name]["input_rows"],
            "attempted": attempted,
            "failed": failed,
            "failed_reasons": [
                reason for r in records for reason in r["failed_reasons"]
            ][:5],
            "oracle_s": statistics.median(
                r["info"]["oracle_s"] for r in records
            ),
            #: Real ÷ nominal time of each untraced round's timed phase.
            "host_pace": [r["info"]["host_pace"] for r in plain[name]],
            "end_to_end": end_to_end,
            "per_layer": layers,
            "checks": info["checks"],
            "dominance": info["dominance"],
            "overhead_flagged": info["overhead_flagged"],
            "exact": exact,
        }
        if failed:
            problems.append(f"{name}: {failed} of {attempted} ops failed")
        for check, held in info["checks"].items():
            if not held:
                problems.append(f"{name}: trace check {check} violated")
        dominance = info["dominance"]
        if dominance is not None and not dominance["ok"]:
            problems.append(
                f"{name}: {' + '.join(dominance['spans'])} is "
                f"{dominance['share']:.2f} of op time, below the "
                f"{dominance['floor']} that justifies the workload"
            )
        for metric, outcome in exact.items():
            if not outcome["held"]:
                problems.append(
                    f"{name}: exact metric {metric} differed between "
                    f"traced rounds: {outcome['values']}"
                )

    host["loadavg_1min_end"] = os.getloadavg()[0]
    document = {
        "schema": 1,
        "provenance": {
            "seed": args.seed,
            "rounds": rounds,
            "smoke": bool(args.smoke),
            "run_seconds": RUN_SECONDS,
            "git_commit": _git_commit(),
            "started_unix": started,
            "elapsed_s": time.time() - started,
            "ops": ops,
        },
        "host": host,
        "workloads": results,
        "problems": problems,
        "claim": None,
    }
    (out / "results.json").write_text(json.dumps(document, indent=1) + "\n")
    (out / "trace.json").write_text(
        json.dumps(
            {
                "span_fields": [
                    "id", "name", "start", "end", "parent", "op",
                    "thread", "n",
                ],
                "workloads": {
                    name: {
                        "wrapped": traced[name]["info"]["wrapped"],
                        "spans_produced": traced[name]["info"][
                            "spans_produced"
                        ],
                        "spans": traced[name]["spans"],
                    }
                    for name in names
                },
            }
        )
        + "\n"
    )

    for name in names:
        record = results[name]
        for metric, summary in record["end_to_end"].items():
            print(
                f"{name:18s} {metric:34s} {summary['median']:14.4f} "
                f"{summary['unit']:8s} [{summary['min']:.4f} .. "
                f"{summary['max']:.4f}]"
            )
        for metric, value in record["per_layer"].items():
            flag = ""
            if metric == "trace.overhead_ratio" and record[
                "overhead_flagged"
            ]:
                flag = "  FLAG: tracing overhead above 1.25"
            print(
                f"{name:18s} {metric:34s} {value['value']:14.4f} "
                f"{value['unit']:8s}{flag}"
            )
    for problem in problems:
        print(f"perfbench: PROBLEM {problem}", file=sys.stderr)
    print(f"results: {out / 'results.json'}")
    print(f"trace:   {out / 'trace.json'}")
    print('"claim": null')
    return 1 if problems else 0
