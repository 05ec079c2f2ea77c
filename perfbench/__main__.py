"""Command line: ``python3 -m perfbench measure|run|compare``."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _use_checkout_sources() -> None:
    """Measure this checkout's ``src/``, wherever the command runs from."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(
            f"perfbench: no engine sources at {source}; run from a full "
            "checkout of the repository"
        )
    sys.path.insert(0, str(source))


def _measure(args) -> int:
    _use_checkout_sources()
    if not args.here:
        from perfbench.supervise import supervise

        return supervise(
            [sys.executable, "-m", "perfbench", *args.argv, "--here"], ROOT
        )
    start = time.perf_counter()
    from perfbench.measure import measure

    imported = (start, time.perf_counter())
    line, detail = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        imported=imported,
        ops=args.ops,
        setups=args.setups,
    )
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    for reason in detail["failed_reasons"]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def _run(args) -> int:
    _use_checkout_sources()
    from perfbench.runner import run

    return run(args)


def _compare(args) -> int:
    from perfbench.compare import compare

    return compare(args.before, args.after)


def main(argv: list[str] | None = None) -> int:
    from perfbench.catalog import RUN_SECONDS, SETUP_REPEATS, WORKLOADS

    names = [info.name for info in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser(
        "measure",
        help="one workload in one fresh process; prints one JSON line "
        "(the BENCHMARK.json protocol)",
    )
    one.add_argument("--workload", required=True, choices=names)
    one.add_argument("--seed", type=int, default=11)
    one.add_argument("--seconds", type=float, default=RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument(
        "--ops", type=int, default=None,
        help="timed op count (default: derived from --seconds)",
    )
    one.add_argument(
        "--setups", type=int, default=SETUP_REPEATS,
        help="set-ups whose median is setup_s (untraced runs)",
    )
    one.add_argument(
        "--detail", default=None,
        help="also write op counts, checks and spans to this JSON file",
    )
    one.add_argument(
        "--here", action="store_true",
        help="measure in this very process; without it the command "
        "starts itself again with --here, then waits for every process "
        "that run leaves behind (perfbench.supervise)",
    )
    one.set_defaults(handler=_measure)

    many = commands.add_parser(
        "run",
        help="every workload round-robin in fresh subprocesses, then "
        "one traced round; writes results.json and trace.json",
    )
    many.add_argument("--seed", type=int, default=11)
    many.add_argument("--rounds", type=int, default=3)
    many.add_argument("--workload", action="append", choices=names)
    many.add_argument(
        "--out", default=None,
        help="output directory (default: a fresh temporary directory)",
    )
    many.add_argument(
        "--smoke", action="store_true",
        help="1 round at ~5%% of the op counts, traced round included",
    )
    many.set_defaults(handler=_run)

    judge = commands.add_parser(
        "compare", help="judge two results.json files, metric by metric"
    )
    judge.add_argument("before")
    judge.add_argument("after")
    judge.set_defaults(handler=_compare)

    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    args.argv = argv
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
