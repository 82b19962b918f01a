"""Command-line entry point.

    sedg run --config scenario.json [--seed N] [--schedule 0,2,1] [--out events.jsonl]
             [--format json|text]
    sedg explore --config scenario.json [--depth N] [--json]
    sedg demo --protocol v1|v2|v3

Exit codes: 0 success / no violations, 1 violations found, 2 config error
or other bad input (an unusable schedule, a --depth below 1, an unwritable
--out) or a stdout that its reader closed early.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import codec, harness


def _schedule(text: str) -> tuple[int, ...]:
    """Parse `0,2,1` into option indices; the empty string is the empty schedule."""
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated index list: {text!r}")


def _depth(text: str) -> int:
    """Parse a depth bound, which allows at least one choice."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if depth < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {depth}")
    return depth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedg",
        description="Run and adversarially explore the escrowed data-exchange protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario under the default schedule")
    run.add_argument("--config", required=True, help="path to a scenario JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--schedule",
        type=_schedule,
        default=(),
        help="option indices to take first, e.g. 0,2,1 (as `explore` prints them)",
    )
    run.add_argument("--out", default=None, help="write the event log (JSON lines) here")
    run.add_argument("--format", choices=("json", "text"), default="text")

    explore = sub.add_parser("explore", help="exhaustively explore schedules")
    explore.add_argument("--config", required=True, help="path to a scenario JSON file")
    explore.add_argument(
        "--depth", type=_depth, default=harness.DEPTH, help="scheduling-choice bound, at least 1"
    )
    explore.add_argument("--json", action="store_true", help="print one JSON object")

    demo = sub.add_parser("demo", help="narrated happy-path walkthrough")
    demo.add_argument("--protocol", choices=("v1", "v2", "v3"), required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = harness.config_from_file(args.config, args.seed)
            try:
                report = harness.run_scenario(config, args.schedule, log_path=args.out)
            except OSError as exc:
                print(f"error: cannot write the event log: {exc}", file=sys.stderr)
                return 2
            sys.stdout.write(harness.emit_report(report, args.format).decode("utf-8"))
            if args.format == "json":
                sys.stdout.write("\n")
            return 0

        if args.command == "explore":
            config = harness.config_from_file(args.config)
            started = time.perf_counter()
            result = harness.explore(config, depth=args.depth)
            wall_s = time.perf_counter() - started
            if args.json:
                summary = {
                    "schedules": result.schedules_explored,
                    "nodes_executed": result.nodes_executed,
                    "max_depth": result.max_depth,
                    "violations": [dataclasses.asdict(v) for v in result.violations],
                    "wall_s": wall_s,
                }
                print(codec.dumps(summary))
            else:
                print(
                    f"explored {result.schedules_explored} schedules "
                    f"(max depth {result.max_depth}): "
                    f"{len(result.violations)} violation(s)"
                )
                for violation in result.violations:
                    print(f"  {violation.prop}: {violation.detail}")
                    print(f"    schedule: {' | '.join(violation.schedule)}")
                    print(f"    replay: --schedule {','.join(map(str, violation.choices))}")
            return 1 if result.violations else 0

        harness.demo(args.protocol)  # argparse leaves `demo` as the only other command
        return 0
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except harness.ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # here, so a closed stdout raises where it is handled
    except BrokenPipeError:
        # Point fd 1 at devnull, so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
