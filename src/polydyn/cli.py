"""The polydyn command: check and run wiring programs.

    polydyn check FILE.wd                    print every violation or table error; exit 1 if any
    polydyn run FILE.wd [--steps N] [--json] compile, run, print the trace as CSV or JSON

run feeds a system with an open interface the whitespace-separated
inputs read from stdin (run_open), and runs a closed system, interface
y, for N steps (run_closed).  With --json the trace is printed as one
JSON document (trace_to_json) instead of CSV.  A file that cannot be
read or is not UTF-8, syntax errors, violations and run errors go to
stderr with exit status 1.  The package does not import this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from polydyn.core import Y
from polydyn.dynamics import run_closed, run_open
from polydyn.wiring import (
    WiringSyntaxError,
    compile_machines,
    compile_system,
    parse,
    validate,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydyn", description="Check and run .wd wiring programs."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    check = commands.add_parser("check", help="print the violations of a program")
    check.add_argument("file", type=Path)
    run = commands.add_parser("run", help="compile a program and print a run as CSV or JSON")
    run.add_argument("file", type=Path)
    run.add_argument(
        "--steps", type=int, default=10,
        help="steps of a closed system (default 10); an open one reads stdin",
    )
    run.add_argument("--json", action="store_true", help="print the trace as JSON, not CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = parse(args.file.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, WiringSyntaxError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    violations = validate(spec)["violations"]
    if args.command == "check":
        if not violations:
            # machine tables are checked only when they are compiled
            try:
                compile_machines(spec)
            except ValueError as exc:
                violations = [str(exc)]
        for v in violations:
            print(f"{args.file}: {v}")
        if not violations:
            print(f"{args.file}: ok")
        return 1 if violations else 0
    if violations:
        for v in violations:
            print(f"{args.file}: {v}", file=sys.stderr)
        return 1
    try:
        system, start = compile_system(spec)
        if system.interface == Y:
            trace = run_closed(system, args.steps, start)
        else:
            trace = run_open(system, sys.stdin.read().split(), start)
    except ValueError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    # the exports sit in dynamics' cold half, loaded only here
    from polydyn.dynamics import trace_to_csv, trace_to_json

    if args.json:
        print(json.dumps(trace_to_json(trace)))
    else:
        sys.stdout.write(trace_to_csv(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
