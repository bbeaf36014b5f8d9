"""CLI for the invariant lint suite: ``python -m repro.analysis``.

One whole-program pass: parse every file under the given paths, build
the one :class:`~repro.analysis.flow.project.Project`, run every (or
the ``--select``-ed) rule, print text or JSON.  ``repro analyze`` hands
its arguments to :func:`main` unchanged, so the options below are
declared exactly once.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors (unknown option or rule selector, unreadable path).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from ..errors import AnalysisError
from .core import RULES, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific invariant lint suite (see docs/analysis.md)")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids or prefixes "
                             "(e.g. TRX101,TRX3)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format",
                        help="output format")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].summary}")
        return 0
    select = ([part.strip() for part in args.select.split(",") if part.strip()]
              if args.select else None)
    try:
        findings = run_analysis(args.paths, select=select)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output_format == "json":
        print(json.dumps([finding.__dict__ for finding in findings],
                         indent=2))
    else:
        for finding in findings:
            print(finding.render())
        count = len(findings)
        print(f"{count} finding{'s' if count != 1 else ''}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
