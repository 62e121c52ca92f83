"""Command line front end: ``python -m repro.analysis check <paths>``.

Ruff-style contract for CI and humans alike:

* exit 0 — every checked file is clean;
* exit 1 — findings were emitted (one ``path:line:col: CODE message``
  per line, sorted, plus a summary count);
* exit 2 — usage error (unknown subcommand, unknown rule code,
  missing path).

``--select`` restricts the run to a comma-separated subset of rule
codes (``--select REP001,REP002`` runs only the two concurrency
rules).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import check_paths
from repro.analysis.rules import ALL_CHECKERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-native static analysis (REP001-REP007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser(
        "check", help="analyze files/directories and report findings"
    )
    check.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files and/or directories to analyze",
    )
    check.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the available rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    if args.list_rules:
        for checker in ALL_CHECKERS:
            print(f"{checker.code}  {checker.name}")
        return 0
    select = (
        [code.strip() for code in args.select.split(",") if code.strip()]
        if args.select
        else None
    )
    try:
        diagnostics = check_paths(
            [Path(p) for p in args.paths], select=select
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for diagnostic in diagnostics:
        print(diagnostic.format())
    if diagnostics:
        print(f"Found {len(diagnostics)} error{'s' if len(diagnostics) != 1 else ''}.")
        return 1
    return 0
